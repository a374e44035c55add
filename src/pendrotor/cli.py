"""Command-line front end.

Subcommands: thresholds, crests, portrait, tau-field, inner-portrait,
diffuse, verify.  Outputs are CSV (commented key=value header block) or
JSON-lines (first record carries a schema_version field).  Floats are
written with 17 significant digits and rows in a fixed order, so identical
configurations produce byte-identical files.

Exit codes: 0 ok, 2 config error, 3 solver error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

import numpy as np

from .crests import classify, crest_phi, crest_residual, crest_sigma, find_thresholds
from .diffusion import ScatterLeg, build_pseudo_orbit, verify_pseudo_orbit
from .errors import ConfigError, OutOfDomain, PendrotorError, StepFailure
from .inner import InnerState, orbit_sections, region_of, torus_value
from .model import amplitude_A1, amplitude_A2
from .params import SystemParams
from . import scattering
from .scattering import ATLAS, TauCriterion, sweep
from .verify import run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

TWO_PI = 2.0 * math.pi


#: |dL*/dtheta| up to this multiple of |A1(I)| + |A2(I)| is rounding noise
#: about a true zero: 64 ulps, twice the largest such noise on 40 x 40 sweeps
#: (true nonzero values there start at 1e-3 of that scale)
DTH_ZERO_RTOL = 64.0 * 2.0 ** -52


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


class Emitter:
    """Deterministic CSV / JSON-lines writer with a self-describing header."""

    def __init__(self, path: str | None, fmt: str, kind: str,
                 header: dict, columns: list[str]):
        self.fmt = fmt
        self.kind = kind
        self.header = header
        self.columns = columns
        self._fh = open(path, "w") if path else sys.stdout
        self._owned = path is not None
        if fmt == "csv":
            for key in sorted(header):
                self._fh.write(f"# {key} = {_fmt(header[key])}\n")
            self._fh.write(",".join(columns) + "\n")
        else:
            first = {"schema_version": 1, "kind": kind}
            first.update({k: header[k] for k in sorted(header)})
            self._fh.write(json.dumps(first) + "\n")

    def row(self, values: list):
        if self.fmt == "csv":
            self._fh.write(",".join(_fmt(v) for v in values) + "\n")
        else:
            self._fh.write(json.dumps(
                {c: v for c, v in zip(self.columns, values)}) + "\n")

    def close(self):
        if self._owned:
            self._fh.close()


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors, so that
    :func:`main` returns 2 with one kind of message for every bad argv."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


class _StoreGiven(argparse.Action):
    """Store the value and add the flag's dest to ``namespace.given``, so a
    command can tell a flag given on the command line or in --config from
    one left at its default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.dest}


def _finite(text: str) -> float:
    """Argparse type of an action flag: a finite float."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return val


def _at_least(least: int, text: str) -> int:
    """Argparse type of a count flag, bound by ``partial``: int >= least."""
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if val < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {val}")
    return val


def _flag_groups() -> tuple[argparse.ArgumentParser, ...]:
    """Parent parsers of the shared flags: parameters, config and output;
    format; action window; grid; tau* sweep."""
    base, fmt, window, grid, sweep = (argparse.ArgumentParser(add_help=False)
                                      for _ in range(5))
    for name in ("a1", "a2", "mu", "r"):  # --r defaults to 1
        base.add_argument(f"--{name}", type=float)
    for name in ("k1", "k2", "l1", "l2"):
        base.add_argument(f"--{name}", type=int)
    base.add_argument("--eps", type=float, default=0.0)
    base.add_argument("--out")
    base.add_argument("--config",
                      help="KEY=VAL file supplying flag defaults (flags win)")
    fmt.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    window.add_argument("--I-min", type=_finite, default=-2.0,
                        action=_StoreGiven)
    window.add_argument("--I-max", type=_finite, default=2.0,
                        action=_StoreGiven)
    grid.add_argument("--grid-n", type=partial(_at_least, 2), default=100,
                      action=_StoreGiven)
    sweep.add_argument("--theta-n", type=partial(_at_least, 2),
                       help="theta resolution (defaults to --grid-n)")
    sweep.add_argument("--criterion", default="branch=1",
                       help="down | up | minabs | branch=k")
    sweep.add_argument("--threads", type=int, default=0,
                       help="accepted for compatibility; has no effect "
                            "(sweeps run serially)")
    return base, fmt, window, grid, sweep


def _params_from(args) -> SystemParams:
    """The run's system; a flag that another given flag overrides is
    refused, not dropped."""
    if any(getattr(args, n) is not None for n in ("k1", "k2", "l1", "l2")):
        missing = [n for n in ("k1", "k2", "l1", "l2", "a1", "a2")
                   if getattr(args, n) is None]
        if missing:
            raise ConfigError(f"harmonic form needs --{', --'.join(missing)}")
        clash = [n for n in ("mu", "r") if getattr(args, n) is not None]
        if clash:
            raise ConfigError(f"the harmonic form sets mu and r; drop "
                              f"--{', --'.join(clash)}")
        return SystemParams.from_harmonics(args.a1, args.a2, args.k1,
                                           args.k2, args.l1, args.l2,
                                           args.eps)
    if args.mu is not None and args.a1 is not None:
        raise ConfigError("give --a1 or --mu, not both (--mu sets a1 = mu*a2)")
    a1, a2 = args.a1, args.a2
    if args.mu is not None:
        a2 = 1.0 if a2 is None else a2
        a1 = args.mu * a2
    if a1 is None or a2 is None:
        raise ConfigError("give --a1/--a2, or --mu (with optional --a2)")
    return SystemParams(a1=a1, a2=a2, eps=args.eps,
                        r=1.0 if args.r is None else args.r)


def _setup(args) -> SystemParams:
    """Check what each flag's own type cannot: the window and the
    parameters; return the run's parameters.

    Each output path is opened for appending and closed again, so that one
    that cannot be written stops the run before any work (and no existing
    file is truncated before its command writes it).
    """
    if hasattr(args, "I_min") and args.I_min >= args.I_max:
        raise ConfigError("--I-min must be below --I-max")
    params = _params_from(args)
    for flag in ("out", "report"):
        path = getattr(args, flag, None)
        if path is not None:
            try:
                open(path, "a").close()
            except OSError as exc:
                raise ConfigError(f"cannot write --{flag} {path!r}: "
                                  f"{exc.strerror or exc}")
    return params


def _header(params: SystemParams, extra: dict | None = None) -> dict:
    h = {"a1": params.a1, "a2": params.a2, "mu": params.mu, "r": params.r,
         "eps": params.eps}
    if extra:
        h.update(extra)
    return h


def _config_args(path: str) -> list[str]:
    """The KEY=VAL pairs of a --config file as argv entries."""
    injected: list[str] = []
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    with fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            injected.extend([f"--{key.strip().replace('_', '-')}",
                             val.strip()])
    return injected


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_thresholds(args) -> int:
    params = _setup(args)
    report = find_thresholds(params, (args.I_min, args.I_max))
    em = Emitter(args.out, args.format, "thresholds",
                 _header(params, {"I_min": args.I_min, "I_max": args.I_max}),
                 ["record", "curve_or_kind", "I_lo", "I_hi", "value",
                  "tangency", "label"])
    labels_inv = {v: k for k, v in report.labels.items()}
    for v in report.alpha_thresholds:
        em.row(["threshold", "alpha", "", "", v, "",
                labels_inv.get(v, "")])
    for v in report.beta_thresholds:
        em.row(["threshold", "beta", "", "", v, "", labels_inv.get(v, "")])
    for iv in report.intervals:
        em.row(["interval", iv.kind.value, iv.lo, iv.hi, "",
                int(iv.tangency), ""])
    for name, asym in report.missing:
        em.row(["missing", name, "", "", asym if asym is not None else "",
                "", "asymptote"])
    em.close()
    return EXIT_OK


def cmd_crests(args) -> int:
    if args.I_list:
        # --I gives the actions, and with --angle-n the angle grid too
        overridden = {"I_min", "I_max"}
        if args.angle_n is not None:
            overridden.add("grid_n")
        unread = sorted(overridden & getattr(args, "given", frozenset()))
        if unread:
            flags = ", ".join("--" + f.replace("_", "-") for f in unread)
            raise ConfigError(f"crests with --I (and --angle-n) does not "
                              f"read {flags}; drop them")
    params = _setup(args)
    n = args.angle_n or args.grid_n
    I_values = args.I_list or list(np.linspace(args.I_min, args.I_max,
                                               args.grid_n))
    em = Emitter(args.out, args.format, "crests", _header(params),
                 ["I", "branch", "kind", "param_angle", "phi", "sigma",
                  "residual"])
    grid = np.linspace(0.0, TWO_PI, n, endpoint=False)
    for I in I_values:
        kind = classify(I, params)
        for k in (0, 1):
            for ang in grid:
                try:
                    if kind.value == "vertical":
                        phi = crest_phi(I, ang, k, params)
                        sig = float(ang)
                    else:
                        phi = float(ang)
                        sig = crest_sigma(I, ang, k, params)
                except OutOfDomain:
                    continue
                em.row([I, k, kind.value, float(ang), phi, sig,
                        crest_residual(I, phi, sig, params)])
    em.close()
    return EXIT_OK


def _grid_sweep(args, params: SystemParams):
    """The (I, theta) grid of the flags and :func:`sweep` over it."""
    if params.a1 == 0.0 and params.a2 == 0.0:
        raise ConfigError("a1 = a2 = 0 makes the splitting potential zero; "
                          "it has no ridges to sweep")
    I_vals = np.linspace(args.I_min, args.I_max, args.grid_n)
    th_vals = np.linspace(0.0, TWO_PI, args.theta_n or args.grid_n,
                          endpoint=False)
    crit = TauCriterion.parse(args.criterion)
    return I_vals, th_vals, sweep(I_vals, th_vals, crit, params)


def cmd_portrait(args) -> int:
    params = _setup(args)
    I_vals, th_vals, res = _grid_sweep(args, params)
    status, tau, band, margin, lstar, dth, dI = res
    em = Emitter(args.out, args.format, "portrait",
                 _header(params, {"criterion": args.criterion}),
                 ["I", "theta", "lstar", "dlstar_dtheta", "idot_sign",
                  "region", "degenerate", "status"])
    for i, I in enumerate(I_vals):
        zero = DTH_ZERO_RTOL * (abs(amplitude_A1(I, params))
                                + abs(amplitude_A2(I, params)))
        for j, th in enumerate(th_vals):
            region, _ = ATLAS.region_of(th)
            g = 0.0 if abs(dth[i, j]) <= zero else dth[i, j]
            em.row([float(I), float(th), lstar[i, j], g,
                    int(np.sign(g)) if status[i, j] == 0 else 0,
                    region,
                    int(margin[i, j] < scattering.TOL_DEGEN)
                    if status[i, j] == 0 else 1,
                    int(status[i, j])])
    em.close()
    return EXIT_OK


def cmd_tau_field(args) -> int:
    params = _setup(args)
    I_vals, th_vals, res = _grid_sweep(args, params)
    status, tau, band, margin, lstar, dth, dI = res
    em = Emitter(args.out, args.format, "tau_field",
                 _header(params, {"criterion": args.criterion}),
                 ["I", "theta", "tau_star", "branch", "margin", "degenerate",
                  "status"])
    for i, I in enumerate(I_vals):
        for j, th in enumerate(th_vals):
            em.row([float(I), float(th), tau[i, j], int(band[i, j]),
                    margin[i, j],
                    int(margin[i, j] < scattering.TOL_DEGEN)
                    if status[i, j] == 0 else 1,
                    int(status[i, j])])
    em.close()
    return EXIT_OK


def cmd_inner_portrait(args) -> int:
    params = _setup(args)
    starts = [InnerState(I=float(I0), phi=0.0, s=0.0)
              for I0 in np.linspace(args.I_min, args.I_max, args.grid_n)]
    orbits = orbit_sections(starts, args.periods, params)
    em = Emitter(args.out, args.format, "inner_portrait",
                 _header(params, {"periods": args.periods}),
                 ["orbit", "n", "t", "I", "phi_mod", "region", "torus_value"])
    for i, rows in enumerate(orbits):
        if isinstance(rows, StepFailure):
            # the error, held in ``orbits``, keeps this frame and the file
            # unflushed until a garbage collection: close it first
            em.close()
            raise rows
        for n in range(rows.shape[0]):
            t, I, phi = rows[n]
            st = InnerState(I=I, phi=phi, s=t)
            em.row([i, n + 1, t, I, scattering._mod_two_pi(phi),
                    region_of(I, params).value, torus_value(st, params)])
    em.close()
    return EXIT_OK


def cmd_diffuse(args) -> int:
    params = _setup(args)
    orbit = build_pseudo_orbit(args.I_start, args.I_end, params)
    report = verify_pseudo_orbit(orbit)
    em = Emitter(args.out, args.format, "pseudo_orbit",
                 _header(params, {
                     "I_start": args.I_start, "I_end": args.I_end,
                     "frame_phi_shift": orbit.frame_phi_shift,
                     "frame_s_shift": orbit.frame_s_shift}),
                 ["leg", "type", "I_from", "angle_from", "I_to", "angle_to",
                  "level", "residual", "duration"])
    for i, leg in enumerate(orbit.legs):
        if isinstance(leg, ScatterLeg):
            em.row([i, "scatter", leg.src.I, leg.src.theta, leg.dst.I,
                    leg.dst.theta, leg.level, leg.residual, 0.0])
        else:
            em.row([i, "inner", leg.src.I, leg.src.phi, leg.dst.I,
                    leg.dst.phi, "", "", leg.duration])
    em.close()
    rep = {
        "ok": report.ok,
        "n_scatter": report.n_scatter,
        "n_inner": report.n_inner,
        "final_I": orbit.final_I,
        "max_level_residual": report.max_level_residual,
        "level_budget": report.level_budget,
        "max_reintegration_residual": report.max_reintegration_residual,
        "reintegration_budget": report.reintegration_budget,
        "failures": report.failures[:20],
    }
    out = json.dumps(rep, indent=2, default=_fmt)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_verify(args) -> int:
    params = _setup(args)
    results = run_suite(params, n_melnikov=args.n_melnikov, n_tau=args.n_tau,
                        seed=args.seed, corrupt=args.inject_fault)
    payload = {"params": {"a1": params.a1, "a2": params.a2, "r": params.r,
                          "eps": params.eps},
               "checks": [c.as_dict() for c in results],
               "ok": all(c.passed for c in results)}
    out = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return EXIT_OK if payload["ok"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pendrotor",
        description="Splitting maps, ridge geometry and action drift for a "
                    "two-harmonic forced pendulum-rotor system")
    sub = ap.add_subparsers(dest="command", required=True)
    base, fmt, window, grid, sweep = _flag_groups()

    def add(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    add("thresholds", cmd_thresholds, "regime/tangency threshold actions",
        base, fmt, window)
    p = add("crests", cmd_crests, "sampled ridge-branch polylines",
            base, fmt, window, grid)
    p.add_argument("--angle-n", type=partial(_at_least, 2),
                   help="phi/sigma sampling resolution (defaults to --grid-n)")
    p.add_argument("--I", dest="I_list", type=_finite, action="append",
                   default=[], help="specific action value (repeatable)")
    add("portrait", cmd_portrait, "grid of L* and drift signs",
        base, fmt, window, grid, sweep)
    add("tau-field", cmd_tau_field, "grid of contact times tau*",
        base, fmt, window, grid, sweep)
    p = add("inner-portrait", cmd_inner_portrait,
            "stroboscopic sections of the inner flow", base, fmt, window, grid)
    p.add_argument("--periods", type=partial(_at_least, 2), default=200)
    p = add("diffuse", cmd_diffuse, "build and verify a drift pseudo-orbit",
            base, fmt)
    p.add_argument("--I-start", type=_finite, default=-1.0)
    p.add_argument("--I-end", type=_finite, default=1.0)
    p.add_argument("--report",
                   help="write the verification report to this path")
    p = add("verify", cmd_verify, "oracle self-check suite", base)
    p.add_argument("--n-melnikov", type=partial(_at_least, 1), default=60)
    p.add_argument("--n-tau", type=partial(_at_least, 1), default=150)
    p.add_argument("--seed", type=partial(_at_least, 0), default=0)
    p.add_argument("--inject-fault", choices=("a2-sign",),
                   help="corrupt a closed form to exercise the checks")
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # file values go right after the subcommand, so real flags win
            args = parser.parse_args(argv[:1] + _config_args(args.config)
                                     + argv[1:])
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PendrotorError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
