"""Spans around pendrotor's module boundaries, recorded from outside.

``install`` replaces public functions of pendrotor's modules with wrappers
that record one span per call: (id, parent id, name, start, end, CPU
seconds of the calling thread, value).
A name that another module imported (``from ._ode import integrate_inner``)
is replaced in that module too.  The ridge residual ``_kernels._hb`` runs
~10^3 times per tau* solve, so it gets a bare counter instead of a span,
installed apart (``install_counter``) because counting costs more than the
residual itself.  Spans stay in memory until the run ends;
``layer_metrics`` turns them into the per-layer figures, computing self
time from the span tree.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time

CRITERIA = {0: "down", 1: "up", 2: "minabs", 3: "branch"}
VERIFY_CHECKS = ("melnikov_check", "tau_oracle_check", "lemma_symmetry_check",
                 "drift_sign_check")
SUBCOMMANDS = ("thresholds", "portrait", "tau-field", "inner-portrait",
               "diffuse", "verify")


def _tau_star_name(args):
    return "kernels.tau_star." + CRITERIA[args[4]]


#: (module, attribute, span name or name-from-args, value-from-(args, result))
TARGETS = (
    ("pendrotor._kernels", "tau_star_kernel", _tau_star_name, None),
    ("pendrotor._kernels", "lstar_kernel", "kernels.lstar_kernel", None),
    ("pendrotor._kernels", "sweep_kernel", "kernels.sweep_kernel", None),
    ("pendrotor.scattering", "solve_tau_star", "scattering.solve_tau_star", None),
    ("pendrotor.scattering", "melnikov_quadrature", "scattering.melnikov_quadrature", None),
    ("pendrotor.crests", "find_thresholds", "crests.find_thresholds", None),
    ("pendrotor._ode", "integrate_inner", "ode.integrate_inner", lambda a, r: r[3]),
    ("pendrotor.inner", "stroboscopic_sections", "inner.stroboscopic_sections",
     lambda a, r: a[1]),
    ("pendrotor.diffusion", "build_pseudo_orbit", "diffusion.build_pseudo_orbit",
     lambda a, r: r.n_scatter),
    ("pendrotor.diffusion", "verify_pseudo_orbit", "diffusion.verify_pseudo_orbit", None),
    ("pendrotor.oracles", "brute_tau_scan", "oracles.brute_tau_scan", None),
) + tuple(("pendrotor.verify", n, "verify." + n, None) for n in VERIFY_CHECKS)

#: methods wrapped on their class: (module, class, method, span name)
METHODS = (
    ("pendrotor.cli", "Emitter", "row", "cli.emit"),
    ("pendrotor.cli", "Emitter", "close", "cli.emit"),
)

COUNTED = ("pendrotor._kernels", "_hb")


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # spans opened by sweep threads hang under the main thread's
        # innermost open span
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._evals = itertools.count()
        self.tick = self._evals.__next__

    def residual_evals(self) -> int:
        """Ridge-residual evaluations counted so far (reading advances the
        counter by one)."""
        return self.tick()

    def wrap(self, fn, name, value=None):
        """``fn`` recording a span per call; ``name`` may be a function of the
        call's arguments, ``value(args, result)`` a number kept with it."""
        spans, ids, local, main = self.spans, self._ids, self._local, self._main_stack
        clock, cpu_clock = time.perf_counter, time.thread_time

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else (main[-1] if main else 0)
            sid = next(ids)
            stack.append(sid)
            result = None
            c0 = cpu_clock()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                c1 = cpu_clock()
                stack.pop()
                spans.append((sid, parent, name if isinstance(name, str) else name(args),
                              t0, t1, c1 - c0,
                              value(args, result) if value and result is not None
                              else None))

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn):
        """``fn`` advancing the residual counter per call."""
        tick = self.tick

        def counting(*args):
            tick()
            return fn(*args)

        counting.__wrapped__ = fn
        return counting


def _replace_everywhere(mod_name, attr, make, undo):
    """Replace pendrotor's ``mod_name.attr`` by ``make(original)`` in every
    pendrotor module that holds it, under whatever name."""
    orig = getattr(sys.modules[mod_name], attr)
    new = make(orig)
    for name, mod in list(sys.modules.items()):
        if name == "pendrotor" or name.startswith("pendrotor."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    undo.append((mod, key, orig))


def _undoer(undo):
    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
    return uninstall


def install_spans(tracer: Tracer):
    """Wrap every span target; return the undo."""
    undo = []
    for mod_name, attr, name, value in TARGETS:
        _replace_everywhere(mod_name, attr,
                            lambda f, n=name, v=value: tracer.wrap(f, n, v), undo)
    for mod_name, cls_name, meth, name in METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        orig = vars(cls)[meth]
        setattr(cls, meth, tracer.wrap(orig, name))
        undo.append((cls, meth, orig))
    return _undoer(undo)


def install_counter(tracer: Tracer):
    """Count ridge-residual evaluations; return the undo."""
    undo = []
    _replace_everywhere(*COUNTED, tracer.counted, undo)
    return _undoer(undo)


# ----------------------------------------------------------------------
# per-layer figures
# ----------------------------------------------------------------------

#: every per-layer metric with its unit; "count" metrics are per round and
#: read 0 when the workload never makes the call
UNITS = {
    **{f"kernels.tau_star.{c}.us": "us" for c in CRITERIA.values()},
    "kernels.tau_star.calls": "count",
    "kernels.residual_evals_per_solve": "count",
    "kernels.lstar_kernel.s": "s",
    "kernels.sweep_kernel.s": "s",
    "scattering.solve_tau_star.us": "us",
    "scattering.melnikov_quadrature.ms": "ms",
    "crests.find_thresholds.s": "s",
    "ode.integrate_inner.s": "s",
    "ode.integrate_inner.steps": "count",
    "ode.integrate_inner.us_per_step": "us",
    "inner.stroboscopic_sections.ms_per_period": "ms",
    "diffusion.build_pseudo_orbit.s": "s",
    "diffusion.verify_pseudo_orbit.s": "s",
    "diffusion.build.solves_per_jump_leg": "count",
    "oracles.brute_tau_scan.ms": "ms",
    **{f"verify.{n}.s": "s" for n in VERIFY_CHECKS},
    **{f"cli.{n}.s": "s" for n in SUBCOMMANDS},
    "cli.emit.s": "s",
    "cli.self.s": "s",
    "trace.overhead_pct": "%",
}


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans, names):
    """Wall self time of every span named in ``names``."""
    children: dict[int, list] = {}
    for sid, parent, _name, t0, t1, _c, _v in spans:
        children.setdefault(parent, []).append((t0, t1))
    return [(t1 - t0) - _covered(t0, t1, children.get(sid, []))
            for sid, _p, name, t0, t1, _c, _v in spans if name in names]


def layer_metrics(spans, rounds: int, evals_per_round: float) -> dict:
    """Per-layer figures of ``rounds`` traced rounds; None where the spans
    hold no call that defines the figure.  ``evals_per_round`` is the
    ridge-residual count of one round.  Times are CPU seconds of the calling
    thread, which a sweep thread waiting for the GIL does not accrue, except
    ``cli.*.s``: wall time of the invocation."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def durs(name):
        return [s[5] for s in by_name.get(name, [])]

    def values(name):
        return sum(s[6] for s in by_name.get(name, []))

    def mean(name, scale):
        d = durs(name)
        return scale * statistics.fmean(d) if d else None

    def per_round(name):
        d = durs(name)
        return sum(d) / rounds if d else None

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else None

    m = {}
    n_tau = 0
    for crit in CRITERIA.values():
        name = f"kernels.tau_star.{crit}"
        m[name + ".us"] = mean(name, 1e6)
        n_tau += len(by_name.get(name, []))
    m["kernels.tau_star.calls"] = n_tau / rounds
    m["kernels.residual_evals_per_solve"] = ratio(evals_per_round * rounds, n_tau)
    m["kernels.lstar_kernel.s"] = per_round("kernels.lstar_kernel")
    m["kernels.sweep_kernel.s"] = per_round("kernels.sweep_kernel")
    m["scattering.solve_tau_star.us"] = mean("scattering.solve_tau_star", 1e6)
    m["scattering.melnikov_quadrature.ms"] = mean("scattering.melnikov_quadrature", 1e3)
    m["crests.find_thresholds.s"] = per_round("crests.find_thresholds")
    steps = values("ode.integrate_inner")
    m["ode.integrate_inner.s"] = per_round("ode.integrate_inner")
    m["ode.integrate_inner.steps"] = steps / rounds
    m["ode.integrate_inner.us_per_step"] = ratio(sum(durs("ode.integrate_inner")), steps, 1e6)
    periods = values("inner.stroboscopic_sections")
    m["inner.stroboscopic_sections.ms_per_period"] = ratio(
        sum(durs("inner.stroboscopic_sections")), periods, 1e3)
    m["diffusion.build_pseudo_orbit.s"] = per_round("diffusion.build_pseudo_orbit")
    m["diffusion.verify_pseudo_orbit.s"] = per_round("diffusion.verify_pseudo_orbit")
    builds = {s[0] for s in by_name.get("diffusion.build_pseudo_orbit", [])}
    parent_of = {s[0]: s[1] for s in spans}
    in_build = 0
    for s in by_name.get("kernels.lstar_kernel", []):
        p = s[1]
        while p and p not in builds:
            p = parent_of.get(p, 0)
        in_build += bool(p)
    m["diffusion.build.solves_per_jump_leg"] = ratio(
        in_build, values("diffusion.build_pseudo_orbit"))
    m["oracles.brute_tau_scan.ms"] = mean("oracles.brute_tau_scan", 1e3)
    for n in VERIFY_CHECKS:
        m[f"verify.{n}.s"] = per_round("verify." + n)
    for n in SUBCOMMANDS:
        walls = [s[4] - s[3] for s in by_name.get("cli." + n, [])]
        m[f"cli.{n}.s"] = statistics.fmean(walls) if walls else None
    m["cli.emit.s"] = per_round("cli.emit")
    m["cli.self.s"] = sum(self_times(spans, {"cli." + n for n in SUBCOMMANDS})) / rounds
    return m
