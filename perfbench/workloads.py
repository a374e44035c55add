"""The benchmark's workloads: one round of pendrotor invocations each.

A round is a fixed list of subcommand invocations, run in-process through
``pendrotor.cli.main``; ``{out}`` in an argument stands for the round's
output directory and ``{seed}`` for the run's seed.  The seed reaches the
program only as ``verify --seed``; it also picks the rows, legs and orbits
that the checks recompute.  There are two workloads, so that each run can
be long: ``scatter-drift-verify`` holds every invocation that solves tau*,
and ``inner-sections`` none (see README.md for the make-up and the reasons).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks


def _no_check(out: str, seed: int) -> list[str]:
    return []


@dataclass(frozen=True)
class Op:
    """One subcommand invocation, which must exit 0, and the check of what
    it wrote: (output dir, seed) -> failure messages."""

    argv: tuple[str, ...]
    check: Callable[[str, int], list[str]] = _no_check

    def args(self, out: str, seed: int = 0) -> list[str]:
        return [a.format(out=out, seed=seed) for a in self.argv]

    def outputs(self) -> list[str]:
        """Names of the files the invocation writes into ``{out}``."""
        return [v.split("/", 1)[1] for k, v in zip(self.argv, self.argv[1:])
                if k in ("--out", "--report")]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    #: tiny invocations that finish the set-up of a fresh interpreter
    warmup: tuple[Op, ...]


def _op(text: str, check=_no_check) -> Op:
    return Op(tuple(text.split()), check)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


# ----------------------------------------------------------------------
# scatter-drift-verify: the scattering-map atlas, the drift orbits and the
# oracle self-check, one after the other in each round
# ----------------------------------------------------------------------

ATLAS_GRID = 40

ATLAS_OPS = (
    _op("thresholds --mu 0.5 --I-min -5 --I-max 5 --out {out}/thresholds.csv",
        lambda out, seed: checks.check_thresholds(
            os.path.join(out, "thresholds.csv"), 0.5, -5.0, 5.0)),
    _op(f"portrait --mu 0.6 --criterion minabs --grid-n {ATLAS_GRID} --threads 1 "
        "--out {out}/portrait.csv",
        lambda out, seed: checks.check_portrait(
            os.path.join(out, "portrait.csv"), _rng(seed, 1))),
    _op(f"tau-field --mu 0.75 --criterion down --grid-n {ATLAS_GRID} --threads 2 "
        "--format jsonl --out {out}/tau.jsonl",
        lambda out, seed: checks.check_tau_field(
            os.path.join(out, "tau.jsonl"), _rng(seed, 2))),
)


def _diffuse(stem, eps, lo, hi, salt):
    def check(out, seed):
        orbit, report = (os.path.join(out, stem + ext) for ext in (".csv", ".json"))
        return checks.check_orbit(orbit, report, float(lo), float(hi), _rng(seed, salt))

    return _op(f"diffuse --a1 0.75 --a2 1 --eps {eps} --I-start {lo} --I-end {hi} "
               f"--out {{out}}/{stem}.csv --report {{out}}/{stem}.json", check)


def _check_conjugate(out, seed):
    fails = checks.check_conjugate_orbit(os.path.join(out, "conj.csv"),
                                         os.path.join(out, "c09.csv"))
    with open(os.path.join(out, "conj.json")) as a, open(os.path.join(out, "c09.json")) as b:
        if a.read() != b.read():
            fails.append("report differs from the positive-amplitude run")
    return fails


DRIFT_OPS = (
    _diffuse("c09", "0.01", "-1", "1", 10),
    _diffuse("jumps", "0.002", "-1", "1", 11),
    _diffuse("arcs", "0.01", "-1.4", "1.9", 12),
    _op("diffuse --a1 -0.75 --a2 1 --eps 0.01 --I-start -1 --I-end 1 "
        "--out {out}/conj.csv --report {out}/conj.json", _check_conjugate),
)


def _check_verify(out, seed):
    """The report passes; mpmath agrees with the closed form; and the suite
    flags a constructed fault: a small ``verify --inject-fault a2-sign``
    must exit 4 with only the Melnikov check failed."""
    from pendrotor import SystemParams, cli
    from pendrotor.scattering import melnikov_closed

    params = SystemParams(a1=0.75, a2=1.0, eps=0.01)
    fails = (checks.check_verify_report(os.path.join(out, "verify.json"))
             + checks.check_melnikov_mpmath(melnikov_closed, params, _rng(seed, 30)))
    fault = os.path.join(out, "fault.json")
    rc = cli.main(f"verify --mu 0.75 --eps 0.01 --seed {seed} --n-melnikov 4 --n-tau 4 "
                  f"--inject-fault a2-sign --out {fault}".split())
    if rc != 4:
        fails.append(f"verify --inject-fault a2-sign exited {rc}, expected 4")
    return fails + checks.check_verify_report(
        fault, expect_failed=("melnikov_closed_vs_quadrature",))


SCATTER_DRIFT_VERIFY = Workload(
    name="scatter-drift-verify",
    ops=ATLAS_OPS + DRIFT_OPS + (
        _op("verify --mu 0.75 --eps 0.01 --seed {seed} --out {out}/verify.json",
            _check_verify),),
    # verify has no tiny form (its grid checks are fixed-size); the 2x2
    # tau-field --criterion up runs the tau* path it uses
    warmup=(
        _op("thresholds --mu 0.5 --I-min -5 --I-max 5 --out {out}/thresholds.csv"),
        _op("portrait --mu 0.6 --criterion minabs --grid-n 2 --threads 1 "
            "--out {out}/portrait.csv"),
        _op("tau-field --mu 0.75 --criterion down --grid-n 2 --threads 2 "
            "--format jsonl --out {out}/tau.jsonl"),
        _op("tau-field --mu 0.75 --criterion up --grid-n 2 --threads 1 "
            "--out {out}/tau.csv"),
        _op("diffuse --a1 0.75 --a2 1 --eps 0.01 --I-start 1.5 --I-end 1.52 "
            "--out {out}/orbit.csv --report {out}/report.json"),
    ),
)


# ----------------------------------------------------------------------
# inner-sections
# ----------------------------------------------------------------------

INNER_GRID = 24
INNER_PERIODS = 300

INNER_SECTIONS = Workload(
    name="inner-sections",
    ops=(_op(f"inner-portrait --mu 0.75 --eps 0.01 --periods {INNER_PERIODS} "
             f"--grid-n {INNER_GRID} --out {{out}}/inner.csv",
             lambda out, seed: checks.check_inner(
                 os.path.join(out, "inner.csv"), -2.0, 2.0, INNER_GRID,
                 INNER_PERIODS, _rng(seed, 20))),),
    warmup=(_op("inner-portrait --mu 0.75 --eps 0.01 --periods 2 --grid-n 2 "
                "--out {out}/inner.csv"),),
)


WORKLOADS = {w.name: w for w in (SCATTER_DRIFT_VERIFY, INNER_SECTIONS)}


#: Tiny invocations of every subcommand.  A traced run makes them once when
#: its workload never enters some wrapped function, and takes that
#: function's per-layer figures from them (see README.md).
PROBE = tuple(_op(text) for text in (
    "thresholds --mu 0.5 --I-min -5 --I-max 5 --out {out}/thresholds.csv",
    "portrait --mu 0.75 --criterion up --grid-n 3 --threads 1 --out {out}/p_up.csv",
    "portrait --mu 0.75 --criterion minabs --grid-n 3 --threads 1 --out {out}/p_min.csv",
    "tau-field --mu 0.75 --criterion down --grid-n 3 --threads 1 --out {out}/t_down.csv",
    "tau-field --mu 0.75 --criterion branch=1 --grid-n 3 --threads 1 --out {out}/t_b1.csv",
    "inner-portrait --mu 0.75 --eps 0.01 --periods 2 --grid-n 2 --out {out}/inner.csv",
    "diffuse --a1 0.75 --a2 1 --eps 0.01 --I-start 1.5 --I-end 1.52 "
    "--out {out}/orbit.csv --report {out}/report.json",
    "verify --mu 0.75 --eps 0.01 --n-melnikov 2 --n-tau 2 --out {out}/verify.json",
))
