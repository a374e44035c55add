"""Self-check suite: closed forms against oracles, symmetries, sign laws.

Each check returns a :class:`CheckResult`; :func:`run_suite` bundles them
into a machine-readable report used by ``pendrotor verify``.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels as K
from ._fork import fork_map
from .crests import find_thresholds
from .diffusion import _canonical_frame
from .errors import ConfigError, PendrotorError
from .oracles import brute_tau_scan
from .params import SystemParams
from .scattering import (MINABS, DOWN, ODD, TAU_OK, UP, branch,
                         melnikov_closed, melnikov_quadrature, solve_tau_star,
                         sweep, theta_plus)

TWO_PI = 2.0 * math.pi
#: tau_oracle_check's draw budget per requested sample; default runs use
#: fewer than 1.1 draws per sample
MAX_DRAWS_PER_SAMPLE = 20
#: pass bounds of melnikov_check (closed form against quadrature) and of
#: tau_oracle_check (tau* against the ray scan)
MELNIKOV_TOL = 1e-8
TAU_TOL = 1e-6
#: transversality margin of a clean tau* contact: tau_oracle_check skips
#: draws below it and lemma_symmetry_check masks grid points below it
CLEAN_MARGIN = 1e-3
#: (actions, angles) of the grids of lemma_symmetry_check and of
#: drift_sign_check
SYMMETRY_GRID = (60, 60)
DRIFT_GRID = (41, 25)


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    n: int
    note: str = ""

    def __post_init__(self):
        # checks reduce numpy data; keep the report JSON-serializable
        self.passed = bool(self.passed)
        self.worst = float(self.worst)
        self.tol = float(self.tol)
        self.n = int(self.n)

    def as_dict(self) -> dict:
        return asdict(self)


def _require_r_one(params: SystemParams) -> None:
    if params.r != 1.0:
        raise ConfigError(
            f"the self-check suite's reflection and drift-window checks are "
            f"derived for r = 1, got r = {params.r}")


def melnikov_check(params: SystemParams, n: int, seed: int,
                   corrupt: str | None = None) -> CheckResult:
    """Closed-form splitting potential against the trapezoid-rule quadrature.

    Draws (I, phi, s) from Python's ``random.Random(seed)``: I uniform on
    [-3, 3], phi and s uniform on [0, 2*pi).  ``corrupt='a2-sign'`` flips
    the sign of the second amplitude in the closed form only, a constructed
    fault that the check must flag.
    """
    rng = random.Random(seed)
    worst = 0.0
    closed_params = params
    if corrupt == "a2-sign":
        from dataclasses import replace
        closed_params = replace(params, a2=-params.a2)
    elif corrupt is not None:
        raise ValueError(f"unknown fault {corrupt!r}")
    for _ in range(n):
        I = rng.uniform(-3.0, 3.0)
        phi = rng.uniform(0.0, TWO_PI)
        s = rng.uniform(0.0, TWO_PI)
        diff = abs(melnikov_closed(I, phi, s, closed_params)
                   - melnikov_quadrature(I, phi, s, params))
        worst = max(worst, diff)
    return CheckResult("melnikov_closed_vs_quadrature", worst <= MELNIKOV_TOL,
                       worst, MELNIKOV_TOL, n)


def tau_oracle_check(params: SystemParams, n: int, seed: int) -> CheckResult:
    """Production tau* solver against the uniform fine-grid ray scan.

    Draws (I, theta, criterion) from Python's ``random.Random(seed)``: I
    uniform on [-3, 3], theta uniform on [0, 2*pi), the six criteria equally
    likely.  Draws samples until n of them solve cleanly (margin >=
    CLEAN_MARGIN), and fails with the count it reached after
    MAX_DRAWS_PER_SAMPLE * n draws.
    """
    rng = random.Random(seed)
    criteria = (DOWN, UP, MINABS, branch(0), branch(1), branch(2))
    worst = 0.0
    used = 0
    for _ in range(MAX_DRAWS_PER_SAMPLE * n):
        if used == n:
            break
        I = rng.uniform(-3.0, 3.0)
        if min(abs(I), abs(params.r * I - 1.0)) < 0.05:
            continue
        c = abs(K.crest_coef(I, params.a1, params.a2, params.r))
        if abs(c - 1.0) < 1e-3:
            continue
        theta = rng.uniform(0.0, TWO_PI)
        crit = criteria[rng.randrange(6)]
        try:
            sol = solve_tau_star(I, theta, crit, params)
        except PendrotorError:
            continue
        if sol.margin < CLEAN_MARGIN:
            continue
        ref = brute_tau_scan(I, theta, crit, params)
        worst = max(worst, abs(sol.tau_star - ref))
        used += 1
    if used < n:
        return CheckResult("tau_star_vs_ray_scan", False, worst, TAU_TOL, used,
                           note=f"{used} of {n} samples solved cleanly in "
                                f"{MAX_DRAWS_PER_SAMPLE * n} draws")
    return CheckResult("tau_star_vs_ray_scan", worst <= TAU_TOL, worst,
                       TAU_TOL, used)


def lemma_symmetry_check(params: SystemParams) -> CheckResult:
    """dL0*/dtheta(I, theta) = -dL2*/dtheta(I, 2pi - theta) on a masked
    SYMMETRY_GRID over I in [-2, 2], to within 1e-8.

    At r = 1 the reflection through (pi, pi) exchanges the even ridge
    branches 0 and 2 and reverses the ray parameter, so the two down/up
    reduced functions are exact mirror images wherever both contacts are
    clean; points with a transversality margin below CLEAN_MARGIN
    (tangency-affected) or with failed solves are masked, and the check
    fails when every point is.  The branch-0 and branch-2 sweeps run side
    by side on two usable cores (:func:`fork_map`).  Other r raise
    :class:`ConfigError`, before any sweep.
    """
    _require_r_one(params)
    n_I, n_th = SYMMETRY_GRID
    tol_cmp = 1e-8
    Is = np.array([I for I in np.linspace(-2.0, 2.0, n_I)
                   if min(abs(I), abs(params.r * I - 1.0)) >= 0.02
                   and abs(abs(K.crest_coef(I, params.a1, params.a2,
                                            params.r)) - 1.0) >= 1e-6],
                  dtype=float)
    ths = np.linspace(1e-3, TWO_PI - 1e-3, n_th)

    def solve(job):
        angles, crit = job
        st, _, _, marg, _, dth, _ = sweep(Is, angles, crit, params)
        return st, marg, dth

    # the two sweeps are independent: with two usable cores the second
    # runs in a forked child
    (st0, m0, d0), (st2, m2, d2) = fork_map(
        solve, [(ths, branch(0)), (TWO_PI - ths, branch(2))], "sweep")
    clean = ((st0 == TAU_OK) & (st2 == TAU_OK) & (m0 >= CLEAN_MARGIN)
             & (m2 >= CLEAN_MARGIN))
    gaps = np.abs(d0 + d2)[clean]
    worst = gaps.max(initial=0.0)
    used = gaps.size
    return CheckResult("down_up_reflection_symmetry",
                       used > 0 and worst <= tol_cmp, worst, tol_cmp, used,
                       note="" if used else "no grid point solved cleanly")


def drift_sign_check(params: SystemParams) -> CheckResult:
    """Odd-branch map increases I throughout theta in (pi, theta_plus(I)).

    Sampled on DRIFT_GRID over I in [-2, 2], farther than 0.02 from the
    resonant actions {0, 1} and the crest-regime switches, where
    theta_plus changes its closed form; a solve that fails there,
    theta_plus's included, fails the check, as does a window with no
    point.  Negative amplitudes are checked in the canonical frame
    (a1, a2 > 0) of the drift construction, whose conjugating angle shift
    carries the window.  The closed forms hold at r = 1 only; other r
    raise :class:`ConfigError`.
    """
    _require_r_one(params)
    params = _canonical_frame(params)[0]
    n_I, n_th = DRIFT_GRID
    report = find_thresholds(params)
    switches = list(report.alpha_thresholds) + [0.0, 1.0]
    Is = np.linspace(-2.0, 2.0, n_I)
    worst = math.inf
    used = 0
    bad = 0
    for I in Is:
        if any(abs(I - s) < 0.02 for s in switches):
            continue
        try:
            thp = theta_plus(I, params)
        except PendrotorError:
            bad += 1
            continue
        ths = np.linspace(math.pi + 1e-3, thp - 1e-3, n_th)
        st, _, _, _, _, dth, _ = sweep(np.array([I]), ths, ODD, params)
        ok = dth[st == TAU_OK]
        bad += int((st != TAU_OK).sum() + (ok <= 0.0).sum())
        worst = ok.min(initial=worst)
        used += ok.size
    if not used:
        return CheckResult("positive_drift_window", False, 0.0, 0.0, 0,
                           note="no window point solved cleanly")
    return CheckResult("positive_drift_window", bad == 0 and worst > 0.0,
                       worst, 0.0, used,
                       note="worst = min dL*/dtheta over the window")


def run_suite(params: SystemParams, n_melnikov: int, n_tau: int, seed: int,
              corrupt: str | None = None) -> list[CheckResult]:
    """All four checks; raises :class:`ConfigError` before any of them runs
    when r != 1."""
    _require_r_one(params)
    return [
        melnikov_check(params, n=n_melnikov, seed=seed, corrupt=corrupt),
        tau_oracle_check(params, n=n_tau, seed=seed),
        lemma_symmetry_check(params),
        drift_sign_check(params),
    ]
