"""Self-check suite: closed forms against oracles, symmetries, sign laws.

Each check returns a :class:`CheckResult`; :func:`run_suite` bundles them
into a machine-readable report used by ``pendrotor verify``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels as K
from .crests import find_thresholds
from .errors import ConfigError, PendrotorError
from .oracles import brute_tau_scan
from .params import DEFAULT_TOL, SystemParams, Tolerances
from .scattering import (MINABS, DOWN, ODD, TAU_OK, UP, TauCriterion, branch,
                         lstar, melnikov_closed, melnikov_quadrature,
                         solve_tau_star, theta_plus)

TWO_PI = 2.0 * math.pi
#: tau_oracle_check's draw budget per requested sample; default runs use
#: fewer than 1.1 draws per sample
MAX_DRAWS_PER_SAMPLE = 20


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


def melnikov_check(params: SystemParams, n: int = 100, seed: int = 0,
                   tol_cmp: float = 1e-8, tol: Tolerances = DEFAULT_TOL,
                   corrupt: str | None = None) -> CheckResult:
    """Closed-form splitting potential against the trapezoid-rule quadrature.

    ``corrupt='a2-sign'`` flips the sign of the second amplitude in the
    closed form only, a constructed fault that the check must flag.
    """
    rng = np.random.default_rng(seed)
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
                   - melnikov_quadrature(I, phi, s, params, tol))
        worst = max(worst, diff)
    return CheckResult("melnikov_closed_vs_quadrature", worst <= tol_cmp,
                       worst, tol_cmp, n)


def _sample_criterion(rng) -> TauCriterion:
    i = rng.integers(0, 6)
    if i == 0:
        return DOWN
    if i == 1:
        return UP
    if i == 2:
        return MINABS
    return branch(int(i) - 3)  # branches 0, 1, 2


def tau_oracle_check(params: SystemParams, n: int = 200, seed: int = 0,
                     tol_cmp: float = 1e-6,
                     tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """Production tau* solver against the uniform fine-grid ray scan.

    Draws samples until n of them solve cleanly (margin >= 1e-3), and fails
    with the count it reached after MAX_DRAWS_PER_SAMPLE * n draws.
    """
    rng = np.random.default_rng(seed)
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
        crit = _sample_criterion(rng)
        try:
            sol = solve_tau_star(I, theta, crit, params, tol)
        except PendrotorError:
            continue
        if sol.degenerate or sol.margin < 1e-3:
            continue
        ref = brute_tau_scan(I, theta, crit, params, h=1e-5, tol=tol)
        worst = max(worst, abs(sol.tau_star - ref))
        used += 1
    if used < n:
        return CheckResult("tau_star_vs_ray_scan", False, worst, tol_cmp, used,
                           note=f"{used} of {n} samples solved cleanly in "
                                f"{MAX_DRAWS_PER_SAMPLE * n} draws")
    return CheckResult("tau_star_vs_ray_scan", worst <= tol_cmp, worst,
                       tol_cmp, used)


def lemma_symmetry_check(params: SystemParams, n_I: int = 60, n_th: int = 60,
                         tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """dL0*/dtheta(I, theta) = -dL2*/dtheta(I, 2pi - theta) on a masked grid
    over I in [-2, 2], to within 1e-8.

    At r = 1 the reflection through (pi, pi) exchanges the even ridge
    branches 0 and 2 and reverses the ray parameter, so the two down/up
    reduced functions are exact mirror images wherever both contacts are
    clean; points with a transversality margin below 1e-3
    (tangency-affected) or with failed solves are masked, and the check
    fails when every point is.  Other r raise :class:`ConfigError`.
    """
    _require_r_one(params)
    tol_cmp = 1e-8
    Is = np.linspace(-2.0, 2.0, n_I)
    ths = np.linspace(1e-3, TWO_PI - 1e-3, n_th)
    even0, even2 = branch(0), branch(2)
    worst = 0.0
    used = 0
    for I in Is:
        if min(abs(I), abs(params.r * I - 1.0)) < 0.02:
            continue
        c = abs(K.crest_coef(I, params.a1, params.a2, params.r))
        if abs(c - 1.0) < 1e-6:
            continue
        for th in ths:
            r0 = lstar(I, th, even0, params, tol)
            r2 = lstar(I, TWO_PI - th, even2, params, tol)
            if r0[0] != TAU_OK or r2[0] != TAU_OK:
                continue
            if r0[3] < 1e-3 or r2[3] < 1e-3:
                continue
            worst = max(worst, abs(r0[7] + r2[7]))
            used += 1
    return CheckResult("down_up_reflection_symmetry",
                       used > 0 and worst <= tol_cmp, worst, tol_cmp, used,
                       note="" if used else "no grid point solved cleanly")


def drift_sign_check(params: SystemParams, n_I: int = 41, n_th: int = 25,
                     tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """Odd-branch map increases I throughout theta in (pi, theta_plus(I)).

    Sampled over I in [-2, 2], farther than 0.02 from the resonant actions
    {0, 1} and the crest-regime switches, where theta_plus changes its
    closed form; a solve that fails there, theta_plus's included, fails
    the check, as does a window with no point.  The closed forms hold at
    r = 1 only; other r raise
    :class:`ConfigError`.
    """
    _require_r_one(params)
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
            thp = theta_plus(I, params, tol)
        except PendrotorError:
            bad += 1
            continue
        ths = np.linspace(math.pi + 1e-3, thp - 1e-3, n_th)
        for th in ths:
            res = lstar(I, th, ODD, params, tol)
            if res[0] != TAU_OK:
                bad += 1
                continue
            worst = min(worst, res[7])
            used += 1
            if res[7] <= 0.0:
                bad += 1
    if not used:
        return CheckResult("positive_drift_window", False, 0.0, 0.0, 0,
                           note="no window point solved cleanly")
    return CheckResult("positive_drift_window", bad == 0 and worst > 0.0,
                       worst, 0.0, used,
                       note="worst = min dL*/dtheta over the window")


def run_suite(params: SystemParams, n_melnikov: int = 60, n_tau: int = 150,
              seed: int = 0, tol_melnikov: float = 1e-8,
              tol_tau: float = 1e-6, tol: Tolerances = DEFAULT_TOL,
              corrupt: str | None = None) -> list[CheckResult]:
    """All four checks; raises :class:`ConfigError` before any of them runs
    when r != 1."""
    _require_r_one(params)
    return [
        melnikov_check(params, n=n_melnikov, seed=seed, tol_cmp=tol_melnikov,
                       tol=tol, corrupt=corrupt),
        tau_oracle_check(params, n=n_tau, seed=seed, tol_cmp=tol_tau,
                         tol=tol),
        lemma_symmetry_check(params, tol=tol),
        drift_sign_check(params, tol=tol),
    ]
