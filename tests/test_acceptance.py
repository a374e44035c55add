"""Acceptance suite: the project's numerical exit criteria.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Criterion 3's asymptotic-limit tolerance is mathematically
unattainable and is kept as an honest failing test; see its docstring and
README "Acceptance suite" notes.
"""

import math
import time

import numpy as np
import pytest

import pendrotor as pr
from pendrotor import _kernels as K
from pendrotor.oracles import brute_tau_scan

TWO_PI = 2.0 * math.pi
E_PI_HALF = math.exp(math.pi / 2.0)


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def p075():
    return pr.SystemParams(a1=0.75, a2=1.0, eps=0.01)


def test_c01_melnikov_oracle_equivalence():
    """Closed-form splitting potential vs adaptive quadrature.

    20x20x20 grid of (I, phi, s) in [-3,3] x [0,2pi)^2 at unit amplitudes:
    max abs difference <= 1e-8, within 60 s.
    """
    p = pr.SystemParams(a1=1.0, a2=1.0)
    t0 = time.time()
    Is = np.linspace(-3.0, 3.0, 20)
    phis = np.linspace(0.0, TWO_PI, 20, endpoint=False)
    ss = np.linspace(0.0, TWO_PI, 20, endpoint=False)
    worst = 0.0
    for I in Is:
        for phi in phis:
            for s in ss:
                diff = abs(pr.melnikov_closed(I, phi, s, p)
                           - pr.melnikov_quadrature(I, phi, s, p))
                if diff > worst:
                    worst = diff
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed <= 60.0
    _report("01 melnikov-oracle", ok,
            f"max_err={worst:.3e}, elapsed={elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed <= 60.0


def test_c02_published_thresholds_mu_half():
    """alpha crossings {-1.807, 0.701, 1.367} and beta crossings
    {-2.942, 0.595, 1.85} at mu = 0.5, each within +/-0.005."""
    p = pr.SystemParams(a1=0.5, a2=1.0)
    rep = pr.find_thresholds(p)
    a_ref = [-1.807, 0.701, 1.367]
    b_ref = [-2.942, 0.595, 1.85]
    a_err = max(abs(v - r) for v, r in zip(rep.alpha_thresholds, a_ref))
    b_err = max(abs(v - r) for v, r in zip(rep.beta_thresholds, b_ref))
    ok = len(rep.alpha_thresholds) == 3 and len(rep.beta_thresholds) == 3 \
        and a_err <= 5e-3 and b_err <= 5e-3
    _report("02 thresholds-mu-0.5", ok,
            f"alpha_err={a_err:.2e}, beta_err={b_err:.2e}")
    assert ok


def test_c03a_alpha_limits_tight_tolerance():
    """alpha(-+10^3) within 1e-6 of exp(+-pi/2).

    KNOWN UNATTAINABLE: alpha carries the prefactor (I/(I-1))^2, so its
    limits are approached only at rate O(1/I); the exact values at
    |I| = 10^3 are off by 9.6e-3 resp. 4.2e-4 (verified against 60-digit
    arithmetic).  Meeting 1e-6 would require |I| >= ~1e7, or silently
    clamping alpha to its limit, which would misreport the function by ~1%
    there.  The criterion is kept as stated and fails honestly.
    """
    err_neg = abs(pr.alpha(-1e3) - E_PI_HALF)
    err_pos = abs(pr.alpha(1e3) - 1.0 / E_PI_HALF)
    ok = err_neg <= 1e-6 and err_pos <= 1e-6
    _report("03a alpha-limits", ok,
            f"err(-1e3)={err_neg:.3e}, err(+1e3)={err_pos:.3e}, "
            f"bound=1e-6 unattainable: approach rate is O(1/I)")
    assert err_neg <= 1e-6, (
        "exact alpha(-1e3) = (1000/1001)^2 * e^{pi/2}; the 1e-6 bound "
        "cannot be met by a faithful evaluation (gap 9.6e-3)")
    assert err_pos <= 1e-6


def test_c03b_alpha_zero_exact():
    """alpha(0) = 0 exactly after removable-singularity handling."""
    ok = pr.alpha(0.0) == 0.0
    _report("03b alpha-at-zero", ok, f"alpha(0)={pr.alpha(0.0)!r}")
    assert ok


def test_c04_down_up_reflection_symmetry(p075):
    """max over a 200x200 (I, theta) grid (tangency-masked) of
    |dL0*/dtheta(I,theta) + dL2*/dtheta(I, 2pi-theta)| <= 1e-8."""
    Is = np.linspace(-2.0, 2.0, 200)
    ths = np.linspace(1e-4, TWO_PI - 1e-4, 200)
    worst = 0.0
    used = 0
    total = 0
    for I in Is:
        if min(abs(I), abs(I - 1.0)) < 0.02:
            continue
        c = abs(K.crest_coef(I, p075.a1, p075.a2, p075.r))
        if abs(c - 1.0) < 1e-6:
            continue
        for th in ths:
            total += 1
            r0 = K.lstar_kernel(I, th, p075.r, p075.a1, p075.a2,
                                K.CRIT_BRANCH, 0)
            r2 = K.lstar_kernel(I, TWO_PI - th, p075.r, p075.a1, p075.a2,
                                K.CRIT_BRANCH, 2)
            if r0[0] != K.TAU_OK or r2[0] != K.TAU_OK:
                continue
            if min(r0[3], r2[3]) < 1e-3:  # tangency-affected contacts
                continue
            diff = abs(r0[7] + r2[7])
            if diff > worst:
                worst = diff
            used += 1
    ok = worst <= 1e-8 and used > 0.9 * total
    _report("04 reflection-symmetry", ok,
            f"max={worst:.3e} over {used}/{total} unmasked points")
    assert worst <= 1e-8
    assert used > 0.9 * total


def test_c05_positive_drift_window_and_theta_plus(p075):
    """On 81 actions in [-2,2] (excluding 0.02-bands around I in {0,1} and
    the crest-regime switches), dL*/dtheta > 0 at 50 angles spanning
    (pi+1e-3, theta_plus(I)-1e-3); theta_plus matches its closed forms."""
    rep = pr.find_thresholds(p075)
    switches = list(rep.alpha_thresholds) + [0.0, 1.0]

    def formula(I, horizontal):
        if horizontal:
            if I <= 0.0 or I >= 1.5:
                return 1.5 * math.pi
            return (2.0 - I) * math.pi if I < 1.0 else math.pi * I
        if I <= -0.5 or I > 1.0:
            return 1.5 * math.pi
        return (1.0 - I) * math.pi if I < 0.0 else (1.0 + I) * math.pi

    checked = 0
    failures = 0
    for I in np.linspace(-2.0, 2.0, 81):
        if any(abs(I - s) < 0.02 for s in switches):
            continue
        kind = pr.classify(I, p075)
        thp = pr.theta_plus(I, p075)
        assert thp == formula(I, kind is pr.CrestKind.HORIZONTAL)
        for th in np.linspace(math.pi + 1e-3, thp - 1e-3, 50):
            res = K.lstar_kernel(I, th, p075.r, p075.a1, p075.a2,
                                 K.CRIT_BRANCH, 1)
            checked += 1
            if res[0] != K.TAU_OK or not res[7] > 0.0:
                failures += 1
    ok = failures == 0 and checked > 3000
    _report("05 drift-window-sign", ok,
            f"{checked - failures}/{checked} positive")
    assert ok


def test_c06_level_following_second_order(p075):
    """median |L* o S - L*| scales like eps^2: log-log slope within
    2 +/- 0.2 for eps in {1e-2, 1e-3, 1e-4}."""
    rng = np.random.default_rng(42)
    pts = []
    while len(pts) < 120:
        I = rng.uniform(-2.0, 2.0)
        th = rng.uniform(0.2, TWO_PI - 0.2)
        if min(abs(I), abs(I - 1.0)) < 0.05:
            continue
        c = abs(K.crest_coef(I, p075.a1, p075.a2, p075.r))
        if abs(c - 1.0) < 1e-2:
            continue
        try:
            sol = pr.solve_tau_star(I, th, pr.branch(1), p075)
        except pr.PendrotorError:
            continue
        if sol.margin < 1e-2:
            continue
        pts.append((I, th))
    epss = [1e-2, 1e-3, 1e-4]
    medians = []
    for eps in epss:
        p = p075.with_eps(eps)
        drifts = []
        for I, th in pts:
            st = pr.ScatteringState(I, th)
            try:
                new = pr.scattering_step(st, pr.branch(1), p)
                d = abs(pr.reduced_poincare(new.I, new.theta, pr.branch(1), p)
                        - pr.reduced_poincare(I, th, pr.branch(1), p))
            except pr.PendrotorError:
                continue
            drifts.append(d)
        medians.append(np.median(drifts))
    slope = np.polyfit(np.log(epss), np.log(medians), 1)[0]
    ok = 1.8 <= slope <= 2.2
    _report("06 level-following-order", ok,
            f"slope={slope:.3f}, medians={[f'{m:.2e}' for m in medians]}")
    assert ok


def test_c07_gradient_checks(p075):
    """10^3 random non-degenerate points: analytic gradient vs central
    differences (h=1e-5) to 1e-6 relative; the two algebraic forms of
    dL*/dtheta agree to 1e-9."""
    rng = np.random.default_rng(7)
    h = 1e-5
    n = 0
    worst_fd = 0.0
    worst_forms = 0.0
    crit = pr.branch(1)
    while n < 1000:
        I = rng.uniform(-2.0, 2.0)
        th = rng.uniform(0.1, TWO_PI - 0.1)
        if min(abs(I), abs(I - 1.0)) < 0.05:
            continue
        c = abs(K.crest_coef(I, p075.a1, p075.a2, p075.r))
        if abs(c - 1.0) < 1e-2:
            continue
        try:
            sol = pr.solve_tau_star(I, th, crit, p075)
            if sol.margin < 1e-2:
                continue
            dI, dth = pr.grad_reduced_poincare(I, th, crit, p075)
            fd_th = (pr.reduced_poincare(I, th + h, crit, p075)
                     - pr.reduced_poincare(I, th - h, crit, p075)) / (2 * h)
            fd_I = (pr.reduced_poincare(I + h, th, crit, p075)
                    - pr.reduced_poincare(I - h, th, crit, p075)) / (2 * h)
        except pr.PendrotorError:
            continue
        worst_fd = max(worst_fd,
                       abs(fd_th - dth) / max(1.0, abs(dth)),
                       abs(fd_I - dI) / max(1.0, abs(dI)))
        f1, f2 = pr.grad_theta_forms(sol, p075)
        worst_forms = max(worst_forms, abs(f1 - f2))
        n += 1
    ok = worst_fd <= 1e-6 and worst_forms <= 1e-9
    _report("07 gradients", ok,
            f"fd_rel={worst_fd:.3e}, forms={worst_forms:.3e}, n={n}")
    assert worst_fd <= 1e-6
    assert worst_forms <= 1e-9


def test_c08_resonant_transversality(p075):
    """At I = 0 (eps=0.01, mu=0.75): |{F0, L*}| < 1e-6 at theta in {0, pi}
    and > 1e-3 at theta = pi/2."""
    crit = pr.branch(1)
    b0 = abs(pr.poisson_bracket(0.0, 0.0, crit, p075))
    bpi = abs(pr.poisson_bracket(0.0, math.pi, crit, p075))
    bq = abs(pr.poisson_bracket(0.0, math.pi / 2.0, crit, p075))
    ok = b0 < 1e-6 and bpi < 1e-6 and bq > 1e-3
    _report("08 transversality", ok,
            f"|B(0)|={b0:.2e}, |B(pi)|={bpi:.2e}, |B(pi/2)|={bq:.2e}")
    assert ok


def test_c09_end_to_end_diffusion(p075):
    """Drift pseudo-orbit from I = -1 to I = +1 at eps=0.01, mu=0.75, r=1:
    verification passes with jump-leg level residuals <= 10 eps^2 and
    inner-leg re-integration residuals <= 1e-8, within 10 minutes."""
    t0 = time.time()
    orbit = pr.build_pseudo_orbit(-1.0, 1.0, p075)
    rep = pr.verify_pseudo_orbit(orbit)
    elapsed = time.time() - t0
    budget_level = 10.0 * p075.eps ** 2
    ok = (orbit.final_I >= 1.0 and rep.ok
          and rep.max_level_residual <= budget_level
          and rep.max_reintegration_residual <= 1e-8
          and elapsed <= 600.0)
    _report("09 end-to-end-drift", ok,
            f"final_I={orbit.final_I:.3f}, legs={len(orbit.legs)} "
            f"(jump={rep.n_scatter}, inner={rep.n_inner}), "
            f"level={rep.max_level_residual:.2e}<= {budget_level:.0e}, "
            f"reint={rep.max_reintegration_residual:.2e}, "
            f"elapsed={elapsed:.1f}s")
    assert orbit.final_I >= 1.0
    assert rep.ok, rep.failures[:5]
    assert rep.max_level_residual <= budget_level
    assert rep.max_reintegration_residual <= 1e-8
    assert elapsed <= 600.0


def test_c10_tangency_predicate_vs_brute_force():
    """500 random (mu, I): sign-product predicate vs direct slope scan along
    the ridge; at least 499 agreements, disagreements only hard against a
    threshold crossing."""
    rng = np.random.default_rng(10)
    grid = np.linspace(0.0, TWO_PI, 40001)
    dg = np.diff(grid)
    agree = 0
    disagreements = []
    n = 0
    while n < 500:
        mu = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        p = pr.SystemParams(a1=mu, a2=1.0)
        I = rng.uniform(-3.0, 3.0)
        if min(abs(I), abs(I - 1.0)) < 0.03:
            continue
        kind = pr.classify(I, p)
        if kind is pr.CrestKind.SINGULAR:
            continue
        got = pr.has_tangency(I, p)
        m = (I - 1.0) / I
        c = K.crest_coef(I, p.a1, p.a2, p.r)
        if kind is pr.CrestKind.HORIZONTAL:
            vals = -np.arcsin(c * np.sin(grid))  # even-branch graph
            slopes = np.diff(vals) / dg
            brute = bool(np.min(np.abs(slopes - m)) < 1e-3)
        else:
            vals = -np.arcsin(np.sin(grid) / c)
            slopes = np.diff(vals) / dg
            brute = bool(np.min(np.abs(slopes - 1.0 / m)) < 1e-3)
        n += 1
        if got == brute:
            agree += 1
        else:
            c = abs(K.crest_coef(I, p.a1, p.a2, p.r))
            cb = c * abs(I / (I - 1.0))
            margin = min(abs(c - 1.0), abs(cb - 1.0))
            disagreements.append((mu, I, margin))
    ok = agree >= 499 and all(d[2] < 5e-3 for d in disagreements)
    _report("10 tangency-vs-brute", ok,
            f"{agree}/500 agree, disagreements={disagreements}")
    assert agree >= 499
    for mu, I, margin in disagreements:
        assert margin < 5e-3, (mu, I, margin)


def test_c11_tau_star_oracle(p075):
    """10^4 random queries over all four criteria: production solver vs the
    uniform h=1e-5 ray scan, agreement to 1e-6."""
    rng = np.random.default_rng(11)
    crits = [pr.DOWN, pr.UP, pr.MINABS, pr.branch(0), pr.branch(1),
             pr.branch(2)]
    worst = 0.0
    n = 0
    while n < 10_000:
        I = rng.uniform(-3.0, 3.0)
        th = rng.uniform(0.0, TWO_PI)
        if min(abs(I), abs(I - 1.0)) < 0.05:
            continue
        c = abs(K.crest_coef(I, p075.a1, p075.a2, p075.r))
        if abs(c - 1.0) < 1e-3:
            continue
        crit = crits[n % len(crits)]
        try:
            sol = pr.solve_tau_star(I, th, crit, p075)
        except pr.PendrotorError:
            continue
        if sol.degenerate or sol.margin < 1e-3:
            continue
        ref = brute_tau_scan(I, th, crit, p075)
        diff = abs(sol.tau_star - ref)
        if diff > worst:
            worst = diff
        n += 1
    ok = worst <= 1e-6
    _report("11 tau-star-oracle", ok, f"max_diff={worst:.3e}, n={n}")
    assert worst <= 1e-6
