import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import pendrotor as pr
from pendrotor import _kernels as K
from pendrotor.crests import crest_phi, crest_sigma
from pendrotor.oracles import _band_of, _refine, _residual_grid, brute_tau_scan
from pendrotor.scattering import grad_theta_forms

TWO_PI = 2.0 * math.pi


class TestMelnikov:
    def test_value_at_origin(self):
        # A1(0) + A2(0) = 4 + 2*pi/sinh(pi/2) for unit amplitudes
        p = pr.SystemParams(a1=1.0, a2=1.0)
        expected = 4.0 + TWO_PI / math.sinh(math.pi / 2.0)
        assert pr.melnikov_closed(0.0, 0.0, 0.0, p) == pytest.approx(
            expected, rel=1e-14)

    def test_periodicity(self):
        p = pr.SystemParams(a1=1.0, a2=0.7)
        v1 = pr.melnikov_closed(0.4, 1.1, 2.2, p)
        v2 = pr.melnikov_closed(0.4, 1.1 + TWO_PI, 2.2, p)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_envelope_bound(self):
        # |L| <= 4 (|a1| + |a2|) since the kernel integrates to 4
        p = pr.SystemParams(a1=1.3, a2=-0.8)
        rng = np.random.default_rng(3)
        bound = 4.0 * (abs(p.a1) + abs(p.a2))
        for _ in range(50):
            v = pr.melnikov_quadrature(rng.uniform(-3, 3),
                                       rng.uniform(0, TWO_PI),
                                       rng.uniform(0, TWO_PI), p)
            assert abs(v) <= bound + 1e-9

    def test_sign_convention_at_resonance(self):
        # single-harmonic system at I = 0: the integral must give +4 a1 cos(phi)
        p = pr.SystemParams(a1=1.0, a2=0.0)
        for phi in (0.0, 1.0, 2.5, 4.0):
            assert pr.melnikov_quadrature(0.0, phi, 0.3, p) == pytest.approx(
                4.0 * math.cos(phi), abs=1e-9)

    def test_A1_at_one_against_quadrature(self):
        p = pr.SystemParams(a1=1.0, a2=0.0)
        expected = TWO_PI / math.sinh(math.pi / 2.0)
        assert pr.melnikov_quadrature(1.0, 0.0, 0.0, p) == pytest.approx(
            expected, abs=1e-9)

    def test_closed_matches_quadrature(self):
        p = pr.SystemParams(a1=1.0, a2=1.0)
        rng = np.random.default_rng(11)
        for _ in range(60):
            I, phi, s = (rng.uniform(-3, 3), rng.uniform(0, TWO_PI),
                         rng.uniform(0, TWO_PI))
            assert pr.melnikov_closed(I, phi, s, p) == pytest.approx(
                pr.melnikov_quadrature(I, phi, s, p), abs=1e-8)

    def test_closed_matches_quadrature_general_r(self):
        p = pr.SystemParams(a1=0.9, a2=1.2, r=0.7)
        rng = np.random.default_rng(12)
        for _ in range(25):
            I, phi, s = (rng.uniform(-2, 3), rng.uniform(0, TWO_PI),
                         rng.uniform(0, TWO_PI))
            assert pr.melnikov_closed(I, phi, s, p) == pytest.approx(
                pr.melnikov_quadrature(I, phi, s, p), abs=1e-8)


class TestTauStar:
    def test_zero_at_theta_pi(self, p075):
        for I in np.linspace(-2.5, 2.5, 21):
            sol = pr.solve_tau_star(I, math.pi, pr.branch(1), p075)
            assert abs(sol.tau_star) < 1e-12
            assert sol.branch_hit.k == 1

    def test_down_up_reflection(self, p075):
        # the (pi,pi)-reflection sends the first even crossing below the
        # diagonal for theta to the first even crossing above it for
        # 2*pi - theta with the ray parameter reversed:
        # tau_down(theta) = -tau_up(2*pi - theta)
        rng = np.random.default_rng(5)
        n = 0
        while n < 60:
            I = rng.uniform(-2.5, 2.5)
            th = rng.uniform(0.05, TWO_PI - 0.05)
            if min(abs(I), abs(I - 1.0)) < 0.05:
                continue
            try:
                a = pr.solve_tau_star(I, th, pr.DOWN, p075)
                b = pr.solve_tau_star(I, TWO_PI - th, pr.UP, p075)
            except pr.PendrotorError:
                continue
            if a.degenerate or b.degenerate or min(a.margin, b.margin) < 1e-3:
                continue
            assert a.tau_star == pytest.approx(-b.tau_star, abs=1e-9)
            n += 1

    def test_down_up_are_branches_0_2_in_covering_regime(self, p075):
        # wherever the horizontal even ridge covers every phi
        rng = np.random.default_rng(6)
        n = 0
        while n < 40:
            I = rng.uniform(-1.0, 0.55)
            th = rng.uniform(0.05, TWO_PI - 0.05)
            if abs(I) < 0.05:
                continue
            if pr.classify(I, p075) is not pr.CrestKind.HORIZONTAL:
                continue
            a = pr.solve_tau_star(I, th, pr.DOWN, p075)
            b = pr.solve_tau_star(I, th, pr.UP, p075)
            assert a.branch_hit.k == 0
            assert b.branch_hit.k == 2
            a0 = pr.solve_tau_star(I, th, pr.branch(0), p075)
            b2 = pr.solve_tau_star(I, th, pr.branch(2), p075)
            assert a.tau_star == pytest.approx(a0.tau_star, abs=1e-12)
            assert b.tau_star == pytest.approx(b2.tau_star, abs=1e-12)
            n += 1

    def test_residual_at_solutions(self, p075):
        rng = np.random.default_rng(8)
        for _ in range(200):
            I = rng.uniform(-3, 3)
            th = rng.uniform(0, TWO_PI)
            if min(abs(I), abs(I - 1.0)) < 0.03:
                continue
            try:
                sol = pr.solve_tau_star(I, th, pr.MINABS, p075)
            except pr.PendrotorError:
                continue
            assert abs(pr.crest_residual(I, sol.phi_star, sol.sigma_star,
                                         p075)) < 1e-11

    def test_agrees_with_ray_scan(self, p075):
        rng = np.random.default_rng(9)
        crits = [pr.DOWN, pr.UP, pr.MINABS, pr.branch(0), pr.branch(1),
                 pr.branch(2)]
        n = 0
        while n < 50:
            I = rng.uniform(-3, 3)
            th = rng.uniform(0, TWO_PI)
            if min(abs(I), abs(I - 1.0)) < 0.05:
                continue
            crit = crits[n % len(crits)]
            try:
                sol = pr.solve_tau_star(I, th, crit, p075)
            except pr.PendrotorError:
                continue
            if sol.degenerate or sol.margin < 1e-3:
                continue
            ref = brute_tau_scan(I, th, crit, p075, h=1e-4)
            assert sol.tau_star == pytest.approx(ref, abs=1e-6)
            n += 1

    def test_unreachable_branch(self, p075):
        with pytest.raises(pr.UnreachableBranch):
            pr.solve_tau_star(0.4, 1.0, pr.branch(40), p075)

    def test_singular_regime_raises(self):
        # |mu alpha(I)| = 1 exactly at the regime threshold
        p = pr.SystemParams(a1=0.5, a2=1.0)
        rep = pr.find_thresholds(p)
        I_c = rep.alpha_thresholds[1]
        with pytest.raises(pr.SingularCrest):
            pr.solve_tau_star(I_c, 2.0, pr.MINABS, p,
                              pr.DEFAULT_TOL.override(tol_cls=1e-5))


def _plain_scan(I, theta, crit, p, h):
    """The uniform ray scan with nothing skipped: every cell out to the
    scan's |tau| limit in each direction, the first accepted crossing of
    each direction, the nearer of those (the first direction on a tie)."""
    th = theta % TWO_PI
    c = K.crest_coef(I, p.a1, p.a2, p.r)
    ac = abs(c)
    phi0, sig0 = th, p.r * th
    rphi, rsig = -I, -(p.r * I - 1.0)
    fmin = max(min(abs(rphi), abs(rsig)), 1e-12)
    tau_lim = 8.0 * math.pi * max(1.0, 1.0 / fmin)
    n_cap = int(tau_lim / h) + 2

    def band(t):
        return _band_of(t, phi0, sig0, rphi, rsig, ac < 1.0)

    def accept(b):
        if crit.kind in ("down", "up"):
            return b % 2 == 0
        return crit.kind == "minabs" or b == crit.k

    g0 = _residual_grid(np.zeros(1), phi0, sig0, rphi, rsig, c, ac)[0]
    if g0 == 0.0 and accept(band(0.0)):
        return 0.0
    if crit.kind == "down":
        dirs = [-1.0 if rsig > 0 else 1.0]
    elif crit.kind == "up":
        dirs = [1.0 if rsig > 0 else -1.0]
    else:
        dirs = [1.0, -1.0]
    best = None
    for d in dirs:
        taus = d * h * np.arange(0, n_cap + 1)
        sgn = np.signbit(_residual_grid(taus, phi0, sig0, rphi, rsig, c, ac))
        for idx in np.nonzero(sgn[1:] != sgn[:-1])[0]:
            ta, tb = sorted((float(taus[idx]), float(taus[idx + 1])))
            root = _refine(ta, tb, phi0, sig0, rphi, rsig, c, ac)
            if accept(band(root)):
                if best is None or abs(root) < abs(best):
                    best = root
                break
    if best is None:
        raise pr.UnreachableBranch("no crossing")
    return best


def _scan_or_error(scan, *args, **kwargs):
    try:
        return scan(*args, **kwargs)
    except pr.UnreachableBranch:
        return "unreachable"


_ALL_CRITS = [pr.DOWN, pr.UP, pr.MINABS] + [pr.branch(k) for k in range(-1, 4)]


class TestBruteScanSkip:
    """The oracle skips chunks whose bands its criterion rejects; that must
    not change a single result."""

    @staticmethod
    def _queries(seed, n_per_r):
        """Seeded queries at r = 0.5, 0.8 and 1 cycling through every
        criterion, away from the resonances and from |c| = 1."""
        rng = np.random.default_rng(seed)
        out = []
        for r in (0.5, 0.8, 1.0):
            p = pr.SystemParams(a1=0.75, a2=1.0, r=r)
            for i in range(n_per_r):
                I = 0.0
                while (min(abs(I), abs(r * I - 1.0)) < 0.3 or abs(
                        abs(K.crest_coef(I, p.a1, p.a2, r)) - 1.0) < 1e-3):
                    I = rng.uniform(-3.0, 3.0)
                out.append((I, rng.uniform(0.0, TWO_PI),
                            _ALL_CRITS[i % len(_ALL_CRITS)], p))
        return out

    def test_chunk_size_does_not_change_results(self):
        for I, th, crit, p in self._queries(41, 14):
            got = [_scan_or_error(brute_tau_scan, I, th, crit, p, h=1e-5,
                                  chunk=chunk)
                   for chunk in (1024, 8192, 65536)]
            assert got[0] == got[1] == got[2], (I, th, crit, p.r, got)

    def test_equals_plain_scan(self):
        for I, th, crit, p in self._queries(42, 21):
            got = _scan_or_error(brute_tau_scan, I, th, crit, p, h=1e-4)
            ref = _scan_or_error(_plain_scan, I, th, crit, p, 1e-4)
            assert got == ref, (I, th, crit, p.r, got, ref)

    def test_unreachable_branch_raises(self, p075):
        for k in (40, -40):
            with pytest.raises(pr.UnreachableBranch):
                brute_tau_scan(0.4, 1.0, pr.branch(k), p075)

    def test_start_on_accepted_ridge_returns_zero(self, p075):
        # theta = 0 puts the ray's start on the band-0 ridge exactly
        for crit in (pr.DOWN, pr.UP, pr.MINABS, pr.branch(0)):
            assert brute_tau_scan(0.4, 0.0, crit, p075) == 0.0
        assert brute_tau_scan(0.4, 0.0, pr.branch(1), p075) != 0.0


def _ridge_root(I, theta, tau0, p):
    """Root of c sin(phi) + sin(sigma) along the ray, by mpmath from tau0."""
    c = K.crest_coef(I, p.a1, p.a2, p.r)
    with mpmath.workdps(40):
        th, I_, r = mpmath.mpf(theta), mpmath.mpf(I), mpmath.mpf(p.r)

        def g(t):
            return (c * mpmath.sin(th - I_ * t)
                    + mpmath.sin(r * th - (r * I_ - 1) * t))

        return float(mpmath.findroot(g, mpmath.mpf(tau0)))


def _band(I, theta, tau, p):
    """Unwrapped ridge branch of a crossing, from its strip coordinate."""
    c = K.crest_coef(I, p.a1, p.a2, p.r)
    w = (p.r * theta - (p.r * I - 1.0) * tau if abs(c) < 1.0
         else theta - I * tau)
    return int(math.floor(w / math.pi + 0.5))


def _check_against_oracles(I, theta, crit, p):
    """The solver's tau* is a true crossing of the right branch, and no
    crossing the uniform h=1e-5 scan sees is nearer; where the contact is
    transversal (margin >= 1e-3) both agree to 1e-6."""
    try:
        sol = pr.solve_tau_star(I, theta, crit, p)
    except pr.UnreachableBranch:
        if crit.kind in ("branch", "minabs"):
            with pytest.raises(pr.UnreachableBranch):
                brute_tau_scan(I, theta, crit, p, h=1e-5)
        return
    tau = sol.tau_star
    ref = brute_tau_scan(I, theta, crit, p, h=1e-5)
    if sol.margin >= 1e-3:
        assert tau == pytest.approx(ref, abs=1e-6)
        return
    assert abs(tau) <= abs(ref) + 1e-9
    assert _ridge_root(I, theta, tau, p) == pytest.approx(
        tau, abs=1e-9 * (1.0 + abs(tau)))
    band = _band(I, theta, tau, p)
    if crit.kind == "branch":
        assert band == crit.k
    elif crit.kind in ("down", "up"):
        assert band % 2 == 0


_CRITS = st.sampled_from([pr.DOWN, pr.UP, pr.MINABS, pr.branch(0),
                          pr.branch(1), pr.branch(2)])


class TestBracketAdversarial:
    """Near-grazing rays and near-singular ridges for the exact bracket."""

    @given(data=st.data(), r=st.sampled_from([0.5, 0.8, 1.0]),
           u=st.floats(0.02, 0.98), log_off=st.floats(-9.0, -3.0),
           sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_rays_near_tangency_points(self, data, r, u, log_off, sign):
        p = pr.SystemParams(a1=0.75, a2=1.0, r=r)
        spans = [(iv.lo, iv.hi) for iv in
                 pr.find_thresholds(p, (-3.0, 3.0)).intervals if iv.tangency]
        lo, hi = data.draw(st.sampled_from(spans))
        I = lo + u * (hi - lo)
        # rays launched in [0, 2pi) through a tangency point of the ridge
        rays = []
        for tp in pr.tangency_points(I, p):
            k = tp.branch.k
            if tp.branch.kind is pr.CrestKind.HORIZONTAL:
                phi, sig = tp.angle, crest_sigma(I, tp.angle, k, p)
            else:
                phi, sig = crest_phi(I, tp.angle, k, p), tp.angle
            for a in range(-3, 4):
                for b in range(-3, 4):
                    ph, sg = phi + TWO_PI * a, sig + TWO_PI * b
                    tau = sg - r * ph
                    th = ph + I * tau
                    if 0.0 <= th < TWO_PI and abs(tau) < math.pi:
                        rays.append((th, _band(I, th, tau, p)))
        if not rays:
            return
        th, k = data.draw(st.sampled_from(rays))
        # one offset sign splits the contact into a close crossing pair, the
        # other lifts the ray off the ridge there
        theta = th + sign * 10.0 ** log_off
        crit = data.draw(st.sampled_from([pr.branch(k), pr.branch(k),
                                          pr.MINABS, pr.DOWN, pr.UP]))
        _check_against_oracles(I, theta % TWO_PI, crit, p)

    @given(data=st.data(), r=st.sampled_from([0.5, 0.8, 1.0]),
           log_gap=st.floats(math.log10(2e-9), -6.0),
           sign=st.sampled_from([-1.0, 1.0]), theta=st.floats(0.0, 6.28),
           crit=_CRITS)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_crest_coefficient_near_one(self, data, r, log_gap, sign, theta,
                                        crit):
        p = pr.SystemParams(a1=0.75, a2=1.0, r=r)
        I_c = data.draw(st.sampled_from(
            pr.find_thresholds(p, (-3.0, 3.0)).alpha_thresholds))
        target = 1.0 + sign * 10.0 ** log_gap

        def gap(I):
            return abs(K.crest_coef(I, p.a1, p.a2, r)) - target

        I = brentq(gap, I_c - 1e-4, I_c + 1e-4, xtol=1e-15, rtol=1e-15)
        c = abs(K.crest_coef(I, p.a1, p.a2, r))
        assert pr.DEFAULT_TOL.tol_cls < abs(c - 1.0) < 1.01e-6
        _check_against_oracles(I, theta, crit, p)


class TestReducedPoincare:
    def test_value_at_theta_pi(self, p075):
        # tau* = 0 there: L* = A1 cos(pi) + A2 cos(pi) = -A1 - A2
        for I in (-1.4, -0.3, 0.45, 1.3):
            expected = -(pr.amplitude_A1(I, p075) + pr.amplitude_A2(I, p075))
            got = pr.reduced_poincare(I, math.pi, pr.branch(1), p075)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_gradient_forms_agree(self, p075):
        rng = np.random.default_rng(13)
        n = 0
        while n < 120:
            I = rng.uniform(-2, 2)
            th = rng.uniform(0, TWO_PI)
            if min(abs(I), abs(I - 1.0)) < 0.05:
                continue
            try:
                sol = pr.solve_tau_star(I, th, pr.branch(1), p075)
            except pr.PendrotorError:
                continue
            if sol.margin < 1e-3:
                continue
            f1, f2 = grad_theta_forms(sol, p075)
            assert f1 == pytest.approx(f2, abs=1e-9)
            n += 1

    def test_gradient_matches_finite_differences(self, p075):
        rng = np.random.default_rng(14)
        h = 1e-5
        n = 0
        while n < 60:
            I = rng.uniform(-2, 2)
            th = rng.uniform(0.1, TWO_PI - 0.1)
            if min(abs(I), abs(I - 1.0)) < 0.06:
                continue
            try:
                sol = pr.solve_tau_star(I, th, pr.branch(1), p075)
                if sol.margin < 1e-2:
                    continue
                dI, dth = pr.grad_reduced_poincare(I, th, pr.branch(1), p075)
                fd_th = (pr.reduced_poincare(I, th + h, pr.branch(1), p075)
                         - pr.reduced_poincare(I, th - h, pr.branch(1), p075)
                         ) / (2 * h)
                fd_I = (pr.reduced_poincare(I + h, th, pr.branch(1), p075)
                        - pr.reduced_poincare(I - h, th, pr.branch(1), p075)
                        ) / (2 * h)
            except pr.PendrotorError:
                continue
            assert dth == pytest.approx(fd_th, abs=1e-6 * max(1, abs(dth)))
            assert dI == pytest.approx(fd_I, abs=1e-6 * max(1, abs(dI)))
            n += 1

    def test_dtheta_vanishes_at_pi(self, p075):
        for I in (-1.2, 0.4, 1.6):
            dI, dth = pr.grad_reduced_poincare(I, math.pi, pr.branch(1), p075)
            assert abs(dth) < 1e-12

    def test_degenerate_contact_refused(self, p075):
        # force the degeneracy flag with an absurdly large margin tolerance
        tol = pr.DEFAULT_TOL.override(tol_degen=1e9)
        with pytest.raises(pr.TangencyDegenerate):
            pr.grad_reduced_poincare(0.4, 2.0, pr.branch(1), p075, tol)


class TestScatteringStep:
    def test_identity_at_zero_eps(self):
        p = pr.SystemParams(a1=0.75, a2=1.0, eps=0.0)
        st = pr.ScatteringState(0.4, 2.0)
        assert pr.scattering_step(st, pr.branch(1), p) == st

    def test_level_curve_order(self, p075):
        # |L* o S - L*| should scale like eps^2 (checked tightly in the
        # acceptance suite; here a single halving)
        st = pr.ScatteringState(0.42, 3.5)
        drifts = []
        for eps in (1e-2, 5e-3):
            p = p075.with_eps(eps)
            new = pr.scattering_step(st, pr.branch(1), p)
            d = abs(pr.reduced_poincare(new.I, new.theta, pr.branch(1), p)
                    - pr.reduced_poincare(st.I, st.theta, pr.branch(1), p))
            drifts.append(d)
        ratio = drifts[0] / drifts[1]
        assert 2.5 < ratio < 6.5  # ~4 for a clean eps^2 law

    def test_s_invariance_of_reduced_form(self, p075):
        # the reduced map depends on (I, theta) only: lifting theta from any
        # (phi, s) with phi - I s = theta gives the identical step
        I, theta = 0.37, 4.1
        base = pr.scattering_step(pr.ScatteringState(I, theta), pr.branch(1),
                                  p075)
        for s in (0.0, 1.3, 5.1):
            phi = theta + I * s
            th2 = (phi - I * s) % TWO_PI
            again = pr.scattering_step(pr.ScatteringState(I, th2),
                                       pr.branch(1), p075)
            assert again == base


class TestExtendedDomain:
    def test_horizontal_regime_always_true(self, p05):
        for th in np.linspace(0, TWO_PI, 40, endpoint=False):
            assert pr.extended_map_domain(0.3, th, p05, branch_k=0)
            assert pr.extended_map_domain(0.3, th, p05, branch_k=1)

    def test_vertical_regime_strip_test(self, p05):
        # near I = 1 the odd vertical ridge sits at phi ~ pi spanning every
        # sigma; only contacts with sigma in (pi/2, 3pi/2) continue the
        # horizontal parameterization
        I = 1.001
        assert pr.extended_map_domain(I, 2.6, p05, branch_k=1)
        assert not pr.extended_map_domain(I, 1.4, p05, branch_k=1)

    def test_continuity_across_regime_switch(self, p05):
        # L* of the even-branch maps is continuous in I across the
        # horizontal->vertical threshold for theta near 0 (branch 0) and
        # near 2*pi (branch 2, whose contact lives by the (2pi, 2pi) copy)
        rep = pr.find_thresholds(p05)
        I_c = rep.alpha_thresholds[1]  # ~0.701
        for th, k in ((0.12, 0), (0.3, 0), (TWO_PI - 0.2, 2), (TWO_PI - 0.35, 2)):
            vals = []
            for I in np.linspace(I_c - 2e-3, I_c + 2e-3, 9):
                if pr.classify(I, p05) is pr.CrestKind.SINGULAR:
                    continue
                vals.append(pr.reduced_poincare(I, th, pr.branch(k), p05))
            gaps = np.abs(np.diff(vals))
            assert np.max(gaps) < 1e-4


class TestPiecewiseMap:
    def test_region_II_matches_branch1(self, p075):
        st = pr.ScatteringState(0.3, math.pi)
        new, region = pr.piecewise_global_map(st, p075)
        assert region == "II"
        direct = pr.scattering_step(st, pr.branch(1), p075)
        assert new == direct

    def test_region_I_matches_branch0(self, p075):
        st = pr.ScatteringState(0.3, math.pi / 4)
        new, region = pr.piecewise_global_map(st, p075)
        assert region == "I"
        direct = pr.scattering_step(st, pr.branch(0), p075)
        assert new == direct

    def test_discontinuity_lines(self, p075):
        for th in (math.pi / 2, 3 * math.pi / 2):
            with pytest.raises(pr.OnDiscontinuity):
                pr.piecewise_global_map(pr.ScatteringState(0.3, th), p075)

    def test_drift_sign_split(self, p075):
        # action decreases on theta in (0, pi) and increases on (pi, 2pi)
        for I in (-0.6, 0.3, 1.4):
            for th in np.linspace(0.15, TWO_PI - 0.15, 36):
                if min(abs(th - math.pi / 2), abs(th - 3 * math.pi / 2),
                       abs(th - math.pi)) < 0.12:
                    continue
                st = pr.ScatteringState(I, th)
                try:
                    new, _ = pr.piecewise_global_map(st, p075)
                except pr.PendrotorError:
                    continue
                if th < math.pi:
                    assert new.I < I
                else:
                    assert new.I > I


class TestAtlas:
    def test_regions_partition_circle(self):
        lims = [(lo, hi) for lo, hi, _, _ in pr.ATLAS.regions]
        assert lims[0][0] == 0.0
        assert lims[-1][1] == TWO_PI
        for (_, hi), (lo, _) in zip(lims[:-1], lims[1:]):
            assert hi == lo
        assert set(pr.ATLAS.discontinuities) == {math.pi / 2,
                                                 3 * math.pi / 2}

    def test_region_lookup(self):
        assert pr.ATLAS.region_of(0.2) == ("I", 0)
        assert pr.ATLAS.region_of(math.pi) == ("II", 1)
        assert pr.ATLAS.region_of(5.0) == ("III", 2)
        assert pr.ATLAS.region_of(5.0 + TWO_PI) == ("III", 2)


class TestThetaPlus:
    def test_horizontal_midpoint(self):
        p = pr.SystemParams(a1=0.75, a2=1.0)
        assert pr.theta_plus(0.5, p) == pytest.approx(1.5 * math.pi)

    def test_horizontal_between_one_and_three_halves(self):
        # need a coupling ratio keeping I = 5/4 horizontal: |alpha(1.25)|
        # ~ 2.89 so mu < 0.346 works
        p = pr.SystemParams(a1=0.2, a2=1.0)
        assert pr.classify(1.25, p) is pr.CrestKind.HORIZONTAL
        assert pr.theta_plus(1.25, p) == pytest.approx(1.25 * math.pi)

    def test_vertical_negative_branch(self):
        # mu large enough that I = -1/4 is vertical: |alpha(-0.25)| ~ 0.346
        p = pr.SystemParams(a1=3.5, a2=1.0)
        assert pr.classify(-0.25, p) is pr.CrestKind.VERTICAL
        assert pr.theta_plus(-0.25, p) == pytest.approx(1.25 * math.pi)

    def test_guaranteed_floor_outside_center(self, p075):
        for I in (-1.9, -0.7, 0.8, 1.2, 1.9):
            if pr.classify(I, p075) is pr.CrestKind.SINGULAR:
                continue
            assert pr.theta_plus(I, p075) >= 1.5 * math.pi - 1e-12

    def test_requires_positive_amplitudes(self):
        with pytest.raises(pr.ConfigError):
            pr.theta_plus(0.5, pr.SystemParams(a1=-1.0, a2=1.0))


class TestKernelScalarTypes:
    """The uncompiled kernels must return Python scalars, as numba does."""

    CASES = ((K.CRIT_DOWN, 0), (K.CRIT_UP, 0), (K.CRIT_MINABS, 0),
             (K.CRIT_BRANCH, 1))

    @pytest.mark.parametrize("crit,k", CASES)
    def test_lstar_kernel_returns_python_scalars(self, p075, crit, k):
        tol = pr.DEFAULT_TOL
        for I, th in ((0.4, 2.0), (-1.3, 4.0)):
            res = K.lstar_kernel(np.float64(I), np.float64(th), p075.r,
                                 p075.a1, p075.a2, crit, k, tol.tol_cls,
                                 tol.tie_tol)
            assert res[0] == K.TAU_OK
            assert all(type(x) in (float, int) for x in res), \
                [type(x).__name__ for x in res]
            # same values as the Python-float call
            ref = K.lstar_kernel(I, th, p075.r, p075.a1, p075.a2, crit, k,
                                 tol.tol_cls, tol.tie_tol)
            assert res == ref

    @pytest.mark.parametrize("crit,k", CASES)
    def test_tau_star_kernel_returns_python_scalars(self, p075, crit, k):
        tol = pr.DEFAULT_TOL
        I = np.float64(0.4)
        c = K.crest_coef(I, p075.a1, p075.a2, p075.r)
        res = K.tau_star_kernel(I, np.float64(2.0), np.float64(p075.r), c,
                                crit, k, tol.tol_cls, tol.tie_tol)
        assert res[0] == K.TAU_OK
        assert all(type(x) in (float, int) for x in res), \
            [type(x).__name__ for x in res]
