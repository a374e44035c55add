import functools
import hashlib
import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import pendrotor as pr
from pendrotor import _kernels as K
from pendrotor import oracles, scattering
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

    @pytest.mark.parametrize("r", [1.0, 0.5])
    def test_trapezoid_matches_adaptive_and_mpmath(self, r):
        # the same integral over [-20, 20] by scipy's adaptive quad and by
        # mpmath at 40 digits (the tails beyond hold less than 1e-16)
        from scipy.integrate import quad

        a1, a2 = 0.8, -1.1
        p = pr.SystemParams(a1=a1, a2=a2, r=r)
        rng = np.random.default_rng(13)
        for _ in range(20):
            I, phi, s = (rng.uniform(-3, 3), rng.uniform(0, TWO_PI),
                         rng.uniform(0, TWO_PI))
            got = pr.melnikov_quadrature(I, phi, s, p)

            def f(x):
                ph = phi + I * x
                return (2.0 / math.cosh(x) ** 2
                        * (a1 * math.cos(ph) + a2 * math.cos(r * ph - s - x)))

            ref_quad = quad(f, -20.0, 20.0, epsabs=1e-13, epsrel=1e-13,
                            limit=400)[0]
            with mpmath.workdps(40):
                def g(x):
                    ph = phi + I * x
                    return 2 * mpmath.sech(x) ** 2 * (
                        a1 * mpmath.cos(ph) + a2 * mpmath.cos(r * ph - s - x))

                ref_mp = float(mpmath.quad(g, [-20, 0, 20]))
            assert abs(got - ref_quad) <= 1e-12, (I, phi, s)
            assert abs(got - ref_mp) <= 1e-12, (I, phi, s)

    @pytest.mark.parametrize("I", [25.0, 40.0, -30.0])
    def test_large_action_against_closed_form(self, I):
        p = pr.SystemParams(a1=1.0, a2=1.0)
        for phi, s in ((0.0, 0.7), (1.3, 2.9), (4.0, 5.5)):
            assert abs(pr.melnikov_quadrature(I, phi, s, p)
                       - pr.melnikov_closed(I, phi, s, p)) <= 1e-12

    def test_no_agreement_on_an_alias(self):
        # at I = 1000 the sums at h = 0.1 and 0.05 both equal 0.019, an
        # alias of the I-harmonic; the rule must go on to a step that
        # resolves it, and give up where six halvings cannot
        p = pr.SystemParams(a1=1.0, a2=1.0)
        assert abs(pr.melnikov_quadrature(1000.0, 0.3, 0.2, p)) <= 1e-12
        with pytest.raises(pr.QuadratureNotConverged):
            pr.melnikov_quadrature(3000.0, 0.3, 0.2, p)


class TestTauStar:
    def test_zero_at_theta_pi(self, p075):
        for I in np.linspace(-2.5, 2.5, 21):
            sol = pr.solve_tau_star(I, math.pi, pr.branch(1), p075)
            assert abs(sol.tau_star) < 1e-12
            assert sol.band == 1

    def test_marching_at_the_pole_is_unreachable(self, p075):
        # at I = 1/r the rays keep sigma constant: no down/up march can
        # cross an even ridge, while minabs and a fixed branch still solve
        for th in (0.5, 4.0):
            for crit in (pr.DOWN, pr.UP):
                res = scattering.lstar(1.0, th, crit, p075)
                assert res[0] == K.TAU_UNREACHABLE
                assert all(math.isnan(v) for v in (res[1], *res[4:]))
            for crit in (pr.MINABS, pr.branch(1)):
                res = scattering.lstar(1.0, th, crit, p075)
                assert res[0] == K.TAU_OK
                assert all(math.isfinite(v) for v in res[1:])

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
            assert a.band == 0
            assert b.band == 2
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

    def test_agrees_with_ray_scan(self, p075, monkeypatch):
        monkeypatch.setattr(oracles, "SCAN_STEP", 1e-4)
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
            ref = brute_tau_scan(I, th, crit, p075)
            assert sol.tau_star == pytest.approx(ref, abs=1e-6)
            n += 1

    def test_unreachable_branch(self, p075):
        with pytest.raises(pr.UnreachableBranch):
            pr.solve_tau_star(0.4, 1.0, pr.branch(40), p075)

    def test_singular_regime_raises(self, monkeypatch):
        # |mu alpha(I)| = 1 exactly at the regime threshold
        p = pr.SystemParams(a1=0.5, a2=1.0)
        rep = pr.find_thresholds(p)
        I_c = rep.alpha_thresholds[1]
        monkeypatch.setattr(K, "TOL_CLS", 1e-5)
        with pytest.raises(pr.SingularCrest):
            pr.solve_tau_star(I_c, 2.0, pr.MINABS, p)


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

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        for I, th, crit, p in self._queries(41, 14):
            got = []
            for chunk in (1024, 8192, 65536):
                monkeypatch.setattr(oracles, "CHUNK", chunk)
                got.append(_scan_or_error(brute_tau_scan, I, th, crit, p))
            assert got[0] == got[1] == got[2], (I, th, crit, p.r, got)

    def test_equals_plain_scan(self, monkeypatch):
        monkeypatch.setattr(oracles, "SCAN_STEP", 1e-4)
        for I, th, crit, p in self._queries(42, 21):
            got = _scan_or_error(brute_tau_scan, I, th, crit, p)
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
                brute_tau_scan(I, theta, crit, p)
        return
    tau = sol.tau_star
    ref = brute_tau_scan(I, theta, crit, p)
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


@functools.lru_cache(maxsize=None)
def _thresholds(r):
    """find_thresholds at a1 = 0.75, a2 = 1 on (-3, 3), once per r."""
    return pr.find_thresholds(pr.SystemParams(a1=0.75, a2=1.0, r=r),
                              (-3.0, 3.0))


def _tangency_rays(I, p, n_wrap):
    """(theta, branch) of the rays launched in [0, 2pi) through a tangency
    point of the ridge at I, over n_wrap periods of phi and sigma each way."""
    rays = []
    for tp in pr.tangency_points(I, p):
        k = tp.branch.k
        if tp.branch.kind is pr.CrestKind.HORIZONTAL:
            phi, sig = tp.angle, crest_sigma(I, tp.angle, k, p)
        else:
            phi, sig = crest_phi(I, tp.angle, k, p), tp.angle
        for a in range(-n_wrap, n_wrap + 1):
            for b in range(-n_wrap, n_wrap + 1):
                ph, sg = phi + TWO_PI * a, sig + TWO_PI * b
                tau = sg - p.r * ph
                th = ph + I * tau
                if 0.0 <= th < TWO_PI and abs(tau) < math.pi:
                    rays.append((th, _band(I, th, tau, p)))
    return rays


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
        spans = [(iv.lo, iv.hi) for iv in _thresholds(r).intervals
                 if iv.tangency]
        lo, hi = data.draw(st.sampled_from(spans))
        I = lo + u * (hi - lo)
        rays = _tangency_rays(I, p, 3)
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
            _thresholds(r).alpha_thresholds))
        target = 1.0 + sign * 10.0 ** log_gap

        def gap(I):
            return abs(K.crest_coef(I, p.a1, p.a2, r)) - target

        I = brentq(gap, I_c - 1e-4, I_c + 1e-4, xtol=1e-15, rtol=1e-15)
        c = abs(K.crest_coef(I, p.a1, p.a2, r))
        assert K.TOL_CLS < abs(c - 1.0) < 1.01e-6
        _check_against_oracles(I, theta, crit, p)


def test_exclusion_equals_plain_scan_near_grazing(monkeypatch):
    """Rays 1e-3...1e-9 off a tangency.  One offset sign splits the contact
    into a close crossing pair, where the exclusion radius collapses; the
    other lifts the ray to within the offset of the ridge.  No stretch the
    march jumps over may hold a sign change the plain scan sees."""
    monkeypatch.setattr(oracles, "SCAN_STEP", 1e-4)
    i = 0
    for r in (0.5, 0.8, 1.0):
        p = pr.SystemParams(a1=0.75, a2=1.0, r=r)
        for iv in _thresholds(r).intervals:
            if not iv.tangency:
                continue
            I = 0.5 * (iv.lo + iv.hi)
            for th, k in _tangency_rays(I, p, 3):
                for sign in (1.0, -1.0):
                    theta = (th + sign * 10.0 ** -(3 + i % 7)) % TWO_PI
                    crits = (pr.branch(k), _ALL_CRITS[i % len(_ALL_CRITS)])
                    for crit in crits:
                        got = _scan_or_error(brute_tau_scan, I, theta, crit,
                                             p)
                        ref = _scan_or_error(_plain_scan, I, theta, crit, p,
                                             1e-4)
                        assert got == ref, (I, theta, crit, r, got, ref)
                    i += 1


def test_brute_scan_mirror_tie_keeps_nonnegative_tau(p075, monkeypatch):
    """On theta = pi/2 and 3pi/2 at r = 1 the two directions often refine
    crossings of exactly equal |tau|; the scan keeps the tau >= 0 one, as the
    plain scan and the solver do, whichever direction reaches it first."""
    h, ties = 1e-4, 0
    monkeypatch.setattr(oracles, "SCAN_STEP", h)
    for I in np.linspace(-2.9, 2.9, 16):
        c = K.crest_coef(I, p075.a1, p075.a2, 1.0)
        if min(abs(I), abs(I - 1.0)) < 0.05 or abs(abs(c) - 1.0) < 1e-3:
            continue
        for th in (math.pi / 2, 3 * math.pi / 2):
            got = brute_tau_scan(I, th, pr.MINABS, p075)
            assert got == _plain_scan(I, th, pr.MINABS, p075, h), (I, th)
            k = math.floor(abs(got) / h)
            twin = _refine(-(h * (k + 1)), -(h * k), th, th, -I, 1.0 - I, c,
                           abs(c))
            if twin == -got:
                assert got > 0.0, (I, th, got)
                ties += 1
    assert ties >= 15


def _mirror_pair(I, theta, tau, p):
    """The crossings near +tau and -tau and their margins, by mpmath."""
    c = K.crest_coef(I, p.a1, p.a2, p.r)
    with mpmath.workdps(40):
        th, I_, r = mpmath.mpf(theta), mpmath.mpf(I), mpmath.mpf(p.r)

        def g(t):
            return (c * mpmath.sin(th - I_ * t)
                    + mpmath.sin(r * th - (r * I_ - 1) * t))

        def margin(t):
            dg = (-c * I_ * mpmath.cos(th - I_ * t)
                  - (r * I_ - 1) * mpmath.cos(r * th - (r * I_ - 1) * t))
            return abs(dg) / max(1, abs(c))

        tp = mpmath.findroot(g, mpmath.mpf(tau))
        tm = mpmath.findroot(g, -mpmath.mpf(tau))
        return tp, tm, margin(tp), margin(tm)


class TestMirrorTie:
    """On theta = pi/2 and 3pi/2 (r = 1) the minimal-|tau| crossings come in
    mirror pairs at +-tau with equal margins; the crossing with tau >= 0 wins."""

    @pytest.mark.parametrize("mu", [0.6, 0.75])
    def test_mirror_columns_are_true_ties(self, mu):
        p = pr.SystemParams(a1=mu, a2=1.0)
        I_vals = np.linspace(-2.0, 2.0, 40)
        th_vals = np.linspace(0.0, TWO_PI, 40, endpoint=False)
        status, tau = pr.sweep(I_vals, th_vals, pr.MINABS, p)[:2]
        n = 0
        for j in (10, 30):
            for i, I in enumerate(I_vals):
                if status[i, j] != K.TAU_OK:
                    continue
                tp, tm, mp, mm = _mirror_pair(I, th_vals[j], tau[i, j], p)
                assert tm < 0 <= tp
                assert abs(tp + tm) <= K.TIE_TOL
                assert abs(mp - mm) <= K.MARGIN_TIE_RTOL * max(mp, mm)
                assert tau[i, j] == pytest.approx(float(tp), abs=1e-12)
                n += 1
        assert n >= 76

    def test_fold_order_does_not_matter(self):
        # a mirror pair on the ray of r = 1, theta = pi/2, I = -1.1, c = 0.6
        args = (math.pi / 2, math.pi / 2, 1.1, 2.1, 0.6, 0.6)
        t = 0.8
        m = abs(K._gn_prime(t, *args[:6]))
        assert m == pytest.approx(abs(K._gn_prime(-t, *args[:6])), rel=1e-15)
        first = K._fold(t, 1.0, *args, (math.inf, math.inf, 0.0))
        assert K._fold(-t, -1.0, *args, first) == first
        first = K._fold(-t, -1.0, *args, (math.inf, math.inf, 0.0))
        assert K._fold(t, 1.0, *args, first)[0] == t

    def test_larger_margin_wins_outside_the_mirror_band(self):
        args = (math.pi / 2, 0.3, 1.1, 2.1, 0.6, 0.6)
        m_plus = abs(K._gn_prime(0.8, *args[:6]))
        m_minus = abs(K._gn_prime(-0.8, *args[:6]))
        assert abs(m_plus - m_minus) > 1e-3
        want = 0.8 if m_plus > m_minus else -0.8
        for t in (0.8, -0.8):
            first = K._fold(t, math.copysign(1.0, t), *args,
                            (math.inf, math.inf, 0.0))
            assert K._fold(-t, -math.copysign(1.0, t), *args, first)[0] == want


def _bisect_hb(ta, tb, args):
    """Plain bisection of the band residual down to adjacent floats."""
    fa = K._hb(ta, *args)[0]
    a, b = ta, tb
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return mid
        fm = K._hb(mid, *args)[0]
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid


def _assert_finish_agrees(ta, tb, fa, fb, args, root):
    """The finish's root against the plain bisection: within 1e-12, or,
    where h_b is too flat for that, within the rounding uncertainty of any
    root, 4 ulps of the residual's terms over |h_b'|."""
    ref = _bisect_hb(ta, tb, args)
    assert min(ta, tb) <= root <= max(ta, tb)
    m, par, w0, lw = args[:4]
    scale = abs(w0) + abs(lw * ref) + abs(m) * math.pi + 0.5 * math.pi
    slope = min(abs(K._hb(root, *args)[1]), abs(K._hb(ref, *args)[1]))
    tol = max(1e-12, 4 * 2.0 ** -52 * scale / slope)
    assert abs(root - ref) <= tol, (ta, tb, args, root, ref, slope)
    return tol > 1e-12


def _adversarial_queries():
    """Rays 1e-3 .. 1e-9 off tangency points, and rays where |c| is within
    1e-3 .. 3e-9 of 1, as in TestBracketAdversarial but on a fixed grid."""
    for r in (0.5, 1.0):
        p = pr.SystemParams(a1=0.75, a2=1.0, r=r)
        rep = _thresholds(r)
        for iv in rep.intervals:
            if iv.tangency:
                for u in (0.37, 0.81):
                    I = iv.lo + u * (iv.hi - iv.lo)
                    for th, k in _tangency_rays(I, p, 1):
                        for off in (1e-3, -1e-6, 1e-6, -1e-9, 1e-9):
                            for crit in (pr.branch(k), pr.MINABS):
                                yield I, (th + off) % TWO_PI, crit, p
        for I_c in rep.alpha_thresholds:
            for target in (1.0 - 1e-3, 1.0 + 1e-6, 1.0 - 3e-9):
                def gap(I):
                    return abs(K.crest_coef(I, p.a1, p.a2, r)) - target
                I = brentq(gap, I_c - 1e-2, I_c + 1e-2, xtol=1e-15, rtol=1e-15)
                for th in np.linspace(0.1, 6.1, 7):
                    for crit in (pr.DOWN, pr.UP, pr.MINABS, pr.branch(0),
                                 pr.branch(1), pr.branch(2)):
                        yield I, th, crit, p


class TestNewtonFinish:
    """The safeguarded Newton finish against an independent bisection, and
    the residual evaluations it needs."""

    def test_adversarial_brackets_agree_with_bisection(self, monkeypatch):
        # h_b is monotone on the bracket only: no evaluation may leave it
        calls = []
        bracket = []
        finish, hb = K._newton_hb, K._hb

        def recorded(*args):
            bracket.append((min(args[:2]), max(args[:2])))
            root = finish(*args)
            bracket.pop()
            calls.append((args, root))
            return root

        def inside(t, *args):
            if bracket:
                assert bracket[-1][0] <= t <= bracket[-1][1]
            return hb(t, *args)

        monkeypatch.setattr(K, "_newton_hb", recorded)
        monkeypatch.setattr(K, "_hb", inside)
        for q in _adversarial_queries():
            try:
                pr.solve_tau_star(*q)
            except pr.PendrotorError:
                pass
        monkeypatch.undo()
        n_flat = 0
        for args, root in calls:
            n_flat += _assert_finish_agrees(*args[:4], args[4:], root)
        assert len(calls) > 1000
        assert n_flat > 50

    @pytest.mark.parametrize("c", [1.2, -1.2])
    @pytest.mark.parametrize("root_at", [0.5, "edge", 1.5])
    def test_clamped_brackets_agree_with_bisection(self, c, root_at):
        # horizontal residual with |c| > 1: x = c sin(tau) is clamped to +-1
        # for |sin tau| > 1/|c|; on [0, 2.1] h_b rises through the asin
        # piece into the clamped piece, where its slope is lw
        lw, par = 0.3, 1.0 if c > 0 else -1.0
        edge = math.asin(1.0 / abs(c))
        if root_at == 1.5:
            w0 = -0.5 * math.pi - lw * 1.5
        else:
            t0 = edge if root_at == "edge" else root_at
            w0 = -lw * t0 - par * math.asin(max(-1.0, min(1.0, c * math.sin(t0))))
        args = (0, par, w0, lw, 0.0, 0.0, 1.0, 0.5, c, True)
        ta, tb = 0.0, 2.1
        fa, fb = K._hb(ta, *args)[0], K._hb(tb, *args)[0]
        assert fa < 0.0 < fb
        if root_at == 1.5:
            # the root lies on the clamped piece, where the slope is lw
            assert K._hb(1.5, *args)[1] == lw
        for lo, hi, flo, fhi in ((ta, tb, fa, fb), (tb, ta, fb, fa)):
            root = K._newton_hb(lo, hi, flo, fhi, *args)
            _assert_finish_agrees(lo, hi, flo, fhi, args, root)
            want = 1.5 if root_at == 1.5 else (edge if root_at == "edge"
                                               else root_at)
            assert root == pytest.approx(want, abs=1e-12)

    @staticmethod
    def _counted_sweep(monkeypatch, crit):
        """_hb evaluations of a 20 x 20 sweep, counted the way the
        benchmark counts them: the module's _hb replaced by a counting
        wrapper."""
        n = [0]
        hb = K._hb

        def counted(*args):
            n[0] += 1
            return hb(*args)

        monkeypatch.setattr(K, "_hb", counted)
        p = pr.SystemParams(a1=0.75, a2=1.0)
        status = pr.sweep(np.linspace(-2.0, 2.0, 20),
                          np.linspace(0.0, TWO_PI, 20, endpoint=False),
                          crit, p)[0]
        assert (status == K.TAU_OK).sum() == 400
        return n[0]

    @pytest.mark.parametrize("crit", [pr.DOWN, pr.MINABS, pr.branch(1)])
    def test_residual_evaluations_per_solve(self, monkeypatch, crit):
        assert self._counted_sweep(monkeypatch, crit) / 400 <= 15.0

    @pytest.mark.parametrize("crit,evals", [
        (pr.DOWN, 2634), (pr.UP, 2618), (pr.MINABS, 4609),
        (pr.branch(0), 2674), (pr.branch(1), 2751), (pr.branch(2), 2718)])
    def test_solver_path_is_pinned(self, monkeypatch, crit, evals):
        # the exact count of that sweep: a kernel change that keeps every
        # output bit may still not add or drop a residual evaluation.  One
        # reported core, so that no count could go to a forked child
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert self._counted_sweep(monkeypatch, crit) == evals


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

    def test_degenerate_contact_refused(self, p075, monkeypatch):
        # force the degeneracy flag with an absurdly large margin tolerance
        monkeypatch.setattr(scattering, "TOL_DEGEN", 1e9)
        with pytest.raises(pr.TangencyDegenerate):
            pr.grad_reduced_poincare(0.4, 2.0, pr.branch(1), p075)


class TestScatteringStep:
    def test_identity_at_zero_eps(self):
        p = pr.SystemParams(a1=0.75, a2=1.0, eps=0.0)
        st = pr.ScatteringState(0.4, 2.0)
        assert pr.scattering_step(st, pr.branch(1), p) == st

    @pytest.mark.parametrize("I, theta", [(0.5, math.nan), (math.inf, 1.0)])
    def test_zero_eps_refuses_nonfinite_state(self, I, theta):
        # the eps = 0 shortcut makes no solve, so it checks the state itself
        p = pr.SystemParams(a1=0.75, a2=1.0, eps=0.0)
        st = pr.ScatteringState(I, theta)
        with pytest.raises(pr.ConfigError, match="must be finite"):
            pr.scattering_step(st, pr.MINABS, p)
        with pytest.raises(pr.ConfigError, match="must be finite"):
            pr.piecewise_global_map(st, p)

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

    @pytest.mark.parametrize("r", [1.0, 0.5])
    def test_is_the_minabs_step(self, r):
        # off the discontinuity lines the map is the MINABS step, and where
        # that contact lies on the region's branch it is the branch step too
        p = pr.SystemParams(a1=0.75, a2=1.0, eps=0.01, r=r)
        n_branch = 0
        for I in np.linspace(-2.0, 2.0, 21):
            for th in np.linspace(0.05, TWO_PI - 0.05, 25):
                if min(abs(th - d) for d in pr.ATLAS.discontinuities) < 0.05:
                    continue
                st = pr.ScatteringState(float(I), float(th))
                try:
                    direct = pr.scattering_step(st, pr.MINABS, p)
                except pr.PendrotorError as exc:
                    with pytest.raises(type(exc)):
                        pr.piecewise_global_map(st, p)
                    continue
                assert pr.piecewise_global_map(st, p)[0] == direct
                k = pr.ATLAS.region_of(th)[1]
                if pr.solve_tau_star(I, th, pr.MINABS, p).band == k:
                    n_branch += 1
                    assert pr.scattering_step(st, pr.branch(k), p) == direct
        assert n_branch > 100

    def test_eps_zero_is_the_identity(self):
        # no solve is made, so a singular crest does not raise
        p = pr.SystemParams(a1=0.75, a2=1.0, eps=0.0)
        I0 = pr.find_thresholds(p).alpha_thresholds[0]
        st = pr.ScatteringState(I0, 4.0 + TWO_PI)
        assert pr.piecewise_global_map(st, p) == (st.normalized(), "II")

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


class TestThetaReduction:
    """A tiny negative theta solves as theta = 0, not as theta = 2*pi."""

    CRITERIA = [pr.DOWN, pr.UP, pr.MINABS, pr.branch(0), pr.branch(1)]

    @pytest.mark.parametrize("crit", CRITERIA, ids=str)
    def test_lstar_and_solve(self, p075, crit):
        assert (repr(pr.lstar(0.5, -1e-17, crit, p075))
                == repr(pr.lstar(0.5, 0.0, crit, p075)))
        assert (pr.solve_tau_star(0.5, -1e-17, crit, p075)
                == pr.solve_tau_star(0.5, 0.0, crit, p075))

    @pytest.mark.parametrize("crit", CRITERIA, ids=str)
    def test_sweep(self, p075, crit):
        I = np.array([0.5])
        for a, b in zip(pr.sweep(I, np.array([-1e-17]), crit, p075),
                        pr.sweep(I, np.array([0.0]), crit, p075)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("crit", CRITERIA, ids=str)
    def test_oracle(self, p075, crit):
        assert (brute_tau_scan(0.5, -1e-17, crit, p075)
                == brute_tau_scan(0.5, 0.0, crit, p075))

    def test_normalized(self):
        assert pr.ScatteringState(0.5, -1e-17).normalized().theta == 0.0

    def test_step_at_zero_eps(self):
        p = pr.SystemParams(a1=0.75, a2=1.0, eps=0.0)
        st = pr.scattering_step(pr.ScatteringState(0.5, -1e-17), pr.MINABS, p)
        assert st.theta == 0.0

    def test_transversality(self, p075):
        rep = pr.transversality(0.1, -1e-17, pr.branch(1), p075)
        assert rep.theta == 0.0

    def test_atlas_region_is_the_map_label(self, p075):
        st = pr.ScatteringState(0.5, -1e-17)
        assert pr.ATLAS.region_of(st.theta) == ("I", 0)
        assert pr.piecewise_global_map(st, p075)[1] == "I"


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
        # the edges: each region is closed below and open above
        assert pr.ATLAS.region_of(0.0) == ("I", 0)
        assert pr.ATLAS.region_of(-0.0) == ("I", 0)
        assert pr.ATLAS.region_of(math.pi / 2) == ("II", 1)
        assert pr.ATLAS.region_of(3 * math.pi / 2) == ("III", 2)
        assert pr.ATLAS.region_of(math.nextafter(TWO_PI, 0.0)) == ("III", 2)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_region_refuses_nonfinite_theta(self, theta):
        with pytest.raises(pr.ConfigError, match="theta must be finite"):
            pr.ATLAS.region_of(theta)

    def test_atlas_takes_no_arguments(self):
        # piecewise_global_map and portrait read the module's ATLAS, so a
        # partition given to the constructor would change nothing
        atlas = pr.PiecewiseMapAtlas()
        assert atlas.regions == pr.ATLAS.regions
        assert atlas.discontinuities == pr.ATLAS.discontinuities
        with pytest.raises(TypeError):
            pr.PiecewiseMapAtlas(regions=())
        with pytest.raises(TypeError):
            pr.PiecewiseMapAtlas((), ())


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

    @staticmethod
    def _closed_form(I, kind):
        """The docstring's closed forms, piece by piece; 3pi/2 elsewhere."""
        pi = math.pi
        if kind is pr.CrestKind.HORIZONTAL:
            pieces = ((0.0 < I < 1.0, (2.0 - I) * pi),
                      (1.0 <= I < 1.5, pi * I))
        else:
            pieces = ((-0.5 < I < 0.0, (1.0 - I) * pi),
                      (0.0 <= I <= 1.0, (1.0 + I) * pi))
        return next((v for inside, v in pieces if inside), 1.5 * pi)

    def test_equals_closed_forms_on_dense_grid(self):
        # every breakpoint, and the floats either side of it, on top of a
        # dense grid; both regimes occur over the three couplings
        breaks = (-0.5, 0.0, 1.0, 1.5)
        Is = list(np.linspace(-2.0, 2.0, 1601)) + [
            x for b in breaks
            for x in (math.nextafter(b, -math.inf), b,
                      math.nextafter(b, math.inf))]
        kinds = set()
        for mu in (0.5, 0.75, 3.0):
            p = pr.SystemParams(a1=mu, a2=1.0)
            for I in Is:
                kind = pr.classify(I, p)
                if kind is pr.CrestKind.SINGULAR:
                    continue
                kinds.add(kind)
                assert pr.theta_plus(I, p) == self._closed_form(I, kind), \
                    (mu, I, kind)
        assert kinds == {pr.CrestKind.HORIZONTAL, pr.CrestKind.VERTICAL}


class TestKernelScalarTypes:
    """The kernels must return Python scalars."""

    CASES = ((K.CRIT_DOWN, 0), (K.CRIT_UP, 0), (K.CRIT_MINABS, 0),
             (K.CRIT_BRANCH, 1))

    @pytest.mark.parametrize("crit,k", CASES)
    def test_lstar_kernel_returns_python_scalars(self, p075, crit, k):
        for I, th in ((0.4, 2.0), (-1.3, 4.0)):
            res = K.lstar_kernel(np.float64(I), np.float64(th), p075.r,
                                 p075.a1, p075.a2, crit, k)
            assert res[0] == K.TAU_OK
            assert all(type(x) in (float, int) for x in res), \
                [type(x).__name__ for x in res]
            # same values as the Python-float call
            ref = K.lstar_kernel(I, th, p075.r, p075.a1, p075.a2, crit, k)
            assert res == ref

    @pytest.mark.parametrize("crit,k", CASES)
    def test_tau_star_kernel_returns_python_scalars(self, p075, crit, k):
        I = np.float64(0.4)
        c = K.crest_coef(I, p075.a1, p075.a2, p075.r)
        res = K.tau_star_kernel(I, np.float64(2.0), np.float64(p075.r), c,
                                crit, k)
        assert res[0] == K.TAU_OK
        assert all(type(x) in (float, int) for x in res), \
            [type(x).__name__ for x in res]


class TestSweepKernel:
    """sweep_kernel allocates its outputs and agrees with lstar_kernel."""

    @pytest.mark.parametrize("crit,k", TestKernelScalarTypes.CASES)
    def test_entries_equal_lstar_kernel(self, p075, crit, k):
        Ivals = np.linspace(-1.5, 1.5, 5)
        thvals = np.linspace(0.0, TWO_PI, 7, endpoint=False)
        criterion = next(c for c in (pr.DOWN, pr.UP, pr.MINABS, pr.branch(k))
                         if c.code == crit)
        # the kernel and the scattering entry that wraps it
        outs = (K.sweep_kernel(Ivals, thvals, p075.r, p075.a1, p075.a2, crit,
                               k),
                pr.sweep(Ivals, thvals, criterion, p075))
        # (status, tau, band, margin, L, dL/dtheta, dL/dI) of lstar_kernel
        expected = np.empty((7, 5, 7))
        for i, I in enumerate(Ivals):
            for j, th in enumerate(thvals):
                res = K.lstar_kernel(float(I), float(th), p075.r, p075.a1,
                                     p075.a2, crit, k)
                expected[:, i, j] = [res[n] for n in (0, 1, 2, 3, 6, 7, 8)]
        for out in outs:
            assert len(out) == 7
            assert all(a.shape == (5, 7) for a in out)
            assert out[0].dtype == np.int64 and out[2].dtype == np.int64
            for got, want in zip(out, expected):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("r", [1.0, 0.5])
    @pytest.mark.parametrize("crit,k", TestKernelScalarTypes.CASES
                             + ((K.CRIT_BRANCH, 40),))
    def test_special_rows_equal_lstar_kernel(self, r, crit, k):
        # rows at +-250, where crest_coef takes _alpha_r_far; at a root of
        # |c| = 1 (SINGULAR); at the pole I = 1/r, where sigma stays put
        # along the ray (UNREACHABLE for down and up); and, for branch 40,
        # UNREACHABLE rows: the NaNs of every output sit where lstar_kernel
        # puts them
        p = pr.SystemParams(a1=0.75, a2=1.0, eps=0.01, r=r)
        singular = pr.solve_level_crossing("alpha", "mid", p)
        Ivals = np.array([-250.0, -1.5, singular, 0.4, 1.0 / r, 250.0])
        thvals = np.linspace(0.0, TWO_PI, 7, endpoint=False)
        assert 0.5 * math.pi * 250.0 >= K.SINH_FAR
        out = K.sweep_kernel(Ivals, thvals, r, p.a1, p.a2, crit, k)
        expected = np.empty((7, 6, 7))
        for i, I in enumerate(Ivals.tolist()):
            for j, th in enumerate(thvals.tolist()):
                res = K.lstar_kernel(I, th, r, p.a1, p.a2, crit, k)
                expected[:, i, j] = [res[n] for n in (0, 1, 2, 3, 6, 7, 8)]
        assert (out[0][2] == K.TAU_SINGULAR).all()
        assert (K.TAU_UNREACHABLE in out[0]) == (
            crit in (K.CRIT_DOWN, K.CRIT_UP) or k == 40)
        for got, want in zip(out, expected):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("nI,nth", [(3, 0), (0, 4), (0, 0)])
    def test_empty_grid(self, p075, nI, nth):
        # no action or no angle: seven empty outputs of the grid's shape
        out = K.sweep_kernel(np.linspace(-1.0, 1.0, nI),
                             np.linspace(0.0, 1.0, nth), p075.r, p075.a1,
                             p075.a2, K.CRIT_MINABS, 0)
        assert [(a.shape, a.dtype.kind) for a in out] == [
            ((nI, nth), k) for k in "ififfff"]


class TestKernelBits:
    """sweep_kernel and lstar_kernel reproduce pinned bits: a speed-up of
    the kernels must not move a single output bit."""

    MUS = (0.3, 0.75, 1.5, 3.0)
    #: a root of |mu*alpha_r(I)| = 1 near the pole 1/r, per (mu, r)
    THRESHOLD = {
        (0.3, 1.0): "0x1.9e5705f187592p-1", (0.3, 0.5): "0x1.999c8b08df270p+0",
        (0.75, 1.0): "0x1.2d47ec971117cp-1", (0.75, 0.5): "0x1.c713a24c980b6p-1",
        (1.5, 1.0): "0x1.81fdf924ea927p-2", (1.5, 0.5): "0x1.c59687d0aaee7p-2",
        (3.0, 1.0): "0x1.adfba5e06a3f0p-3", (3.0, 0.5): "0x1.c7ed7d00ccd10p-3",
    }
    #: SHA-256 of the seven outputs' bytes over r in (1, 0.5) x MUS
    SWEEP_DIGESTS = {
        (K.CRIT_DOWN, 0):
            "30e1cf7366a1058bd61209a7e85eeb8b1f48cacd3729a5c03a439777a2cea897",
        (K.CRIT_UP, 0):
            "c1ed0511c8cffa7e6daa1d6605d81baceca284bc6ca4f2d1721383085b2f5139",
        (K.CRIT_MINABS, 0):
            "3254fe1252228e1de5d87bb5377e80d4dc91d7e72c27b16656898e1431dea896",
        (K.CRIT_BRANCH, -1):
            "63897741a4f84b70c4f8124588f65288086656800abac85c5d0413954e0d8dd0",
        (K.CRIT_BRANCH, 0):
            "b96dbde25ff674a5d18d542913ea715469c6be87a8c24271daa329ecbde45e69",
        (K.CRIT_BRANCH, 1):
            "a529076f38927036ad429b06dd71b060a8ec26e0550fc09c1af80f34b33a53b2",
        (K.CRIT_BRANCH, 2):
            "6d489ba5eabece93afed2bc1000486af6df721b2ce41668f1bcd588912c4c447",
        (K.CRIT_BRANCH, 40):
            "09b5731212019343e0ee473830b1ab0210a5b2d707740ca1311cbc7f1846776b",
    }
    #: lstar_kernel(I, theta, r, 0.75, 1.0, crit, k) as float.hex
    POINTS = {
        (0.4, 2.0, 1.0, K.CRIT_MINABS, 0): (
            0, "0x1.e6f42c71a2238p-1", 1, "0x1.07e0adf0d564dp-1",
            "0x1.9e9bf71c792c2p+0", "0x1.490b06aaa51efp+1",
            "-0x1.8699edd3c4af6p+1", "-0x1.2b84ec78d99cbp+2",
            "0x1.91514d98c0ef2p+1"),
        (-1.3, 4.0, 1.0, K.CRIT_DOWN, 0): (
            0, "-0x1.293c60b10a9f5p+1", 0, "0x1.2b8cdf4d0c1ebp+0",
            "0x1.f65fa2cdc8c38p-1", "-0x1.5748effb30dccp+0",
            "0x1.13b110849a172p+0", "-0x1.2b35690b71651p-1",
            "-0x1.8ad7eb5737b0cp-2"),
        (0.6, 3.5, 0.5, K.CRIT_BRANCH, 1): (
            0, "0x1.7c9684bf12d65p+0", 1, "0x1.01a8c98df5d50p+0",
            "0x1.4dd2d82d13f2ep+1", "0x1.6534ae761364ap+1",
            "-0x1.552b4c04e3904p+2", "-0x1.e3410b58d2e64p+0",
            "0x1.83088e622ffc2p+1"),
        (2.2, 0.3, 1.0, K.CRIT_UP, 0): (
            0, "-0x1.50ccbf43c7382p+2", 2, "0x1.009f4438b99e4p+1",
            "0x1.7c146bfdc18aap+3", "0x1.a75c18b7bbdd0p+2",
            "0x1.5c5b70c006f25p+1", "-0x1.635b339d9c538p-2",
            "-0x1.0c3424d692d54p+2"),
    }

    @pytest.mark.parametrize("crit,k", list(SWEEP_DIGESTS))
    def test_sweep_digest(self, crit, k):
        # the I grid holds +-250 (_alpha_r_far), the pole 1/r and a
        # threshold of |c| = 1
        ths = np.linspace(0.0, TWO_PI, 9, endpoint=False)
        h = hashlib.sha256()
        for r in (1.0, 0.5):
            for mu in self.MUS:
                Is = np.concatenate([
                    [-250.0], np.linspace(-3.0, 3.0, 13),
                    [1.0 / r, float.fromhex(self.THRESHOLD[mu, r]), 250.0]])
                for out in K.sweep_kernel(Is, ths, r, mu, 1.0, crit, k):
                    h.update(out.tobytes())
        assert h.hexdigest() == self.SWEEP_DIGESTS[crit, k]

    def test_lstar_kernel_bits(self):
        for (I, th, r, crit, k), want in self.POINTS.items():
            got = K.lstar_kernel(I, th, r, 0.75, 1.0, crit, k)
            assert tuple(x.hex() if isinstance(x, float) else x
                         for x in got) == want, (I, th, r, crit, k)


class TestLstar:
    """scattering.lstar: the per-point tau* entry, status returned."""

    def test_singular_status_is_returned(self, p075, monkeypatch):
        monkeypatch.setattr(K, "TOL_CLS", 10.0)
        res = pr.lstar(0.4, 2.0, pr.MINABS, p075)
        assert res[0] == K.TAU_SINGULAR
        assert all(math.isnan(x) for x in res[6:])
        with pytest.raises(pr.SingularCrest):
            pr.solve_tau_star(0.4, 2.0, pr.MINABS, p075)

    def test_unreachable_status_is_returned(self, p075):
        res = pr.lstar(0.4, 2.0, pr.branch(40), p075)
        assert res[0] == K.TAU_UNREACHABLE
        assert all(math.isnan(x) for x in res[6:])
        with pytest.raises(pr.UnreachableBranch):
            pr.reduced_poincare(0.4, 2.0, pr.branch(40), p075)

    @pytest.mark.parametrize("crit", [pr.MINABS, pr.branch(1)])
    @pytest.mark.parametrize("theta", [-1.0, -13.0, TWO_PI, 7.5, 20.0])
    def test_reduces_theta(self, p075, crit, theta):
        ref = K.lstar_kernel(0.4, theta % TWO_PI, p075.r, p075.a1, p075.a2,
                             crit.code, crit.k)
        assert ref[0] == K.TAU_OK
        assert pr.lstar(0.4, theta, crit, p075) == ref

    @pytest.mark.parametrize("I,theta", [(math.nan, 1.0), (0.4, math.inf),
                                         (-math.inf, 0.0)])
    def test_non_finite_raises(self, p075, I, theta):
        with pytest.raises(pr.ConfigError):
            pr.lstar(I, theta, pr.MINABS, p075)
        with pytest.raises(pr.ConfigError):
            pr.sweep(np.array([0.4, I]), np.array([1.0, theta]), pr.MINABS,
                     p075)
