import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pendrotor as pr
from conftest import alpha_direct, beta_direct

E_PI_HALF = math.exp(math.pi / 2.0)


class TestSeparatrix:
    def test_origin_point(self):
        pt = pr.separatrix(0.0, sign=1)
        assert pt.p0 == pytest.approx(2.0, abs=1e-15)
        assert pt.q0 == pytest.approx(math.pi, abs=1e-15)

    def test_asymptotes(self):
        assert pr.separatrix(40.0, sign=1).p0 == pytest.approx(0.0, abs=1e-15)
        assert pr.separatrix(40.0, sign=1).q0 == pytest.approx(2 * math.pi,
                                                               abs=1e-12)
        assert pr.separatrix(-40.0, sign=1).q0 == pytest.approx(0.0, abs=1e-12)

    def test_cos_q0_identity(self):
        # direct evaluation of the closed forms at tau = 1.3
        for sign in (1, -1):
            pt = pr.separatrix(1.3, sign)
            expected = 1.0 - 2.0 / math.cosh(1.3) ** 2
            assert math.cos(pt.q0) == pytest.approx(expected, abs=1e-14)

    @given(st.floats(-30.0, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_cos_q0_branch_independent(self, tau):
        c1 = math.cos(pr.separatrix(tau, 1).q0)
        c2 = math.cos(pr.separatrix(tau, -1).q0)
        assert c1 == pytest.approx(c2, abs=1e-12)
        assert c1 == pytest.approx(pr.cos_q0(tau), abs=1e-12)


class TestAmplitudes:
    def test_A1_at_zero(self):
        p = pr.SystemParams(a1=1.0, a2=1.0)
        assert pr.amplitude_A1(0.0, p) == 4.0

    def test_A2_at_shifted_zero(self):
        p = pr.SystemParams(a1=1.0, a2=1.0)
        assert pr.amplitude_A2(1.0, p) == 4.0

    def test_A1_at_one(self):
        # direct evaluation: 2*pi*1/sinh(pi/2)
        p = pr.SystemParams(a1=1.0, a2=1.0)
        expected = 2.0 * math.pi / math.sinh(math.pi / 2.0)
        assert pr.amplitude_A1(1.0, p) == pytest.approx(expected, rel=1e-14)

    def test_decay(self):
        p = pr.SystemParams(a1=1.0, a2=1.0)
        assert abs(pr.amplitude_A1(40.0, p)) < 1e-20
        assert abs(pr.amplitude_A2(-40.0, p)) < 1e-20

    def test_derivative_matches_finite_difference(self):
        p = pr.SystemParams(a1=0.7, a2=1.3)
        h = 1e-6
        for I in (-2.3, -0.4, 1e-5, 0.5, 1.0, 2.7):
            fd = (pr.amplitude_A1(I + h, p) - pr.amplitude_A1(I - h, p)) / (2 * h)
            assert pr.amplitude_A1_prime(I, p) == pytest.approx(fd, abs=2e-8)
            fd2 = (pr.amplitude_A2(I + h, p) - pr.amplitude_A2(I - h, p)) / (2 * h)
            assert pr.amplitude_A2_prime(I, p) == pytest.approx(fd2, abs=2e-8)


class TestAlphaBeta:
    def test_alpha_zero_exact(self):
        assert pr.alpha(0.0) == 0.0
        assert pr.beta(0.0) == 0.0

    def test_alpha_matches_direct_formula(self):
        for I in (-3.1, -1.0, -0.2, 0.3, 0.77, 1.4, 2.9):
            assert pr.alpha(I) == pytest.approx(alpha_direct(I), rel=1e-13)
            assert pr.beta(I) == pytest.approx(beta_direct(I), rel=1e-13)

    def test_half_point(self):
        assert abs(pr.alpha(0.5)) == pytest.approx(1.0, abs=1e-14)
        assert abs(pr.beta(0.5)) == pytest.approx(1.0, abs=1e-14)

    def test_limits_approached(self):
        # algebraic approach rate O(1/I): at |I| = 1e3 the residual gap is
        # the (I/(I-1))^2 prefactor, about 2e-3 relative
        assert pr.alpha(-1e3) == pytest.approx(E_PI_HALF, rel=3e-3)
        assert pr.alpha(1e3) == pytest.approx(1.0 / E_PI_HALF, rel=3e-3)
        # the prefactor-corrected value is exact to machine precision
        for I in (-1e3, 1e3):
            lim = E_PI_HALF if I < 0 else 1.0 / E_PI_HALF
            pref = (I / (I - 1.0)) ** 2
            assert pr.alpha(I) == pytest.approx(pref * lim, rel=1e-12)

    def test_pole_raises(self):
        with pytest.raises(pr.PoleAtOne):
            pr.alpha(1.0 + 1e-6)
        with pytest.raises(pr.PoleAtOneOverR):
            pr.alpha_r(2.0, 0.5)

    def test_alpha_r_reduces_to_alpha(self):
        for I in np.linspace(-4.0, 4.0, 41):
            if abs(I - 1.0) < 1e-3:
                continue
            assert pr.alpha_r(I, 1.0) == pytest.approx(pr.alpha(I), abs=1e-14,
                                                       rel=1e-14)
            assert pr.beta_r(I, 1.0) == pytest.approx(pr.beta(I), abs=1e-14,
                                                      rel=1e-14)

    def test_alpha_r_vanishes_at_infinity(self):
        for r in (0.25, 0.5, 0.8):
            assert abs(pr.alpha_r(-200.0, r)) < 1e-10
            assert abs(pr.alpha_r(200.0, r)) < 1e-10

    def test_alpha_r_diverges_at_pole(self):
        # r = 0.5: blow-up approaching I = 2 from both sides
        assert abs(pr.alpha_r(1.99, 0.5)) > 1e2
        assert abs(pr.alpha_r(2.01, 0.5)) > 1e2
        assert abs(pr.alpha_r(1.8, 0.5)) < abs(pr.alpha_r(1.95, 0.5))

    def test_c1_consistency_across_series_seams(self):
        # the stable evaluators switch estimator near |arg| = 0.1 and 1e-8;
        # finite differences across the seams must match the analytic
        # derivative to 1e-6
        p = pr.SystemParams(a1=1.0, a2=1.0)
        h = 1e-7
        for I in (2.0 * 0.1 / math.pi, 2.0 * 1e-8 / math.pi, 0.063, 0.0637):
            for x in (I - 2 * h, I, I + 2 * h):
                fd = (pr.amplitude_A1(x + h, p)
                      - pr.amplitude_A1(x - h, p)) / (2 * h)
                assert fd == pytest.approx(pr.amplitude_A1_prime(x, p),
                                           abs=1e-6)

    def test_alpha_monotone_per_component(self):
        # no sign change of the finite-difference derivative on each
        # component of R \ {1}
        for lo, hi in ((-6.0, -1e-3), (1e-3, 0.995), (1.005, 6.0)):
            grid = np.linspace(lo, hi, 400)
            vals = np.array([pr.alpha(I) for I in grid])
            d = np.diff(vals)
            assert np.all(d < 0.0) or np.all(d > 0.0)

    def test_abs_beta_critical_point_only_at_zero(self):
        # |beta| has a unique interior critical point, at I = 0
        grid = np.linspace(-5.0, 0.99, 1200)
        vals = np.array([abs(pr.beta(I)) if abs(I - 1) > 1e-3 else np.nan
                         for I in grid])
        d = np.diff(vals)
        sign_changes = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
        roots = grid[sign_changes + 1]
        assert len(roots) == 1
        assert abs(roots[0]) < 0.02
        grid_r = np.linspace(1.01, 6.0, 500)
        vals_r = np.array([abs(pr.beta(I)) for I in grid_r])
        assert np.all(np.diff(vals_r) < 0.0)

    @given(st.floats(-5.0, 5.0), st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_beta_r_identity(self, I, r):
        # beta_r = I alpha_r / (rI - 1) wherever both are defined
        if abs(r * I - 1.0) < 1e-3:
            return
        lhs = pr.beta_r(I, r)
        rhs = I * pr.alpha_r(I, r) / (r * I - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestParams:
    def test_reduction_from_harmonics(self):
        p = pr.SystemParams.from_harmonics(a1=1.0, a2=2.0, k1=2, k2=1,
                                           l1=0, l2=-1, eps=0.01)
        assert p.r == pytest.approx(0.5)
        assert p.eps == pytest.approx(0.04)  # eps * k1^2
        assert p.delta == 2 * (-1) - 1 * 0

    def test_reduction_orders_harmonics(self):
        p = pr.SystemParams.from_harmonics(a1=1.0, a2=2.0, k1=1, k2=3,
                                           l1=1, l2=0, eps=0.01)
        assert p.r == pytest.approx(1.0 / 3.0)
        assert p.a1 == 2.0 and p.a2 == 1.0  # swapped so |k2| <= |k1|

    def test_dependent_harmonics_rejected(self):
        with pytest.raises(pr.ConfigError):
            pr.SystemParams.from_harmonics(1.0, 1.0, 2, 1, 2, 1, 0.01)

    def test_nontriviality_gate(self):
        with pytest.raises(pr.ConfigError):
            pr.SystemParams(a1=0.0, a2=1.0, eps=0.01).require_nontrivial()
        with pytest.raises(pr.ConfigError):
            pr.SystemParams(a1=1.0, a2=1.0, eps=0.0).require_nontrivial()

    @pytest.mark.parametrize("field", ["a1", "a2", "eps", "r"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = {"a1": 0.75, "a2": 1.0, "eps": 0.01, "r": 1.0, field: value}
        with pytest.raises(pr.ConfigError, match="finite"):
            pr.SystemParams(**kwargs)


class TestNonFiniteTauQuery:
    @pytest.mark.parametrize("I,theta", [(1.0, math.nan), (math.nan, 1.0),
                                         (math.inf, 2.0), (0.4, -math.inf)])
    def test_config_error(self, p075, I, theta):
        with pytest.raises(pr.ConfigError, match="finite"):
            pr.solve_tau_star(I, theta, pr.MINABS, p075)
        with pytest.raises(pr.ConfigError, match="finite"):
            pr.reduced_poincare(I, theta, pr.branch(1), p075)
