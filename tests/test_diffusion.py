import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import pendrotor as pr
from pendrotor import _kernels as K, diffusion, inner, scattering
from pendrotor.diffusion import ARC_TOL, REINT_BUDGET, InnerLeg, ScatterLeg

TWO_PI = 2.0 * math.pi


class TestPoissonBracket:
    def test_vanishes_at_theta_pi(self, p075):
        # tau*(I, pi) = 0 makes dL*/dtheta vanish, and sin(pi) kills the
        # F-angle term
        for I in (0.45, 0.9, 1.6):
            b = pr.poisson_bracket(I, math.pi, pr.branch(1), p075)
            assert abs(b) < 1e-12

    def test_nonresonant_magnitude(self, p075):
        # at I = 0.4, theta = pi/2 the bracket reduces to -I dL*/dtheta and
        # must be comfortably nonzero
        I = 0.4
        dI_L, dth_L = pr.grad_reduced_poincare(I, math.pi / 2, pr.branch(1),
                                               p075)
        b = pr.poisson_bracket(I, math.pi / 2, pr.branch(1), p075)
        assert b == pytest.approx(-I * dth_L, rel=1e-12)
        scale = abs(I * pr.amplitude_A1(I, p075) / (I - 1.0))
        assert abs(b) > 0.1 * scale

    def test_resonant_zero_curve_not_horizontal(self, p075):
        # inside the I = 0 band the nontrivial zero of the bracket in theta
        # moves with I (it is not a horizontal line theta = const)
        def theta_root(I):
            ths = np.linspace(1.8, 3.1, 400)
            vals = [pr.poisson_bracket(I, th, pr.branch(1), p075)
                    for th in ths]
            sg = np.sign(vals)
            idx = np.nonzero(sg[1:] * sg[:-1] < 0)[0]
            roots = ths[idx]
            # drop the universal theta = pi zero
            roots = [t for t in roots if abs(t - math.pi) > 0.02]
            return roots

        r_lo = theta_root(-0.004)
        r_hi = theta_root(0.004)
        assert r_lo and r_hi
        assert abs(r_lo[0] - r_hi[0]) > 0.05

    def test_transversality_verdicts(self, p075):
        rep = pr.transversality(0.0, math.pi, pr.branch(1), p075)
        assert rep.verdict == "tangent-line"
        rep = pr.transversality(0.0, math.pi / 2, pr.branch(1), p075)
        assert rep.verdict == "transversal"


class TestBuildVerify:
    def test_short_resonance_crossing(self, p075):
        orbit = pr.build_pseudo_orbit(-0.2, 0.2, p075)
        assert orbit.final_I >= 0.2
        rep = pr.verify_pseudo_orbit(orbit)
        assert rep.ok, rep.failures[:3]
        assert rep.max_level_residual <= rep.level_budget
        assert rep.max_reintegration_residual <= rep.reintegration_budget
        assert rep.monotone_violations == 0
        assert rep.window_violations == 0

    def test_jump_legs_are_the_scattering_map(self, p075):
        # the builder's jump reuses its own solve but is scattering_step's
        # formula, bit for bit
        orbit = pr.build_pseudo_orbit(-0.2, 0.2, p075)
        legs = [leg for leg in orbit.legs if isinstance(leg, ScatterLeg)]
        assert legs
        for leg in legs:
            assert leg.dst == pr.scattering_step(leg.src, scattering.ODD,
                                                 orbit.params)

    def test_scatter_legs_increase_action(self, p075):
        orbit = pr.build_pseudo_orbit(0.25, 0.45, p075)
        for leg in orbit.legs:
            if isinstance(leg, ScatterLeg):
                assert leg.dst.I > leg.src.I

    def test_legs_share_endpoints(self, p075):
        orbit = pr.build_pseudo_orbit(-0.15, 0.15, p075)
        prev = None
        for leg in orbit.legs:
            if isinstance(leg, ScatterLeg):
                cur = (leg.src.I, leg.src.theta)
                nxt = (leg.dst.I, leg.dst.theta)
            else:
                cur = (leg.src.I, leg.src.phi % TWO_PI)
                nxt = (leg.dst.I, leg.dst.phi % TWO_PI)
            if prev is not None:
                assert cur == prev
            prev = nxt

    def test_perturbed_leg_is_flagged(self, p075):
        orbit = pr.build_pseudo_orbit(0.25, 0.4, p075)
        idx = next(i for i, leg in enumerate(orbit.legs)
                   if isinstance(leg, ScatterLeg))
        leg = orbit.legs[idx]
        bad_dst = pr.ScatteringState(leg.dst.I + 10 * p075.eps ** 2,
                                     leg.dst.theta)
        orbit.legs[idx] = replace(leg, dst=bad_dst)
        rep = pr.verify_pseudo_orbit(orbit)
        assert not rep.ok
        assert any(f"leg {idx}" in f for f in rep.failures)

    def test_negative_a1_runs_in_conjugate_frame(self):
        p = pr.SystemParams(a1=-0.75, a2=1.0, eps=0.01)
        orbit = pr.build_pseudo_orbit(0.25, 0.4, p)
        assert orbit.frame_phi_shift == pytest.approx(math.pi)
        assert orbit.frame_s_shift == pytest.approx(math.pi)
        assert orbit.params.a1 == pytest.approx(0.75)
        assert orbit.final_I >= 0.4
        assert pr.verify_pseudo_orbit(orbit).ok

    def test_negative_a2_runs_in_conjugate_frame(self):
        p = pr.SystemParams(a1=0.75, a2=-1.0, eps=0.01)
        orbit = pr.build_pseudo_orbit(0.25, 0.4, p)
        assert orbit.frame_phi_shift == 0.0
        assert orbit.frame_s_shift == pytest.approx(math.pi)
        assert pr.verify_pseudo_orbit(orbit).ok

    def test_rejects_trivial_systems(self):
        with pytest.raises(pr.ConfigError):
            pr.build_pseudo_orbit(-1.0, 1.0,
                                  pr.SystemParams(a1=0.0, a2=1.0, eps=0.01))
        with pytest.raises(pr.ConfigError):
            pr.build_pseudo_orbit(-1.0, 1.0,
                                  pr.SystemParams(a1=1.0, a2=1.0, eps=0.0))
        with pytest.raises(pr.ConfigError):
            pr.build_pseudo_orbit(1.0, -1.0, pr.SystemParams(a1=1.0, a2=1.0,
                                                             eps=0.01))

    def test_resonant_inner_legs_respect_pendulum_levels(self, p075):
        orbit = pr.build_pseudo_orbit(-0.2, 0.2, p075)
        rep = pr.verify_pseudo_orbit(orbit)
        assert rep.ok
        # any resonance-band inner legs stayed within the stroboscopic
        # drift budget; the bracket samples collected there are transversal
        for tr in rep.resonant_brackets:
            if min(abs(tr.theta), abs(tr.theta - math.pi),
                   abs(tr.theta - TWO_PI)) > 0.05:
                assert abs(tr.bracket) > 0.0


def _nudge_last_src(orbit):
    """The last jump leg starts 1e-12 off its predecessor's endpoint."""
    leg = orbit.legs[-1]
    src = pr.ScatteringState(leg.src.I, leg.src.theta + 1e-12)
    orbit.legs[-1] = replace(leg, src=src)


def _flatten_last_dst(orbit):
    """The last jump leg ends at its source's action."""
    leg = orbit.legs[-1]
    orbit.legs[-1] = replace(
        leg, dst=pr.ScatteringState(leg.src.I, leg.dst.theta))


def _failing_inner_flow(*args, **kwargs):
    raise pr.StepFailure("step size collapsed")


class TestVerifierFailures:
    """Each failure branch of verify_pseudo_orbit, reached by one tamper
    of a verified orbit or one tightened bound."""

    @pytest.fixture(scope="class")
    def orbit(self, p075):
        orbit = pr.build_pseudo_orbit(-0.2, 0.2, p075)
        assert pr.verify_pseudo_orbit(orbit).ok
        assert isinstance(orbit.legs[-1], ScatterLeg)
        return orbit

    @pytest.mark.parametrize("tamper, patch, message", [
        (_nudge_last_src, None, "endpoint chain broken"),
        # every contact reads as near-tangent
        (None, (scattering, "TOL_DEGEN", math.inf),
         "re-solve failed: tau* transversality margin"),
        # rho = 2*pi leaves no window
        (None, (diffusion, "DELTA", math.pi), "outside (6.283185"),
        (_flatten_last_dst, None, "action did not increase"),
        (None, (diffusion, "inner_flow", _failing_inner_flow),
         "verification re-integration failed"),
        (None, (diffusion, "F_LEVEL_COEFF", 0.0),
         "resonance invariant drift"),
    ], ids=["chain", "re-solve", "window", "monotone", "re-integration",
            "resonance-drift"])
    def test_branch_fails_with_its_message(self, orbit, tamper, patch,
                                           message, monkeypatch):
        orbit = replace(orbit, legs=list(orbit.legs))
        if tamper is not None:
            tamper(orbit)
        if patch is not None:
            monkeypatch.setattr(*patch)
        rep = pr.verify_pseudo_orbit(orbit)
        assert rep.ok is False
        assert any(message in f for f in rep.failures), rep.failures[:3]


class TestSolveReuse:
    """Each jump leg's destination solve serves the next leg's source."""

    def test_c09_orbit_solves_once_per_jump_leg(self, p075, monkeypatch):
        calls = [0]
        lstar = K.lstar_kernel

        def counted(*args):
            calls[0] += 1
            return lstar(*args)

        monkeypatch.setattr(K, "lstar_kernel", counted)
        orbit = pr.build_pseudo_orbit(-1.0, 1.0, p075)
        n_build = calls[0]
        calls[0] = 0
        rep = pr.verify_pseudo_orbit(orbit)
        assert rep.ok, rep.failures[:3]
        assert n_build <= 1.2 * orbit.n_scatter
        assert calls[0] <= 1.3 * orbit.n_scatter

    def test_c09_verify_brackets_reuse_the_leg_gradient(self, p075,
                                                        monkeypatch):
        # the transversality bracket at a resonant jump leg's source comes
        # from the gradient the level check already holds, not a new solve
        orbit = pr.build_pseudo_orbit(-1.0, 1.0, p075)
        calls = [0]
        lstar = K.lstar_kernel

        def counted(*args):
            calls[0] += 1
            return lstar(*args)

        monkeypatch.setattr(K, "lstar_kernel", counted)
        rep = pr.verify_pseudo_orbit(orbit)
        monkeypatch.undo()
        assert rep.ok, rep.failures[:3]
        assert calls[0] <= 1.1 * orbit.n_scatter
        fresh = [pr.transversality(leg.src.I, leg.src.theta, pr.branch(1),
                                   orbit.params)
                 for leg in orbit.legs if isinstance(leg, ScatterLeg)
                 and pr.region_of(leg.src.I, orbit.params)
                 is not pr.TorusRegion.NONRES]
        assert fresh
        assert rep.resonant_brackets == fresh


class TestArcsVerify:
    """Long inner arcs re-integrate within the unchanged budget."""

    @pytest.mark.parametrize("I_start, I_end",
                             [(-1.9, 0.3), (-1.6, 0.3), (-2.0, -0.3)])
    def test_range_verifies(self, p075, I_start, I_end):
        orbit = pr.build_pseudo_orbit(I_start, I_end, p075)
        assert orbit.final_I >= I_end
        rep = pr.verify_pseudo_orbit(orbit)
        assert rep.ok, rep.failures[:3]
        assert rep.max_reintegration_residual <= REINT_BUDGET


class TestArcSections:
    """Inner arcs and inner-portrait run the same section generator."""

    def test_arc_ends_on_its_last_section(self, p075):
        orbit = pr.build_pseudo_orbit(-0.2, 0.2, p075)
        arcs = [leg for leg in orbit.legs if isinstance(leg, InnerLeg)]
        assert arcs
        for leg in arcs:
            rows = list(itertools.islice(
                inner.sections(leg.src, orbit.params, ARC_TOL),
                leg.n_periods))
            t, I, phi = rows[-1]
            assert (t, I, phi) == (leg.duration, leg.dst.I, leg.dst.phi)

    def test_zero_periods(self, p075):
        rows = pr.stroboscopic_sections(pr.InnerState(0.3, 0.0, 0.0), 0,
                                        p075)
        assert rows.shape == (0, 3)


class TestBuilderBranches:
    """Branches of build_pseudo_orbit that the orbits above never reach."""

    def test_empty_windows_during_an_arc_are_skipped(self, monkeypatch):
        # at mu = 100 the window is empty on some sections of the arc from
        # I = 0.1; those sections are passed over, not raised
        p = pr.SystemParams(a1=100.0, a2=1.0, eps=0.01)
        margin = max(diffusion.MARGIN_COEFF * p.eps ** 2,
                     diffusion.MARGIN_FLOOR)
        rho = math.pi + diffusion.DELTA
        seen = []
        theta_plus_safe = diffusion._theta_plus_safe

        def spy(I, params):
            thp = theta_plus_safe(I, params)
            seen.append(thp)
            return thp

        monkeypatch.setattr(diffusion, "_theta_plus_safe", spy)
        monkeypatch.setattr(diffusion, "T_MAX_FACTOR", 5.0)
        with pytest.raises(pr.StuckAtResonance,
                           match=r"no stroboscopic return into the window "
                                 r"within 79 periods from I = 0\.100000"):
            pr.build_pseudo_orbit(0.1, 1.0, p)
        assert sum(thp - rho <= 2.5 * margin for thp in seen) == 6

    @pytest.mark.parametrize("k, thp, n_legs", [
        (0, 1.5 * math.pi, 91), (1, 4.434548558880394, 13),
        (2, 1.5 * math.pi, 37)])
    def test_start_on_a_singular_threshold(self, p075, k, thp, n_legs):
        # theta_plus falls back to its neighbours, and the start's solve is
        # singular, so the orbit opens with an inner arc
        I0 = pr.find_thresholds(p075).alpha_thresholds[k]
        assert pr.classify(I0, p075) is pr.CrestKind.SINGULAR
        assert diffusion._theta_plus_safe(I0, p075) == thp
        orbit = pr.build_pseudo_orbit(I0, I0 + 0.3, p075)
        assert len(orbit.legs) == n_legs
        assert isinstance(orbit.legs[0], InnerLeg)
        assert pr.verify_pseudo_orbit(orbit).ok

    def test_leg_budget(self, p075, monkeypatch):
        monkeypatch.setattr(diffusion, "MAX_LEGS", 10)
        with pytest.raises(pr.StuckAtResonance,
                           match="leg budget 10 exhausted"):
            pr.build_pseudo_orbit(-1.0, 1.0, p075)

    def test_every_probe_rejected(self, p075, monkeypatch):
        # every contact reads as near-tangent, so no section yields a jump
        monkeypatch.setattr(scattering, "TOL_DEGEN", math.inf)
        monkeypatch.setattr(diffusion, "T_MAX_FACTOR", 5.0)
        with pytest.raises(pr.StuckAtResonance,
                           match=r"no stroboscopic return into the window "
                                 r"within 79 periods from I = -1\.000000"):
            pr.build_pseudo_orbit(-1.0, 1.0, p075)
