import inspect
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import pendrotor as pr
from conftest import assert_no_child_left
from pendrotor._ode import H_START
from pendrotor.inner import (RESONANCE_HALF_WIDTH, TOL_ODE, InnerState,
                             inner_flow, orbit_sections, region_of,
                             resonance_half_width_pendulum, sections,
                             stroboscopic_sections, torus_value)

TWO_PI = 2.0 * math.pi


class TestFlow:
    def test_integrable_limit_exact(self):
        p = pr.SystemParams(a1=0.75, a2=1.0, eps=0.0)
        s0 = InnerState(I=0.37, phi=1.1, s=0.2)
        s1 = inner_flow(s0, 123.456, p)
        assert s1.I == s0.I
        assert s1.phi == pytest.approx(s0.phi + s0.I * 123.456, rel=1e-15)
        assert s1.s == pytest.approx(s0.s + 123.456)

    def test_one_harmonic_invariants_long_run(self):
        # the integrator's consistency check: with one harmonic the flow
        # conserves an exact invariant
        s0 = InnerState(I=0.37, phi=1.1, s=0.0)
        eps = 0.01
        cases = (
            # a1 = 0, r = 1: autonomous in the frame phi - s
            (0.0, 1.0, lambda st: 0.5 * (st.I - 1.0) ** 2
             + eps * math.cos(st.phi - st.s)),
            # a2 = 0: autonomous
            (0.75, 0.0, lambda st: 0.5 * st.I ** 2
             + eps * 0.75 * math.cos(st.phi)),
        )
        for a1, a2, invariant in cases:
            p = pr.SystemParams(a1=a1, a2=a2, eps=eps)
            s1 = inner_flow(s0, 1000.0, p)
            assert abs(invariant(s1) - invariant(s0)) < 1e-8, (a1, a2)

    def test_reversibility(self, p075):
        s0 = InnerState(I=0.37, phi=1.1, s=0.0)
        t = 10.0
        back = inner_flow(inner_flow(s0, t, p075), -t, p075)
        assert abs(back.I - s0.I) < 10 * TOL_ODE
        assert abs(back.phi - s0.phi) < 10 * TOL_ODE
        # over long spans the angle error grows secularly; the per-unit-time
        # budget still holds
        t = 200.0
        back = inner_flow(inner_flow(s0, t, p075), -t, p075)
        assert abs(back.phi - s0.phi) < 10 * TOL_ODE * 2 * t

    def test_against_independent_integrator(self, p075):
        # dual route: scipy DOP853 at tighter tolerance
        s0 = InnerState(I=0.37, phi=1.1, s=0.0)

        def rhs(t, y):
            I, phi = y
            psi = p075.r * phi - (s0.s + t)
            return [p075.eps * (p075.a1 * math.sin(phi)
                                + p075.r * p075.a2 * math.sin(psi)), I]

        ref = solve_ivp(rhs, (0.0, 300.0), [s0.I, s0.phi], method="DOP853",
                        rtol=1e-13, atol=1e-13)
        mine = inner_flow(s0, 300.0, p075)
        assert mine.I == pytest.approx(ref.y[0, -1], abs=5e-8)
        assert mine.phi == pytest.approx(ref.y[1, -1], abs=5e-7)

    def test_action_rate_bound(self, p075):
        # |dI/dt| <= eps (|a1| + |a2|) pointwise along any trajectory
        bound = p075.eps * (abs(p075.a1) + abs(p075.a2))
        s = InnerState(I=0.1, phi=0.3, s=0.0)
        for _ in range(60):
            s2 = inner_flow(s, 0.7, p075)
            assert abs(s2.I - s.I) <= bound * 0.7 * (1 + 1e-9)
            s = s2

    def test_step_collapse_unreachable_in_normal_runs(self, p075):
        # smooth small system: generous spans integrate fine
        s0 = InnerState(I=1.9, phi=0.0, s=0.0)
        inner_flow(s0, 5000.0, p075)

    def test_step_collapse_reported(self, p075):
        # at a huge time origin the smallest representable step exceeds what
        # the tolerance demands; the stepper must report the collapse
        from pendrotor._ode import ODE_STEPFAIL, integrate_inner
        t0 = 1e13
        *_, status = integrate_inner(0.3, 0.1, 0.0, t0, t0 + 100.0, H_START,
                                     p075.eps, p075.a1, p075.a2, p075.r,
                                     1e-13)
        assert status == ODE_STEPFAIL

    def test_overflowing_stages_reject_the_step(self):
        # at eps = 1e307 a stage's phi overflows to inf and math.sin(inf)
        # raises; each such step is rejected until the step size collapses
        from pendrotor._ode import ODE_STEPFAIL, integrate_inner
        *_, status = integrate_inner(-2.0, 0.0, 0.0, 0.0, TWO_PI, H_START,
                                     1e307, 0.75, 1.0, 1.0, TOL_ODE)
        assert status == ODE_STEPFAIL


class TestDOP853:
    """The inner-flow stepper is DOP853: its tableau and its accuracy."""

    def test_tableau_matches_scipy(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        from pendrotor import _ode

        def coef(name):
            return getattr(_ode, name, 0.0)

        assert ref.N_STAGES == 12
        for i in range(2, 13):
            for j in range(1, i):
                assert coef(f"_A{i}_{j}") == ref.A[i - 1, j - 1], (i, j)
        for i in range(2, 12):
            assert coef(f"_C{i}") == ref.C[i - 1], i
        # stage 12 and the FSAL stage sit at the step end
        assert ref.C[11] == ref.C[12] == 1.0
        for j in range(1, 13):
            b = coef(f"_B{j}")
            assert b == ref.B[j - 1], j
            assert b - coef(f"_BHH{j}") == ref.E3[j - 1], j
            assert coef(f"_E{j}") == ref.E5[j - 1], j
        # the FSAL stage carries no error weight
        assert ref.E3[12] == ref.E5[12] == 0.0

    #: integrate_inner's (y0, y1, s0, t0, t1, h, eps, a1, a2, r, tol) and
    #: the float.hex of its (I, phi, h_next) with (nsteps, status): a
    #: forward, a backward and a step-rejecting run at r = 1, 0.5 and 0.25,
    #: and the eps = 1e307 run whose every step is rejected
    PINNED = [
        ((0.4, 0.0, 0.0, 0.0, TWO_PI, H_START, 0.01, 0.75, 1.0, 1.0, 1e-10),
         ("0x1.9e4cc9090ceb2p-2", "0x1.3dda66b4a6960p+1",
          "0x1.2e9a947c5aadap+0"), (7, 0)),
        ((-1.3, 2.5, 0.7, 3.0, -4.0, 0.37, 0.05, 1.0, 0.6, 0.5, 1e-10),
         ("-0x1.4159c8051e43bp+0", "0x1.6bb7fd35e107ep+3",
          "0x1.50ec4f023ef6dp-1"), (12, 0)),
        ((1.1, 1.0, 0.0, 0.0, 40.0, H_START, 1.0, 2.0, 1.0, 0.25, 1e-12),
         ("-0x1.11bcc54a00d14p-2", "0x1.659ea5584dd17p+2",
          "0x1.162cb345d134fp-3"), (407, 0)),
        ((0.5, 0.0, 0.0, 0.0, TWO_PI, H_START, 1e307, 0.75, 1.0, 1.0, 1e-10),
         ("0x1.0000000000000p-1", "0x0.0p+0", "0x1.79ca10c92422bp-48"),
         (0, 1)),
    ]

    @pytest.mark.parametrize("args,bits,counts", PINNED)
    def test_bits_pinned(self, args, bits, counts):
        # a rewrite of the stepper must keep every float operation in order
        from pendrotor._ode import integrate_inner
        I, phi, h, nsteps, status = integrate_inner(*args)
        assert (I.hex(), phi.hex(), h.hex()) == bits
        assert (nsteps, status) == counts

    def test_fifty_periods_against_tight_scipy(self, p075):
        # at 8th order each run ends within 2e-9 of a much tighter scipy
        # DOP853 in under 1,000 steps on average; a 5th-order pair needs
        # over three times the steps at this tolerance
        from pendrotor._ode import ODE_OK, integrate_inner
        T = 50 * TWO_PI

        def rhs(t, y):
            psi = p075.r * y[1] - t
            return [p075.eps * (p075.a1 * math.sin(y[1])
                                + p075.r * p075.a2 * math.sin(psi)), y[0]]

        total = 0
        for I0 in (0.5, -1.3, 1.05, 0.02):
            I, phi, _, nsteps, status = integrate_inner(
                I0, 0.0, 0.0, 0.0, T, H_START, p075.eps, p075.a1, p075.a2,
                p075.r, 1e-12)
            assert status == ODE_OK
            ref = solve_ivp(rhs, (0.0, T), [I0, 0.0], method="DOP853",
                            rtol=2.5e-14, atol=1e-15)
            assert abs(I - ref.y[0, -1]) <= 2e-9, I0
            assert abs(phi - ref.y[1, -1]) <= 2e-9, I0
            total += nsteps
        assert total <= 4000


class TestTorusModels:
    def test_res0_value_at_quarter_turn(self, p075):
        st = InnerState(I=0.0, phi=math.pi / 2, s=0.0)
        assert torus_value(st, p075) == pytest.approx(0.0, abs=1e-15)

    def test_region_centers(self):
        p = pr.SystemParams(a1=1.0, a2=1.0, r=0.5, eps=0.01)
        assert region_of(0.0, p) is pr.TorusRegion.RES0
        assert region_of(2.0, p) is pr.TorusRegion.RES1  # I = 1/r
        assert region_of(1.0, p) is pr.TorusRegion.NONRES

    def test_region_band_is_the_constant(self, p075):
        # the band width has one source, RESONANCE_HALF_WIDTH
        assert list(inspect.signature(region_of).parameters) == ["I", "params"]
        w = RESONANCE_HALF_WIDTH
        assert region_of(w, p075) is pr.TorusRegion.RES0
        assert region_of(math.nextafter(w, 1.0), p075) is pr.TorusRegion.NONRES

    def test_pendulum_half_width(self, p075):
        # separatrix level F0 = eps*a1 through the saddle (I=0, phi=0);
        # widest at phi=pi: I = 2 sqrt(eps a1)
        w = resonance_half_width_pendulum(p075)
        assert w == pytest.approx(2.0 * math.sqrt(p075.eps * p075.a1))
        sep_level = p075.eps * p075.a1
        st = InnerState(I=w, phi=math.pi, s=0.0)
        assert torus_value(st, p075) == pytest.approx(sep_level, rel=1e-12)


class TestStroboscopicDrift:
    def test_nonresonant_orbit_stays_near_level(self, p075):
        # far from both resonances the action moves at most O(eps) per
        # period, so Fnr stays within O(eps) over many periods
        st = InnerState(I=0.5, phi=0.3, s=0.0)
        rows = stroboscopic_sections(st, 150, p075)
        F0 = 0.5 * st.I ** 2
        drift = np.max(np.abs(0.5 * rows[:, 1] ** 2 - F0))
        assert drift < 12.0 * p075.eps

    def test_res0_drift_second_order(self):
        # inside the pendulum zone (I ~ sqrt(eps)) the per-period drift of
        # F0 scales like eps^2: log-log slope 2 +/- 0.3
        epss = [1e-2, 1e-3, 1e-4]
        drifts = []
        for eps in epss:
            p = pr.SystemParams(a1=0.75, a2=1.0, eps=eps)
            I0 = 0.5 * math.sqrt(eps * p.a1)
            st = InnerState(I=I0, phi=2.0, s=0.0)
            t, I1, phi1 = stroboscopic_sections(st, 1, p)[0]
            f = lambda I, ph: 0.5 * I * I + eps * p.a1 * math.cos(ph)
            drifts.append(abs(f(I1, phi1) - f(st.I, st.phi)))
        slope = np.polyfit(np.log(epss), np.log(drifts), 1)[0]
        assert 1.7 < slope < 2.3

    def test_reversibility_of_sections(self, p075):
        st = InnerState(I=0.31, phi=0.8, s=0.0)
        rows = stroboscopic_sections(st, 5, p075)
        end = InnerState(I=rows[-1, 1], phi=rows[-1, 2], s=rows[-1, 0])
        back = inner_flow(end, -rows[-1, 0], p075)
        assert back.I == pytest.approx(st.I, abs=1e-8)
        assert back.phi == pytest.approx(st.phi, abs=1e-8)


class TestSections:
    def test_step_carried(self, p075, monkeypatch):
        # each period starts with the step the last one proposed, so
        # integrating period by period costs at most 10% more accepted
        # steps (index 3 of integrate_inner's result) than one call
        from pendrotor import _ode, inner
        tol, n = 1e-10, 300
        steps = []

        def counted(*args):
            res = _ode.integrate_inner(*args)
            steps.append(res[3])
            return res

        monkeypatch.setattr(inner, "integrate_inner", counted)
        for I0 in (-2.0, -0.5, 0.02, 1.3):
            steps.clear()
            list(itertools.islice(
                sections(InnerState(I0, 0.0, 0.0), p075, tol), n))
            assert len(steps) == n
            *_, one, status = _ode.integrate_inner(
                I0, 0.0, 0.0, 0.0, n * TWO_PI, H_START, p075.eps, p075.a1,
                p075.a2, p075.r, tol)
            assert status == _ode.ODE_OK
            assert sum(steps) <= 1.10 * one, I0
        # the step handed on is the one proposed before the clip onto t1
        _, _, h_next, nsteps, _ = _ode.integrate_inner(
            0.5, 0.0, 0.0, 0.0, 0.01, H_START, p075.eps, p075.a1, p075.a2,
            p075.r, tol)
        assert (h_next, nsteps) == (H_START, 1)



#: spreads four orbits over two reported cores with stroboscopic_sections
#: replaced by a closure, as a tracer replaces it
_WRAPPED_SCRIPT = """
import os
import numpy as np
from pendrotor import inner
from pendrotor.params import SystemParams
os.sched_getaffinity = lambda pid: {0, 1}
plain, calls = inner.stroboscopic_sections, []
def wrap(fn):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)
    return wrapper
inner.stroboscopic_sections = wrap(plain)
p = SystemParams(a1=0.75, a2=1.0, eps=0.01)
states = [inner.InnerState(I, 0.0, 0.0) for I in (-1.0, -0.5, 0.5, 1.0)]
got = list(inner.orbit_sections(states, 3, p))
assert [a[0] for a in calls] == states[::2], calls
assert all(np.array_equal(g, plain(s, 3, p)) for g, s in zip(got, states))
"""


class TestOrbitSections:
    """One ordered iterator of arrays over every usable core."""

    STATES = [InnerState(float(I), 0.0, 0.0) for I in np.linspace(-2, 2, 5)]

    @staticmethod
    def _report_cores(monkeypatch, cores):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)))

    @pytest.mark.parametrize("cores", [1, 2])
    def test_failure_ends_after_earlier_orbits(self, cores, p075,
                                               monkeypatch):
        # with 2 cores orbit 3 runs in a worker, which inherits the patch
        # through fork
        from pendrotor import _ode, inner
        serial = [stroboscopic_sections(st, 3, p075) for st in self.STATES]
        I_fail = self.STATES[3].I

        def failing(I, phi, s0, t0, *rest):
            if t0 == 0.0 and I == I_fail:
                return I, phi, _ode.H_START, 0, _ode.ODE_STEPFAIL
            return _ode.integrate_inner(I, phi, s0, t0, *rest)

        monkeypatch.setattr(inner, "integrate_inner", failing)
        self._report_cores(monkeypatch, cores)
        it = orbit_sections(self.STATES, 3, p075)
        for k in range(3):
            assert np.array_equal(next(it), serial[k])
        with pytest.raises(pr.StepFailure):
            next(it)
        assert_no_child_left()

    def test_child_error_propagates_in_order(self, p075, monkeypatch):
        # with 2 cores orbit 3 runs in a child; an error that is no
        # StepFailure comes back through its pipe too
        from pendrotor import _ode, inner
        serial = [stroboscopic_sections(st, 3, p075) for st in self.STATES]
        I_fail = self.STATES[3].I

        def failing(I, phi, s0, t0, *rest):
            if t0 == 0.0 and I == I_fail:
                raise RuntimeError("orbit 3")
            return _ode.integrate_inner(I, phi, s0, t0, *rest)

        monkeypatch.setattr(inner, "integrate_inner", failing)
        self._report_cores(monkeypatch, 2)
        it = orbit_sections(self.STATES, 3, p075)
        for k in range(3):
            assert np.array_equal(next(it), serial[k])
        with pytest.raises(RuntimeError, match="orbit 3"):
            next(it)
        assert_no_child_left()

    def test_child_ended_without_result(self, p075, monkeypatch):
        # a child that exits before sending its orbit must not hang the
        # parent or end the output short
        from pendrotor import inner
        I_gone = self.STATES[3].I
        plain = inner.stroboscopic_sections

        def exiting(state, *rest):
            if state.I == I_gone:
                os._exit(0)
            return plain(state, *rest)

        monkeypatch.setattr(inner, "stroboscopic_sections", exiting)
        self._report_cores(monkeypatch, 2)
        it = orbit_sections(self.STATES, 3, p075)
        for _ in range(3):
            next(it)
        with pytest.raises(pr.PendrotorError, match="orbit 3"):
            next(it)
        assert_no_child_left()

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_close_stops_workers(self, cores, p075, monkeypatch):
        # with 3 cores the second child inherits the first one's read end
        self._report_cores(monkeypatch, cores)
        it = orbit_sections(self.STATES, 3, p075)
        assert np.array_equal(next(it),
                              stroboscopic_sections(self.STATES[0], 3, p075))
        it.close()
        assert_no_child_left()

    def test_replaced_sections_still_spread(self):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(pr.__file__)))
        proc = subprocess.run([sys.executable, "-c", _WRAPPED_SCRIPT],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
