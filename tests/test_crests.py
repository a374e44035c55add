import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pendrotor as pr
from pendrotor import _kernels as K
from pendrotor import crests
from conftest import alpha_direct, beta_direct

TWO_PI = 2.0 * math.pi


def _residual_ok(I, phi, sigma, params, tol=1e-12):
    # ridge equation mu*alpha*sin(phi) + sin(sigma) = 0, normalized
    return abs(pr.crest_residual(I, phi, sigma, params)) < tol


class TestBranchGraphs:
    def test_through_origin(self, p05):
        for I in (-2.5, -0.7, 0.4, 1.2, 3.0):
            assert pr.crest_sigma(I, 0.0, 0, p05) == 0.0

    def test_odd_branch_through_pi(self, p05):
        for I in (-2.5, -0.7, 0.4, 1.2, 3.0):
            assert pr.crest_sigma(I, math.pi, 1, p05) == pytest.approx(
                math.pi, abs=1e-15)

    def test_value_against_direct_formula(self, p05):
        # sigma = -arcsin(mu alpha(0.3) sin(pi/3)) on the even branch
        expected = -math.asin(0.5 * alpha_direct(0.3) * math.sin(math.pi / 3))
        got = pr.crest_sigma(0.3, math.pi / 3, 0, p05)
        assert got == pytest.approx(expected, abs=1e-13)
        assert _residual_ok(0.3, math.pi / 3, got, p05)

    def test_unwrapped_offsets(self, p05):
        base = pr.crest_sigma(0.3, 1.0, 0, p05)
        assert pr.crest_sigma(0.3, 1.0, 2, p05) == pytest.approx(
            base + TWO_PI, abs=1e-14)

    def test_out_of_domain(self, p05):
        # vertical regime at I = 0.8 for mu = 0.5: horizontal graph fails
        # where |mu alpha sin(phi)| > 1
        with pytest.raises(pr.OutOfDomain):
            pr.crest_sigma(0.8, math.pi / 2, 0, p05)

    def test_vertical_lines_at_pole_action(self, p05):
        # at I = 1 the ridges are the straight lines phi = 0 and phi = pi
        for sigma in np.linspace(0.0, TWO_PI, 17):
            assert pr.crest_phi(1.0, sigma, 0, p05) == pytest.approx(0.0,
                                                                     abs=1e-15)
            assert pr.crest_phi(1.0, sigma, 1, p05) == pytest.approx(
                math.pi, abs=1e-15)
            assert pr.crest_phi(1.0, sigma, 2, p05) == pytest.approx(
                TWO_PI, abs=1e-15)

    @given(st.floats(-3.0, 3.0), st.floats(0.0, TWO_PI),
           st.sampled_from([0, 1, 2, -1]))
    @settings(max_examples=300, deadline=None)
    def test_residual_property(self, I, phi, k):
        p = pr.SystemParams(a1=0.5, a2=1.0)
        try:
            sig = pr.crest_sigma(I, phi, k, p)
        except pr.OutOfDomain:
            return
        assert _residual_ok(I, phi, sig, p)

    @given(st.floats(-3.0, 3.0), st.floats(0.0, TWO_PI),
           st.sampled_from([0, 1]))
    @settings(max_examples=300, deadline=None)
    def test_vertical_residual_property(self, I, sigma, k):
        p = pr.SystemParams(a1=0.5, a2=1.0)
        try:
            phi = pr.crest_phi(I, sigma, k, p)
        except pr.OutOfDomain:
            return
        assert _residual_ok(I, phi, sigma, p)


class TestClassify:
    def test_near_resonances(self, p05):
        assert pr.classify(0.99, p05) is pr.CrestKind.VERTICAL
        assert pr.classify(1.01, p05) is pr.CrestKind.VERTICAL
        assert pr.classify(0.01, p05) is pr.CrestKind.HORIZONTAL
        assert pr.classify(-0.01, p05) is pr.CrestKind.HORIZONTAL

    def test_published_example_point(self, p05):
        # mu = 0.5: vertical on (0.701, 1.367)
        assert pr.classify(0.8, p05) is pr.CrestKind.VERTICAL
        assert pr.classify(0.69, p05) is pr.CrestKind.HORIZONTAL

    def test_consistency_with_report(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            mu = rng.uniform(0.05, 3.0)
            p = pr.SystemParams(a1=mu, a2=1.0)
            rep = pr.find_thresholds(p)
            for _ in range(25):
                I = rng.uniform(-4.9, 4.9)
                if abs(I - 1.0) < 5e-3:
                    continue
                if min(abs(I - t) for t in
                       rep.alpha_thresholds + [99.0]) < 1e-6:
                    continue
                kind = pr.classify(I, p)
                hit = [iv for iv in rep.intervals if iv.lo <= I <= iv.hi]
                assert hit and hit[0].kind is kind


class TestThresholds:
    def test_published_values(self, p05):
        rep = pr.find_thresholds(p05)
        assert rep.alpha_thresholds == pytest.approx([-1.807, 0.701, 1.367],
                                                     abs=5e-3)
        assert rep.beta_thresholds == pytest.approx([-2.942, 0.595, 1.85],
                                                    abs=5e-3)

    def test_labels_middle_regime(self, p05):
        lab = pr.find_thresholds(p05).labels
        assert lab["I_b"] == pytest.approx(-2.942, abs=5e-3)
        assert lab["I_a"] == pytest.approx(-1.807, abs=5e-3)
        assert lab["I_c"] == pytest.approx(0.595, abs=5e-3)
        assert lab["I_C"] == pytest.approx(0.701, abs=5e-3)
        assert lab["I_A"] == pytest.approx(1.367, abs=5e-3)
        assert lab["I_B"] == pytest.approx(1.85, abs=5e-3)

    @pytest.mark.parametrize("mu, mid", [(0.3, (0.660, 0.809)),
                                         (3.0, (0.210, 0.353))])
    def test_labels_from_mu_not_window(self, mu, mid):
        # both outer components hold crossings (e^{-pi/2} < mu < e^{pi/2}),
        # so the middle pair is I_c/I_C, even on (-5, 5), which misses
        # beta's -7.69 at mu = 0.3 and beta's 6.87 at mu = 3
        p = pr.SystemParams(a1=mu, a2=1.0)
        narrow = pr.find_thresholds(p, window=(-5.0, 5.0)).labels
        wide = pr.find_thresholds(p, window=(-10.0, 10.0)).labels
        assert (narrow["I_c"], narrow["I_C"]) == pytest.approx(mid, abs=5e-4)
        assert set(narrow) < set(wide)
        for name, value in narrow.items():
            assert wide[name] == pytest.approx(value, abs=1e-9), name

    def test_horizontal_transversal_interval(self, p05):
        rep = pr.find_thresholds(p05)
        ivs = [iv for iv in rep.intervals
               if iv.lo == pytest.approx(-1.807, abs=5e-3)
               and iv.hi == pytest.approx(0.595, abs=5e-3)]
        assert len(ivs) == 1
        assert ivs[0].kind is pr.CrestKind.HORIZONTAL
        assert not ivs[0].tangency

    def test_small_mu_has_no_negative_crossing(self):
        # 1/|mu| >= exp(pi/2): |alpha| < exp(pi/2) on I < 0, never reaching it
        p = pr.SystemParams(a1=0.1, a2=1.0)
        with pytest.raises(pr.NoSolutionInWindow) as exc:
            pr.solve_level_crossing("alpha", "neg", p)
        assert exc.value.asymptote == pytest.approx(math.exp(math.pi / 2))
        rep = pr.find_thresholds(p)
        assert all(v > 0 for v in rep.alpha_thresholds)

    @pytest.mark.parametrize("window", [(-2000.0, 5.0), (-1e16, 1e16)])
    def test_wide_window_keeps_the_six_crossings(self, p05, window):
        # past |I| ~ 191 alpha and c come from the one-exponential form;
        # there c tends to mu*e^{pi/2} ~ 2.4 on I < 0, so the far interval
        # is vertical
        near, wide = pr.find_thresholds(p05), pr.find_thresholds(p05, window)
        for got, want in ((wide.alpha_thresholds, near.alpha_thresholds),
                          (wide.beta_thresholds, near.beta_thresholds)):
            assert len(got) == len(want) == 3
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert wide.labels.keys() == near.labels.keys()
        assert wide.intervals[0].lo == window[0]
        assert wide.intervals[0].kind is pr.CrestKind.VERTICAL
        assert ([(iv.kind, iv.tangency) for iv in wide.intervals]
                == [(iv.kind, iv.tangency) for iv in near.intervals])

    @pytest.mark.parametrize("window", [(-1e60, 1e60), (-1e300, 1e300)])
    def test_widest_windows_resolve_the_crossings(self, p05, window):
        # a scan cell there is 5e56 wide or more; the bisection must go on
        # until no float lies between its ends, not stop at a fixed count
        near, wide = pr.find_thresholds(p05), pr.find_thresholds(p05, window)
        for got, want in ((wide.alpha_thresholds, near.alpha_thresholds),
                          (wide.beta_thresholds, near.beta_thresholds)):
            assert len(got) == len(want) == 3
            assert got == pytest.approx(want, rel=1e-11, abs=0.0)
        assert wide.labels["I_b"] != wide.labels["I_a"]

    @pytest.mark.parametrize("window", [(-1e60, 1e60), (-1e300, 1e300)])
    def test_widest_windows_below_r_one(self, window):
        # mu = 1.3, r = 0.5: both crossings of each curve on the negative
        # component (alpha -2.678, -0.631; beta -3.060, -1.142) lie in the
        # last cell of its linear scan, which only the end-cell points split
        p = pr.SystemParams(a1=1.3, a2=1.0, r=0.5)
        near, wide = pr.find_thresholds(p), pr.find_thresholds(p, window)
        for got, want in ((wide.alpha_thresholds, near.alpha_thresholds),
                          (wide.beta_thresholds, near.beta_thresholds)):
            assert len(got) == len(want) == 4
            assert got == pytest.approx(want, rel=1e-11, abs=0.0)
        assert ([(iv.kind, iv.tangency) for iv in wide.intervals]
                == [(iv.kind, iv.tangency) for iv in near.intervals])

    @pytest.mark.parametrize("window", [(math.nan, 5.0), (-math.inf, 5.0),
                                        (-5.0, math.inf)])
    def test_non_finite_window_rejected(self, p05, window):
        with pytest.raises(pr.ConfigError, match="finite"):
            pr.find_thresholds(p05, window)
        with pytest.raises(pr.ConfigError, match="finite"):
            pr.solve_level_crossing("alpha", "mid", p05, window)

    def test_zero_mu_rejected(self):
        with pytest.raises(pr.ConfigError):
            pr.find_thresholds(pr.SystemParams(a1=0.0, a2=1.0))

    def test_interval_kind_sequences_match_regimes(self):
        # interval (kind, tangency) sequences for the three coupling regimes
        H, V = pr.CrestKind.HORIZONTAL, pr.CrestKind.VERTICAL
        cases = {
            0.1: [(H, False), (H, True), (V, False), (H, True), (H, False)],
            0.5: [(V, False), (V, True), (H, False), (H, True), (V, False),
                  (H, True), (H, False)],
            6.0: [(V, False), (V, True), (H, False), (V, True), (V, False)],
        }
        for mu, expected in cases.items():
            p = pr.SystemParams(a1=mu, a2=1.0)
            rep = pr.find_thresholds(p, window=(-8.0, 8.0))
            got = [(iv.kind, iv.tangency) for iv in rep.intervals]
            assert got == expected, f"mu={mu}: {got}"

    def test_r_half_report(self):
        # r = 0.5 curves: pole moves to I = 2, |alpha_r| -> 0 at both ends
        p = pr.SystemParams(a1=0.5, a2=1.0, r=0.5)
        rep = pr.find_thresholds(p)
        for iv in rep.intervals:
            mid = 0.5 * (iv.lo + iv.hi)
            if abs(0.5 * mid - 1.0) < 0.05:
                continue
            assert pr.classify(mid, p) is iv.kind
        # vertical near the moved pole
        assert pr.classify(1.9, p) is pr.CrestKind.VERTICAL
        assert pr.classify(2.1, p) is pr.CrestKind.VERTICAL

    @pytest.mark.parametrize("r", [0.7, 0.5, 0.3])
    @pytest.mark.parametrize("mu", [1.3, 3.0])
    def test_every_crossing_below_r_one(self, r, mu):
        # |alpha_r| -> 0 at both ends of the negative component for r < 1,
        # so it can be crossed twice; each crossing must cut an interval
        p = pr.SystemParams(a1=mu, a2=1.0, r=r)
        rep = pr.find_thresholds(p)
        for curve, vals in ((alpha_direct, rep.alpha_thresholds),
                            (beta_direct, rep.beta_thresholds)):
            for v in vals:
                assert abs(mu * curve(v, r)) == pytest.approx(1.0, abs=1e-9)
        for iv in rep.intervals:
            for I in np.linspace(iv.lo, iv.hi, 52)[1:-1]:
                assert pr.classify(I, p) is iv.kind, (iv, I)
                assert pr.has_tangency(I, p) is iv.tangency, (iv, I)

    def test_window_clips_every_component(self):
        # (0.3, 4) misses the crossings at 0.110 and 0.272 on (0, 1) and
        # holds nothing of the negative component
        p = pr.SystemParams(a1=6.0, a2=1.0)
        rep = pr.find_thresholds(p, window=(0.3, 4.0))
        assert rep.alpha_thresholds == rep.beta_thresholds == []
        assert [(iv.lo, iv.hi) for iv in rep.intervals] == [(0.3, 4.0)]
        assert rep.intervals[0].kind is pr.CrestKind.VERTICAL
        assert sorted(name for name, _ in rep.missing) == [
            "alpha/mid", "alpha/pos", "beta/mid", "beta/pos"]
        full = pr.find_thresholds(p, window=(-5.0, 5.0))
        assert [v for v in full.alpha_thresholds + full.beta_thresholds
                if 0.3 < v < 4.0] == []

    @pytest.mark.parametrize("hi, beta_mid", [(0.65, [0.595]), (0.5, [])])
    def test_window_cut_inside_mid_component(self, p05, hi, beta_mid):
        # the window ends below alpha's 0.701 (and at 0.5 below beta's
        # 0.595 too), with no positive component
        rep = pr.find_thresholds(p05, window=(-5.0, hi))
        assert rep.alpha_thresholds == pytest.approx([-1.807], abs=5e-3)
        assert rep.beta_thresholds == pytest.approx([-2.942] + beta_mid,
                                                    abs=5e-3)
        assert rep.labels == {"I_b": rep.beta_thresholds[0],
                              "I_a": rep.alpha_thresholds[0]}
        assert rep.intervals[0].lo == -5.0 and rep.intervals[-1].hi == hi
        assert all(iv.lo < iv.hi for iv in rep.intervals)
        # the cut mid component never reaches the pole's infinite level
        assert ("alpha/mid", None) in rep.missing
        assert all(not name.endswith("/pos") for name, _ in rep.missing)

    def test_components_ending_on_the_pole(self):
        # at r = 1e-8, pole -+ 1e-9 rounds to the pole 1e8 itself, so 'mid'
        # ends and 'pos' starts on it; the end cells' halving points alone
        # must find every crossing, and 'pos' reaches neither level
        rep = pr.find_thresholds(pr.SystemParams(a1=1.3, a2=1.0, r=1e-8),
                                 window=(-5.0, 5e9))
        assert rep.alpha_thresholds == pytest.approx(
            [-2.060172770206164, -0.6088299303780649, 0.6088299273877973,
             2.060172789776813], rel=0, abs=1e-12)
        assert rep.beta_thresholds == pytest.approx(
            [-3.5685656798739105, -0.8284352368793952, 0.8284352250239801,
             3.5685658057042895], rel=0, abs=1e-12)
        assert sorted(name for name, _ in rep.missing) == [
            "alpha/pos", "beta/pos"]


def _scalar_crossings(curve, level, lo, hi, r):
    """The threshold scan as one loop over the scalar curve, point by point:
    the reference that crests._crossings' array scan must match bit for
    bit."""
    if lo >= hi:
        return []
    fn = crests._CURVES[curve]
    f = lambda x: abs(fn(x, r)) - level
    pts = np.linspace(lo, hi, 4000).tolist()
    for end, inward in ((lo, 1.0), (hi, -1.0)):
        d = 0.5 * (hi - lo) / 3999
        while d >= 1e-9 * max(1.0, abs(end)):
            pts.append(end + inward * d)
            d *= 0.5
    roots = []
    fprev = xprev = None
    for x in sorted(set(pts)):
        if abs(r * x - 1.0) < 1e-12:
            fprev, xprev = None, None
            continue
        fx = f(x)
        if fprev is not None and (fprev > 0.0) != (fx > 0.0):
            rt = crests._bisect_level(f, xprev, x)
            if not roots or abs(rt - roots[-1]) > 1e-8:
                roots.append(rt)
        fprev, xprev = fx, x
    return roots


def _on_grid_point(r):
    """A scan point of the default window's 'mid' component, from the 1234th
    on, at which np.sinh and math.sinh of pi*I/2 differ in their last bits
    (the 1234th where a numpy build agrees with math.sinh throughout)."""
    _, lo, hi, _ = crests._components(crests.DEFAULT_WINDOW, r)[1]
    xs = np.linspace(lo, hi, 4000).tolist()[1234:]
    for x in xs:
        v = 0.5 * math.pi * x
        if float(np.sinh(np.array([v]))[0]) != math.sinh(v):
            return x
    return xs[0]


def _on_grid_mu(curve, r):
    """A mu whose level 1/|mu| is the scalar curve's value at
    _on_grid_point(r), which puts that point in the recheck band."""
    return 1.0 / abs(crests._CURVES[curve](_on_grid_point(r), r))


class TestArrayScan:
    """crests._crossings evaluates its scan as an array, with the scalar
    curve at far-branch points and near the level; its roots are the
    scalar scan's."""

    @pytest.mark.parametrize("r", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("window", [(-5.0, 5.0), (-50.0, 50.0),
                                        (0.1, 3.0), (-1e60, 1e60),
                                        (-1e300, 1e300)])
    def test_roots_equal_the_scalar_scan(self, r, window):
        mus = [0.3, 0.75, 1.5, 4.81, _on_grid_mu("alpha", r),
               _on_grid_mu("beta", r)]
        for mu in mus:
            level = 1.0 / mu
            for _, lo, hi, _ in crests._components(window, r):
                for curve in crests._CURVES:
                    got = crests._crossings(curve, level, lo, hi, r)
                    want = _scalar_crossings(curve, level, lo, hi, r)
                    assert ([x.hex() for x in got]
                            == [x.hex() for x in want]), (mu, curve, lo, hi)

    def test_point_at_the_level_takes_the_scalar_curve(self, monkeypatch):
        # the array value there may differ from the scalar one in its last
        # bits; the scan re-evaluates it before it bisects anything
        mu, x = _on_grid_mu("alpha", 1.0), _on_grid_point(1.0)
        _, lo, hi, _ = crests._components(crests.DEFAULT_WINDOW, 1.0)[1]
        seen = []
        monkeypatch.setitem(crests._CURVES, "alpha", lambda I, r: (
            seen.append(I), K.alpha_r_raw(I, r))[1])
        crests._crossings("alpha", 1.0 / mu, lo, hi, 1.0)
        assert seen[0] == x

    def test_loads_no_numpy_ma(self):
        # np.unique would import numpy.ma (about 0.9 MB of peak memory)
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(pr.__file__)))
        code = ("import sys, pendrotor as pr\n"
                "pr.find_thresholds(pr.SystemParams(a1=0.75, a2=1.0))\n"
                "pr.find_thresholds(pr.SystemParams(a1=1.3, a2=1.0, r=0.5),"
                " (-1e300, 1e300))\n"
                "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestTangency:
    def test_published_verdicts(self, p05):
        assert pr.has_tangency(-2.0, p05) is True    # in [-2.942, -1.807)
        assert pr.has_tangency(0.3, p05) is False    # horizontal, clean
        assert pr.has_tangency(0.65, p05) is True    # in [0.595, 0.701)
        assert pr.has_tangency(1.1, p05) is False    # vertical, clean

    def test_tangency_points_slope(self, p05):
        # finite-difference slope of the branch graph equals the line slope;
        # at r = 0.5, mu = 1.3 one action in each tangency interval, both
        # negative ones included
        p_half = pr.SystemParams(a1=1.3, a2=1.0, r=0.5)
        for p, Is in ((p05, (-2.0, 0.65, 1.5)),
                      (p_half, (-2.9, -0.9, 0.55, 3.3))):
            for I in Is:
                pts = pr.tangency_points(I, p)
                assert pts, f"expected tangency points at I={I}, r={p.r}"
                m = (p.r * I - 1.0) / I
                h = 1e-6
                for tp in pts:
                    if tp.branch.kind is pr.CrestKind.HORIZONTAL:
                        f = lambda x: pr.crest_sigma(I, x, tp.branch.k, p)
                        slope = (f(tp.angle + h) - f(tp.angle - h)) / (2 * h)
                        assert slope == pytest.approx(m, abs=1e-8, rel=1e-6)
                    else:
                        f = lambda x: pr.crest_phi(I, x, tp.branch.k, p)
                        slope = (f(tp.angle + h) - f(tp.angle - h)) / (2 * h)
                        assert slope == pytest.approx(1.0 / m, abs=1e-8,
                                                      rel=1e-6)

    def test_predicate_vs_slope_scan(self, p05):
        # brute-force check on a deterministic I grid (the acceptance suite
        # runs the random 500-case version)
        for I in np.linspace(-3.2, 3.2, 33):
            if abs(I - 1.0) < 0.05 or abs(I) < 0.05:
                continue
            kind = pr.classify(I, p05)
            if kind is pr.CrestKind.SINGULAR:
                continue
            got = pr.has_tangency(I, p05)
            m = (I - 1.0) / I
            grid = np.linspace(0, TWO_PI, 20001)
            if kind is pr.CrestKind.HORIZONTAL:
                sig = np.array([pr.crest_sigma(I, x, 0, p05) for x in grid])
                slopes = np.diff(sig) / np.diff(grid)
                brute = bool(np.min(np.abs(slopes - m)) < 1e-3)
            else:
                phi = np.array([pr.crest_phi(I, x, 0, p05) for x in grid])
                slopes = np.diff(phi) / np.diff(grid)
                brute = bool(np.min(np.abs(slopes - 1.0 / m)) < 1e-3)
            assert got == brute, f"I={I}"
