import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import pendrotor as pr
from conftest import assert_no_child_left
from pendrotor import _kernels as K, verify
from pendrotor.cli import main
from pendrotor.scattering import ODD, branch, lstar, theta_plus
from pendrotor.verify import CheckResult, drift_sign_check, lemma_symmetry_check


def _assert_plain(res: CheckResult):
    assert type(res.passed) is bool
    assert type(res.worst) is float
    assert type(res.tol) is float
    assert type(res.n) is int
    # strict encoder: no default= fallback
    json.loads(json.dumps(res.as_dict()))


class TestCheckResultTypes:
    def test_numpy_fields_normalised(self):
        res = CheckResult("x", np.bool_(True), np.float64(0.5),
                          np.float64(1.0), np.int64(3))
        _assert_plain(res)
        assert res.as_dict() == {"name": "x", "passed": True, "worst": 0.5,
                                 "tol": 1.0, "n": 3, "note": ""}

    def test_lemma_symmetry_check_small_grid(self, p075, monkeypatch):
        monkeypatch.setattr(verify, "SYMMETRY_GRID", (5, 5))
        res = lemma_symmetry_check(p075)
        _assert_plain(res)
        assert res.n > 0 and res.passed is True

    def test_drift_sign_check_small_grid(self, p075, monkeypatch):
        monkeypatch.setattr(verify, "DRIFT_GRID", (5, 5))
        res = drift_sign_check(p075)
        _assert_plain(res)
        assert res.n > 0 and res.passed is True


class TestNegativeAmplitudes:
    """The drift-window check runs in the drift construction's canonical
    frame, so a sign flip of either amplitude leaves its report unchanged."""

    @pytest.mark.parametrize("a1,a2", [(-0.75, 1.0), (0.75, -1.0),
                                       (-0.75, -1.0)])
    def test_drift_check_matches_positive_frame(self, p075, a1, a2):
        p = pr.SystemParams(a1=a1, a2=a2, eps=0.01)
        assert (drift_sign_check(p).as_dict()
                == drift_sign_check(p075).as_dict())

    @pytest.mark.parametrize("amps", [["--mu", "-0.75"],
                                      ["--a1", "0.75", "--a2", "-1"]])
    def test_verify_passes(self, amps, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", *amps, "--eps", "0.01", "--n-melnikov", "6",
                     "--n-tau", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"] is True


class TestRequiresROne:
    """The reflection and drift-window checks are derived for r = 1."""

    def test_run_suite_refuses_before_any_check(self, monkeypatch):
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return 0.0

        monkeypatch.setattr(verify, "melnikov_quadrature", counted)
        p = pr.SystemParams(a1=0.75, a2=1.0, eps=0.01, r=0.5)
        with pytest.raises(pr.ConfigError, match="r = 1"):
            verify.run_suite(p, n_melnikov=4, n_tau=4, seed=0)
        assert calls[0] == 0

    def test_lemma_symmetry_check_refuses(self, monkeypatch):
        monkeypatch.setattr(verify, "SYMMETRY_GRID", (5, 5))
        p = pr.SystemParams(a1=0.75, a2=1.0, eps=0.01, r=0.5)
        with pytest.raises(pr.ConfigError, match="r = 1"):
            lemma_symmetry_check(p)

    @pytest.mark.parametrize("params", [
        ["--mu", "0.75", "--r", "0.5"],
        ["--a1", "0.75", "--a2", "1", "--k1", "2", "--k2", "1", "--l1", "0",
         "--l2", "1"],
    ])
    def test_cli_exits_2(self, params, capsys):
        assert main(["verify", "--eps", "0.01"] + params) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err


class TestTauOracleDrawCap:
    """tau_oracle_check stops after MAX_DRAWS_PER_SAMPLE * n draws."""

    def test_no_clean_sample_fails_fast(self, tmp_path):
        # TOL_CLS = 10 makes every solve singular
        out = tmp_path / "verify.json"
        src = os.path.dirname(os.path.dirname(pr.__file__))
        code = ("import sys; from pendrotor import _kernels as K, cli; "
                "K.TOL_CLS = 10.0; sys.exit(cli.main(sys.argv[1:]))")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, "verify", "--mu", "0.75",
             "--n-melnikov", "1", "--n-tau", "5", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 4
        assert time.perf_counter() - t0 < 20.0
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        tau = checks["tau_star_vs_ray_scan"]
        assert tau["passed"] is False and tau["n"] == 0
        assert checks["positive_drift_window"]["passed"] is False

    def test_cap_does_not_bind_on_default_draws(self, p075, monkeypatch):
        capped = verify.tau_oracle_check(p075, n=150, seed=3)
        monkeypatch.setattr(verify, "MAX_DRAWS_PER_SAMPLE", 10 ** 6)
        assert verify.tau_oracle_check(p075, n=150, seed=3) == capped
        assert capped.n == 150 and capped.passed


class TestSampledChecks:
    """The two sampled checks pass, and the injected fault fails, at every
    seed of a range, not only at the CLI's default seed."""

    @pytest.mark.parametrize("seed", range(10))
    def test_seed(self, p075, seed):
        assert verify.melnikov_check(p075, n=60, seed=seed).passed
        tau = verify.tau_oracle_check(p075, n=150, seed=seed)
        assert tau.passed and tau.n == 150
        bad = verify.melnikov_check(p075, n=60, seed=seed, corrupt="a2-sign")
        assert not bad.passed


class TestEmptyChecksFail:
    """A check that compared nothing fails, with a note and a finite worst."""

    @pytest.mark.parametrize("check", [lemma_symmetry_check, drift_sign_check])
    def test_empty_grid(self, check, p075, monkeypatch):
        for grid in ("SYMMETRY_GRID", "DRIFT_GRID"):
            monkeypatch.setattr(verify, grid, (0, getattr(verify, grid)[1]))
        res = check(p075)
        _assert_plain(res)
        assert res.n == 0 and res.passed is False and res.note

    def test_report_is_strict_json(self, tmp_path, monkeypatch):
        # TOL_CLS = 10 makes every solve singular, so no check has a point
        monkeypatch.setattr(K, "TOL_CLS", 10.0)
        out = tmp_path / "verify.json"
        assert main(["verify", "--mu", "0.75", "--n-melnikov", "1", "--n-tau",
                     "5", "--out", str(out)]) == 4

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(out.read_text(), parse_constant=reject)
        checks = {c["name"]: c for c in report["checks"]}
        for name in ("down_up_reflection_symmetry", "positive_drift_window"):
            assert checks[name]["n"] == 0
            assert checks[name]["passed"] is False and checks[name]["note"]


def _lemma_pointwise(params, n_I, n_th):
    """lemma_symmetry_check as two per-point lstar solves per (I, theta)."""
    Is = np.linspace(-2.0, 2.0, n_I)
    ths = np.linspace(1e-3, verify.TWO_PI - 1e-3, n_th)
    worst, used = 0.0, 0
    for I in Is:
        if min(abs(I), abs(params.r * I - 1.0)) < 0.02:
            continue
        if abs(abs(K.crest_coef(I, params.a1, params.a2, params.r)) - 1.0) < 1e-6:
            continue
        for th in ths:
            r0 = lstar(I, th, branch(0), params)
            r2 = lstar(I, verify.TWO_PI - th, branch(2), params)
            if r0[0] != K.TAU_OK or r2[0] != K.TAU_OK:
                continue
            if r0[3] < 1e-3 or r2[3] < 1e-3:
                continue
            worst = max(worst, abs(r0[7] + r2[7]))
            used += 1
    return CheckResult("down_up_reflection_symmetry",
                       used > 0 and worst <= 1e-8, worst, 1e-8, used,
                       note="" if used else "no grid point solved cleanly")


def _drift_pointwise(params, n_I, n_th):
    """drift_sign_check as one per-point lstar solve per (I, theta)."""
    switches = list(pr.find_thresholds(params).alpha_thresholds) + [0.0, 1.0]
    worst, used, bad = math.inf, 0, 0
    for I in np.linspace(-2.0, 2.0, n_I):
        if any(abs(I - s) < 0.02 for s in switches):
            continue
        try:
            thp = theta_plus(I, params)
        except pr.PendrotorError:
            bad += 1
            continue
        for th in np.linspace(math.pi + 1e-3, thp - 1e-3, n_th):
            res = lstar(I, th, ODD, params)
            if res[0] != K.TAU_OK:
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


class TestGridChecksMatchPointwise:
    """The reflection and drift-window checks give the reports of their
    per-point lstar loops, kept above as the reference."""

    @pytest.mark.parametrize("mu", [0.3, 0.75, 2.0])
    @pytest.mark.parametrize("n_I,n_th", [(7, 9), (0, 9)])
    def test_same_report(self, mu, n_I, n_th, monkeypatch):
        monkeypatch.setattr(verify, "SYMMETRY_GRID", (n_I, n_th))
        monkeypatch.setattr(verify, "DRIFT_GRID", (n_I, n_th))
        p = pr.SystemParams(a1=mu, a2=1.0, eps=0.01)
        assert (lemma_symmetry_check(p).as_dict()
                == _lemma_pointwise(p, n_I, n_th).as_dict())
        assert (drift_sign_check(p).as_dict()
                == _drift_pointwise(p, n_I, n_th).as_dict())


#: leaves a line unflushed in block-buffered stdout, then runs the
#: reflection check on two reported cores
_BUFFERED_SCRIPT = """
import os, sys
from pendrotor import verify
from pendrotor.params import SystemParams
os.sched_getaffinity = lambda pid: {0, 1}
sys.stdout.write("written before the fork\\n")
assert verify.lemma_symmetry_check(SystemParams(a1=0.75, a2=1.0)).passed
"""


class TestReflectionSweepCores:
    """The reflection check's branch-0 and branch-2 sweeps, side by side on
    two usable cores, give the serial report."""

    @staticmethod
    def _report_cores(monkeypatch, cores):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)))

    @staticmethod
    def _count_forks(monkeypatch):
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return forks

    @pytest.mark.parametrize("mu", [0.3, 0.75, 2.0])
    def test_report_independent_of_core_count(self, mu, monkeypatch):
        # the kernel sweeps made in this process, as a tracer sees them:
        # with two cores the branch-0 sweep stays here
        sweeps = []
        plain = K.sweep_kernel

        def recorded(*args):
            sweeps.append(args[-1])
            return plain(*args)

        monkeypatch.setattr(K, "sweep_kernel", recorded)
        forks = self._count_forks(monkeypatch)
        p = pr.SystemParams(a1=mu, a2=1.0, eps=0.01)
        got = {}
        for cores in (1, 2, 3):
            self._report_cores(monkeypatch, cores)
            del sweeps[:], forks[:]
            got[cores] = lemma_symmetry_check(p).as_dict()
            assert_no_child_left()
            assert (sweeps, len(forks)) == (([0, 2], 0) if cores == 1
                                            else ([0], 1))
        assert got[1]["n"] > 0
        assert got[2] == got[1] and got[3] == got[1]

    def test_child_error_reaches_caller(self, p075, monkeypatch):
        # the branch-2 sweep runs in the child, which inherits the patch
        # through fork; its exception comes back through the pipe
        plain = verify.sweep

        def failing(Is, ths, crit, params):
            if crit.k == 2:
                raise pr.UnreachableBranch(f"sweep in {os.getpid()}")
            return plain(Is, ths, crit, params)

        monkeypatch.setattr(verify, "sweep", failing)
        forks = self._count_forks(monkeypatch)
        self._report_cores(monkeypatch, 2)
        with pytest.raises(pr.UnreachableBranch) as err:
            lemma_symmetry_check(p075)
        assert type(err.value) is pr.UnreachableBranch
        assert str(err.value) != f"sweep in {os.getpid()}"
        assert len(forks) == 1
        assert_no_child_left()

    def test_r_not_one_refused_before_any_fork(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(verify, "sweep", no_fork)
        self._report_cores(monkeypatch, 2)
        p = pr.SystemParams(a1=0.75, a2=1.0, eps=0.01, r=0.5)
        with pytest.raises(pr.ConfigError, match="r = 1"):
            lemma_symmetry_check(p)
        assert_no_child_left()

    def test_child_flushes_no_inherited_buffer(self):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(pr.__file__)))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run([sys.executable, "-c", _BUFFERED_SCRIPT],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"written before the fork\n"
