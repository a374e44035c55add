import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import pendrotor as pr
from pendrotor import verify
from pendrotor.cli import main
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

    def test_lemma_symmetry_check_small_grid(self, p075):
        res = lemma_symmetry_check(p075, n_I=5, n_th=5)
        _assert_plain(res)
        assert res.n > 0 and res.passed is True

    def test_drift_sign_check_small_grid(self, p075):
        res = drift_sign_check(p075, n_I=5, n_th=5)
        _assert_plain(res)
        assert res.n > 0 and res.passed is True


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
            verify.run_suite(p, n_melnikov=4, n_tau=4)
        assert calls[0] == 0

    def test_lemma_symmetry_check_refuses(self):
        p = pr.SystemParams(a1=0.75, a2=1.0, eps=0.01, r=0.5)
        with pytest.raises(pr.ConfigError, match="r = 1"):
            lemma_symmetry_check(p, n_I=5, n_th=5)

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
        # tol_cls = 10 makes every solve singular
        out = tmp_path / "verify.json"
        src = os.path.dirname(os.path.dirname(pr.__file__))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pendrotor.cli", "verify", "--mu", "0.75",
             "--n-melnikov", "1", "--n-tau", "5", "--tol-override",
             "tol_cls=10", "--out", str(out)],
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


class TestEmptyChecksFail:
    """A check that compared nothing fails, with a note and a finite worst."""

    @pytest.mark.parametrize("check", [lemma_symmetry_check, drift_sign_check])
    def test_empty_grid(self, check, p075):
        res = check(p075, n_I=0)
        _assert_plain(res)
        assert res.n == 0 and res.passed is False and res.note

    def test_report_is_strict_json(self, tmp_path):
        # tol_cls = 10 makes every solve singular, so no check has a point
        out = tmp_path / "verify.json"
        assert main(["verify", "--mu", "0.75", "--n-melnikov", "1", "--n-tau",
                     "5", "--tol-override", "tol_cls=10",
                     "--out", str(out)]) == 4

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(out.read_text(), parse_constant=reject)
        checks = {c["name"]: c for c in report["checks"]}
        for name in ("down_up_reflection_symmetry", "positive_drift_window"):
            assert checks[name]["n"] == 0
            assert checks[name]["passed"] is False and checks[name]["note"]
