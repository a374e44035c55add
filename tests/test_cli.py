import argparse
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pendrotor as pr
from pendrotor import cli
from pendrotor.cli import DTH_ZERO_RTOL, main

TWO_PI = 2.0 * math.pi


def _read_rows(path):
    header = {}
    rows = []
    cols = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                header[key.strip()] = val.strip()
            elif cols is None:
                cols = line.split(",")
            else:
                rows.append(dict(zip(cols, line.split(","))))
    return header, rows


class TestThresholdsCmd:
    def test_published_values_in_file(self, tmp_path):
        out = tmp_path / "thr.csv"
        rc = main(["thresholds", "--mu", "0.5", "--I-min", "-5",
                   "--I-max", "5", "--out", str(out)])
        assert rc == 0
        _, rows = _read_rows(out)
        alphas = sorted(float(r["value"]) for r in rows
                        if r["record"] == "threshold"
                        and r["curve_or_kind"] == "alpha")
        assert alphas == pytest.approx([-1.807, 0.701, 1.367], abs=5e-3)

    def test_r_half(self, tmp_path):
        out = tmp_path / "thr.csv"
        rc = main(["thresholds", "--mu", "0.5", "--r", "0.5",
                   "--I-min", "-5", "--I-max", "5", "--out", str(out)])
        assert rc == 0
        _, rows = _read_rows(out)
        ivs = [r for r in rows if r["record"] == "interval"]
        assert ivs
        # vertical around the moved pole I = 2
        hit = [r for r in ivs
               if float(r["I_lo"]) < 2.0 < float(r["I_hi"])]
        assert hit and hit[0]["curve_or_kind"] == "vertical"

    def test_harmonic_quadruple_reduces(self, tmp_path):
        # (k1,k2,l1,l2) = (2,1,0,-1) reduces to r = 1/2 with eps * k1^2
        out = tmp_path / "thr.csv"
        rc = main(["thresholds", "--a1", "0.5", "--a2", "1.0", "--k1", "2",
                   "--k2", "1", "--l1", "0", "--l2", "-1", "--eps", "0.01",
                   "--out", str(out)])
        assert rc == 0
        header, _ = _read_rows(out)
        assert float(header["r"]) == pytest.approx(0.5)
        assert float(header["eps"]) == pytest.approx(0.04)

    def test_window_inside_default_keeps_regime_labels(self, tmp_path):
        # mu = 0.5 on (-2, 2) misses beta's -2.942, so the pair (I_b, I_a)
        # is left out; the rest keep the names they have on (-5, 5)
        out = tmp_path / "thr.csv"
        assert main(["thresholds", "--mu", "0.5", "--I-min", "-2",
                     "--I-max", "2", "--out", str(out)]) == 0
        _, rows = _read_rows(out)
        labels = {r["label"]: float(r["value"]) for r in rows
                  if r["record"] == "threshold" and r["label"]}
        assert sorted(labels) == ["I_A", "I_B", "I_C", "I_c"]
        assert [labels[k] for k in ("I_c", "I_C", "I_A", "I_B")] == \
            pytest.approx([0.595, 0.701, 1.367, 1.85], abs=5e-3)
        rep = pr.find_thresholds(pr.SystemParams(a1=0.5, a2=1.0),
                                 window=(-2.0, 2.0))
        assert set(rep.labels) == {"I_c", "I_C", "I_A", "I_B"}

    def test_mu_zero_exits_2(self):
        assert main(["thresholds", "--mu", "0"]) == 2

    def test_degenerate_grid_exits_2(self):
        assert main(["portrait", "--mu", "0.5", "--grid-n", "1"]) == 2
        assert main(["portrait", "--mu", "0.5", "--I-min", "2",
                     "--I-max", "-2"]) == 2
        assert main(["thresholds", "--mu", "0.5", "--eps", "-0.1"]) == 2

    def test_missing_params_exit_2(self):
        assert main(["thresholds"]) == 2


class TestCrestsCmd:
    def test_straight_lines_at_pole(self, tmp_path):
        out = tmp_path / "crests.csv"
        rc = main(["crests", "--mu", "0.5", "--I", "1.0", "--angle-n", "64",
                   "--out", str(out)])
        assert rc == 0
        _, rows = _read_rows(out)
        assert rows
        for r in rows:
            assert r["kind"] == "vertical"
            phi = float(r["phi"])
            expected = 0.0 if int(r["branch"]) == 0 else math.pi
            assert phi == pytest.approx(expected, abs=1e-12)
            assert abs(float(r["residual"])) < 1e-12

    def test_residuals_vanish(self, tmp_path):
        out = tmp_path / "crests.csv"
        rc = main(["crests", "--mu", "0.5", "--I", "0.3", "--I", "1.2",
                   "--angle-n", "128", "--out", str(out)])
        assert rc == 0
        _, rows = _read_rows(out)
        assert max(abs(float(r["residual"])) for r in rows) < 1e-12

    def test_bifurcating_branches_nearly_coincide(self, tmp_path):
        # near the regime switch the horizontal piece at I = 0.68 and the
        # vertical piece at I = 0.72 trace almost the same curve by (0, 0)
        out1 = tmp_path / "h.csv"
        out2 = tmp_path / "v.csv"
        main(["crests", "--mu", "0.5", "--I", "0.68", "--angle-n", "512",
              "--out", str(out1)])
        main(["crests", "--mu", "0.5", "--I", "0.72", "--angle-n", "512",
              "--out", str(out2)])

        def pts(path):
            # the near-coincidence holds in a neighbourhood of phi = 0,
            # where the bifurcating pieces pass through the same point
            _, rows = _read_rows(path)
            out = []
            for r in rows:
                if int(r["branch"]) != 0:
                    continue
                phi = float(r["phi"]) % TWO_PI
                sig = float(r["sigma"]) % TWO_PI
                phi = phi - TWO_PI if phi > math.pi else phi
                sig = sig - TWO_PI if sig > math.pi else sig
                if abs(phi) <= 0.5 and abs(sig) <= 1.0:
                    out.append((phi, sig))
            return np.array(out)

        A, B = pts(out1), pts(out2)
        assert len(A) > 30 and len(B) > 30

        def hausdorff(X, Y):
            d = np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2)
            return max(d.min(axis=1).max(), d.min(axis=0).max())

        assert hausdorff(A, B) < 0.1


class TestPortraitCmd:
    def test_determinism_and_threads(self, tmp_path):
        args = ["portrait", "--mu", "0.6", "--criterion", "down",
                "--I-min", "-1", "--I-max", "0.5", "--grid-n", "24",
                "--theta-n", "32"]
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        p3 = tmp_path / "c.csv"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert main(args + ["--threads", "4", "--out", str(p3)]) == 0
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()

    def test_level_sets_have_two_monotone_sections(self, tmp_path):
        # clean rows of the down-map portrait: L*(theta) has one max and one
        # min, so its theta-derivative changes sign exactly twice
        out = tmp_path / "p.csv"
        assert main(["portrait", "--mu", "0.6", "--criterion", "down",
                     "--I-min", "-1.0", "--I-max", "-0.4", "--grid-n", "4",
                     "--theta-n", "256", "--out", str(out)]) == 0
        _, rows = _read_rows(out)
        byI = {}
        for r in rows:
            byI.setdefault(r["I"], []).append(r)
        for I, rr in byI.items():
            vals = np.array([float(x["lstar"]) for x in rr])
            assert np.all(np.isfinite(vals))
            d = np.sign(np.diff(np.concatenate([vals, vals[:1]])))
            flips = np.sum(d != np.roll(d, -1))
            assert flips == 2, f"I={I}"

    def test_all_criteria_render(self, tmp_path):
        for crit in ("down", "up", "minabs", "branch=1"):
            out = tmp_path / f"{crit.replace('=', '')}.csv"
            assert main(["portrait", "--mu", "0.6", "--criterion", crit,
                         "--I-min", "-0.8", "--I-max", "-0.2",
                         "--grid-n", "4", "--theta-n", "12",
                         "--out", str(out)]) == 0
            _, rows = _read_rows(out)
            assert any(r["status"] == "0" for r in rows)

    def test_jsonl_schema(self, tmp_path):
        out = tmp_path / "p.jsonl"
        assert main(["portrait", "--mu", "0.6", "--grid-n", "4",
                     "--theta-n", "8", "--format", "jsonl",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        head = json.loads(lines[0])
        assert head["schema_version"] == 1
        assert head["kind"] == "portrait"
        row = json.loads(lines[1])
        assert set(row) == {"I", "theta", "lstar", "dlstar_dtheta",
                            "idot_sign", "region", "degenerate", "status"}

    def test_degenerate_mask_only_in_tangency_range(self, tmp_path):
        # mu=0.5: tangencies exist for I in [0.595, 0.701); a clean range
        # like (-1.0, 0.0) must produce an empty mask
        out = tmp_path / "p.csv"
        assert main(["portrait", "--mu", "0.5", "--criterion", "minabs",
                     "--I-min", "-1.0", "--I-max", "0.0", "--grid-n", "12",
                     "--theta-n", "64", "--out", str(out)]) == 0
        _, rows = _read_rows(out)
        ok_rows = [r for r in rows if r["status"] == "0"]
        assert ok_rows
        assert all(r["degenerate"] == "0" for r in ok_rows)
        # and masked points, where they appear, lie at tangency-range actions
        out2 = tmp_path / "p2.csv"
        assert main(["portrait", "--mu", "0.5", "--criterion", "minabs",
                     "--I-min", "0.4", "--I-max", "0.9", "--grid-n", "24",
                     "--theta-n", "128", "--out", str(out2)]) == 0
        p = pr.SystemParams(a1=0.5, a2=1.0)
        _, rows2 = _read_rows(out2)
        for r in rows2:
            if r["status"] == "0" and r["degenerate"] == "1":
                I = float(r["I"])
                assert pr.has_tangency(I, p)


    @pytest.mark.parametrize("argv", [
        ["--mu", "0.75", "--r", "0.5", "--criterion", "branch=1"],
        ["--mu", "0.6", "--criterion", "branch=1"],
        ["--mu", "0.6", "--criterion", "branch=2"]])
    def test_idot_sign_zero_band(self, tmp_path, argv):
        # on theta = pi (branch 1: tau* = 0 there) and at the lattice point
        # I = -2, theta = 0 of r = 0.5, dL*/dtheta is zero; rounding leaves
        # ~1e-15 that portrait writes as 0 with idot_sign 0
        out = tmp_path / "p.csv"
        assert main(["portrait", *argv, "--grid-n", "40",
                     "--out", str(out)]) == 0
        head, rows = _read_rows(out)
        p = pr.SystemParams(a1=float(head["a1"]), a2=float(head["a2"]),
                            r=float(argv[3]) if argv[2] == "--r" else 1.0)
        n_zero = 0
        for r in rows:
            if r["status"] != "0":
                continue
            I, th, g = float(r["I"]), float(r["theta"]), float(r["dlstar_dtheta"])
            assert int(r["idot_sign"]) == int(np.sign(g))
            band = DTH_ZERO_RTOL * (abs(pr.amplitude_A1(I, p))
                                    + abs(pr.amplitude_A2(I, p)))
            assert g == 0.0 or abs(g) > band
            if th == math.pi and p.r == 1.0 and argv[-1] == "branch=1":
                assert g == 0.0
            n_zero += g == 0.0
        assert n_zero >= (1 if argv[2] == "--r" else 2)
        if argv[2] == "--r":
            first = rows[0]
            assert (first["I"], first["theta"]) == ("-2", "0")
            assert first["dlstar_dtheta"] == "0" and first["idot_sign"] == "0"


class TestTauFieldCmd:
    def test_runs_and_reports_branches(self, tmp_path):
        out = tmp_path / "tau.csv"
        assert main(["tau-field", "--mu", "0.75", "--criterion", "minabs",
                     "--I-min", "0.2", "--I-max", "0.4", "--grid-n", "6",
                     "--theta-n", "16", "--out", str(out)]) == 0
        _, rows = _read_rows(out)
        bands = {int(r["branch"]) for r in rows if r["status"] == "0"}
        assert bands <= {0, 1, 2}
        assert len(bands) >= 2


class TestInnerPortraitCmd:
    def test_sections_conserve_fnr_off_resonance(self, tmp_path):
        out = tmp_path / "inner.csv"
        assert main(["inner-portrait", "--mu", "0.75", "--eps", "0.01",
                     "--I-min", "0.45", "--I-max", "0.55", "--grid-n", "3",
                     "--periods", "40", "--out", str(out)]) == 0
        _, rows = _read_rows(out)
        for r in rows:
            assert r["region"] == "nonres"
        byorbit = {}
        for r in rows:
            byorbit.setdefault(r["orbit"], []).append(float(r["torus_value"]))
        for vals in byorbit.values():
            assert np.ptp(vals) < 0.02


class TestDiffuseCmd:
    def test_small_run(self, tmp_path):
        out = tmp_path / "orbit.jsonl"
        rep = tmp_path / "report.json"
        rc = main(["diffuse", "--a1", "0.75", "--a2", "1.0", "--eps", "0.01",
                   "--I-start", "0.25", "--I-end", "0.35",
                   "--format", "jsonl", "--out", str(out),
                   "--report", str(rep)])
        assert rc == 0
        report = json.loads(rep.read_text())
        assert report["ok"] is True
        assert report["final_I"] >= 0.35
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "pseudo_orbit"

    def test_cycling_range_exits_3_fast(self, capsys):
        # jump runs carry I to about +0.04 and inner arcs drop it back,
        # over and over; the stop rule must see it within seconds
        t0 = time.perf_counter()
        rc = main(["diffuse", "--a1", "0.75", "--a2", "1", "--eps", "0.01",
                   "--I-start", "-0.7", "--I-end", "0.3"])
        assert rc == 3
        assert time.perf_counter() - t0 <= 10.0
        assert "new maximum of I" in capsys.readouterr().err

    def test_eps_zero_exits_2(self):
        assert main(["diffuse", "--a1", "0.75", "--a2", "1.0",
                     "--eps", "0"]) == 2

    def test_a1_zero_exits_2(self):
        assert main(["diffuse", "--a1", "0", "--a2", "1.0",
                     "--eps", "0.01"]) == 2


class TestVerifyCmd:
    def test_default_suite_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--mu", "0.75", "--eps", "0.01",
                   "--n-melnikov", "12", "--n-tau", "25", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["ok"] is True
        assert {c["name"] for c in rep["checks"]} == {
            "melnikov_closed_vs_quadrature", "tau_star_vs_ray_scan",
            "down_up_reflection_symmetry", "positive_drift_window"}

    def test_injected_sign_flip_fails(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--mu", "0.75", "--eps", "0.01",
                   "--n-melnikov", "8", "--n-tau", "5",
                   "--inject-fault", "a2-sign", "--out", str(out)])
        assert rc == 4
        rep = json.loads(out.read_text())
        bad = [c for c in rep["checks"]
               if c["name"] == "melnikov_closed_vs_quadrature"]
        assert bad and bad[0]["passed"] is False

    def test_tolerance_override_flag(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--mu", "0.75", "--eps", "0.01",
                   "--n-melnikov", "6", "--n-tau", "25",
                   "--tol-tau", "1e-18", "--out", str(out)])
        assert rc == 4  # below the root-refinement floor: must flag

    def test_unknown_tol_override_exits_2(self):
        assert main(["verify", "--mu", "0.75",
                     "--tol-override", "nosuch=1"]) == 2


class TestBadNumericInput:
    @pytest.mark.parametrize("argv", [
        ["portrait", "--mu", "0.5", "--I-min", "nan"],
        ["portrait", "--mu", "0.5", "--I-max", "inf"],
        ["diffuse", "--a1", "0.75", "--a2", "1", "--eps", "0.01",
         "--I-start", "nan"],
        ["diffuse", "--a1", "0.75", "--a2", "1", "--eps", "0.01",
         "--I-end=-inf"],
        ["portrait", "--mu", "nan"],
        ["portrait", "--a1", "inf", "--a2", "1"],
        ["thresholds", "--mu", "0.5", "--eps", "nan"],
        ["verify", "--mu", "0.75", "--tol-override", "tol_root=abc"],
        ["verify", "--mu", "0.75", "--tol-override", "tol_cls=nan"],
        ["portrait", "--mu", "0.5", "--criterion", "branch=x"],
        ["portrait", "--mu", "0.5", "--criterion", "branch=1.5"],
        ["crests", "--mu", "0.5", "--I", "abc"],
        ["crests", "--mu", "0.5", "--I", "nan"],
        ["verify", "--mu", "0.75", "--n-melnikov", "0", "--n-tau", "0"],
        ["verify", "--mu", "0.75", "--n-tau", "-3"],
        # every tolerance is a positive width or target
        ["inner-portrait", "--mu", "0.75", "--eps", "0.01", "--periods", "2",
         "--tol-override", "tol_ode=0"],
        ["inner-portrait", "--mu", "0.75", "--eps", "0.01", "--periods", "2",
         "--tol-override", "tol_ode=-1"],
        ["verify", "--mu", "0.75", "--seed", "-1"],
        ["verify", "--mu", "0.75", "--tol-melnikov", "nan"],
        ["verify", "--mu", "0.75", "--tol-melnikov", "-1"],
        ["verify", "--mu", "0.75", "--tol-tau", "nan"],
        ["verify", "--mu", "0.75", "--tol-tau", "-1"],
        # a parameter flag that another given flag would override
        ["thresholds", "--mu", "0.5", "--a1", "0.75", "--a2", "1"],
        ["thresholds", "--a1", "0.5", "--a2", "1", "--k1", "2", "--k2", "1",
         "--l1", "0", "--l2", "-1", "--r", "0.3"],
        ["thresholds", "--a1", "0.5", "--a2", "1", "--k1", "2", "--k2", "1",
         "--l1", "0", "--l2", "-1", "--mu", "9"],
        ["thresholds", "--a1", "0.5", "--a2", "1", "--l1", "0"],
    ])
    def test_exits_2_with_message(self, argv, capsys):
        # a small grid where the subcommand takes one, in case a check
        # were missed
        grid = (["--grid-n", "2"] if argv[0] in ("crests", "portrait",
                                                 "inner-portrait") else [])
        assert main(argv + grid) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["thresholds", "--mu", "0.5", "--out"],
        ["diffuse", "--a1", "0.75", "--a2", "1", "--eps", "0.01",
         "--report"],
    ])
    def test_unwritable_output_exits_2_before_work(self, argv, tmp_path,
                                                   monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")

        for name in ("find_thresholds", "build_pseudo_orbit"):
            monkeypatch.setattr(cli, name, no_work)
        path = str(tmp_path / "missing" / "x.out")
        assert main(argv + [path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert path in err

    @pytest.mark.parametrize("command", ["portrait", "tau-field"])
    def test_zero_potential_sweep_exits_2_before_solving(self, command,
                                                         monkeypatch, capsys):
        # a1 = a2 = 0 leaves no ridge set; the sweep used to write rows of
        # contacts with it under a '# mu = nan' header
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept a zero potential")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        assert main([command, "--a1", "0", "--a2", "0", "--grid-n", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_module_entry_point_exits_2(self):
        # python -m pendrotor hands main()'s exit code to the shell
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(pr.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "pendrotor", "crests", "--mu", "0.5",
             "--I", "nan"], capture_output=True, text=True, env=env,
            timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")


#: one fresh interpreter runs a tiny form of every subcommand but verify,
#: lists the scipy modules loaded by then, runs a tiny verify last and
#: lists them again
_STARTUP_SCRIPT = """
import json, sys
from pendrotor.cli import main
def scipy_mods():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
out, runs = sys.argv[1], json.loads(sys.argv[2])
codes = [main(argv.format(out=out).split()) for argv in runs]
before = scipy_mods()
rc = main(f"verify --mu 0.75 --n-melnikov 1 --n-tau 2 --out {out}/v.json"
          .split())
print(json.dumps({"codes": codes, "scipy_before": before, "verify": rc,
                  "scipy_after": scipy_mods()}))
"""


class TestStartup:
    def test_no_subcommand_loads_scipy(self, tmp_path):
        runs = [
            "thresholds --mu 0.5 --out {out}/t.csv",
            "crests --mu 0.5 --grid-n 2 --out {out}/c.csv",
            "portrait --mu 0.75 --grid-n 2 --out {out}/p.csv",
            "tau-field --mu 0.75 --grid-n 2 --out {out}/f.csv",
            "inner-portrait --mu 0.75 --eps 0.01 --periods 2 --grid-n 2 "
            "--out {out}/i.csv",
            "diffuse --a1 0.75 --a2 1 --eps 0.01 --I-start 1.5 --I-end 1.52 "
            "--out {out}/d.csv --report {out}/d.json",
        ]
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(pr.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path),
             json.dumps(runs)], capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got["codes"] == [0] * len(runs)
        assert got["scipy_before"] == []
        assert got["verify"] == 0
        assert got["scipy_after"] == []


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 0.4\nI-min = -3\nI-max = 3\n")
        out1 = tmp_path / "a.csv"
        assert main(["thresholds", "--config", str(cfg),
                     "--out", str(out1)]) == 0
        header, _ = _read_rows(out1)
        assert float(header["mu"]) == pytest.approx(0.4)
        out2 = tmp_path / "b.csv"
        assert main(["thresholds", "--config", str(cfg), "--mu", "0.5",
                     "--out", str(out2)]) == 0
        header2, _ = _read_rows(out2)
        assert float(header2["mu"]) == pytest.approx(0.5)

    @pytest.mark.parametrize("form", ["--config={}", "--conf {}",
                                      "--co={}"])
    def test_every_flag_form_applies_the_file(self, tmp_path, form):
        # argparse accepts '=' and unique prefixes; each must read the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_n = 3\n")
        out = tmp_path / "tau.csv"
        assert main(["tau-field", "--mu", "0.75", *form.format(cfg).split(),
                     "--out", str(out)]) == 0
        _, rows = _read_rows(out)
        assert len(rows) == 9


_PARAM_FLAGS = ["--a1", "--a2", "--mu", "--r", "--k1", "--k2", "--l1", "--l2",
                "--eps", "--out", "--config", "--tol-override"]
_GRID_FLAGS = ["--format", "--I-min", "--I-max", "--grid-n"]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestFlagSets:
    """Each subcommand takes only the flags its command reads."""

    def test_option_strings_per_subcommand(self):
        sweep = ["--theta-n", "--criterion", "--threads"]
        want = {
            "thresholds": _PARAM_FLAGS + ["--format", "--I-min", "--I-max"],
            "crests": _PARAM_FLAGS + _GRID_FLAGS + ["--angle-n", "--I"],
            "portrait": _PARAM_FLAGS + _GRID_FLAGS + sweep,
            "tau-field": _PARAM_FLAGS + _GRID_FLAGS + sweep,
            "inner-portrait": _PARAM_FLAGS + _GRID_FLAGS + ["--periods"],
            "diffuse": _PARAM_FLAGS + ["--format", "--I-start", "--I-end",
                                       "--report"],
            "verify": _PARAM_FLAGS + ["--n-melnikov", "--n-tau", "--seed",
                                      "--tol-melnikov", "--tol-tau",
                                      "--inject-fault"],
        }
        got = {name: sorted(o for a in p._actions for o in a.option_strings
                            if o not in ("-h", "--help"))
               for name, p in _subparsers().items()}
        assert got == {name: sorted(flags) for name, flags in want.items()}
        assert sum(map(len, got.values())) == 122

    @pytest.mark.parametrize("argv", [
        ["diffuse", "--a1", "0.75", "--a2", "1", "--eps", "0.01",
         "--criterion", "minabs"],
        ["diffuse", "--a1", "0.75", "--a2", "1", "--eps", "0.01",
         "--I-min", "3"],
        ["verify", "--mu", "0.75", "--format", "csv"],
        ["thresholds", "--mu", "0.5", "--grid-n", "5"],
        ["inner-portrait", "--mu", "0.75", "--theta-n", "4"],
    ])
    def test_unread_flag_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "unrecognized arguments" in err
        assert "Traceback" not in err

    def test_config_key_not_taken_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 0.5\ngrid_n = 5\n")
        assert main(["thresholds", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "--grid-n" in err

    def test_bad_choice_exits_2(self, capsys):
        assert main(["portrait", "--mu", "0.5", "--format", "xml"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diffuse", "--help"])
        assert exc.value.code == 0
        assert "--I-start" in capsys.readouterr().out

    def test_diffuse_refuses_tol_ode(self, tmp_path, capsys):
        # drift arcs run at the builder's and the verifier's own
        # tolerances, so a tol_ode given to diffuse would be ignored
        out = tmp_path / "orbit.csv"
        assert main(["diffuse", "--a1", "0.75", "--a2", "1", "--eps", "0.01",
                     "--tol-override", "tol_ode=1e-6",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "tol_ode" in err
        assert out.read_text() == ""

    def test_mu_with_a2_scales_a1(self, tmp_path):
        out = tmp_path / "thr.csv"
        assert main(["thresholds", "--mu", "0.5", "--a2", "2",
                     "--out", str(out)]) == 0
        header, _ = _read_rows(out)
        assert (header["a1"], header["a2"], header["mu"]) == ("1", "2", "0.5")

    def test_readme_examples_parse(self):
        # every 'pendrotor ...' line of the README's CLI block
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text().split("\n## CLI\n", 1)[1]
        block = text.split("```bash\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True)
                 for line in block.replace("\\\n", " ").splitlines()]
        examples = [words[1:] for words in lines
                    if words and words[0] == "pendrotor"]
        assert {argv[0] for argv in examples} == set(_subparsers())
        for argv in examples:
            cli.build_parser().parse_args(argv)
