import argparse
import ast
import collections
import functools
import hashlib
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pendrotor as pr
from pendrotor import cli, scattering, verify
from conftest import assert_no_child_left
from pendrotor.cli import DTH_ZERO_RTOL, main

TWO_PI = 2.0 * math.pi


#: an action window whose width I_max - I_min overflows a float
_HUGE_WINDOW = ["--I-min=-1e308", "--I-max=1e308"]


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

    def test_edge_interval_at_a_singular_cut(self, tmp_path):
        # |alpha_r(-10)| = 1 exactly at r = 0.9 (rI - 1 = I), so the crossing
        # near -10 leaves a 5e-12-wide edge interval whose midpoint lies in
        # the singular band, where has_tangency raises; it is skipped
        out = tmp_path / "thr.csv"
        assert main(["thresholds", "--a1", "1", "--a2", "1", "--r", "0.9",
                     "--I-min", "-10", "--I-max", "10",
                     "--out", str(out)]) == 0
        _, rows = _read_rows(out)
        alphas = [float(r["value"]) for r in rows
                  if r["record"] == "threshold"
                  and r["curve_or_kind"] == "alpha"]
        assert alphas[0] == pytest.approx(-10.0, abs=1e-10)
        ivs = [r for r in rows if r["record"] == "interval"]
        assert all(r["curve_or_kind"] != "singular" for r in ivs)
        assert float(ivs[0]["I_lo"]) == pytest.approx(alphas[0], abs=0.0)

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

    def test_window_grid(self, tmp_path):
        # without --I, --grid-n gives the actions over the window and the
        # angles: n angles per branch at each of the n actions
        n = 7
        out = tmp_path / "crests.csv"
        assert main(["crests", "--mu", "0.5", "--I-min", "-1",
                     "--I-max", "1.5", "--grid-n", str(n),
                     "--out", str(out)]) == 0
        _, rows = _read_rows(out)
        actions = [float(I) for I in dict.fromkeys(r["I"] for r in rows)]
        assert actions == list(np.linspace(-1.0, 1.5, n))
        counts = collections.Counter((r["I"], r["branch"]) for r in rows)
        assert len(counts) == 2 * n and set(counts.values()) == {n}
        assert {r["kind"] for r in rows} == {"horizontal", "vertical"}
        assert max(abs(float(r["residual"])) for r in rows) < 1e-12

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

    def test_degenerate_column_is_the_contact_verdict(self, tmp_path,
                                                      monkeypatch):
        # with TOL_DEGEN at the median OK margin, half the OK contacts and
        # every unreachable one at the pole I = 1 read degenerate
        out = tmp_path / "tau.csv"
        argv = ["tau-field", "--mu", "0.75", "--criterion", "down",
                "--I-min", "-1", "--I-max", "1", "--grid-n", "6",
                "--out", str(out)]
        assert main(argv) == 0
        _, rows = _read_rows(out)
        tol = float(np.median([float(r["margin"]) for r in rows
                               if r["status"] == "0"]))
        monkeypatch.setattr(scattering, "TOL_DEGEN", tol)
        assert main(argv) == 0
        _, rows = _read_rows(out)
        verdict = [r["status"] != "0" or float(r["margin"]) < tol
                   for r in rows]
        assert [r["degenerate"] == "1" for r in rows] == verdict
        assert {r["status"] for r in rows} == {"0", "2"}
        assert 0 < sum(verdict) < len(verdict)

    def test_marching_rows_at_the_pole(self, tmp_path):
        # I = 1/r holds sigma fixed along every ray: down finds no contact
        out = tmp_path / "tau.csv"
        assert main(["tau-field", "--mu", "0.75", "--criterion", "down",
                     "--grid-n", "3", "--I-min", "0", "--I-max", "2",
                     "--theta-n", "2", "--out", str(out)]) == 0
        _, rows = _read_rows(out)
        pole = [r for r in rows if float(r["I"]) == 1.0]
        assert len(pole) == 2
        assert all(r["status"] == "2" for r in pole)


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


#: runs each argv of a JSON list in turn through ``python -m pendrotor``,
#: all to one stdout, with os.sched_getaffinity reporting ``cores`` cores;
#: ends by writing to stderr which process-pool modules were imported
_CORES_SCRIPT = """
import json, os, runpy, sys
cores, runs = int(sys.argv[1]), json.loads(sys.argv[2])
os.sched_getaffinity = lambda pid: set(range(cores))
for argv in runs:
    sys.argv = ["pendrotor"] + argv
    try:
        runpy.run_module("pendrotor", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
sys.stderr.write(json.dumps([m for m in ("multiprocessing",
                                         "concurrent.futures")
                              if m in sys.modules]))
"""


def _inner_argv(grid_n, fmt, *extra):
    return ["inner-portrait", "--mu", "0.75", "--eps", "0.01",
            "--periods", "3", "--grid-n", str(grid_n), "--format", fmt,
            *extra]


def _report_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)))


class TestInnerPortraitCores:
    """Orbits spread over the usable cores give the serial loop's bytes."""

    def test_bytes_independent_of_core_count(self, tmp_path, monkeypatch):
        # grids below, at and above each core count
        configs = [(grid_n, fmt) for fmt in ("csv", "jsonl")
                   for grid_n in (2, 5)]
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(pr.__file__)))
        # block-buffered, so that a header a worker flushed again would show
        env.pop("PYTHONUNBUFFERED", None)
        files, stdout = {}, {}
        for cores in (1, 2, 3):
            _report_cores(monkeypatch, cores)
            for grid_n, fmt in configs:
                out = tmp_path / f"{cores}-{grid_n}.{fmt}"
                assert main(_inner_argv(grid_n, fmt, "--out", str(out))) == 0
                assert_no_child_left()
                files[cores, grid_n, fmt] = out.read_bytes()
            # a pipe, not capsys, which would hide a duplicate
            proc = subprocess.run(
                [sys.executable, "-c", _CORES_SCRIPT, str(cores),
                 json.dumps([_inner_argv(g, f) for g, f in configs])],
                capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            stdout[cores] = proc.stdout
            assert json.loads(proc.stderr) == []
        serial = b"".join(files[1, g, f] for g, f in configs)
        assert serial.count(b"# periods = 3") == 2
        for cores in (2, 3):
            for grid_n, fmt in configs:
                assert files[cores, grid_n, fmt] == files[1, grid_n, fmt]
            assert stdout[cores] == serial
        assert stdout[1] == serial

    @pytest.mark.parametrize("fail_at", [2, 3])
    def test_step_failure_matches_serial(self, fail_at, tmp_path,
                                         monkeypatch, capsys):
        # with 2 cores orbit 2 runs in this process and orbit 3 in a child,
        # which inherits the patch through fork
        from pendrotor import _ode, inner
        I_fail = float(np.linspace(-2.0, 2.0, 5)[fail_at])

        def failing(I, phi, s0, t0, *rest):
            if t0 == 0.0 and I == I_fail:
                return I, phi, _ode.H_START, 0, _ode.ODE_STEPFAIL
            return _ode.integrate_inner(I, phi, s0, t0, *rest)

        monkeypatch.setattr(inner, "integrate_inner", failing)
        got = {}
        for cores in (1, 2):
            _report_cores(monkeypatch, cores)
            out = tmp_path / f"{cores}.csv"
            rc = main(_inner_argv(5, "csv", "--out", str(out)))
            assert_no_child_left()
            got[cores] = rc, capsys.readouterr().err, out.read_text()
        assert got[2] == got[1]
        rc, err, _ = got[1]
        assert rc == 3 and err.startswith("solver error:")
        _, rows = _read_rows(out)
        assert sorted({int(r["orbit"]) for r in rows}) == list(range(fail_at))


def _verify_argv(mu, seed):
    return ["verify", "--mu", mu, "--eps", "0.01", "--n-melnikov", "6",
            "--n-tau", "5", "--seed", seed]


class TestVerifyCores:
    """verify's two reflection sweeps, side by side on two usable cores,
    give the serial run's bytes."""

    def test_bytes_independent_of_core_count(self, tmp_path, monkeypatch):
        runs = [_verify_argv("0.75", "0"), _verify_argv("2", "7")]
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(pr.__file__)))
        files, stdout = {}, {}
        for cores in (1, 2, 3):
            _report_cores(monkeypatch, cores)
            for k, argv in enumerate(runs):
                out = tmp_path / f"{cores}-{k}.json"
                assert main(argv + ["--out", str(out)]) == 0
                assert_no_child_left()
                files[cores, k] = out.read_bytes()
            # a pipe, not capsys, which would hide a duplicate
            proc = subprocess.run(
                [sys.executable, "-c", _CORES_SCRIPT, str(cores),
                 json.dumps(runs)],
                capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            stdout[cores] = proc.stdout
            assert json.loads(proc.stderr) == []
        serial = b"".join(files[1, k] for k in range(len(runs)))
        assert serial.count(b'"down_up_reflection_symmetry"') == 2
        for cores in (2, 3):
            for k in range(len(runs)):
                assert files[cores, k] == files[1, k]
        for cores in (1, 2, 3):
            assert stdout[cores] == serial


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

    def test_report_on_stdout_matches_the_file(self, tmp_path, capsys):
        argv = ["diffuse", "--mu", "0.75", "--eps", "0.01",
                "--I-start", "1.5", "--I-end", "1.52",
                "--out", str(tmp_path / "orbit.csv")]
        rep = tmp_path / "report.json"
        assert main(argv + ["--report", str(rep)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert capsys.readouterr().out == rep.read_text()

    def test_out_and_report_naming_one_file_exit_2(self, tmp_path,
                                                   monkeypatch, capsys):
        # the report would overwrite the orbit: refused before any work,
        # with the file left as found
        def no_work(*args, **kwargs):
            raise AssertionError("ran with one file for --out and --report")

        monkeypatch.setattr(cli, "build_pseudo_orbit", no_work)
        monkeypatch.chdir(tmp_path)
        argv = ["diffuse", "--mu", "0.75", "--eps", "0.01", "--out", "f",
                "--report"]
        assert main(argv + ["./f"]) == 2
        assert "name one file" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        (tmp_path / "f").write_bytes(b"kept\n")
        os.link(tmp_path / "f", tmp_path / "g")
        for report in ("f", str(tmp_path / "f"), "g"):
            assert main(argv + [report]) == 2
            assert "name one file" in capsys.readouterr().err
            assert (tmp_path / "f").read_bytes() == b"kept\n"

    def test_cycling_range_exits_3_fast(self, capsys):
        # jump runs carry I to about +0.04 and inner arcs drop it back,
        # over and over; the stop rule must see it within seconds
        t0 = time.perf_counter()
        rc = main(["diffuse", "--a1", "0.75", "--a2", "1", "--eps", "0.01",
                   "--I-start", "-0.7", "--I-end", "0.3"])
        assert rc == 3
        assert time.perf_counter() - t0 <= 10.0
        assert "new maximum of I" in capsys.readouterr().err

    def test_empty_start_window_exits_3(self, capsys):
        rc = main(["diffuse", "--a1", "100", "--a2", "1", "--eps", "0.01",
                   "--I-start", "0.02", "--I-end", "0.5"])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "solver error: drift window (rho, theta_plus) too small at "
            "I = 0.02")

    def test_r_not_one_exits_2(self, capsys):
        rc = main(["diffuse", "--mu", "0.75", "--r", "0.5", "--eps", "0.01"])
        assert rc == 2
        assert ("pseudo-orbit windows are implemented for r = 1"
                in capsys.readouterr().err)

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

    def test_report_on_stdout_matches_the_file(self, tmp_path, capsys):
        argv = ["verify", "--mu", "0.75", "--eps", "0.01",
                "--n-melnikov", "4", "--n-tau", "4"]
        out = tmp_path / "verify.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_seed_gives_the_same_bytes(self, tmp_path):
        argv = ("verify --mu 0.75 --eps 0.01 --n-melnikov 6 --n-tau 5 "
                "--seed 5 --out {}")
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(argv.format(out).split()) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

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

    def test_tau_tol_below_floor_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "TAU_TOL", 1e-18)
        out = tmp_path / "verify.json"
        rc = main(["verify", "--mu", "0.75", "--eps", "0.01",
                   "--n-melnikov", "6", "--n-tau", "25", "--out", str(out)])
        assert rc == 4  # below the root-refinement floor: must flag


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
        # a removed flag, whatever its value
        ["verify", "--mu", "0.75", "--tol-override", "tol_root=abc"],
        ["verify", "--mu", "0.75", "--tol-override", "tol_cls=nan"],
        # a value its flag's type refuses
        ["portrait", "--mu", "0.5", "--criterion", "branch=x"],
        ["portrait", "--mu", "0.5", "--criterion", "branch=1.5"],
        ["crests", "--mu", "0.5", "--I", "abc"],
        ["crests", "--mu", "0.5", "--I", "nan"],
        ["verify", "--mu", "0.75", "--n-melnikov", "0", "--n-tau", "0"],
        ["verify", "--mu", "0.75", "--n-tau", "-3"],
        # a removed flag, whatever its value
        ["inner-portrait", "--mu", "0.75", "--eps", "0.01", "--periods", "2",
         "--tol-override", "tol_ode=0"],
        ["inner-portrait", "--mu", "0.75", "--eps", "0.01", "--periods", "2",
         "--tol-override", "tol_ode=-1"],
        # a seed below 0
        ["verify", "--mu", "0.75", "--seed", "-1"],
        # a removed flag, whatever its value
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
        # a window or grid flag that --I (with --angle-n) overrides
        ["crests", "--mu", "0.5", "--I", "0.68", "--I-min", "-3"],
        ["crests", "--mu", "0.5", "--I", "0.68", "--I-max=3"],
        ["crests", "--mu", "0.5", "--I", "0.68", "--angle-n", "4",
         "--I-min", "-3", "--I-max", "3", "--grid-n", "7"],
        # a removed flag, whatever its value
        ["thresholds", "--mu", "0.5", "--tol-override", "tol_ode=1e-6"],
        ["inner-portrait", "--mu", "0.75", "--eps", "0.01", "--periods", "2",
         "--tol-override", "tol_quad=1e-3"],
        # the criterion has one spelling, branch=k
        ["portrait", "--mu", "0.5", "--criterion", "branch:1"],
        # an amplitude whose profile peak 4|a| overflows
        ["portrait", "--mu", "1e308"],
        ["portrait", "--a1", "1e308", "--a2", "1e-10"],
        ["diffuse", "--a1", "1e308", "--a2", "1", "--eps", "0.01"],
        # an integer too large for a float
        ["portrait", "--mu", "0.5", "--criterion", f"branch={10 ** 309}"],
        ["thresholds", "--a1", "0.5", "--a2", "1", "--k1", str(10 ** 400),
         "--k2", "1", "--l1", "0", "--l2", "-1"],
        ["thresholds", "--a1", "0.5", "--a2", "1", "--k1", "2",
         "--k2", str(10 ** 400), "--l1", "0", "--l2", "-1"],
        # a window wider than a float: np.linspace over it starts at nan
        ["inner-portrait", "--mu", "0.75", "--eps", "0", "--periods", "2",
         *_HUGE_WINDOW],
        ["inner-portrait", "--mu", "0.75", "--eps", "0.01", "--periods", "2",
         *_HUGE_WINDOW],
        ["crests", "--mu", "0.75", *_HUGE_WINDOW],
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

    def test_huge_window_without_a_grid_runs(self, tmp_path):
        # thresholds clips its components to the window and grids nothing
        assert main(["thresholds", "--mu", "0.75", *_HUGE_WINDOW,
                     "--out", str(tmp_path / "t.csv")]) == 0

    def test_overflowing_eps_exits_3(self, tmp_path, capsys):
        # the integrator's stages overflow to inf, and math.sin(inf) raises
        assert main(["inner-portrait", "--mu", "0.75", "--eps", "1e307",
                     "--periods", "2", "--grid-n", "2",
                     "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error:")
        assert "Traceback" not in err

    def test_largest_accepted_amplitude_runs(self, tmp_path):
        # 2*pi * 2.86e307 is finite, so neither A1 nor A1' overflows
        assert main(["portrait", "--mu", "2.86e307", "--grid-n", "3",
                     "--out", str(tmp_path / "p.csv")]) == 0

    @pytest.mark.parametrize("argv", [
        ["verify", "--mu", "4e307", "--eps", "0.01"],
        ["diffuse", "--a1", "4e307", "--a2", "1", "--eps", "0.01",
         "--I-start", "0.25", "--I-end", "0.35"],
        ["inner-portrait", "--mu", "4e307", "--eps", "0.01", "--periods", "2",
         "--grid-n", "2"],
    ])
    def test_overflowing_amplitude_slope_exits_2(self, argv, tmp_path,
                                                 capsys):
        # 4 * 4e307 is finite but 2*pi * 4e307 is not: dL*/dI read inf, and
        # verify's trapezoid sums nan
        assert main(argv + ["--out", str(tmp_path / "x.out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: 2*pi*|a1|")
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

    @pytest.mark.parametrize("argv", [
        ["diffuse", "--a1", "0.75", "--a2", "1", "--eps", "0.01",
         "--I-start", "1", "--I-end", "-1", "--out", "x.csv",
         "--report", "r.json"],
        ["portrait", "--mu", "0.5", "--criterion", "bogus", "--out", "p.csv"],
        ["verify", "--mu", "0.75", "--r", "0.5", "--out", "v.json"],
    ])
    def test_failed_run_leaves_outputs_as_found(self, argv, tmp_path,
                                                monkeypatch):
        # the output probe removes a file it created and leaves an existing
        # one's bytes alone
        monkeypatch.chdir(tmp_path)
        names = [argv[i + 1] for i, a in enumerate(argv)
                 if a in ("--out", "--report")]
        assert main(argv) == 2
        assert os.listdir(tmp_path) == []
        for name in names:
            (tmp_path / name).write_bytes(b"kept\n")
        assert main(argv) == 2
        for name in names:
            assert (tmp_path / name).read_bytes() == b"kept\n"

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

    def test_crests_flag_at_its_default_counts_as_given(self, tmp_path,
                                                        capsys):
        # a flag counts as given on the command line or in --config, even
        # at its default value; --grid-n is read when --angle-n is absent
        base = ["crests", "--mu", "0.5", "--I", "0.68"]
        assert main(base + ["--angle-n", "4", "--grid-n", "100"]) == 2
        assert "--grid-n" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("I_min = -2\n")
        assert main(base + ["--config", str(cfg)]) == 2
        assert "--I-min" in capsys.readouterr().err
        out = tmp_path / "c.csv"
        assert main(base + ["--grid-n", "4", "--out", str(out)]) == 0
        _, rows = _read_rows(out)
        assert len(rows) == 8  # 2 branches x 4 angles at I = 0.68

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

    def test_largest_float_branch_runs(self, tmp_path):
        # 10**308 converts to a float; its strip lies out of reach
        out = tmp_path / "p.csv"
        assert main(["portrait", "--mu", "0.5", "--grid-n", "2", "--criterion",
                     f"branch={10 ** 308}", "--out", str(out)]) == 0
        assert {row["status"] for row in _read_rows(out)[1]} == {"2"}

    @pytest.mark.parametrize("argv", [
        # rows written while it runs
        ["portrait", "--mu", "0.75", "--grid-n", "40"],
        # output small enough to wait in the buffer until the end
        ["thresholds", "--mu", "0.5"],
    ])
    def test_closed_output_exits_1_without_traceback(self, argv):
        # the read end is closed before the child starts, so every write to
        # its stdout fails with EPIPE
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(pr.__file__)))
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run([sys.executable, "-m", "pendrotor", *argv],
                                  stdout=w, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=60)
        finally:
            os.close(w)
        assert proc.returncode == 1
        assert proc.stderr.startswith("output closed:")
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


#: one fresh interpreter runs a tiny form of every subcommand but verify,
#: lists the scipy modules loaded by then, runs a tiny verify last and
#: lists them again
_STARTUP_SCRIPT = """
import json, sys
from pendrotor.cli import main
def loaded(pkg):
    return sorted(m for m in sys.modules if m == pkg or m.startswith(pkg + "."))
out, runs = sys.argv[1], json.loads(sys.argv[2])
codes, rand = [], []
for argv in runs:
    codes.append(main(argv.format(out=out).split()))
    rand.append(loaded("numpy.random"))
before = loaded("scipy")
rc = main(f"verify --mu 0.75 --n-melnikov 1 --n-tau 2 --out {out}/v.json"
          .split())
rand.append(loaded("numpy.random"))
print(json.dumps({"codes": codes, "scipy_before": before, "verify": rc,
                  "scipy_after": loaded("scipy"), "numpy_random": rand}))
"""


class TestStartup:
    def test_no_subcommand_loads_scipy(self, tmp_path):
        # nor numpy.random: verify draws its samples from the stdlib random
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
        assert got["numpy_random"] == [[]] * (len(runs) + 1)

    def test_import_loads_no_multiprocessing(self):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(pr.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, pendrotor.cli; "
             "assert 'multiprocessing' not in sys.modules"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr


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

    def test_comment_and_blank_lines_are_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# thresholds of the mu = 0.5 system\n\nmu = 0.5\n"
                       "   \n  # I_min = 9\nI_max = 3\n")
        out = tmp_path / "t.csv"
        assert main(["thresholds", "--config", str(cfg),
                     "--out", str(out)]) == 0
        header, _ = _read_rows(out)
        assert (header["mu"], header["I_min"], header["I_max"]) == (
            "0.5", "-2", "3")

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

    @pytest.mark.parametrize("text,key,value", [
        ("mu = 0.5\nI_min = -1e3\n", "I_min", -1e3),
        ("a2 = 1\na1 = -2e-1\n", "a1", -0.2)])
    def test_negative_exponent_value(self, tmp_path, text, key, value):
        # argparse takes "-1e3" standing alone for a flag, not a value
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "t.csv"
        assert main(["thresholds", "--config", str(cfg),
                     "--out", str(out)]) == 0
        header, _ = _read_rows(out)
        assert float(header[key]) == value


_PARAM_FLAGS = ["--a1", "--a2", "--mu", "--r", "--k1", "--k2", "--l1", "--l2",
                "--eps", "--out", "--config"]
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
                                      "--inject-fault"],
        }
        got = {name: sorted(o for a in p._actions for o in a.option_strings
                            if o not in ("-h", "--help"))
               for name, p in _subparsers().items()}
        assert got == {name: sorted(flags) for name, flags in want.items()}
        assert sum(map(len, got.values())) == 113

    def test_numeric_ranges_are_flag_types(self):
        # each numeric flag states its range once, as its argparse type;
        # the first value outside it is refused at parse time
        least = {"grid_n": 2, "theta_n": 2, "angle_n": 2, "periods": 2,
                 "n_melnikov": 1, "n_tau": 1, "seed": 0}
        finite = {"I_min", "I_max", "I_start", "I_end", "I_list"}
        typed = {}
        for name, p in _subparsers().items():
            for a in p._actions:
                if a.type is cli._finite or (
                        isinstance(a.type, functools.partial)
                        and a.type.func is cli._at_least):
                    typed.setdefault(a.dest, []).append(
                        (name, a.option_strings[0]))
        assert set(typed) == set(least) | finite
        for dest, uses in typed.items():
            bad = [str(least[dest] - 1)] if dest in least else ["nan", "inf"]
            for command, flag in uses:
                for val in bad:
                    with pytest.raises(pr.ConfigError, match=flag):
                        cli.build_parser().parse_args(
                            [command, f"{flag}={val}"])

    def test_readme_flag_table_lists_every_flag(self):
        # the '| flags | subcommands |' table names each subcommand flag
        readme = Path(__file__).resolve().parents[1] / "README.md"
        table = readme.read_text().split("| flags | subcommands |\n", 1)[1]
        rows = table.split("\n\n", 1)[0]
        listed = set(re.findall(r"--[A-Za-z][\w-]*", rows))
        flags = {o for p in _subparsers().values() for a in p._actions
                 for o in a.option_strings if o not in ("-h", "--help")}
        assert listed == flags

    @pytest.mark.parametrize("argv", [
        ["diffuse", "--a1", "0.75", "--a2", "1", "--eps", "0.01",
         "--criterion", "minabs"],
        ["diffuse", "--a1", "0.75", "--a2", "1", "--eps", "0.01",
         "--I-min", "3"],
        ["verify", "--mu", "0.75", "--format", "csv"],
        ["thresholds", "--mu", "0.5", "--grid-n", "5"],
        ["inner-portrait", "--mu", "0.75", "--theta-n", "4"],
        # a removed flag
        ["verify", "--mu", "0.75", "--tol-override", "nosuch=1"],
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

    def test_unknown_flag_writes_no_output(self, tmp_path, capsys):
        # the flag is refused while parsing, before the output file opens
        out = tmp_path / "orbit.csv"
        assert main(["diffuse", "--a1", "0.75", "--a2", "1", "--eps", "0.01",
                     "--tol-override", "tol_ode=1e-6",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "tol_ode" in err
        assert not out.exists()

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


#: (name, argv, SHA-256 of each output) of a small fixed run of every
#: subcommand; a change that moves one output byte changes a digest.  The
#: portrait and tau-field grids of the down map hold the pole I = 1, where
#: every contact is unusable.
GOLDEN = [
    ("thresholds", "thresholds --mu 0.75",
     ["82fdda7f6696c640cc193fd5f2e149b9b346b251be500b76fda725e6126aaea5"]),
    ("portrait-csv",
     "portrait --mu 0.75 --criterion down --I-min -1 --I-max 1 --grid-n 12",
     ["a15de64c5ff0818aa49270d26ef693210169869c85437940170854ecff883736"]),
    ("portrait-jsonl", "portrait --mu 0.75 --grid-n 12 --format jsonl",
     ["6b1f630aa40bee63f533956d0a2a680823fed80b858199a67bc7da3cf2ce5453"]),
    ("tau-field-csv",
     "tau-field --mu 0.75 --criterion down --I-min -1 --I-max 1 --grid-n 12",
     ["a8257d9da111a0497ded4b48662dff4ee222d6c3483a6918c349d11cee069012"]),
    ("tau-field-jsonl",
     "tau-field --mu 0.5 --criterion minabs --grid-n 12 --format jsonl",
     ["1b57287f528b4105e657b36b1a921152c556375b3c232a560febb6d0ad12c9c0"]),
    ("crests", "crests --mu 0.75 --grid-n 12",
     ["088c70ca4fcc9103bdff722b727d5cf0219abe9967243a4a3da3f204cf1b644c"]),
    ("inner-portrait",
     "inner-portrait --mu 0.75 --eps 0.01 --grid-n 4 --periods 10",
     ["6565fe3cf3a6d99f0714188b54191b39f3d5609f500750ca21d668378ddd608f"]),
    ("diffuse", "diffuse --mu 0.75 --eps 0.01 --I-start 1.5 --I-end 1.52",
     ["dbff78768455458dd1a50e2afb07a013e987ea5e8c1ade95d72a2922f1817799",
      "2fc4ccf3c91069e3f47b3e1a641622c48d7595346f956cca0fc6ab1674637264"]),
    ("diffuse-arcs",
     "diffuse --mu 0.75 --eps 0.01 --I-start 0.25 --I-end 0.35",
     ["2a2b18af0d34cbf16f31068c1631dc457a51c485f1a5906566c8a87e4a078208",
      "70c809281c5ad5729fe76cf532c4113e9cf1d33cf7620db23ee2e5034840b386"]),
    ("verify", "verify --mu 0.75 --eps 0.01 --n-melnikov 4 --n-tau 4",
     ["0d602c01eb4ebf8b4d0cd6eb03f95e52b8d86eb44b28e5c54aa144047ca84f94"]),
]


@pytest.mark.parametrize("argv,digests", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_golden_output_digests(argv, digests, tmp_path):
    paths = [tmp_path / "out", tmp_path / "report"][:len(digests)]
    flags = [arg for flag, path in zip(("--out", "--report"), paths)
             for arg in (flag, str(path))]
    assert main(argv.split() + flags) == 0
    assert [hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths] == digests


def _call_owners(match) -> list[str]:
    """The function holding each call in cli.py that ``match`` accepts."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if isinstance(node, ast.Call) and match(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(Path(cli.__file__).read_text()), "<module>")
    return found


class TestOneHome:
    def test_setup_runs_once_in_main(self):
        # each cmd_* takes the run's parameters from main
        assert _call_owners(lambda c: ast.unparse(c.func) == "_setup") == [
            "main"]
        assert {tuple(inspect.signature(f).parameters)
                for name, f in vars(cli).items()
                if name.startswith("cmd_")} == {("args", "params")}

    def test_one_report_writer(self):
        def indented_dump(call):
            return (ast.unparse(call.func) == "json.dumps"
                    and any(k.arg == "indent" for k in call.keywords))

        assert _call_owners(indented_dump) == ["_write_report"]
