#!/usr/bin/env python3
"""pendrotor benchmark: end-to-end and per-layer figures of two workloads.

    python3 perfbench/run.py --workload scatter-drift-verify --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout (it imports ``src/pendrotor``).
Each run starts fresh interpreters (worker.py): a few only to time set-up,
then one that runs whole rounds of the workload for ``--seconds``, checks
the outputs and reports.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
Everything else a run records (each round, the set-up samples, the
environment, the check failures, the spans) goes to
``.perfbench_out/<workload>-seed<seed>-trace<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
#: set-up samples per run: fresh interpreters that stop after the warm-up,
#: plus the one that goes on to run the workload
SETUP_SAMPLES = 3
#: a run that has not finished by then is stopped and reported as failed
DEADLINE_S = 170.0


def start_worker(argv, deadline):
    """Start worker.py; return (process, seconds until it printed ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + argv, stdout=subprocess.PIPE,
                            text=True)
    line = ""
    while not line:
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            break
        line = proc.stdout.readline()
        if not line:
            break   # exited before ready
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready ({' '.join(argv)})")
    return proc, elapsed


def finish(proc, deadline):
    try:
        proc.communicate(timeout=max(deadline - time.perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker passed the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pendrotor", "cli.py")):
        print("perfbench: no src/pendrotor here; run from the root of a pendrotor "
              "checkout", file=sys.stderr)
        return 2
    seed = args.seed % 2**32
    out = os.path.join(root, ".perfbench_out",
                       f"{args.workload}-seed{seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(seed), "--out", out]

    try:
        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, t = start_worker(common + ["--setup-only"], deadline)
            finish(proc, deadline)
            setup.append(t)
        result_path = os.path.join(out, "worker.json")
        proc, t = start_worker(common + ["--seconds", str(args.seconds), "--trace",
                                         str(args.trace), "--result", result_path],
                               deadline)
        setup.append(t)
        finish(proc, deadline)
        with open(result_path) as fh:
            res = json.load(fh)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    res["setup_s"] = setup
    if args.trace:
        metrics = {k: metric(v, spans.UNITS[k]) for k, v in res["per_layer"].items()}
        correct = res["correct"] and res["probe_ok"]
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(statistics.median(res["wall_s"]), "s"),
            "cpu_s": metric(statistics.median(res["cpu_s"]), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
        correct = res["correct"]
    res["metrics"] = metrics
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    for msg in res["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
