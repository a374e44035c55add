"""One benchmark process: set up, run whole rounds of a workload, check.

run.py starts this script in a fresh interpreter.  It imports
``pendrotor.cli`` from ``src/``, makes the workload's warm-up invocations and
prints ``ready``; run.py takes the time until that line as one set-up sample.
With ``--setup-only`` it stops there.  Otherwise it runs whole rounds until
``--seconds`` have passed, checks the outputs and writes its figures as JSON
to ``--result``.

With ``--trace 1`` the rounds alternate untraced and traced; the traced
rounds give the per-layer figures, and the wall-time difference between the
two kinds is the tracing overhead.  One last round counts ridge-residual
evaluations, with no spans, since the counter would inflate span times.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import spans


def invoke(cli, argv, tracer=None):
    """Exit code of one in-process invocation; None if it raised."""
    main = cli.main if tracer is None else tracer.wrap(cli.main, "cli." + argv[0])
    try:
        return main(argv)
    except Exception:  # noqa: BLE001 - a crash is a failed operation, not a failed run
        traceback.print_exc()
        return None


def same_outputs(op, a, b):
    """Whether ``op`` wrote byte-identical files into directories a and b."""
    try:
        return all(filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False)
                   for n in op.outputs())
    except OSError:
        return False


def run_round(cli, ops, seed, out, n, tracer=None, install=None):
    """Run round ``n`` into ``out/round<n>``; return (wall s, CPU s, whether
    each op exited 0 and, after round 1, wrote round 1's bytes).

    With a tracer, ``install(tracer)`` wraps pendrotor for the round (spans
    by default) and each invocation gets a span of its own."""
    rdir = os.path.join(out, f"round{n}")
    os.makedirs(rdir)
    uninstall = (install or spans.install_spans)(tracer) if tracer else None
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        rcs = [invoke(cli, op.args(rdir, seed), tracer) for op in ops]
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    finally:
        if uninstall:
            uninstall()
    ok = [rc == 0 for rc in rcs]
    if n > 1:
        first = os.path.join(out, "round1")
        ok = [o and same_outputs(op, rdir, first) for o, op in zip(ok, ops)]
        shutil.rmtree(rdir)
    return wall, cpu, ok


def check_outputs(ops, out, seed):
    """{op index: failure messages} for the outputs ``ops`` wrote into out."""
    fails = {}
    for k, op in enumerate(ops):
        try:
            fails[k] = op.check(out, seed)
        except Exception:  # noqa: BLE001 - a missing or mangled output fails its op
            fails[k] = ["output could not be checked:\n" + traceback.format_exc()]
    return fails


def tally(ops, rounds_ok, check_fail):
    """(attempted, failed, wrong, messages) over rounds of ``ops``.

    An op fails if it exited non-zero, wrote other bytes than in round 1, or
    if round 1's output failed a check (``check_fail``: op index ->
    messages).  ``wrong``: an op that exited 0 gave a wrong output.
    """
    attempted = failed = 0
    wrong = False
    msgs = []
    for ok in rounds_ok:
        for k, o in enumerate(ok):
            bad_output = bool(check_fail[k])
            attempted += 1
            failed += (not o) or bad_output
            wrong |= o and bad_output
            if not o:
                msgs.append(f"op {k} ({ops[k].argv[0]}): non-zero exit or output "
                            f"differs from round 1")
    for k, m in sorted(check_fail.items()):
        msgs += [f"op {k} ({ops[k].argv[0]}): {x}" for x in m]
    return attempted, failed, wrong, msgs


def environment():
    import numpy
    import scipy

    import pendrotor

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numba_enabled": bool(pendrotor.NUMBA_ENABLED),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from pendrotor import cli

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    warm = os.path.join(args.out, "warmup")
    os.makedirs(warm, exist_ok=True)
    for op in wl.warmup:
        rc = invoke(cli, op.args(warm, args.seed))
        if rc != 0:
            print(f"warm-up {op.argv[0]} exited {rc}", file=sys.stderr)
            return 3
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ops = wl.ops
    walls, cpus, traced_walls = [], [], []
    round_ok: list[list[bool]] = []   # exited 0, output as in round 1
    tracer = spans.Tracer() if args.trace else None
    first = os.path.join(args.out, "round1")
    start = time.perf_counter()
    while True:
        n = len(round_ok) + 1
        traced = bool(args.trace) and n % 2 == 0
        wall, cpu, ok = run_round(cli, ops, args.seed, args.out, n,
                                  tracer if traced else None)
        round_ok.append(ok)
        if traced:
            traced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)
        if time.perf_counter() - start >= args.seconds and (traced_walls or not args.trace):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        counter = spans.Tracer()
        *_, ok = run_round(cli, ops, args.seed, args.out, len(round_ok) + 1,
                           counter, spans.install_counter)
        round_ok.append(ok)
        evals_per_round = counter.residual_evals()

    t_check = time.perf_counter()
    attempted, failed, wrong, failures = tally(ops, round_ok,
                                               check_outputs(ops, first, args.seed))
    check_s = time.perf_counter() - t_check

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "rounds": len(walls),
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong,
        "failures": failures[:50],
        "check_s": check_s,
        "environment": environment(),
    }
    if args.trace:
        result.update(trace_figures(cli, workloads.PROBE, tracer, evals_per_round,
                                    walls, traced_walls, args.out))
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


def trace_figures(cli, probe_ops, tracer, evals_per_round, walls, traced_walls, out):
    """Per-layer figures of the traced rounds, with the probe filling in
    the functions the workload never calls; spans written beside them."""
    n_traced = len(traced_walls)
    layers = spans.layer_metrics(tracer.spans, n_traced, evals_per_round)
    untraced = statistics.median(walls)
    layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced_walls) - untraced) / untraced
    source = {k: "workload" for k in layers}
    probe_ok = True
    missing = [k for k, v in layers.items() if v is None]
    if missing:
        probe = spans.Tracer()
        pdir = os.path.join(out, "probe")
        os.makedirs(pdir)
        # one pass with spans and counter together: probe figures carry the
        # counter's cost
        undo = [spans.install_spans(probe), spans.install_counter(probe)]
        try:
            probe_ok = all(invoke(cli, op.args(pdir), probe) == 0 for op in probe_ops)
        finally:
            for uninstall in reversed(undo):
                uninstall()
        from_probe = spans.layer_metrics(probe.spans, 1, probe.residual_evals())
        for k in missing:
            layers[k] = from_probe[k]
            source[k] = "probe"
        write_spans(os.path.join(out, "probe-spans.jsonl"), probe.spans)
    write_spans(os.path.join(out, "spans.jsonl"), tracer.spans)
    return {
        "traced_rounds": n_traced,
        "traced_wall_s": traced_walls,
        "per_layer": layers,
        "per_layer_source": source,
        "probe_ok": probe_ok and all(v is not None for v in layers.values()),
    }


def write_spans(path, recorded):
    with open(path, "w") as fh:
        for span in sorted(recorded):
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
