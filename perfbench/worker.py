"""One workload in its own process: set up, run whole rounds, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --result FILE [--setup-only]

Prints "ready" on stdout once glkinks is imported and the inputs are
built (the parent times set-up up to that line), then runs the workload's
round of operations until the operations alone have taken S seconds,
always finishing the round it is in.  Each operation is timed on its own;
its output checks run between operations, outside the timing.  The rate
is the round's items over the sum of each operation's median time.  With
--trace 1 it runs half the time untraced, installs the tracer and repeats
the same rounds traced, and reports per-layer figures instead.  The
result goes to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def run_rounds(ops, budget_ns=None, rounds=None, tracer=None):
    """Run whole rounds; returns per-op times, failures and CLI counters."""
    from workloads import CheckFailed

    times, failed, problems, wrong = [], 0, [], 0
    rows = nbytes = 0
    done = 0
    while True:
        for op in ops:
            if tracer:
                tracer.active = True
            t0 = time.perf_counter_ns()
            try:
                out = op.run()
            except Exception as exc:  # an op the program could not finish counts as failed
                times.append(time.perf_counter_ns() - t0)
                failed += 1
                problems.append(f"{type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer:
                    tracer.active = False
            times.append(time.perf_counter_ns() - t0)
            try:
                r, b = op.check(out)
                rows, nbytes = rows + r, nbytes + b
            except CheckFailed as exc:
                wrong += 1
                problems.append(str(exc))
        done += 1
        if rounds is not None and done >= rounds:
            break
        if budget_ns is not None and sum(times) >= budget_ns:
            break
    return {"times": times, "failed": failed, "problems": problems, "wrong": wrong,
            "rounds": done, "cli_rows": rows, "cli_bytes": nbytes}


def median_per_op(run, n_ops):
    """Each operation's median time over the rounds.

    A round hit by a burst of slowness on the shared host then does not
    move the figures.
    """
    return [statistics.median(run["times"][i::n_ops]) for i in range(n_ops)]


def measure(ops, args):
    """Metrics and per-run records of the untraced or the traced measurement."""
    for op in ops:
        op.prepare()
    budget = int(args.seconds * 1e9)
    if not args.trace:
        run = run_rounds(ops, budget_ns=budget)
        round_ns = sum(median_per_op(run, len(ops)))
        return {
            "items_per_s": sum(op.items or 0 for op in ops) / (round_ns / 1e9),
            "op_p50_ms": statistics.median(run["times"]) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, (run,)
    from spans import Tracer

    plain = run_rounds(ops, budget_ns=budget // 2)
    tracer = Tracer()
    tracer.install()
    traced = run_rounds(ops, rounds=plain["rounds"], tracer=tracer)
    metrics = tracer.layer_metrics(len(traced["times"]), traced["cli_rows"], traced["cli_bytes"])
    extra = sum(median_per_op(traced, len(ops))) - sum(median_per_op(plain, len(ops)))
    metrics["trace.overhead_ms"] = extra / 1e6 / len(ops)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.csv"))
    return metrics, (plain, traced)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import glkinks  # noqa: F401  (set-up includes the import)
    from workloads import WORKLOADS

    tmp = os.path.join(OUT, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    ops = WORKLOADS[args.workload](args.seed, tmp)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        os.rmdir(tmp)
        return 0

    # the CLI prints file names; keep the worker's stdout for the ready line only
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        metrics, runs = measure(ops, args)
    shutil.rmtree(tmp)
    problems = [m for r in runs for m in r["problems"]]
    result = dict(
        workload=args.workload,
        seed=args.seed,
        ops_per_round=len(ops),
        attempted=sum(len(r["times"]) for r in runs),
        failed=sum(r["failed"] for r in runs),
        correct=not any(r["wrong"] for r in runs),
        rounds=[r["rounds"] for r in runs],
        metrics=metrics,
        problems=problems[:20],
    )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
