"""glkinks benchmark: one workload per call, end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Times set-up in several fresh
interpreters (import glkinks and build the inputs, up to the worker's
"ready" line) and takes the median, then runs the workload in its own
worker process (worker.py).  Prints every metric by name and unit on
stderr and, as the last line of stdout, one JSON object with correct,
attempted, failed and metrics.  The full result also goes to
perfbench/out/<workload>-seed<N>-trace<T>.json.  Exits non-zero without a
result when the worker cannot run (for example without the glkinks
sources beside this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole call, set-up samples included


def load_spec():
    """Workload names and metric units from BENCHMARK.json beside this directory."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return [w["name"] for w in spec["workloads"]], units


def spawn(args, extra, deadline):
    """Start a worker; returns it and the seconds until its ready line (None if none came)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    ready = readable and proc.stdout.readline().strip() == "ready"
    return proc, (time.perf_counter() - t0 if ready else None)


def finish(proc, deadline):
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    return proc.returncode


def main(argv=None):
    workloads, units = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)

    setup = []
    for _ in range(SETUP_SAMPLES):
        proc, ready = spawn(args, ["--setup-only"], deadline)
        if finish(proc, deadline) != 0 or ready is None:
            print("error: the worker could not set up", file=sys.stderr)
            return 1
        setup.append(ready)

    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(path):
        os.remove(path)
    proc, ready = spawn(args, ["--result", path], deadline)
    if finish(proc, deadline) != 0 or ready is None or not os.path.exists(path):
        print("error: the worker failed", file=sys.stderr)
        return 1
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    metrics = result["metrics"]
    if not args.trace:
        setup.append(ready)
        metrics["setup_s"] = statistics.median(setup)
    result["setup_samples_s"] = setup
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for problem in result["problems"]:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: attempted {result['attempted']},"
          f" failed {result['failed']}, correct {result['correct']}", file=sys.stderr)
    for name, value in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
