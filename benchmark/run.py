"""kantor benchmark: time to verdict on three workloads, checked answers.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload desk --seed 1 --seconds 25 --trace 0

Each run starts fresh interpreters (benchmark/child.py), one at a time, so
that a workload never shares a process or a core with another.  With
--trace 0 it first times SETUP_REPEATS set-ups alone and reports their
median as setup_s, then makes the measured run and reports the end-to-end
metrics.  With --trace 1 it reports the per-layer metrics instead.  Every
line before the last is for people; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`correct` is false when any verdict differs from the record or any
independent check fails; `failed` counts requests that did not end as
documented (unexpected exit code, traceback, or wrong verdict).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("desk", "wn3-structure", "wn3-polynomial")
SETUP_REPEATS = 5
# Every run must end within 180 s; the children share this budget.
BUDGET_S = 170


def run_child(argv, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, CHILD] + argv,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(argv)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description="kantor benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "kantor", "__init__.py")):
        print("benchmark: no kantor sources under src/kantor; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            setups.append(run_child(common + ["--seconds", "0", "--setup-only"], deadline)["setup_s"])
    result = run_child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = dict(result["metrics"])
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
        metrics["answered_frac"] = (1 - failed / attempted, "ratio")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']} x {result['requests_per_pass']} requests")
    print(f"  {'failed_frac':24s} {failed / attempted:14.6f} ratio  ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.6f} {unit}")
    if "raw_wall_s" in result:
        print(f"  {'(wall_s before rescaling)':24s} {result['raw_wall_s']:14.6f} s")
    for problem in result["wrong"]:
        print(f"  WRONG: {problem}")
    print(json.dumps({
        "correct": not result["wrong"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
