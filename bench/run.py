"""Benchmark entry point.

    python3 bench/run.py --workload rate-windows --seed 1 --seconds 28 --trace 0

With --trace 0 the run sets up SETUP_REPEATS times, then runs the plan in
repeated passes as a closed loop for --seconds of wall time and prints
the end-to-end metrics.  With --trace 1 it runs each op of the plan once
untraced and once inside span wrappers, and prints the per-layer metrics;
that work is fixed by the seed, not by --seconds, so its counts repeat
exactly.

The last line of stdout is the result object; the line before it holds the
run's metadata.  Results and span files are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import harness
import tracing
import workloads


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> dict:
    """One benchmark run; returns the result object plus its metadata."""
    plan, setup_s, warm = harness.setup(workloads.build_plan, workload, seed,
                                        small)
    try:
        if trace:
            return tracing.traced_run(plan, warm)
        probe = harness.host_probe_s()
        loop = harness.closed_loop(plan.ops, seconds)
        metrics, attempted, failed, meta = harness.end_to_end(
            plan, loop, setup_s, warm, seconds)
        meta["host_probe_s"] = [probe, harness.host_probe_s()]
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value,
                               "unit": harness.END_TO_END_UNITS[name]}
                        for name, value in metrics.items()},
            "meta": meta,
        }
    finally:
        shutil.rmtree(plan.workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = result.pop("meta")
    harness.OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    (harness.OUT / name).write_text(
        json.dumps({**result, "meta": meta}, indent=2, sort_keys=True))
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
