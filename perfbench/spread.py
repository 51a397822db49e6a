#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median and spread (interquartile distance over median) per workload.

    python3 perfbench/spread.py --runs 10 [--workload solve_small ...] [--first-seed 1]

Runs are sequential, since concurrent runs would disturb each other's
timings.  A spread at or above a third of the metric's bound in
BENCHMARK.json is flagged, and fails the exit code except for setup_s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}\n")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            attempted += result["attempted"]
            failed += result["failed"]
        print(f"{workload}  ({args.runs} seeds from {args.first_seed}, {args.seconds} s): "
              f"{failed} of {attempted} operations failed")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < bounds[name] / 3 else "   <-- not below bound/3"
            steady &= not flag or name == "setup_s"   # set-up time is judged by its median only
            print(f"  {name:18s} median {median:12.6g}  spread {spread:7.4f}  bound {bounds[name]:.2f}{flag}")
            print("      " + " ".join(f"{v:.5g}" for v in vals))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
