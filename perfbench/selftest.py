#!/usr/bin/env python3
"""Self-test of the benchmark: two runs with the same seed give identical
counts (N-evaluations, phi_inv calls, counterexample tuples, defect
failures), and every operation of the layer pass meets its oracle.

    python3 perfbench/selftest.py [--seed 7]

Exit code 0 when the counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def counts(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--counts-only", "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    first, second = counts(args.seed), counts(args.seed)
    print(json.dumps(first, indent=2, sort_keys=True))
    if not first["correct"]:
        print("FAIL: an operation of the layer pass failed its oracle")
        return 1
    if first != second:
        print(f"FAIL: counts differ between two runs with seed {args.seed}:\n{json.dumps(second, indent=2)}")
        return 1
    print(f"PASS: counts repeat exactly for seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
