#!/usr/bin/env python3
"""Benchmark of the deformed_renyi library: the solve, sweep and probe paths.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload solve_small --seed 1 --seconds 15 --trace 0

Workloads: solve_small, solve_large, sweep_limits, probes (see README.md in
this directory).  With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced rounds of the workload (their
difference is trace.overhead_frac) and then measures every layer.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the run's environment.

--counts-only prints just the machine-independent counts of the layer pass
(used by selftest.py).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy

import layers
import spans
import workloads
from layers import metric
from workloads import Tally, execute, identity

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "deformed_renyi"
LAYERS = ("families", "measures", "kappa", "divergences", "existence", "cli")
SETUP_REPS = 5
MAX_FAILURE_MESSAGES = 5


def import_library() -> SimpleNamespace:
    """(Re-)import the package from this checkout's src/ and return its layer
    modules.  Earlier imports are dropped first, so each call pays the
    package's own import cost again."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS})


def run_loop(workload, seconds, plain_api, traced=None, between_rounds=None):
    """Closed loop over whole rounds until `seconds` of operation time.

    With `traced` = (api, wrap, tracer), odd rounds run traced; the two
    modes are tallied apart.  `between_rounds(fraction)` is called after
    each round with the share of `seconds` used so far."""
    untraced_tally, traced_tally = Tally(), Tally()
    round_index = 0
    min_rounds = 1 if traced is None else 2
    while untraced_tally.busy + traced_tally.busy < seconds or round_index < min_rounds:
        in_trace = traced is not None and round_index % 2 == 1
        api, wrap, tracer = traced if in_trace else (plain_api, identity, None)
        tally = traced_tally if in_trace else untraced_tally
        for op in workload.round_ops(round_index):
            execute(workload, op, api, wrap, tally)
        if tracer is not None:
            tracer.clear()
        round_index += 1
        if between_rounds is not None:
            between_rounds((untraced_tally.busy + traced_tally.busy) / seconds)
    return untraced_tally, traced_tally, round_index


def percentile_ms(values, q) -> float:
    return 1e3 * float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(args, setup_samples, rounds) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "rounds": rounds,
        "setup_samples_s": setup_samples,
    }


def git_commit():
    """HEAD of this checkout, read from its own .git; None outside a git
    checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((line.split()[0] for line in lines if line.endswith(" " + ref)), None)


def src_digest() -> str:
    """Digest of the package sources, identifying the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def plain_api_of(lib):
    return spans.make_api(lib, workloads.API)


class SetUp:
    """Set-up: import the package, generate the inputs and warm up.

    The first set-up gives the workload the run measures; SETUP_REPS - 1
    more, spread evenly over the run, sample set-up time in other states of
    a shared host.  setup_s is the median of all of them."""

    def __init__(self, workload_cls, seed, workdir):
        self.args = (workload_cls, seed, workdir)
        self.samples = []
        self.lib, self.workload, self.api = self.once()

    def once(self):
        workload_cls, seed, workdir = self.args
        kernel = workload_cls.kernel
        before = kernel.seconds()
        start = time.perf_counter()
        lib = import_library()
        workload = workload_cls(lib, seed, workdir)
        api = plain_api_of(lib)
        for op in workload.warmup_ops():
            execute(workload, op, api, identity, Tally())
        raw = time.perf_counter() - start
        self.samples.append(kernel.scaled(raw, before, kernel.seconds()))
        return lib, workload, api

    def between_rounds(self, fraction):
        while len(self.samples) < SETUP_REPS and fraction >= len(self.samples) / (SETUP_REPS - 1):
            self.once()

    def finish(self):
        while len(self.samples) < SETUP_REPS:
            self.once()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no {PACKAGE} package under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    if args.counts_only:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            lib = import_library()
            suite = layers.LayerSuite(lib, args.seed, Path(tmp))
            counts = suite.counts()
            if suite.unexpected:
                sys.stderr.write("\n".join(suite.unexpected[:MAX_FAILURE_MESSAGES]) + "\n")
            print(json.dumps({"correct": not suite.unexpected, "counts": counts}, sort_keys=True))
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup = SetUp(workloads.WORKLOADS[args.workload], args.seed, workdir)
        lib, workload, plain_api = setup.lib, setup.workload, setup.api
        if args.trace:
            tracer = spans.Tracer()
            traced = (spans.make_api(lib, workloads.API, tracer),
                      lambda family: spans.FamilyProxy(family, tracer), tracer)
            tally, traced_tally, rounds = run_loop(workload, args.seconds, plain_api, traced)
            overhead = (statistics.fmean(traced_tally.scaled) / statistics.fmean(tally.scaled) - 1.0
                        if traced_tally.attempted and tally.attempted else float("nan"))
            tally.merge(traced_tally)
            suite = layers.LayerSuite(lib, args.seed, workdir)
            metrics = suite.measure()
            metrics["trace.overhead_frac"] = metric(overhead, "ratio")
            unexpected = tally.unexpected + suite.unexpected
        else:
            tally, _, rounds = run_loop(workload, args.seconds, plain_api, between_rounds=setup.between_rounds)
            setup.finish()
            metrics = {
                "throughput_ops_s": metric(tally.attempted / sum(tally.scaled), "1/s"),
                "latency_p50_ms": metric(percentile_ms(tally.scaled, 50), "ms"),
                "latency_p90_ms": metric(percentile_ms(tally.scaled, 90), "ms"),
                "ok_frac": metric((tally.attempted - tally.failed) / tally.attempted, "ratio"),
                "setup_s": metric(statistics.median(setup.samples), "s"),
                "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            }
            unexpected = tally.unexpected
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in unexpected[:MAX_FAILURE_MESSAGES]:
        sys.stderr.write(f"perfbench: {message}\n")
    sys.stderr.write(
        f"perfbench: {args.workload}: {tally.attempted} ops in {rounds} rounds, {tally.failed} failed "
        f"(failed_frac {tally.failed / tally.attempted:.6f}; {tally.known_defects} known tolerance defect, "
        f"{len(unexpected)} unexpected)\n")
    if tally.attempted:
        sys.stderr.write(
            f"  raw, unscaled: {tally.attempted / tally.busy:.6g} ops/s, p50 {percentile_ms(tally.latencies, 50):.6g} ms, "
            f"p90 {percentile_ms(tally.latencies, 90):.6g} ms\n")
    for name, m in metrics.items():
        sys.stderr.write(f"  {name:42s} {m['value']:.6g} {m['unit']}\n")
    print(json.dumps({"environment": environment(args, setup.samples, rounds)}, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected and tally.failed == 0,   # no timed operation may fail
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
