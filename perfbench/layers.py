"""Per-layer measurements of a traced run.

Three kinds of figures, all from inputs fixed by the seed:

- microbenchmarks of single calls (phi, phi_inv, integrate, N(kappa), one
  solve) at n = 8, 1e3 and 1e5, each the median of repeated warm calls;
- fixed traced passes over each workload's operations, from which come the
  per-call times of the sweep and probe layers and the shares of a solve
  spent inside the family's methods;
- exact counts (N-evaluations, phi_inv calls, counterexample tuples, defect
  failures), which do not depend on the machine and must repeat exactly.

Times are scaled to the host's reference speed like the end-to-end ones
(see hostspeed.py).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
from spans import FamilyProxy, Tracer, make_api
from workloads import API, SWEEP_SPECS, Probes, SolveLarge, SolveSmall, SweepLimits, Tally, execute, identity

SIZES = ((8, "n8"), (1000, "n1e3"), (100_000, "n1e5"))
MICRO_BUDGET_S = 0.03       # per microbenchmark, after one warm call
MICRO_MIN_REPS = 3
SOLVE_SMALL_OPS = 200
SLOP_SOLVES = 400
LINEAR_SOLVES = 20
COLD_CALL_REPS = 3
COUNTS = (
    "kappa.n_evals_per_solve", "kappa.n_evals_max", "kappa.divergent_evals", "kappa.slop_pair_failures",
    "kappa.linear_phi_failures", "divergences.phi_inv_calls_per_sweep", "existence.envelope_counterexamples",
)
PROBE_KINDS = (
    "ratio_probe", "inequality_probe", "envelope_check", "kaniadakis_cert",
    "construct_u0", "validate_family", "demo", "divergent_pair",
)


def median_call_s(fn, *args) -> float:
    """Median time of fn(*args) over repeated calls after one warm call,
    at the host's reference speed."""
    fn(*args)
    times = []
    spent = 0.0
    before = hostspeed.SMALL.seconds()
    while spent < MICRO_BUDGET_S or len(times) < MICRO_MIN_REPS:
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return hostspeed.SMALL.scaled(statistics.median(times), before, hostspeed.SMALL.seconds())


def metric(value, unit):
    return {"value": value, "unit": unit}


class Record:
    __slots__ = ("kind", "latency", "result", "first_span", "end_span")

    def __init__(self, kind, latency, result, first_span, end_span):
        self.kind, self.latency, self.result = kind, latency, result
        self.first_span, self.end_span = first_span, end_span


class LayerSuite:
    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.tracer = Tracer()
        self.api = make_api(lib, API, self.tracer)
        self.unexpected = []

    def wrap(self, family):
        return FamilyProxy(family, self.tracer)

    def traced_pass(self, workload, ops) -> list:
        """Run ops traced and checked; the tracer keeps this pass's spans only."""
        self.tracer.clear()
        records = []
        for op in ops:
            tally = Tally()
            first = len(self.tracer.spans)
            result = execute(workload, op, self.api, self.wrap, tally)
            self.unexpected += tally.unexpected
            records.append(Record(op.kind, tally.scaled[0], result, first, len(self.tracer.spans)))
        return records

    def spans_in(self, record, name) -> int:
        return sum(1 for s in self.tracer.spans[record.first_span:record.end_span] if s[0] == name)

    # -- microbenchmarks ----------------------------------------------------

    def micro(self) -> dict:
        lib = self.lib
        families = [lib.families.parse_family_spec(s) for s in lib.families.BUILTIN_FAMILIES]
        out = {}
        for n, label in SIZES:
            rng = np.random.default_rng([self.seed, 5, n])
            raw = rng.uniform(0.05, 1.0, size=(2, n))
            pair = lib.measures.ProbabilityPair.from_raw(lib.measures.Counting(n), raw[0], raw[1])
            phi_t, inv_t, nf_t, solve_t = [], [], [], []
            for family in families:
                # a typical N(kappa) argument: the interpolation base shifted by 0.1
                arg = lib.kappa.interpolation_base(family, pair, 0.5) + 0.1
                phi_t.append(median_call_s(family.phi, arg))
                inv_t.append(median_call_s(family.phi_inv, pair.p))
                nf_t.append(median_call_s(lib.kappa.normalization_functional, family, pair, 0.5, 1.0, 0.1))
                solve_t.append(median_call_s(_solve_or_raise, lib, family, pair))
            values = np.asarray(families[0].phi(lib.kappa.interpolation_base(families[0], pair, 0.5)))
            out[f"families.phi_us.{label}"] = metric(1e6 * statistics.fmean(phi_t), "us")
            out[f"families.phi_inv_us.{label}"] = metric(1e6 * statistics.fmean(inv_t), "us")
            out[f"measures.integrate_us.{label}"] = metric(
                1e6 * median_call_s(lib.measures.integrate, pair.measure, values), "us")
            out[f"kappa.normalization_functional_us.{label}"] = metric(1e6 * statistics.fmean(nf_t), "us")
            out[f"kappa.solve_us.{label}"] = metric(1e6 * statistics.fmean(solve_t), "us")
            if n == 1000:
                sweep = SweepLimits(lib, self.seed, self.workdir)
                deriv_t = [median_call_s(sweep.families[s].phi_inv_deriv, pair.p) for s in SWEEP_SPECS]
                out["families.phi_inv_deriv_us.n1e3"] = metric(1e6 * statistics.fmean(deriv_t), "us")
        return out

    # -- traced passes and counts -------------------------------------------

    def passes(self) -> dict:
        lib = self.lib
        out = {}
        evals = []

        small = SolveSmall(lib, self.seed, self.workdir)
        rng = small.rng(1)
        ops = [small.op(i, rng) for i in range(SOLVE_SMALL_OPS)]
        records = self.traced_pass(small, ops)
        evals += [r.result.solver.iterations for r in records if r.result is not None]
        solve_time = self.tracer.total("divergences.generalized_renyi")
        family_time = self.tracer.child_time(
            "divergences.generalized_renyi", ("families.phi", "families.phi_inv"))
        out["kappa.solve_self_share"] = metric(1.0 - family_time / solve_time, "ratio")

        plain_api = make_api(lib, API)
        out["kappa.slop_pair_failures"] = metric(
            self.defect_failures(small, small.slop_ops(SLOP_SOLVES), plain_api), "count")

        large = SolveLarge(lib, self.seed, self.workdir)
        out["kappa.linear_phi_failures"] = metric(
            self.defect_failures(large, large.linear_ops(LINEAR_SOLVES), plain_api), "count")
        rng = large.rng(1)
        # each family, on Counting(100000) but tsallis:2 (see SolveLarge)
        ops = [large.op(i, rng) for i in range(0, 2 * len(large.specs), 2)]
        records = self.traced_pass(large, ops)
        evals += [r.result.solver.iterations for r in records if r.result is not None]
        out["families.phi_share_of_solve"] = metric(
            self.tracer.child_time("divergences.generalized_renyi", ("families.phi",))
            / self.tracer.total("divergences.generalized_renyi"), "ratio")

        sweep = SweepLimits(lib, self.seed, self.workdir)
        ops = [op for spec in SWEEP_SPECS for op in sweep.bundle(spec, (1000, 0))]
        records = self.traced_pass(sweep, ops)
        by_kind = _by_kind(records)
        sweeps = by_kind["sweep49"]
        evals += [rep.solver.iterations for r in sweeps if r.result is not None for rep in r.result]
        out["divergences.sweep49_ms"] = metric(1e3 * _mean_latency(sweeps), "ms")
        out["divergences.limit_ms"] = metric(1e3 * _mean_latency(by_kind["limit"]), "ms")
        out["divergences.phi_divergence_us.n1e3"] = metric(1e6 * _mean_latency(by_kind["phi_divergence"]), "us")
        out["divergences.kappa_derivative_us"] = metric(1e6 * _mean_latency(by_kind["kappa_derivative"]), "us")
        out["divergences.phi_inv_calls_per_sweep"] = metric(
            statistics.fmean(self.spans_in(r, "families.phi_inv") for r in sweeps), "count")
        out["cli.main_ms.sweep"] = metric(1e3 * _mean_latency(by_kind["cli_sweep"]), "ms")

        probes = Probes(lib, self.seed, self.workdir)
        records = self.traced_pass(probes, probes.ops)
        by_kind = _by_kind(records)
        for kind in PROBE_KINDS:
            out[f"existence.{kind}_ms"] = metric(1e3 * _mean_latency(by_kind[kind]), "ms")
        out["existence.envelope_counterexamples"] = metric(
            sum(len(r.result.counterexamples) for r in by_kind["envelope_check"] if r.result is not None), "count")

        result = lib.kappa.solve_kappa(lib.families.CounterexamplePhi(), lib.existence.build_divergent_pair(), 0.5)
        if result.status is not lib.kappa.SolveStatus.DIVERGENT_INTEGRAL:
            self.unexpected.append(f"divergent pair: status {result.status.value}")
        out["kappa.divergent_evals"] = metric(result.iterations, "count")

        out["kappa.n_evals_per_solve"] = metric(statistics.fmean(evals), "count")
        out["kappa.n_evals_max"] = metric(max(evals), "count")
        self.tracer.clear()
        return out

    def defect_failures(self, workload, ops, api) -> int:
        """Untimed solves on an input class of the known tolerance defect;
        returns how many failed."""
        tally = Tally()
        for op in ops:
            execute(workload, op, api, identity, tally)
        self.unexpected += tally.unexpected
        return tally.failed

    def counts(self) -> dict:
        passes = self.passes()
        return {name: passes[name]["value"] for name in COUNTS}

    # -- the command line ---------------------------------------------------

    def cli_cold(self) -> dict:
        """Cold `python -m deformed_renyi kappa` calls, each compared byte for
        byte with cli.main run in-process on the same arguments."""
        lib = self.lib
        rng = np.random.default_rng([self.seed, 6])
        raw = rng.uniform(0.05, 1.0, size=(2, 8))
        pair = lib.measures.ProbabilityPair.from_raw(lib.measures.Counting(8), raw[0], raw[1])
        path = self.workdir / "cold_pair.csv"
        lib.measures.save_pair(pair, path)
        src = Path(lib.cli.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        sweep_argv = ["sweep", "--family", "kaniadakis:0.5", "--pair", str(path)]
        kappa_argv = ["kappa", "--family", "exp", "--pair", str(path), "--alpha", "0.5"]
        times = []
        kernel = hostspeed.SMALL
        for argv in [sweep_argv] + [kappa_argv] * COLD_CALL_REPS:
            before = kernel.seconds()
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "deformed_renyi", *argv],
                                  capture_output=True, env=env, timeout=120, check=False)
            times.append(kernel.scaled(time.perf_counter() - start, before, kernel.seconds()))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = lib.cli.main(argv)
            if (proc.returncode, proc.stdout) != (code, buf.getvalue().encode()):
                self.unexpected.append(f"cold CLI {argv[0]} differs from in-process cli.main")
        # the first call, a sweep, only warms the file cache and compares output
        return {"cli.cold_call_ms": metric(1e3 * statistics.median(times[1:]), "ms")}

    def measure(self) -> dict:
        out = self.micro()
        out.update(self.passes())
        out.update(self.cli_cold())
        return out


def _solve_or_raise(lib, family, pair):
    """One solve_kappa call; the tolerance defect raises for some pairs and
    the time to raise is what is measured then."""
    try:
        lib.kappa.solve_kappa(family, pair, 0.5)
    except ValueError:
        pass


def _by_kind(records) -> dict:
    out = {}
    for r in records:
        out.setdefault(r.kind, []).append(r)
    return out


def _mean_latency(records) -> float:
    return statistics.fmean(r.latency for r in records)
