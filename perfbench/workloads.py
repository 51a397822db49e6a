"""The four benchmark workloads and the oracle that checks every operation.

Each workload is a closed loop driven by one client: the next operation is
issued only after the previous one returned and was checked.  A workload has
a fixed list of specs (a family, a size, an alpha, ...) drawn from the seed.
A round runs every spec once, in an order drawn from the generator seeded
with (seed, workload salt, round), and builds fresh inputs where the workload
wants them; so the same seed gives the same inputs whatever the machine's
speed.  Inputs are generated between operations, outside every timed
interval.

An operation is `call(api, wrap)`: `api` holds the library's public
functions (plain or traced, see spans.py) and `wrap` turns a family into the
object handed to the library (the family itself, or a tracing proxy).  Its
`check(result)` raises OracleError when the answer is wrong.
"""

from __future__ import annotations

import csv
import math
import time
from pathlib import Path

import numpy as np

import hostspeed

SOLVE_TOL = 1e-12          # the library's default solver tolerance
EXP_ORACLE_TOL = 1e-9      # generalized vs closed-form Renyi for exp, u0 = 1
LIMIT_TOL = 1e-4           # endpoint limit vs phi-divergence
SLOP_KAPPA_MAX = 1e-8      # rounded p = q pairs: the true shift is 0
KANIADAKIS_V0_TOL = 1e-8
SPEC_STREAM = 2**31        # generator keys apart from the round keys 0, 1, 2, ...
SLOP_STREAM = 2**31 + 1
SWEEP_ALPHAS = np.linspace(0.02, 0.98, 49)   # the scripts/sweep_families.py grid
CLI_SWEEP_ROWS = 19                           # default --alphas 0.05:0.95:19

# the functions the benchmark calls, per layer
API = {
    "families": ("validate_family",),
    "divergences": (
        "generalized_renyi", "limit_divergence", "phi_divergence", "kappa_derivative_at_endpoint",
    ),
    "existence": (
        "ratio_limsup_probe", "pointwise_inequality_probe", "growth_envelope_check",
        "construct_u0_sequence", "verify_kaniadakis_u0", "adversarial_nonexistence_demo",
        "build_divergent_pair",
    ),
    "cli": ("main",),
}


class OracleError(AssertionError):
    """An operation returned an answer its oracle rejects."""


class StatusError(OracleError):
    """A solve returned a status other than CONVERGED where a root exists."""


class Op:
    __slots__ = ("kind", "call", "check", "inputs")

    def __init__(self, kind, call, check, inputs=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.inputs = inputs      # (family, pair, alpha, u0) of a solve


class Tally:
    """Outcomes and times of the operations of one mode of a run.  `scaled`
    holds each time at the host's reference speed (see hostspeed.py)."""

    def __init__(self):
        self.latencies = []
        self.scaled = []
        self.busy = 0.0
        self.failed = 0
        self.known_defects = 0    # failures that are the tolerance defect
        self.unexpected = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, seconds: float, scaled_seconds: float):
        self.latencies.append(seconds)
        self.scaled.append(scaled_seconds)
        self.busy += seconds

    def merge(self, other: "Tally"):
        self.latencies += other.latencies
        self.scaled += other.scaled
        self.busy += other.busy
        self.failed += other.failed
        self.known_defects += other.known_defects
        self.unexpected += other.unexpected

    def fail(self, workload, op, exc):
        self.failed += 1
        if workload.is_known_defect(op, exc):
            self.known_defects += 1
        else:
            self.unexpected.append(f"{op.kind}: {type(exc).__name__}: {exc}")


def execute(workload, op, api, wrap, tally: Tally):
    """Run one operation, time only its call, then check its answer.

    Returns the result, or None when the call raised."""
    kernel = workload.kernel
    before = kernel.seconds()
    start = time.perf_counter()
    try:
        result, error = op.call(api, wrap), None
    except Exception as exc:  # every failure is counted and the loop goes on
        result, error = None, exc
    raw = time.perf_counter() - start
    tally.record(raw, kernel.scaled(raw, before, kernel.seconds()))
    if error is not None:
        tally.fail(workload, op, error)
        return None
    try:
        op.check(result)
    except Exception as exc:  # OracleError, or the oracle itself could not run
        tally.fail(workload, op, exc)
    return result


def identity(family):
    return family


def expect(ok, message):
    if not ok:
        raise OracleError(message)


class Workload:
    name = ""
    salt = 0
    kernel = hostspeed.SMALL    # the host speed reference bracketing each operation
    n_specs = 0
    n_warmup = 0

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir

    def rng(self, key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.salt, key])

    def op(self, index: int, rng: np.random.Generator) -> Op:
        """The operation for spec `index`, with fresh inputs drawn from rng
        where the workload wants them."""
        raise NotImplementedError

    def round_ops(self, round_index: int):
        """Yield the operation of every spec, in seeded order."""
        rng = self.rng(round_index + 1)
        for index in rng.permutation(self.n_specs):
            yield self.op(int(index), rng)

    def warmup_ops(self):
        """Operations on the first specs, run untimed during set-up."""
        rng = self.rng(0)
        return [self.op(index, rng) for index in range(self.n_warmup)]

    def is_known_defect(self, op: Op, exc: Exception) -> bool:
        """Whether a failure is the known tolerance-contract defect; all
        other failures are unexpected and make the run incorrect."""
        return False

    # -- shared oracles ---------------------------------------------------

    def check_solve(self, family, spec, pair, alpha, u0, report, slop=False):
        lib = self.lib
        if report.status is not lib.kappa.SolveStatus.CONVERGED:
            raise StatusError(f"status {report.status.value}")
        if spec == "exp" and np.ndim(u0) == 0 and float(u0) == 1.0:
            k_ref = lib.kappa.classical_kappa(pair, alpha)
            v_ref = lib.divergences.classical_renyi(pair, alpha)
            expect(abs(report.kappa - k_ref) <= EXP_ORACLE_TOL, f"kappa {report.kappa} vs classical {k_ref}")
            expect(abs(report.value - v_ref) <= EXP_ORACLE_TOL, f"value {report.value} vs classical {v_ref}")
        else:
            n_val = lib.kappa.normalization_functional(family, pair, alpha, u0, report.kappa)
            expect(abs(n_val - 1.0) <= SOLVE_TOL, f"|N(kappa) - 1| = {abs(n_val - 1.0)} > tol")
        if slop:
            expect(0.0 <= report.kappa <= SLOP_KAPPA_MAX, f"p = q pair gave kappa {report.kappa}")


def _counting_pair(lib, rng, n):
    raw = rng.uniform(0.05, 1.0, size=(2, n))
    return lib.measures.ProbabilityPair.from_raw(lib.measures.Counting(n), raw[0], raw[1])


class _SolveWorkload(Workload):
    """One generalized_renyi call per operation on a pair never used before."""

    def solve_op(self, spec, pair, alpha, u0=1.0, slop=False):
        family = self.families[spec]

        def call(api, wrap):
            return api.generalized_renyi(wrap(family), pair, alpha, u0=u0)

        def check(report):
            self.check_solve(family, spec, pair, alpha, u0, report, slop=slop)

        return Op("solve", call, check, inputs=(family, pair, alpha, u0))

    def is_known_defect(self, op, exc):
        """The solver's tolerance (1e-12 on N) is tighter than the slop
        ProbabilityPair accepts (1e-9 on each mass).  When N(0) lies within
        that slop of 1 the true shift is 0 up to the data's rounding, yet the
        solver raises "phi is not convex" (N(0) > 1 + tol) or, unable to
        resolve N below the rounding, returns BRACKET_FAILURE."""
        if not (isinstance(exc, StatusError)
                or isinstance(exc, ValueError) and "phi is not convex" in str(exc)):
            return False
        family, pair, alpha, u0 = op.inputs
        n0 = self.lib.kappa.normalization_functional(family, pair, alpha, u0, 0.0)
        return abs(n0 - 1.0) <= self.lib.measures.ProbabilityPair.NORM_TOL


class SolveSmall(_SolveWorkload):
    """Fresh counting pairs, n log-uniform in [8, 1000], all built-in families.

    Specs fix the family (rotated), n and alpha (both stratified, so every
    seed covers their ranges evenly) and the class: per 10 specs two with a
    per-atom u0 array and eight with u0 = 1.  Densities and u0 values are
    drawn afresh for every operation.

    No timed operation meets the known tolerance defect, so every one
    succeeds.  The defect's input class, rounded p = q pairs, is solved a
    fixed number of times outside the timed loop (`slop_ops`), and its exact
    failure count is the per-layer metric kappa.slop_pair_failures.
    """

    name = "solve_small"
    salt = 1
    n_specs = 500
    n_warmup = 12

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        self.specs = lib.families.BUILTIN_FAMILIES
        self.families = {s: lib.families.parse_family_spec(s) for s in self.specs}
        rng = self.rng(SPEC_STREAM)
        k = self.n_specs
        strata = (rng.permutation(k) + rng.uniform(size=k)) / k
        self.sizes = np.rint(np.exp(math.log(8) + strata * math.log(1000 / 8))).astype(int)
        self.alphas = 0.02 + 0.96 * (rng.permutation(k) + rng.uniform(size=k)) / k

    def spec_of(self, index):
        # the shift by index // 10 spreads every class over all the families
        spec = self.specs[(index + index // 10) % len(self.specs)]
        return spec, int(self.sizes[index]), float(self.alphas[index])

    def op(self, index, rng):
        spec, n, alpha = self.spec_of(index)
        pair = _counting_pair(self.lib, rng, n)
        u0 = rng.uniform(0.5, 2.0, size=n) if index % 5 == 1 else 1.0
        return self.solve_op(spec, pair, alpha, u0=u0)

    def slop_pair(self, rng, n):
        """p = q with densities rounded to 10 significant digits, as a CSV
        written by hand would hold them; still within ProbabilityPair.NORM_TOL."""
        raw = rng.uniform(0.05, 1.0, size=n)
        p = np.array([float(f"{x:.10g}") for x in raw / raw.sum()])
        return self.lib.measures.ProbabilityPair(self.lib.measures.Counting(n), p, p)

    def slop_ops(self, count):
        """Rounded p = q solves (correct answer kappa = 0) on the family, n
        and alpha of every tenth spec in turn, for the exact failure count."""
        rng = self.rng(SLOP_STREAM)
        ops = []
        for i in range(count):
            spec, n, alpha = self.spec_of((10 * i + 9) % self.n_specs)
            ops.append(self.solve_op(spec, self.slop_pair(rng, n), alpha, slop=True))
        return ops


class SolveLarge(_SolveWorkload):
    """Fresh n = 1e5 pairs on Counting(100000) and a 1e5-node trapezoid grid;
    the phi kernel and integrate dominate.  Specs alternate the measure,
    rotate the families and stratify alpha.

    `tsallis:2` has a linear phi, so N(0) = 1 up to summation rounding.  On
    Counting(100000) that rounding meets the known tolerance defect for about
    a third of the pairs, so this family runs on the trapezoid grid only,
    where it does not.  A fixed number of its Counting(100000) solves run
    outside the timed loop (`linear_ops`); their exact failure count is the
    per-layer metric kappa.linear_phi_failures.
    """

    name = "solve_large"
    salt = 2
    kernel = hostspeed.LARGE
    N = 100_000
    LINEAR = "tsallis:2"
    n_specs = 100
    n_warmup = 12     # each family on each measure

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        self.specs = lib.families.BUILTIN_FAMILIES
        self.families = {s: lib.families.parse_family_spec(s) for s in self.specs}
        self.measures = (lib.measures.Counting(self.N), lib.measures.QuadGrid.trapezoid(0.0, 1.0, self.N))
        rng = self.rng(SPEC_STREAM)
        k = self.n_specs
        self.alphas = 0.02 + 0.96 * (rng.permutation(k) + rng.uniform(size=k)) / k

    def solve_on(self, measure, spec, rng, alpha):
        raw = rng.uniform(0.05, 1.0, size=(2, self.N))
        pair = self.lib.measures.ProbabilityPair.from_raw(measure, raw[0], raw[1])
        return self.solve_op(spec, pair, alpha)

    def op(self, index, rng):
        spec = self.specs[index // 2 % len(self.specs)]
        measure = self.measures[1 if spec == self.LINEAR else index % 2]
        return self.solve_on(measure, spec, rng, float(self.alphas[index]))

    def linear_ops(self, count):
        """tsallis:2 solves on Counting(100000), at the stratified alphas in
        turn, for the exact failure count."""
        rng = self.rng(SLOP_STREAM)
        return [self.solve_on(self.measures[0], self.LINEAR, rng, float(self.alphas[i % self.n_specs]))
                for i in range(count)]


SWEEP_SPECS = ("exp", "tsallis:0.5", "kaniadakis:0.5", "kaniadakis:-0.5", "kaniadakis:-0.25", "tabulated")


class SweepLimits(Workload):
    """Analysis bundles on a few reused n = 8 and n = 1e3 counting pairs.

    A bundle is one family on one pair: a 49-alpha sweep, the limit at each
    endpoint, the phi-divergence, the kappa derivative at each endpoint and an
    in-process `cli.main(["sweep", ...])` on the pair's CSV file.  Each pair is
    reused by every bundle, about 70 solves per bundle.  The specs are the
    operations of every bundle: 6 families x 2 sizes x 2 pairs x 7.
    """

    name = "sweep_limits"
    salt = 3
    SIZES = (8, 1000)
    PAIRS_PER_SIZE = 2
    n_warmup = len(SWEEP_SPECS) * 7    # the bundles on the first n = 8 pair

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        fam = lib.families
        knots = [(float(u), math.exp(u)) for u in np.linspace(-40.0, 40.0, 161)]
        knots_csv = workdir / "exp_knots.csv"
        with open(knots_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["u", "phi"])
            writer.writerows([repr(u), repr(p)] for u, p in knots)
        self.cli_specs = {s: s for s in SWEEP_SPECS if s != "tabulated"}
        self.cli_specs["tabulated"] = f"tabulated:{knots_csv}"
        self.families = {s: fam.parse_family_spec(spec) for s, spec in self.cli_specs.items()}
        rng = self.rng(0)
        self.pairs = {}
        for n in self.SIZES:
            for k in range(self.PAIRS_PER_SIZE):
                pair = _counting_pair(lib, rng, n)
                path = workdir / f"pair_n{n}_{k}.csv"
                lib.measures.save_pair(pair, path)
                self.pairs[n, k] = (pair, path)
        self.cli_out = workdir / "sweep_out.csv"
        self._phi_div = {}
        self.ops = [op for n in self.SIZES for k in range(self.PAIRS_PER_SIZE)
                    for spec in SWEEP_SPECS for op in self.bundle(spec, (n, k))]
        self.n_specs = len(self.ops)

    def phi_div_ref(self, spec, key, swapped):
        """phi-divergence reference for the limit and derivative oracles,
        computed once per (family, pair, direction), outside timed intervals."""
        ref_key = (spec, key, swapped)
        if ref_key not in self._phi_div:
            pair = self.pairs[key][0]
            self._phi_div[ref_key] = self.lib.divergences.phi_divergence(
                self.families[spec], pair.swapped() if swapped else pair)
        return self._phi_div[ref_key]

    def bundle(self, spec, key):
        lib = self.lib
        family = self.families[spec]
        pair, path = self.pairs[key]

        def sweep(api, wrap):
            fam = wrap(family)
            return [api.generalized_renyi(fam, pair, float(a)) for a in SWEEP_ALPHAS]

        def check_sweep(reports):
            for a, report in zip(SWEEP_ALPHAS, reports):
                self.check_solve(family, spec, pair, float(a), 1.0, report)

        yield Op("sweep49", sweep, check_sweep)

        for endpoint in (1, 0):
            def limit(api, wrap, endpoint=endpoint):
                return api.limit_divergence(wrap(family), pair, endpoint=endpoint)

            def check_limit(est, endpoint=endpoint):
                ref = self.phi_div_ref(spec, key, swapped=endpoint == 0)
                expect(abs(est.value - ref) <= LIMIT_TOL, f"limit {est.value} vs phi-divergence {ref}")

            yield Op("limit", limit, check_limit)

        def phi_div(api, wrap):
            return api.phi_divergence(wrap(family), pair)

        def check_phi_div(value):
            expect(math.isfinite(value) and value > 0.0, f"phi-divergence {value}")
            if spec == "exp":
                kl = lib.divergences.kl_divergence(pair)
                expect(abs(value - kl) <= 1e-12, f"phi-divergence {value} vs KL {kl}")

        yield Op("phi_divergence", phi_div, check_phi_div)

        for endpoint in (0, 1):
            def deriv(api, wrap, endpoint=endpoint):
                return api.kappa_derivative_at_endpoint(wrap(family), pair, endpoint)

            def check_deriv(value, endpoint=endpoint):
                # kappa(h)/h = D(h)(1-h): first-order error O(h D) with h = 1e-5
                ref = self.phi_div_ref(spec, key, swapped=endpoint == 0)
                ref = ref if endpoint == 0 else -ref
                expect(abs(value - ref) <= 1e-3 * (1.0 + abs(ref)), f"derivative {value} vs {ref}")

            yield Op("kappa_derivative", deriv, check_deriv)

        argv = ["sweep", "--family", self.cli_specs[spec], "--pair", str(path), "--out", str(self.cli_out)]

        def cli_sweep(api, wrap):
            return api.main(argv)

        def check_cli(code):
            expect(code == 0, f"cli sweep exit code {code}")
            with open(self.cli_out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            expect(len(rows) == CLI_SWEEP_ROWS, f"cli sweep wrote {len(rows)} rows")
            for row in rows:
                expect(row["status"] == "converged", f"cli sweep status {row['status']}")
                report = _Report(float(row["kappa"]), float(row["value"]), lib.kappa.SolveStatus.CONVERGED)
                self.check_solve(family, spec, pair, float(row["alpha"]), 1.0, report)

        yield Op("cli_sweep", cli_sweep, check_cli)

    def op(self, index, rng):
        return self.ops[index]


class _Report:
    """A solve read back from CLI output, checked like an in-process report."""

    def __init__(self, kappa, value, status):
        self.kappa, self.value, self.status = kappa, value, status


class Probes(Workload):
    """The existence layer, with no kappa solve inside any timed operation.

    The specs are: the ratio probe, the pointwise inequality, the growth
    envelope (CLI default grids), construct_u0_sequence at four seeded alphas
    and validate_family, for every built-in family; verify_kaniadakis_u0 on the
    acceptance (kappa, alpha) grid; the adversarial demo; build_divergent_pair.
    """

    name = "probes"
    salt = 4
    n_warmup = 5      # the first family's probes
    CONSTRUCT_ALPHAS = 4   # per family, stratified over (0.05, 0.95)
    KANIADAKIS_GRID = [(k, a) for k in (0.25, -0.25, 0.5, -0.5, 1.0, -1.0) for a in (0.1, 0.25, 0.5, 0.9)]
    U_GRID = np.linspace(-50.0, 200.0, 2001)    # cli probe --ugrid default
    V_GRID = np.linspace(0.0, 20.0, 201)        # cli probe --vgrid default
    VALIDATE_GRID = np.linspace(-50.0, 50.0, 2001)

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        ex = lib.existence
        self.specs = lib.families.BUILTIN_FAMILIES
        self.families = {s: lib.families.parse_family_spec(s) for s in self.specs}
        # the envelope and inequality inputs come from each family's ratio bound
        self.bounds = {}
        for spec, family in self.families.items():
            report = ex.ratio_limsup_probe(family, 1.0)
            if report.verdict == ex.VERDICT_BOUNDED:
                self.bounds[spec] = (report.bound_K, report.bound_c, report.alpha_used)
            else:
                self.bounds[spec] = (math.e, -math.inf, 0.5)   # cli probe defaults
        rng = self.rng(SPEC_STREAM)
        k = self.CONSTRUCT_ALPHAS
        self.ops = [op for spec in self.specs
                    for op in self._family_ops(spec, 0.05 + 0.9 * (np.arange(k) + rng.uniform(size=k)) / k)]
        self.ops += self._other_ops()
        self.n_specs = len(self.ops)

    def _family_ops(self, spec, construct_alphas):
        ex = self.lib.existence
        family = self.families[spec]
        bounded = spec != "counterexample"
        K, c, alpha = self.bounds[spec]
        expected = ex.VERDICT_BOUNDED if bounded else ex.VERDICT_UNBOUNDED

        def check_ratio(report):
            expect(report.verdict == expected, f"{spec} ratio verdict {report.verdict}")

        yield Op("ratio_probe", lambda api, wrap: api.ratio_limsup_probe(wrap(family), 1.0), check_ratio)

        def check_inequality(result):
            expect(result.holds == bounded, f"{spec} inequality holds={result.holds}")

        yield Op("inequality_probe",
                 lambda api, wrap: api.pointwise_inequality_probe(wrap(family), alpha, 1.0, self.U_GRID),
                 check_inequality)

        def check_envelope(result):
            expect(result.holds == bounded, f"{spec} envelope holds={result.holds}")

        yield Op("envelope_check",
                 lambda api, wrap: api.growth_envelope_check(wrap(family), K, 1.0, c, self.U_GRID, self.V_GRID),
                 check_envelope)

        def check_construct(con):
            expect(con.certificate_ok, f"{spec} u0 certificate failed at alpha={con.alpha}")
            seq = con.u0_sequence
            expect(bool(np.all(seq > 0) and np.all(np.diff(seq) <= 0)), f"{spec} u0 not positive decreasing")

        for a in construct_alphas:
            yield Op("construct_u0", lambda api, wrap, a=float(a): api.construct_u0_sequence(wrap(family), a),
                     check_construct)

        def check_validate(report):
            expect(report.passed, f"{spec} failed validate_family")

        yield Op("validate_family", lambda api, wrap: api.validate_family(wrap(family), self.VALIDATE_GRID),
                 check_validate)

    def check_divergent(self, pair):
        lib = self.lib
        res = lib.kappa.solve_kappa(lib.families.CounterexamplePhi(), pair, 0.5)
        expect(res.status is lib.kappa.SolveStatus.DIVERGENT_INTEGRAL, f"divergent pair status {res.status.value}")

    def _other_ops(self):
        ops = []
        for kp, a in self.KANIADAKIS_GRID:
            def check_cert(cert, a=a):
                expect(cert.check, f"kaniadakis certificate check failed ({cert.kappa}, {a})")
                expect(abs(cert.v0 - a ** -0.5) <= KANIADAKIS_V0_TOL, f"v0 {cert.v0} vs {a ** -0.5}")

            ops.append(Op("kaniadakis_cert", lambda api, wrap, kp=kp, a=a: api.verify_kaniadakis_u0(kp, a),
                          check_cert))

        def check_demo(demo):
            expect(demo.gap_phi_c[-1] <= 2.0 ** -60 and abs(demo.cumsum_phi_c[-1] - 1.0) <= 2.0 ** -60,
                   "demo first column does not sum to 1")
            expect(demo.cumsum_shifted[-1] > 1e6, "demo shifted column stays bounded")
            self.check_divergent(demo.pair)

        ops.append(Op("demo", lambda api, wrap: api.adversarial_nonexistence_demo(1.0, 60), check_demo))
        ops.append(Op("divergent_pair", lambda api, wrap: api.build_divergent_pair(), self.check_divergent))
        return ops

    def op(self, index, rng):
        return self.ops[index]


WORKLOADS = {w.name: w for w in (SolveSmall, SolveLarge, SweepLimits, Probes)}
