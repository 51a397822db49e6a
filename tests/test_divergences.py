import math
import re

import numpy as np
import pytest

from deformed_renyi.divergences import (
    DivergentDenominator,
    classical_renyi,
    generalized_renyi,
    kappa_derivative_at_endpoint,
    kl_divergence,
    limit_divergence,
    phi_divergence,
    sweep,
    tsallis_relative_entropy,
)
from deformed_renyi.families import (
    BUILTIN_FAMILIES,
    ClassicalExp,
    CounterexamplePhi,
    DomainError,
    KaniadakisKappa,
    TabulatedMonotone,
    TsallisQ,
    parse_family_spec,
)
from deformed_renyi.kappa import SolveStatus, interpolation_base, solve_kappa
from deformed_renyi.measures import Counting, ProbabilityPair, QuadGrid

PAIR = ProbabilityPair(Counting(2), [0.5, 0.5], [0.9, 0.1])
KL_PQ = 0.5108256237659907   # 0.5 ln(0.5/0.9) + 0.5 ln(0.5/0.1)
KL_QP = 0.3680642071684971   # 0.9 ln(0.9/0.5) + 0.1 ln(0.1/0.5)
D_HALF = 0.44628710262841964  # -ln(sqrt(0.45)+sqrt(0.05)) / 0.25

FAMILIES = [ClassicalExp(), TsallisQ(0.5), KaniadakisKappa(0.5), CounterexamplePhi()]


def random_pair(rng, size):
    raw = rng.uniform(0.05, 1.0, size=(2, size))
    return ProbabilityPair.from_raw(Counting(size), raw[0], raw[1])


class TestGeneralizedRenyi:
    def test_identity_pair_is_zero(self):
        pair = ProbabilityPair(Counting(3), [0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
        for fam in FAMILIES:
            for alpha in (0.1, 0.5, 0.9):
                report = generalized_renyi(fam, pair, alpha)
                assert report.value == 0.0
                assert report.kappa == 0.0

    def test_classical_frozen_value(self):
        report = generalized_renyi(ClassicalExp(), PAIR, 0.5)
        assert report.value == pytest.approx(D_HALF, abs=1e-9)
        assert report.kappa == pytest.approx(0.11157177565710491, abs=1e-10)

    def test_value_is_kappa_over_scale(self):
        rng = np.random.default_rng(3)
        pair = random_pair(rng, 5)
        for alpha in (0.2, 0.6):
            report = generalized_renyi(KaniadakisKappa(0.5), pair, alpha)
            assert report.value == pytest.approx(report.kappa / (alpha * (1 - alpha)), rel=1e-15)

    def test_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pair = random_pair(rng, int(rng.integers(2, 16)))
            fam = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
            alpha = float(rng.uniform(0.05, 0.95))
            assert generalized_renyi(fam, pair, alpha).value >= 0.0

    def test_midpoint_symmetry_classical(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            pair = random_pair(rng, 6)
            a = generalized_renyi(ClassicalExp(), pair, 0.5).value
            b = generalized_renyi(ClassicalExp(), pair.swapped(), 0.5).value
            assert a == pytest.approx(b, abs=1e-11)

    def test_oracle_collapse(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            pair = random_pair(rng, int(rng.integers(2, 20)))
            for alpha in np.arange(0.1, 0.95, 0.1):
                report = generalized_renyi(ClassicalExp(), pair, float(alpha))
                assert report.value == pytest.approx(classical_renyi(pair, float(alpha)), abs=1e-9)


class TestClassicalRenyi:
    def test_identity_zero(self):
        pair = ProbabilityPair(Counting(2), [0.4, 0.6], [0.4, 0.6])
        assert classical_renyi(pair, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value(self):
        assert classical_renyi(PAIR, 0.5) == pytest.approx(D_HALF, abs=1e-15)

    def test_uniform_vs_truncated_exponential_analytic(self):
        lam = 2.0
        grid = QuadGrid.trapezoid(0.0, 1.0, 4096)
        p = np.ones(grid.size)
        q_norm = lam / (1.0 - math.exp(-lam))
        q = q_norm * np.exp(-lam * grid.nodes)
        pair = ProbabilityPair.from_raw(grid, p, q)
        for alpha in (0.25, 0.5, 0.75):
            # closed form: C^(1-a) * (1 - e^(-lam (1-a))) / (lam (1-a))
            integral = q_norm ** (1 - alpha) * (1 - math.exp(-lam * (1 - alpha))) / (lam * (1 - alpha))
            expected = -math.log(integral) / (alpha * (1 - alpha))
            assert classical_renyi(pair, alpha) == pytest.approx(expected, abs=1e-7)


class TestPhiDivergence:
    def test_identity_zero(self):
        pair = ProbabilityPair(Counting(3), [0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
        for fam in FAMILIES:
            assert phi_divergence(fam, pair) == pytest.approx(0.0, abs=1e-15)

    def test_classical_reduces_to_kl(self):
        assert phi_divergence(ClassicalExp(), PAIR) == pytest.approx(KL_PQ, abs=1e-12)
        assert phi_divergence(ClassicalExp(), PAIR) == pytest.approx(kl_divergence(PAIR), abs=1e-15)

    def test_tabulated_exp_reduces_to_kl(self):
        # knots on e^u make the log-linear table exactly exp; the exact segment
        # slope keeps the quotient at KL to rounding even at n = 1e3
        u = np.linspace(-40.0, 40.0, 161)
        fam = TabulatedMonotone(list(zip(u, np.exp(u))))
        pair = random_pair(np.random.default_rng(3), 1000)
        assert phi_divergence(fam, pair) == pytest.approx(kl_divergence(pair), abs=1e-13)

    def test_kaniadakis_consistent_with_limit(self):
        fam = KaniadakisKappa(0.5)
        est = limit_divergence(fam, PAIR, endpoint=1)
        assert est.value == pytest.approx(phi_divergence(fam, PAIR), abs=1e-5)

    @pytest.mark.parametrize(
        "fam",
        [ClassicalExp(), TsallisQ(0.5), TsallisQ(1.5), KaniadakisKappa(0.25), KaniadakisKappa(0.5)],
        ids=repr,
    )
    def test_limit_consistency_across_families(self, fam):
        rng = np.random.default_rng(23)
        for _ in range(3):
            pair = random_pair(rng, int(rng.integers(2, 9)))
            est1 = limit_divergence(fam, pair, endpoint=1)
            assert est1.value == pytest.approx(phi_divergence(fam, pair), abs=1e-4)
            est0 = limit_divergence(fam, pair, endpoint=0)
            assert est0.value == pytest.approx(phi_divergence(fam, pair.swapped()), abs=1e-4)

    @pytest.mark.parametrize("measure", ["counting", "trapezoid"])
    @pytest.mark.parametrize("spec", BUILTIN_FAMILIES)
    def test_per_atom_u0_limits_and_slopes(self, spec, measure):
        # the endpoint limits and slopes follow the direction u0 atom by atom
        fam = parse_family_spec(spec)
        rng = np.random.default_rng(5)
        for n in (8, 1000):
            m = Counting(n) if measure == "counting" else QuadGrid.trapezoid(0.0, 1.0, n)
            raw = rng.uniform(0.2, 1.0, size=(2, n))
            pair = ProbabilityPair.from_raw(m, raw[0], raw[1])
            u0 = rng.uniform(0.5, 2.0, n)
            d_pq = phi_divergence(fam, pair, u0)
            d_qp = phi_divergence(fam, pair.swapped(), u0)
            assert limit_divergence(fam, pair, u0=u0, endpoint=1).value == pytest.approx(d_pq, abs=1e-7)
            assert limit_divergence(fam, pair, u0=u0, endpoint=0).value == pytest.approx(d_qp, abs=1e-7)
            slope1 = -kappa_derivative_at_endpoint(fam, pair, 1, u0=u0)
            slope0 = kappa_derivative_at_endpoint(fam, pair, 0, u0=u0)
            assert slope1 == pytest.approx(d_pq, rel=1e-4, abs=1e-12)
            assert slope0 == pytest.approx(d_qp, rel=1e-4, abs=1e-12)

    def test_divergent_numerator_and_denominator_reported_distinctly(self):
        from deformed_renyi.divergences import DivergentNumerator

        pair = ProbabilityPair(Counting(2), [0.4, 0.6], [0.7, 0.3])

        class FlatSlope(ClassicalExp):
            # zero inverse-derivative makes both quotients blow up
            def _phi_inv_deriv(self, v, out):
                out[...] = 0.0
                return out

        with pytest.raises(DivergentNumerator):
            phi_divergence(FlatSlope(), pair)

        class HugeSlope(ClassicalExp):
            # numerator stays finite, denominator underflows to zero
            def _phi_inv_deriv(self, v, out):
                out[...] = math.inf
                return out

        with pytest.raises(DivergentDenominator):
            phi_divergence(HugeSlope(), pair)


class TestTabulatedDensityChecks:
    """The solver, interpolation_base and phi_divergence invert a pair's
    densities through the family's hooks, past the public maps' v > 0 check;
    a table's own range and flat-value checks still raise the public maps'
    errors."""

    FLAT_BOTTOM = TabulatedMonotone([(-10.0, 0.25), (0.0, 0.25), (10.0, 5.0)])  # phi in [0.25, 5]
    CALLERS = {
        "solve_kappa": lambda fam, pair: solve_kappa(fam, pair, 0.5),
        "sweep": lambda fam, pair: sweep(fam, pair, [0.3, 0.5, 0.7]),
        "interpolation_base": lambda fam, pair: interpolation_base(fam, pair, 0.5),
        "phi_divergence": phi_divergence,
    }

    @pytest.mark.parametrize("caller", list(CALLERS))
    @pytest.mark.parametrize("density, message", [
        ([0.1, 0.9], "v outside tabulated phi range"),
        ([0.25, 0.75], "phi_inv hit a flat tabulated segment; preimage is ambiguous"),
    ], ids=["out-of-range", "flat"])
    def test_table_checks_raise(self, caller, density, message):
        pair = ProbabilityPair(Counting(2), density, [0.5, 0.5])
        for p_or_q in (pair, pair.swapped()):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                self.CALLERS[caller](self.FLAT_BOTTOM, p_or_q)


class TestClassicalOracles:
    def test_kl_identity_and_frozen(self):
        same = ProbabilityPair(Counting(2), [0.25, 0.75], [0.25, 0.75])
        assert kl_divergence(same) == pytest.approx(0.0, abs=1e-15)
        assert kl_divergence(PAIR) == pytest.approx(KL_PQ, abs=1e-15)

    def test_tsallis_identity_zero(self):
        same = ProbabilityPair(Counting(2), [0.25, 0.75], [0.25, 0.75])
        assert tsallis_relative_entropy(same, 1.5) == pytest.approx(0.0, abs=1e-15)

    def test_tsallis_vs_kl_mild_pair(self):
        # |D_q - KL| <= |1-q| * int p ln^2(p/q): tight for a mild pair
        pair = ProbabilityPair(Counting(2), [0.5, 0.5], [0.52, 0.48])
        for q in (1.0 - 1e-4, 1.0 + 1e-4):
            assert tsallis_relative_entropy(pair, q) == pytest.approx(kl_divergence(pair), abs=1e-6)

    def test_tsallis_linear_convergence_envelope(self):
        second_moment = float(np.sum(PAIR.p * np.log(PAIR.p / PAIR.q) ** 2))
        for dq in (1e-2, 1e-3, 1e-4):
            for q in (1.0 - dq, 1.0 + dq):
                gap = abs(tsallis_relative_entropy(PAIR, q) - kl_divergence(PAIR))
                assert gap <= dq * second_moment

    def test_tsallis_rejects_q_one(self):
        with pytest.raises(ValueError):
            tsallis_relative_entropy(PAIR, 1.0)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_tsallis_rejects_non_finite_q(self, q):
        with pytest.raises(ValueError, match="^q_param must be finite"):
            tsallis_relative_entropy(PAIR, q)

    @pytest.mark.parametrize("q", [1e308, -1e308, -800.0])
    def test_tsallis_overflow_names_q(self, q):
        # ln_q(p/q) overflows float64; the error names q_param and no warning leaks
        with pytest.raises(ValueError, match=re.escape(f"not finite in float64 at q_param={q}") + "$"):
            tsallis_relative_entropy(PAIR, q)


class TestLimitDivergence:
    def test_identity_limit_zero(self):
        pair = ProbabilityPair(Counting(2), [0.4, 0.6], [0.4, 0.6])
        est = limit_divergence(ClassicalExp(), pair, endpoint=1)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_classical_endpoint_one_is_kl(self):
        est = limit_divergence(ClassicalExp(), PAIR, endpoint=1)
        assert est.converged
        assert est.value == pytest.approx(KL_PQ, abs=1e-4)

    def test_classical_endpoint_zero_is_reversed_kl(self):
        est = limit_divergence(ClassicalExp(), PAIR, endpoint=0)
        assert est.converged
        assert est.value == pytest.approx(KL_QP, abs=1e-4)

    def test_table_is_emitted(self):
        est = limit_divergence(ClassicalExp(), PAIR, endpoint=1)
        assert len(est.table) == 11
        alphas = [a for a, _ in est.table]
        assert alphas == sorted(alphas)

    def test_richardson_beats_raw(self):
        est = limit_divergence(ClassicalExp(), PAIR, endpoint=1)
        assert abs(est.value - KL_PQ) < abs(est.raw_last - KL_PQ)

    def test_bad_sequences_rejected(self):
        with pytest.raises(ValueError):
            limit_divergence(ClassicalExp(), PAIR, endpoint=2)


class TestEndpointDerivative:
    """The endpoint slope of the solved shift equals the phi-divergence
    (with the arguments swapped at the lower endpoint)."""

    @pytest.mark.parametrize("fam", [ClassicalExp(), KaniadakisKappa(0.5)], ids=["exp", "kaniadakis"])
    def test_matches_phi_divergence(self, fam):
        d1 = -kappa_derivative_at_endpoint(fam, PAIR, 1)
        assert d1 == pytest.approx(phi_divergence(fam, PAIR), rel=1e-3)
        d0 = kappa_derivative_at_endpoint(fam, PAIR, 0)
        assert d0 == pytest.approx(phi_divergence(fam, PAIR.swapped()), rel=1e-3)

    @pytest.mark.parametrize("endpoint, alpha", [(0, 1e-5), (1, 1.0 - 1e-5)])
    def test_failed_solve_raises(self, endpoint, alpha):
        # at u0 = 1e-15 the one solve fails its bracket; the slope used to
        # read +-inf where limit_divergence raises
        pair = ProbabilityPair(Counting(3), [0.2, 0.3, 0.5], [0.5, 0.25, 0.25])
        assert solve_kappa(ClassicalExp(), pair, alpha, u0=1e-15).status is SolveStatus.BRACKET_FAILURE
        with pytest.raises(ArithmeticError, match=re.escape(f"solver status bracket_failure at alpha={alpha}")):
            kappa_derivative_at_endpoint(ClassicalExp(), pair, endpoint, u0=1e-15)
        with pytest.raises(ArithmeticError, match="solver status bracket_failure"):
            limit_divergence(ClassicalExp(), pair, u0=1e-15, endpoint=endpoint)


def test_report_status_passthrough():
    from deformed_renyi.existence import build_divergent_pair

    pair = build_divergent_pair()
    report = generalized_renyi(CounterexamplePhi(), pair, 0.5)
    assert report.status is SolveStatus.DIVERGENT_INTEGRAL
    assert report.value == math.inf
    assert report.to_json()["value"] == "inf"
