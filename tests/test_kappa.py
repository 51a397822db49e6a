import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformed_renyi.families import (
    ClassicalExp,
    CounterexamplePhi,
    KaniadakisKappa,
    TsallisQ,
)
from deformed_renyi.kappa import (
    KAPPA_MAX,
    SolveStatus,
    classical_kappa,
    normalization_functional,
    solve_kappa,
)
from deformed_renyi.measures import Counting, ProbabilityPair

FAMILIES = [ClassicalExp(), TsallisQ(0.5), TsallisQ(2.0), KaniadakisKappa(0.5), CounterexamplePhi()]

PAIR = ProbabilityPair(Counting(2), [0.5, 0.5], [0.9, 0.1])


def random_pair(rng, size):
    raw = rng.uniform(0.05, 1.0, size=(2, size))
    return ProbabilityPair.from_raw(Counting(size), raw[0], raw[1])


class TestNormalizationFunctional:
    def test_identical_pair_collapses_to_one(self):
        pair = ProbabilityPair(Counting(3), [0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
        for fam in FAMILIES:
            for alpha in (0.1, 0.5, 0.9):
                n0 = normalization_functional(fam, pair, alpha, 1.0, 0.0)
                assert n0 == pytest.approx(1.0, abs=1e-12), repr(fam)

    def test_classical_closed_form(self):
        # N(kappa) = e^kappa * sum p^alpha q^(1-alpha) for the exponential with u0 = 1
        hellinger = math.sqrt(0.5 * 0.9) + math.sqrt(0.5 * 0.1)
        assert hellinger == pytest.approx(0.8944271909999159, abs=1e-15)
        for kappa in (0.0, 0.07, 0.3):
            n = normalization_functional(ClassicalExp(), PAIR, 0.5, 1.0, kappa)
            assert n == pytest.approx(math.exp(kappa) * hellinger, rel=1e-14)

    def test_saturated_integrand_returns_inf(self):
        from deformed_renyi.existence import build_divergent_pair

        pair = build_divergent_pair()
        assert normalization_functional(CounterexamplePhi(), pair, 0.5, 1.0, 10.0) == math.inf

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            normalization_functional(ClassicalExp(), PAIR, 0.5, -1.0, 0.0)
        with pytest.raises(ValueError):
            normalization_functional(ClassicalExp(), PAIR, 0.5, 1.0, math.inf)
        with pytest.raises(ValueError):
            normalization_functional(ClassicalExp(), PAIR, 1.5, 1.0, 0.0)


class TestConvexityBound:
    """N(0) <= 1 is forced by convexity of phi."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.floats(min_value=0.01, max_value=0.99))
    def test_n_zero_below_one(self, size, seed, alpha):
        rng = np.random.default_rng(seed)
        pair = random_pair(rng, size)
        fam = FAMILIES[seed % len(FAMILIES)]
        assert normalization_functional(fam, pair, alpha, 1.0, 0.0) <= 1.0 + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_monotone_in_kappa(self, seed):
        rng = np.random.default_rng(seed)
        pair = random_pair(rng, int(rng.integers(2, 12)))
        fam = FAMILIES[seed % len(FAMILIES)]
        alpha = float(rng.uniform(0.05, 0.95))
        kappas = np.sort(rng.uniform(0.0, 3.0, size=4))
        values = [normalization_functional(fam, pair, alpha, 1.0, float(k)) for k in kappas]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo * (1 - 1e-12)


class TestSolve:
    def test_identity_pair_gives_exact_zero(self):
        pair = ProbabilityPair(Counting(4), [0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4])
        for fam in FAMILIES:
            for alpha in (0.15, 0.5, 0.85):
                res = solve_kappa(fam, pair, alpha)
                assert res.status is SolveStatus.CONVERGED
                assert res.kappa == 0.0
                assert res.bracket == (0.0, 0.0)

    def test_classical_oracle_value(self):
        res = solve_kappa(ClassicalExp(), PAIR, 0.5)
        assert res.status is SolveStatus.CONVERGED
        assert res.kappa == pytest.approx(0.11157177565710491, abs=1e-10)
        assert abs(res.residual) <= 1e-12

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            pair = random_pair(rng, int(rng.integers(2, 32)))
            for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
                res = solve_kappa(ClassicalExp(), pair, alpha)
                assert res.status is SolveStatus.CONVERGED
                assert res.kappa == pytest.approx(classical_kappa(pair, alpha), abs=1e-10)

    def test_converged_invariants(self):
        rng = np.random.default_rng(7)
        for fam in FAMILIES:
            pair = random_pair(rng, 6)
            res = solve_kappa(fam, pair, 0.4)
            assert res.status is SolveStatus.CONVERGED
            assert res.kappa >= 0.0
            assert res.bracket[0] <= res.kappa <= res.bracket[1]
            assert abs(res.residual) <= 1e-12

    def test_divergent_integral_detected(self):
        from deformed_renyi.existence import build_divergent_pair

        pair = build_divergent_pair()
        res = solve_kappa(CounterexamplePhi(), pair, 0.5)
        assert res.status is SolveStatus.DIVERGENT_INTEGRAL
        assert res.kappa == math.inf
        assert res.last_finite is not None
        kappa_last, n_last = res.last_finite
        assert n_last < 1.0
        assert math.isfinite(n_last)

    def test_bracket_failure_reported_not_extrapolated(self):
        # kappa scales as 1/u0 for exp: about 1.1e8 here, beyond KAPPA_MAX
        res = solve_kappa(ClassicalExp(), PAIR, 0.5, u0=1e-9)
        assert res.status is SolveStatus.BRACKET_FAILURE
        assert res.kappa == math.inf
        assert res.bracket == (KAPPA_MAX, math.inf)
        assert res.last_finite[1] < 1.0

    def test_alpha_endpoints_rejected(self):
        for alpha in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                solve_kappa(ClassicalExp(), PAIR, alpha)

    def test_array_u0(self):
        u0 = np.array([0.5, 2.0])
        res = solve_kappa(ClassicalExp(), PAIR, 0.5, u0=u0)
        assert res.status is SolveStatus.CONVERGED
        n = normalization_functional(ClassicalExp(), PAIR, 0.5, u0, res.kappa)
        assert n == pytest.approx(1.0, abs=1e-12)

    def test_u0_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_kappa(ClassicalExp(), PAIR, 0.5, u0=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            solve_kappa(ClassicalExp(), PAIR, 0.5, u0=-1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_solution_property(self, seed):
        rng = np.random.default_rng(seed)
        fam = FAMILIES[seed % len(FAMILIES)]
        pair = random_pair(rng, int(rng.integers(2, 24)))
        alpha = float(rng.uniform(0.05, 0.95))
        res = solve_kappa(fam, pair, alpha)
        assert res.status is SolveStatus.CONVERGED
        n = normalization_functional(fam, pair, alpha, 1.0, res.kappa)
        assert n == pytest.approx(1.0, abs=1e-11)


def test_result_json_uses_finite_convention():
    res = solve_kappa(ClassicalExp(), PAIR, 0.5, u0=1e-9)
    obj = res.to_json()
    assert obj["kappa"] == "inf"
    assert obj["status"] == "bracket_failure"
