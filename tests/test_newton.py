"""The safeguarded Newton solve and the alpha sweep, which starts each alpha
from the previous converged alpha's divergence value, checked against the
reference bisection solve in reference_solver.py."""

import math

import numpy as np
import pytest

from deformed_renyi import kappa as kappa_module
from deformed_renyi.divergences import default_alpha_sequence, generalized_renyi, sweep
from deformed_renyi.families import BUILTIN_FAMILIES, ClassicalExp, TabulatedMonotone, parse_family_spec
from deformed_renyi.kappa import (
    KAPPA_MAX,
    SolveStatus,
    _sweep_kappa,
    classical_kappa,
    interpolation_base,
    normalization_functional,
    solve_kappa,
)
from deformed_renyi.measures import Counting, ProbabilityPair, QuadGrid
from reference_solver import bisection_kappa, slope

TOL = 1e-12
ALPHAS = (0.02, 0.1, 0.5, 0.9, 0.98)
EXP_KNOTS = np.linspace(-40.0, 40.0, 161)
FAMILIES = [parse_family_spec(s) for s in BUILTIN_FAMILIES] + [TabulatedMonotone(list(zip(EXP_KNOTS, np.exp(EXP_KNOTS))))]
FAMILY_IDS = list(BUILTIN_FAMILIES) + ["tabulated-exp"]
PAIR = ProbabilityPair(Counting(2), [0.5, 0.5], [0.9, 0.1])


def problem(measure_kind, n):
    """A pair on the measure and a per-atom u0, both seeded by the size."""
    measure = Counting(n) if measure_kind == "counting" else QuadGrid.trapezoid(0.0, 2.0, n)
    rng = np.random.default_rng(n)
    raw = rng.uniform(0.05, 1.0, size=(2, n))
    return ProbabilityPair.from_raw(measure, raw[0], raw[1]), rng.uniform(0.5, 2.0, n)


def check_against(family, pair, alpha, u0, result, reference):
    """Both converged to |N - 1| <= tol, so they differ by at most
    2 tol / N' over the kappa between them (N' is non-decreasing)."""
    assert result.status is SolveStatus.CONVERGED
    assert reference.status is SolveStatus.CONVERGED
    for kappa in (result.kappa, reference.kappa):
        assert abs(normalization_functional(family, pair, alpha, u0, kappa) - 1.0) <= TOL
    low = min(result.kappa, reference.kappa)
    assert abs(result.kappa - reference.kappa) <= 2.0 * TOL / slope(family, pair, alpha, u0, low)
    assert result.iterations <= 8
    assert result.bracket[0] <= result.kappa <= result.bracket[1]


@pytest.mark.parametrize("n", [8, 1000])
@pytest.mark.parametrize("measure_kind", ["counting", "trapezoid"])
@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
def test_newton_matches_bisection(family, measure_kind, n):
    pair, u0_array = problem(measure_kind, n)
    for u0 in (1.0, u0_array):
        for alpha in ALPHAS:
            result = solve_kappa(family, pair, alpha, u0=u0, tol=TOL)
            check_against(family, pair, alpha, u0, result, bisection_kappa(family, pair, alpha, u0=u0, tol=TOL))


@pytest.mark.parametrize("n", [8, 1000])
@pytest.mark.parametrize("measure_kind", ["counting", "trapezoid"])
@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
def test_sweep_matches_single_solves(family, measure_kind, n):
    pair, u0_array = problem(measure_kind, n)
    for u0 in (1.0, u0_array):
        reports = sweep(family, pair, ALPHAS, u0=u0, tol=TOL)
        assert [r.alpha for r in reports] == list(ALPHAS)
        # the first alpha starts cold, as a single solve does
        assert reports[0].solver == solve_kappa(family, pair, ALPHAS[0], u0=u0, tol=TOL)
        for alpha, report in zip(ALPHAS, reports):
            single = solve_kappa(family, pair, alpha, u0=u0, tol=TOL)
            check_against(family, pair, alpha, u0, report.solver, single)
            assert report.value == report.kappa / (alpha * (1.0 - alpha))
            assert report.value == pytest.approx(generalized_renyi(family, pair, alpha, u0=u0).value, rel=1e-9)


@pytest.mark.parametrize("n", [8, 1000, 100000])
@pytest.mark.parametrize("measure_kind", ["counting", "trapezoid"])
def test_log_step_is_exact_for_the_classical_case(measure_kind, n):
    """For exp with a scalar u0, log N is affine in kappa, so the first Newton
    step on log N lands on -log N(0), the closed form."""
    pair, _ = problem(measure_kind, n)
    for alpha in ALPHAS:
        result = solve_kappa(ClassicalExp(), pair, alpha, u0=1.0, tol=TOL)
        assert result.status is SolveStatus.CONVERGED
        assert result.iterations <= 3, alpha
        assert abs(result.kappa - classical_kappa(pair, alpha)) <= 1e-12, alpha


def test_unresolvable_tolerance_fails_as_bisection_does_in_fewer_evaluations():
    """tol finer than N resolves between the two floats around the root: both
    solvers give the same BRACKET_FAILURE, Newton with no more N-evaluations."""
    family = parse_family_spec("kaniadakis:0.5")
    pair = ProbabilityPair(Counting(2), [1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12])
    result = solve_kappa(family, pair, 0.02, tol=TOL)
    reference = bisection_kappa(family, pair, 0.02, tol=TOL)
    assert result.status is reference.status is SolveStatus.BRACKET_FAILURE
    assert result.kappa == reference.kappa
    assert result.residual == reference.residual
    assert result.bracket == reference.bracket
    assert result.iterations <= reference.iterations


def test_warm_start_above_the_root_falls_back_to_n_at_zero(monkeypatch):
    """From guess 10 the first Newton step on log N leaves [0, 10] while N(0)
    is still unevaluated, so the solve evaluates N(0) next, as a cold start
    does, and converges to the cold solve's root (~0.40)."""
    family = parse_family_spec("kaniadakis:0.5")
    pair, _ = problem("counting", 50)
    cold = solve_kappa(family, pair, 0.5, tol=TOL)
    kappas = []
    observe = kappa_module._Root.observe

    def spy(root, n, tol):
        kappas.append(root.kappa)
        return observe(root, n, tol)

    monkeypatch.setattr(kappa_module._Root, "observe", spy)
    base = interpolation_base(family, pair, 0.5)
    root = kappa_module._Root(0.5, 10.0)
    kappa_module._solve(family, pair.measure, 1.0, TOL, [root], base, *np.empty((3, base.size)))
    result = root.result
    assert kappas[:2] == [10.0, 0.0]
    assert result.status is SolveStatus.CONVERGED
    assert result.kappa == cold.kappa


class TestSweep:
    @pytest.mark.parametrize("alphas", [[], np.array([])], ids=["list", "array"])
    def test_empty_sweep(self, alphas):
        assert sweep(ClassicalExp(), PAIR, alphas) == []
        # the tol and u0 checks still run
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            sweep(ClassicalExp(), PAIR, alphas, tol=0.0)
        with pytest.raises(ValueError, match="u0 must be strictly positive and finite"):
            sweep(ClassicalExp(), PAIR, alphas, u0=-1.0)
        with pytest.raises(ValueError, match="u0 has shape"):
            sweep(ClassicalExp(), PAIR, alphas, u0=[1.0, 2.0, 3.0])

    def test_bracket_failure_mid_sweep_then_cold_restart(self):
        alphas = [0.05, 0.5, 0.95]
        kappas = [solve_kappa(ClassicalExp(), PAIR, a).kappa for a in alphas]
        # kappa scales as 1/u0 for exp, so with this u0 only the middle
        # alpha's kappa lies beyond KAPPA_MAX
        u0 = 0.5 * (max(kappas[0], kappas[2]) + kappas[1]) / KAPPA_MAX
        results = _sweep_kappa(ClassicalExp(), PAIR, alphas, u0, TOL)
        assert [r.status for r in results] == [
            SolveStatus.CONVERGED, SolveStatus.BRACKET_FAILURE, SolveStatus.CONVERGED]
        assert results[1].kappa == math.inf
        for alpha, result in zip(alphas[::2], results[::2]):
            single = solve_kappa(ClassicalExp(), PAIR, alpha, u0=u0)
            check_against(ClassicalExp(), PAIR, alpha, u0, result, single)

    def test_phi_inv_called_once_per_density(self):
        """The sweep inverts each of the pair's densities once, through the
        hook: the public map would check them positive again."""
        class CountingExp(ClassicalExp):
            hook_calls = public_calls = 0

            def _phi_inv(self, v, out):
                self.hook_calls += 1
                return super()._phi_inv(v, out)

            def phi_inv(self, v):
                self.public_calls += 1
                return super().phi_inv(v)

        family = CountingExp()
        pair, _ = problem("counting", 1000)
        sweep(family, pair, np.linspace(0.02, 0.98, 49))
        assert (family.hook_calls, family.public_calls) == (2, 0)

    def test_predictor_saves_evaluations(self):
        """Starting from the previous divergence value never costs more
        N-evaluations than a cold start at every alpha: on both measures,
        for a scalar and a per-atom u0, on the 49-point grid, the CLI's
        19-point default and both endpoint limit sequences."""
        grids = [np.linspace(0.02, 0.98, 49), np.linspace(0.05, 0.95, 19),
                 default_alpha_sequence(1), default_alpha_sequence(0)]
        for measure_kind in ("counting", "trapezoid"):
            pair, u0_array = problem(measure_kind, 1000)
            for u0 in (1.0, u0_array):
                for alphas in grids:
                    for family in FAMILIES:
                        warm = sum(r.solver.iterations for r in sweep(family, pair, alphas, u0=u0))
                        cold = sum(solve_kappa(family, pair, float(a), u0=u0).iterations for a in alphas)
                        assert warm <= cold, (repr(family), measure_kind, alphas[0])

    def test_alphas_validated_before_any_solve(self):
        with pytest.raises(ValueError, match="alpha must be in"):
            sweep(ClassicalExp(), PAIR, [0.5, 1.0])


class NanAbove(ClassicalExp):
    """exp whose log phi is NaN above u = -0.35, so that N(kappa) is NaN for
    kappa above ~0.05 on PAIR at alpha 0.5, below the root 0.1116."""

    def _log_phi(self, u, out):
        np.copyto(out, u)
        out[u > -0.35] = np.nan
        return out


def test_nan_normalization_is_an_error_not_divergent():
    with pytest.raises(ArithmeticError, match="NaN at kappa"):
        solve_kappa(NanAbove(), PAIR, 0.5)
    with pytest.raises(ArithmeticError, match="NaN at kappa"):
        sweep(NanAbove(), PAIR, [0.1, 0.5])
