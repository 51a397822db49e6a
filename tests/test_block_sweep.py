"""The block sweep solver: a sweep solves its first alpha alone and the rest
in chunks of max(1, ENVELOPE_BLOCK // n) rows, one phi call per step for a
whole chunk.  Checked against the reference bisection solve in
reference_solver.py, and on multi-chunk sweeps (n = 1e4, chunks of 3 rows)
for the bracket failure, the per-chunk warm start and the NaN error."""

import math

import numpy as np
import pytest

from deformed_renyi import kappa as kappa_module
from deformed_renyi.divergences import default_alpha_sequence, generalized_renyi, sweep
from deformed_renyi.families import ClassicalExp
from deformed_renyi.kappa import ENVELOPE_BLOCK, KAPPA_MAX, SolveStatus, _sweep_kappa, solve_kappa
from deformed_renyi.measures import Counting, ProbabilityPair
from reference_solver import bisection_kappa
from test_newton import FAMILIES, FAMILY_IDS, PAIR, TOL, NanAbove, check_against, problem

CLI_GRID = np.linspace(0.05, 0.95, 19)
GRIDS = {"grid49": np.linspace(0.02, 0.98, 49), "cli19": CLI_GRID,
         "limit1": default_alpha_sequence(1), "limit0": default_alpha_sequence(0)}
# PAIR on 2 * COPIES atoms, each with 1/COPIES of the mass: kappa is
# unchanged, and each chunk holds ENVELOPE_BLOCK // 10000 = 3 rows
COPIES = 5000
TILED = ProbabilityPair(Counting(2 * COPIES), np.repeat(PAIR.p / COPIES, COPIES), np.repeat(PAIR.q / COPIES, COPIES))


@pytest.mark.parametrize("n", [8, 1000, 10000])
@pytest.mark.parametrize("measure_kind", ["counting", "trapezoid"])
@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
def test_block_sweep_matches_reference(family, measure_kind, n):
    """Same statuses as the reference bisection and |kappa - reference| <=
    1e-10 on every grid; the first alpha is the single solve, bit for bit."""
    pair, u0_array = problem(measure_kind, n)
    for u0 in (1.0, u0_array):
        for name, alphas in GRIDS.items():
            reports = sweep(family, pair, alphas, u0=u0, tol=TOL)
            assert reports[0].solver == solve_kappa(family, pair, float(alphas[0]), u0=u0, tol=TOL)
            for alpha, report in zip(alphas, reports):
                reference = bisection_kappa(family, pair, float(alpha), u0=u0, tol=TOL)
                assert report.status is reference.status, (name, alpha)
                assert abs(report.kappa - reference.kappa) <= 1e-10, (name, alpha)


def test_chunk_rows():
    """The chunk height the module docstring states, at the sizes used here."""
    assert ENVELOPE_BLOCK // TILED.measure.size == 3
    assert ENVELOPE_BLOCK // 8 >= len(CLI_GRID) - 1


def test_bracket_failure_in_whole_chunks_then_cold_chunk(monkeypatch):
    """On TILED with the CLI grid, u0 puts kappa beyond KAPPA_MAX at alphas
    0.4 to 0.65 only: the chunks (0.4, 0.45, 0.5) and (0.55, 0.6, 0.65) fail
    whole.  The first of them starts warm from 0.35's divergence value, the
    two chunks after a failed chunk start cold, and every status is the
    single solve's."""
    guesses = {}

    class Spy(kappa_module._Root):
        __slots__ = ()

        def __init__(self, alpha, guess):
            guesses[alpha] = guess
            super().__init__(alpha, guess)

    family = ClassicalExp()
    kappas = {round(a, 2): solve_kappa(family, TILED, float(a)).kappa for a in CLI_GRID}
    # kappa scales as 1/u0 for exp; kappa(0.7) < kappa(0.4) < kappa(0.65)
    assert max(kappas[0.35], kappas[0.7]) < min(kappas[0.4], kappas[0.65])
    u0 = 0.5 * (kappas[0.7] + kappas[0.4]) / KAPPA_MAX
    monkeypatch.setattr(kappa_module, "_Root", Spy)
    results = _sweep_kappa(family, TILED, CLI_GRID, u0, TOL)
    cold = [round(a, 2) for a, guess in guesses.items() if guess == 0.0]
    assert cold == [0.05, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8]
    failing = [0.4 <= round(a, 2) <= 0.65 for a in CLI_GRID]
    assert [r.status is SolveStatus.BRACKET_FAILURE for r in results] == failing
    for alpha, result, fails in zip(CLI_GRID, results, failing):
        single = solve_kappa(family, TILED, float(alpha), u0=u0)
        assert result.status is single.status
        if fails:
            assert result.kappa == math.inf
        else:
            check_against(family, TILED, float(alpha), u0, result, single)


class NanAboveTiled(NanAbove):
    """NanAbove on TILED: log phi is NaN where it would be on PAIR."""

    def _log_phi(self, u, out):
        super()._log_phi(u + math.log(COPIES), out)
        return np.subtract(out, math.log(COPIES), out=out)


def test_nan_normalization_in_a_chunk_is_an_error():
    """The first alpha and the first chunk stay below the NaN region; alpha
    0.5, in the second chunk, cannot reach its root without it."""
    alphas = [0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.5]
    for report in sweep(NanAboveTiled(), TILED, alphas[:6]):
        assert report.status is SolveStatus.CONVERGED
    with pytest.raises(ArithmeticError, match=r"NaN at kappa .*alpha = 0\.5\)"):
        sweep(NanAboveTiled(), TILED, alphas)
    with pytest.raises(ArithmeticError, match="NaN at kappa"):
        generalized_renyi(NanAboveTiled(), TILED, 0.5)


# phi evaluations (calls of _log_phi) of a 19-alpha sweep on problem("counting", 8):
# the first alpha's N-evaluations, then the steps of one chunk of 18 rows.
# tsallis:2 is linear where phi > 0, so N(0) = 1 and each alpha takes one.
BLOCK_EVALUATIONS = {
    "exp": 4, "tsallis:0.5": 7, "tsallis:2": 2, "kaniadakis:0.5": 7,
    "kaniadakis:-0.5": 7, "counterexample": 4, "tabulated-exp": 4,
}


@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
def test_block_evaluations_of_a_cli_sweep(family, monkeypatch):
    """One phi call per step for the whole chunk: the chunk costs as many
    calls as its slowest row takes N-evaluations."""
    pair, _ = problem("counting", 8)
    shapes = []
    log_phi = family._log_phi

    def counted(u, out):
        shapes.append(u.shape)
        return log_phi(u, out)

    monkeypatch.setattr(family, "_log_phi", counted)
    reports = sweep(family, pair, CLI_GRID)
    first = reports[0].solver.iterations
    assert shapes[:first] == [(8,)] * first
    assert all(len(shape) == 2 for shape in shapes[first:])
    assert shapes[first] == (18, 8)
    assert max(r.solver.iterations for r in reports[1:]) == len(shapes) - first
    assert len(shapes) == BLOCK_EVALUATIONS[FAMILY_IDS[FAMILIES.index(family)]]
