"""A scalar u0 stays a scalar: the solve and the sweep give the same answers
as for the broadcast array np.full(n, c), bit for bit when c is a power of
two, and u0 and tol are validated the same way by every entry point."""

import math
import re

import numpy as np
import pytest

from deformed_renyi.divergences import generalized_renyi, phi_divergence, sweep
from deformed_renyi.families import BUILTIN_FAMILIES, ClassicalExp, TabulatedMonotone, parse_family_spec
from deformed_renyi.kappa import _sweep_kappa, normalization_functional, solve_kappa
from deformed_renyi.measures import Counting, ProbabilityPair, QuadGrid

ALPHAS = (0.02, 0.37, 0.9)
EXP_KNOTS = np.linspace(-40.0, 40.0, 161)
FAMILIES = [parse_family_spec(s) for s in BUILTIN_FAMILIES] + [TabulatedMonotone(list(zip(EXP_KNOTS, np.exp(EXP_KNOTS))))]
FAMILY_IDS = list(BUILTIN_FAMILIES) + ["tabulated-exp"]
PAIR = ProbabilityPair(Counting(3), [0.2, 0.3, 0.5], [0.6, 0.3, 0.1])


def make_pair(measure_kind, n):
    measure = Counting(n) if measure_kind == "counting" else QuadGrid.trapezoid(0.0, 2.0, n)
    raw = np.random.default_rng(n).uniform(0.05, 1.0, size=(2, n))
    return ProbabilityPair.from_raw(measure, raw[0], raw[1])


def outcome(fn):
    """fn()'s results as (kappa, residual, bracket, iterations, status) rows,
    or the exception it raised as (type, text)."""
    try:
        results = fn()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [(r.kappa, r.residual, r.bracket, r.iterations, r.status) for r in results]


def hexed(rows):
    if isinstance(rows, tuple):
        return rows
    return [(kappa.hex(), residual.hex(), lo.hex(), hi.hex(), it, status)
            for kappa, residual, (lo, hi), it, status in rows]


@pytest.mark.parametrize("n", [8, 1000])
@pytest.mark.parametrize("measure_kind", ["counting", "trapezoid"])
@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
def test_scalar_u0_matches_broadcast_array(family, measure_kind, n):
    pair = make_pair(measure_kind, n)
    for c in (1.0, 2.0, 0.7):
        for u0 in (c, np.float64(c), np.array(c)):
            runs = {}
            for label, value in (("scalar", u0), ("array", np.full(n, c))):
                solves = outcome(lambda: [solve_kappa(family, pair, a, u0=value) for a in ALPHAS])
                swept = outcome(lambda: _sweep_kappa(family, pair, ALPHAS, value, 1e-12))
                runs[label] = (solves, swept)
            for scalar, array in zip(runs["scalar"], runs["array"]):
                if c != 0.7 or isinstance(array, tuple):
                    assert hexed(scalar) == hexed(array), c
                    continue
                # u0 N'(kappa) and the integral of u0 phi'(w) round differently
                assert [row[3:] for row in scalar] == [row[3:] for row in array]
                for got, want in zip(scalar, array):
                    assert abs(got[0] - want[0]) <= 1e-13


def test_scalar_u0_is_never_broadcast(monkeypatch):
    family = parse_family_spec("kaniadakis:0.5")
    pair = make_pair("trapezoid", 1000)

    def no_full(*args, **kwargs):
        raise AssertionError("a scalar u0 was broadcast with np.full")

    monkeypatch.setattr(np, "full", no_full)
    for u0 in (1.0, 0.7, np.float64(2.0), np.array(1.5)):
        solve_kappa(family, pair, 0.37, u0=u0)
        sweep(family, pair, ALPHAS, u0=u0)
        normalization_functional(family, pair, 0.37, u0, 0.1)
        phi_divergence(family, pair, u0=u0)


def test_array_u0_is_not_written():
    pair = make_pair("counting", 8)
    u0 = np.random.default_rng(3).uniform(0.5, 2.0, 8)
    before = u0.copy()
    solve_kappa(parse_family_spec("tsallis:0.5"), pair, 0.37, u0=u0)
    sweep(parse_family_spec("tsallis:0.5"), pair, ALPHAS, u0=u0)
    np.testing.assert_array_equal(u0, before)


ENTRY_POINTS = {
    "solve_kappa": lambda u0: solve_kappa(ClassicalExp(), PAIR, 0.5, u0=u0),
    "sweep": lambda u0: sweep(ClassicalExp(), PAIR, ALPHAS, u0=u0),
    "generalized_renyi": lambda u0: generalized_renyi(ClassicalExp(), PAIR, 0.5, u0=u0),
    "normalization_functional": lambda u0: normalization_functional(ClassicalExp(), PAIR, 0.5, u0, 0.0),
    "phi_divergence": lambda u0: phi_divergence(ClassicalExp(), PAIR, u0=u0),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_bad_u0_rejected(entry, bad):
    for u0 in (bad, np.float64(bad), np.array(bad), [1.0, bad, 1.0], np.array([bad, 1.0, 1.0]), [1.0, 1.0, bad]):
        with pytest.raises(ValueError, match=r"^u0 must be strictly positive and finite$"):
            entry(u0)


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_wrong_shape_u0_rejected(entry):
    for u0, shape in ((np.ones(2), "(2,)"), (np.ones((3, 1)), "(3, 1)"), ([0.0] * 4, "(4,)")):
        with pytest.raises(ValueError, match=rf"^u0 has shape {re.escape(shape)}, expected \(3,\)$"):
            entry(u0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_tol_must_be_positive_and_finite(bad):
    with pytest.raises(ValueError, match=r"^tol must be positive and finite$"):
        solve_kappa(ClassicalExp(), PAIR, 0.5, tol=bad)
    with pytest.raises(ValueError, match=r"^tol must be positive and finite$"):
        sweep(ClassicalExp(), PAIR, ALPHAS, tol=bad)
    with pytest.raises(ValueError, match=r"^tol must be positive and finite$"):
        generalized_renyi(ClassicalExp(), PAIR, 0.5, tol=bad)
