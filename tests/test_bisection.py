"""The batched scan-and-refine bisection and the row-blocked envelope check
against their one-point-at-a-time and full-grid references, and the number
of predicate calls the probes make."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_bisection import refine_last

from deformed_renyi import existence
from deformed_renyi.existence import (
    BISECT_DEPTH,
    ENVELOPE_BLOCK,
    LOG_SLACK,
    _refine_last,
    construct_u0_sequence,
    growth_envelope_check,
    verify_kaniadakis_u0,
)
from deformed_renyi.families import (
    ClassicalExp,
    CounterexamplePhi,
    KaniadakisKappa,
    TabulatedMonotone,
    parse_family_spec,
)

EXP_KNOTS = np.linspace(-40.0, 40.0, 161)


class Counted:
    """An array predicate that counts its calls."""

    def __init__(self, pred):
        self.pred, self.calls = pred, 0

    def __call__(self, x):
        self.calls += 1
        return self.pred(x)


def hashed_predicate(key: int, share: float):
    """True on a pseudo-random share of the float64 bit patterns: elementwise,
    deterministic, and with no monotone structure at any bisection depth."""

    def pred(x):
        h = np.ascontiguousarray(x, dtype=float).view(np.uint64) * np.uint64(key)
        h ^= h >> np.uint64(29)
        h *= np.uint64(0x9E3779B97F4A7C15)
        return (h >> np.uint64(11)).astype(float) < share * 2.0 ** 53

    return pred


wide_grids = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40, unique=True)


@st.composite
def narrow_grids(draw):
    # a few ulps between grid points, so the bisection stops inside a tree
    base = draw(st.floats(-1e3, 1e3, allow_nan=False))
    steps = draw(st.lists(st.integers(1, 300), min_size=1, max_size=8))
    grid = base + np.cumsum([0] + steps) * np.spacing(base)
    return list(np.unique(grid))


@settings(max_examples=300, deadline=None)
@given(
    grid=st.one_of(wide_grids, narrow_grids()),
    key=st.integers(1, 2 ** 63 - 1).map(lambda k: 2 * k + 1),
    share=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    tol=st.sampled_from([0.0, 1e-10, 1e-3]),
)
def test_bracket_matches_scalar_reference(grid, key, share, tol):
    grid = np.sort(np.asarray(grid, dtype=float))
    pred = hashed_predicate(key, share)
    reference, batched = Counted(pred), Counted(pred)
    expected = refine_last(reference, grid, tol)
    got = _refine_last(batched, grid, tol)
    if expected is None:
        assert got is None
        assert batched.calls == 1
        return
    assert [float(x).hex() for x in got] == [float(x).hex() for x in expected]
    # one call for the grid, then one per BISECT_DEPTH scalar steps
    steps = reference.calls - 1
    assert batched.calls == 1 + math.ceil(steps / BISECT_DEPTH)


@pytest.mark.parametrize("tol", [0.0, 1e-10, 1e-3])
def test_hit_on_last_grid_point_is_a_point_bracket(tol):
    grid = np.linspace(-3.0, 7.0, 11)
    pred = Counted(lambda x: np.ones(np.shape(x), dtype=bool))
    lo, hi = _refine_last(pred, grid, tol)
    assert lo == hi == 7.0
    assert refine_last(pred.pred, grid, tol) == (lo, hi)
    assert pred.calls == 1


def full_grid_envelope(family, K, lambda0, c, u_grid, v_grid):
    """(counterexamples, n_checked) of the envelope on the whole (u, v) grid at once."""
    lam = math.log(K) / lambda0
    u = np.asarray(u_grid, dtype=float)
    u = u[u >= c]
    v = np.asarray(v_grid, dtype=float)
    lhs = np.asarray(family.log_phi(u[:, None] + v[None, :]))
    rhs = math.log(K) + np.asarray(family.log_phi(u))[:, None] + lam * v[None, :]
    i, j = np.nonzero(lhs > rhs + LOG_SLACK)
    return np.column_stack([u[i], v[j], lhs[i, j], rhs[i, j]]), lhs.size


def assert_rows_array(counterexamples):
    """The layout np.concatenate of (k, 4) float blocks gave."""
    assert counterexamples.ndim == 2 and counterexamples.shape[1] == 4
    assert counterexamples.dtype == np.float64
    assert counterexamples.flags.c_contiguous


@pytest.mark.parametrize("family, K, c, u_grid, v_grid", [
    # the probe defaults: 2001 u rows in blocks of 163, the first ones
    # without violations
    (CounterexamplePhi(), math.e, -math.inf, np.linspace(-50.0, 200.0, 2001), np.linspace(0.0, 20.0, 201)),
    (parse_family_spec("tsallis:2"), 1.2, 0.0, np.linspace(-50.0, 200.0, 2001), np.linspace(0.0, 20.0, 201)),
    # v longer than one block: one u row per block
    (CounterexamplePhi(), 1e6, 0.0, np.linspace(0.0, 60.0, 13), np.linspace(0.0, 30.0, ENVELOPE_BLOCK + 7)),
    # a single u row
    (parse_family_spec("kaniadakis:0.5"), 1.2, -math.inf, [5.0], np.linspace(0.0, 20.0, 201)),
    # the exp-knot table, with u + v inside its knot range
    (TabulatedMonotone(list(zip(EXP_KNOTS, np.exp(EXP_KNOTS)))), 1.2, -math.inf,
     np.linspace(-40.0, 20.0, 481), np.linspace(0.0, 20.0, 201)),
], ids=["counterexample-defaults", "tsallis-2", "long-v", "one-row", "exp-table"])
def test_envelope_matches_full_grid_reference(family, K, c, u_grid, v_grid):
    expected, n_checked = full_grid_envelope(family, K, 1.0, c, u_grid, v_grid)
    check = growth_envelope_check(family, K, 1.0, c, u_grid, v_grid)
    assert expected.shape[0] > 0
    # same rows, in the same row-major order, to the bit
    assert_rows_array(check.counterexamples)
    assert check.counterexamples.shape == expected.shape
    assert check.counterexamples.tobytes() == expected.tobytes()
    assert check.n_checked == n_checked
    assert not check.holds


def test_envelope_without_violations_is_empty():
    u, v = np.linspace(-20.0, 100.0, 241), np.linspace(0.0, 20.0, 401)
    check = growth_envelope_check(ClassicalExp(), math.e, 1.0, -math.inf, u, v)
    expected, n_checked = full_grid_envelope(ClassicalExp(), math.e, 1.0, -math.inf, u, v)
    assert check.holds
    assert_rows_array(check.counterexamples)
    assert check.counterexamples.shape == expected.shape == (0, 4)
    assert check.n_checked == n_checked == u.size * v.size


def test_envelope_holds_each_counterexample_row_once():
    # at the probe defaults 333 776 of the 402 201 (u, v) points fail; the
    # check may hold one block besides the 10.2 MiB of rows, not a second copy
    u, v = np.linspace(-50.0, 200.0, 2001), np.linspace(0.0, 20.0, 201)
    tracemalloc.start()
    try:
        check = growth_envelope_check(CounterexamplePhi(), math.e, 1.0, -math.inf, u, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check.counterexamples.shape == (333_776, 4)
    assert peak <= check.counterexamples.nbytes + 2 * 2 ** 20


def test_kaniadakis_certificate_slope_evaluations(monkeypatch):
    # g'(v) evaluations per certificate on the acceptance grid: the v grid
    # once, then one per BISECT_DEPTH bisection steps (a scalar bisection
    # made up to 50)
    counts = []

    class CountedKaniadakis(KaniadakisKappa):
        def phi_inv_deriv(self, v):
            counts[-1] += 1
            return super().phi_inv_deriv(v)

    monkeypatch.setattr(existence, "KaniadakisKappa", CountedKaniadakis)
    for kp in (0.25, -0.25, 0.5, -0.5, 1.0, -1.0):
        for alpha in (0.1, 0.25, 0.5, 0.9):
            counts.append(0)
            verify_kaniadakis_u0(kp, alpha)
    # g' calls phi_inv_deriv twice
    assert max(counts) // 2 <= 10


@pytest.mark.parametrize("spec", ["tsallis:0.5", "tsallis:2"])
def test_u0_construction_predicate_calls(monkeypatch, spec):
    # scalar bisection made 288 (tsallis:0.5) and 314 (tsallis:2) calls here
    preds = []
    refine = existence._refine_last

    def counted_refine(pred, grid, tol):
        preds.append(Counted(pred))
        return refine(preds[-1], grid, tol)

    monkeypatch.setattr(existence, "_refine_last", counted_refine)
    assert construct_u0_sequence(parse_family_spec(spec), 0.3).certificate_ok
    assert sum(p.calls for p in preds) <= 90

