"""The row-wise scan-and-refine bisection and the row-blocked envelope
check against their one-point-at-a-time and full-grid references, the u0
construction against its one-lambda-at-a-time reference, and the number of
predicate calls the probes make."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import reference_u0
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_bisection import refine_last

from deformed_renyi import existence
from deformed_renyi.existence import (
    BISECT_DEPTH,
    ENVELOPE_BLOCK,
    ENVELOPE_ROWS,
    LOG_SLACK,
    _bisect_last,
    _last_bracket,
    construct_u0_sequence,
    growth_envelope_check,
    verify_kaniadakis_u0,
)
from deformed_renyi.families import (
    BUILTIN_FAMILIES,
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

    def __call__(self, *args):
        self.calls += 1
        return self.pred(*args)


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


keys = st.integers(1, 2 ** 63 - 1).map(lambda k: 2 * k + 1)
shares = st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])
tols = st.sampled_from([0.0, 1e-10, 1e-3])


def refine_one(pred, grid, tol):
    """The scan, then the row-wise bisection of its bracket as the only row."""
    bracket = _last_bracket(pred(grid), grid)
    if bracket is None:
        return None
    (lo,), (hi,) = _bisect_last(lambda x, rows: pred(x), [bracket[0]], [bracket[1]], tol)
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(grid=st.one_of(wide_grids, narrow_grids()), key=keys, share=shares, tol=tols)
def test_bracket_matches_scalar_reference(grid, key, share, tol):
    grid = np.sort(np.asarray(grid, dtype=float))
    pred = hashed_predicate(key, share)
    reference, batched = Counted(pred), Counted(pred)
    expected = refine_last(reference, grid, tol)
    got = refine_one(batched, grid, tol)
    if expected is None:
        assert got is None
        assert batched.calls == 1
        return
    assert [float(x).hex() for x in got] == [float(x).hex() for x in expected]
    # one call for the grid, then one per BISECT_DEPTH scalar steps
    steps = reference.calls - 1
    assert batched.calls == 1 + math.ceil(steps / BISECT_DEPTH)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(st.one_of(wide_grids, narrow_grids()), keys, shares), min_size=2, max_size=8),
    tol=tols,
)
def test_rows_match_scalar_reference_one_at_a_time(rows, tol):
    # each row has its own grid and predicate, so rows stop at different depths
    preds, brackets, expected, depths = [], [], [], []
    for grid, key, share in rows:
        grid = np.sort(np.asarray(grid, dtype=float))
        pred = hashed_predicate(key, share)
        bracket = _last_bracket(pred(grid), grid)
        if bracket is None:
            continue
        reference = Counted(pred)
        expected.append(refine_last(reference, grid, tol))
        depths.append(math.ceil((reference.calls - 1) / BISECT_DEPTH))
        preds.append(pred)
        brackets.append(bracket)

    def rowwise(mids, live):
        assert mids.shape == (2 ** BISECT_DEPTH - 1, len(live))
        return np.column_stack([preds[r](mids[:, i]) for i, r in enumerate(live)])

    counted = Counted(rowwise)
    lo, hi = _bisect_last(counted, [b[0] for b in brackets], [b[1] for b in brackets], tol)
    assert [(a.hex(), b.hex()) for a, b in zip(lo, hi)] == [
        (float(a).hex(), float(b).hex()) for a, b in expected
    ]
    assert counted.calls == max(depths, default=0)


@pytest.mark.parametrize("tol", [0.0, 1e-10, 1e-3])
def test_hit_on_last_grid_point_is_a_point_bracket(tol):
    grid = np.linspace(-3.0, 7.0, 11)
    pred = Counted(lambda x: np.ones(np.shape(x), dtype=bool))
    lo, hi = refine_one(pred, grid, tol)
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
    # the first block fails only on its last rows (u + v > sqrt 2), so the
    # kept rows come from two blocks
    (CounterexamplePhi(), math.e, -math.inf, np.linspace(-34.5, 30.0, 646), np.linspace(0.0, 20.0, 201)),
], ids=["counterexample-defaults", "tsallis-2", "long-v", "one-row", "exp-table", "two-blocks"])
def test_envelope_matches_full_grid_reference(family, K, c, u_grid, v_grid):
    expected, n_checked = full_grid_envelope(family, K, 1.0, c, u_grid, v_grid)
    check = growth_envelope_check(family, K, 1.0, c, u_grid, v_grid)
    assert expected.shape[0] > 0
    assert check.n_violations == expected.shape[0]
    # the first ENVELOPE_ROWS rows, in the same row-major order, to the bit
    assert_rows_array(check.counterexamples)
    assert check.counterexamples.shape == expected[:ENVELOPE_ROWS].shape
    assert check.counterexamples.tobytes() == expected[:ENVELOPE_ROWS].tobytes()
    assert check.n_checked == n_checked
    assert not check.holds


def test_envelope_rows_span_two_blocks():
    # the premise of the two-blocks case above
    u, v = np.linspace(-34.5, 30.0, 646), np.linspace(0.0, 20.0, 201)
    expected, _ = full_grid_envelope(CounterexamplePhi(), math.e, 1.0, -math.inf, u, v)
    first_block = np.count_nonzero(expected[:, 0] < u[ENVELOPE_BLOCK // v.size])
    assert 0 < first_block < ENVELOPE_ROWS < expected.shape[0]


def test_envelope_without_violations_is_empty():
    u, v = np.linspace(-20.0, 100.0, 241), np.linspace(0.0, 20.0, 401)
    check = growth_envelope_check(ClassicalExp(), math.e, 1.0, -math.inf, u, v)
    expected, n_checked = full_grid_envelope(ClassicalExp(), math.e, 1.0, -math.inf, u, v)
    assert check.holds
    assert check.n_violations == 0
    assert_rows_array(check.counterexamples)
    assert check.counterexamples.shape == expected.shape == (0, 4)
    assert check.n_checked == n_checked == u.size * v.size


def test_envelope_holds_each_counterexample_row_once():
    # at the probe defaults 333 776 of the 402 201 (u, v) points fail; the
    # check counts them and keeps the first 32, so it holds one block at a time
    u, v = np.linspace(-50.0, 200.0, 2001), np.linspace(0.0, 20.0, 201)
    tracemalloc.start()
    try:
        check = growth_envelope_check(CounterexamplePhi(), math.e, 1.0, -math.inf, u, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check.n_violations == 333_776
    assert check.counterexamples.shape == (ENVELOPE_ROWS, 4) == (32, 4)
    assert peak <= 2 * 2 ** 20


@pytest.mark.parametrize("u_grid, v_grid", [
    (np.linspace(-50.0, 200.0, 2001), np.linspace(0.0, 20.0, 201)),
    (np.linspace(0.0, 60.0, 13), np.linspace(0.0, 30.0, ENVELOPE_BLOCK + 7)),
], ids=["probe-defaults", "long-v"])
def test_envelope_evaluates_each_block_once(u_grid, v_grid):
    calls = []

    class CountedCounterexample(CounterexamplePhi):
        def _log_phi(self, u, out):
            calls.append(np.shape(u))
            return super()._log_phi(u, out)

    growth_envelope_check(CountedCounterexample(), math.e, 1.0, -math.inf, u_grid, v_grid)
    rows = max(1, ENVELOPE_BLOCK // v_grid.size)
    # one call for log phi(u), then one per block of u rows
    assert calls[0] == u_grid.shape
    assert len(calls) == 1 + math.ceil(u_grid.size / rows)


def test_kaniadakis_certificate_slope_evaluations(monkeypatch):
    # the certificate takes its minimizer in closed form: no g'(v) evaluation
    # (a phi_inv_deriv call) and no bisection, on the acceptance grid
    calls = []

    class CountedKaniadakis(KaniadakisKappa):
        def phi_inv_deriv(self, v):
            calls.append("phi_inv_deriv")
            return super().phi_inv_deriv(v)

    def counted_bisect(*args):
        calls.append("bisect")
        return _bisect_last(*args)

    monkeypatch.setattr(existence, "KaniadakisKappa", CountedKaniadakis)
    monkeypatch.setattr(existence, "_bisect_last", counted_bisect)
    for kp in (0.25, -0.25, 0.5, -0.5, 1.0, -1.0):
        for alpha in (0.1, 0.25, 0.5, 0.9):
            assert verify_kaniadakis_u0(kp, alpha).check
    assert calls == []


@pytest.mark.parametrize("spec", ["tsallis:0.5", "tsallis:2"])
def test_u0_construction_predicate_calls(monkeypatch, spec):
    # one call per boundary scan, then the bisection calls; scalar bisection
    # made 288 (tsallis:0.5) and 314 (tsallis:2) calls here, one bisection
    # per boundary 76 and 79, and the boundaries bisected together make 26
    # and 32
    calls = []
    last_bracket, bisect_last = existence._last_bracket, existence._bisect_last

    def counted_scan(holds, grid):
        calls.append("scan")
        return last_bracket(holds, grid)

    def counted_bisect(pred, lo, hi, tol):
        def counted(*args):
            calls.append("bisect")
            return pred(*args)

        return bisect_last(counted, lo, hi, tol)

    monkeypatch.setattr(existence, "_last_bracket", counted_scan)
    monkeypatch.setattr(existence, "_bisect_last", counted_bisect)
    assert construct_u0_sequence(parse_family_spec(spec), 0.3).certificate_ok
    assert len(calls) <= 40


FLAT_BOTTOM_KNOTS = np.array([-10.0, 5.0, 10.0, 40.0])
KANIADAKIS_KNOTS = np.linspace(-60.0, 60.0, 421)
U0_FAMILIES = [parse_family_spec(s) for s in BUILTIN_FAMILIES] + [
    TabulatedMonotone(list(zip(EXP_KNOTS, np.exp(EXP_KNOTS)))),
    TabulatedMonotone(list(zip(FLAT_BOTTOM_KNOTS, np.exp(np.maximum(FLAT_BOTTOM_KNOTS, 5.0))))),
    TabulatedMonotone(list(zip(KANIADAKIS_KNOTS, KaniadakisKappa(0.5).phi(KANIADAKIS_KNOTS)))),
]
U0_FAMILY_IDS = list(BUILTIN_FAMILIES) + ["exp-table", "flat-bottom-table", "kaniadakis-table"]


def construction_outcome(construct, family, alpha, **kwargs):
    """(c_sequence bytes, lambda_indices, to_json bytes), or the error."""
    try:
        con = construct(family, alpha, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    return con.c_sequence.tobytes(), con.lambda_indices, json.dumps(con.to_json()).encode()


@pytest.mark.parametrize("family", U0_FAMILIES, ids=U0_FAMILY_IDS)
def test_u0_construction_matches_one_lambda_at_a_time_reference(family):
    # the three-lambda sequence cannot supply 16 terms, and at large alphas
    # not even its eta: both error paths
    for alpha in np.linspace(0.02, 0.98, 9):
        for kwargs in ({"n_terms": 1}, {"n_terms": 16}, {"n_terms": 40},
                       {"lambda_sequence": [0.5, 0.25, 0.125], "n_terms": 1},
                       {"lambda_sequence": [0.5, 0.25, 0.125], "n_terms": 16}):
            expected = construction_outcome(reference_u0.construct_u0_sequence, family, float(alpha), **kwargs)
            assert construction_outcome(construct_u0_sequence, family, float(alpha), **kwargs) == expected
