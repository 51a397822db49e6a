import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformed_renyi.measures import (
    Counting,
    MeasureError,
    PairValidationError,
    ProbabilityPair,
    QuadGrid,
    SimpleNonAtomic,
    integrate,
    load_pair,
    normalize,
    save_pair,
)


class TestIntegrate:
    def test_counting_plain_sum(self):
        assert integrate(Counting(3), [0.2, 0.3, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_trapezoid_uniform_density(self):
        grid = QuadGrid.trapezoid(0.0, 1.0, 1001)
        assert integrate(grid, np.ones(grid.size)) == pytest.approx(1.0, abs=1e-9)

    def test_simple_nonatomic_geometric(self):
        pieces = [(f"piece_{n}", 2.0 ** -n) for n in range(1, 21)]
        m = SimpleNonAtomic(pieces)
        assert integrate(m, np.ones(20)) == pytest.approx(1.0 - 2.0 ** -20, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(MeasureError):
            integrate(Counting(3), [1.0, 2.0])

    def test_inf_propagates(self):
        assert integrate(Counting(2), [math.inf, 1.0]) == math.inf

    def test_signed_values_allowed(self):
        assert integrate(Counting(2), [-1.0, 3.0]) == pytest.approx(2.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8),
    st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
)
def test_integrate_linearity(f, g, a, b):
    n = min(len(f), len(g))
    f, g = np.asarray(f[:n]), np.asarray(g[:n])
    m = Counting(n)
    lhs = integrate(m, a * f + b * g)
    rhs = a * integrate(m, f) + b * integrate(m, g)
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))


class TestNormalize:
    def test_uniform(self):
        np.testing.assert_allclose(normalize(Counting(2), [1.0, 1.0]), [0.5, 0.5])

    def test_proportional(self):
        np.testing.assert_allclose(normalize(Counting(4), [1, 2, 3, 4]), [0.1, 0.2, 0.3, 0.4], rtol=1e-15)

    def test_quadgrid_exponential_closed_form(self):
        grid = QuadGrid.trapezoid(0.0, 10.0, 4096)
        raw = np.exp(-grid.nodes)
        density = normalize(grid, raw)
        expected = np.exp(-grid.nodes) / (1.0 - math.exp(-10.0))
        np.testing.assert_allclose(density, expected, rtol=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(MeasureError):
            normalize(Counting(2), [1.0, 0.0])
        with pytest.raises(MeasureError):
            normalize(Counting(2), [1.0, -1.0])

    def test_rejects_infinite_mass(self):
        with pytest.raises(MeasureError):
            normalize(Counting(2), [math.inf, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=16))
    def test_idempotent(self, raw):
        m = Counting(len(raw))
        once = normalize(m, raw)
        twice = normalize(m, once)
        np.testing.assert_allclose(twice, once, rtol=1e-12)
        assert integrate(m, once) == pytest.approx(1.0, abs=1e-12)


class TestQuadGrid:
    def test_trapezoid_exact_on_linear(self):
        grid = QuadGrid.trapezoid(-2.0, 3.0, 513)
        for a, b in [(1.0, 0.0), (0.0, 1.0), (2.5, -0.7)]:
            exact = a * (3.0 - (-2.0)) + b * (3.0 ** 2 - (-2.0) ** 2) / 2.0
            approx = integrate(grid, a + b * grid.nodes)
            assert approx == pytest.approx(exact, abs=1e-12 * max(1, abs(exact)))

    def test_invalid_construction(self):
        with pytest.raises(MeasureError):
            QuadGrid([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(MeasureError):
            QuadGrid([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(MeasureError):
            QuadGrid.trapezoid(1.0, 0.0, 10)

    @pytest.mark.parametrize("node", [math.nan, math.inf])
    def test_non_finite_node_rejected(self, node):
        # NaN fails every comparison, so a strictly-increasing test alone passes it
        with pytest.raises(MeasureError, match="^nodes must be finite$"):
            QuadGrid([0.0, 0.5, node], [0.25, 0.5, 0.25])

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(MeasureError, match="^weights must be finite$"):
            QuadGrid([0.0, 0.5, 1.0], [0.25, weight, 0.25])


class TestSimpleNonAtomic:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(MeasureError):
            SimpleNonAtomic([("a", 1.0), ("a", 2.0)])

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(MeasureError):
            SimpleNonAtomic([("a", 0.0)])

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_non_finite_mass_rejected(self, mass):
        with pytest.raises(MeasureError, match="^piece masses must be finite$"):
            SimpleNonAtomic([("a", 0.5), ("b", mass)])


class TestProbabilityPair:
    def test_positive_and_normalized_enforced(self):
        m = Counting(2)
        with pytest.raises(PairValidationError):
            ProbabilityPair(m, [0.5, 0.5], [1.5, 0.5])  # q not normalized
        with pytest.raises(PairValidationError):
            ProbabilityPair(m, [1.0, 0.0], [0.5, 0.5])  # zero entry

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_entry_named(self, bad):
        m = Counting(3)
        for name in ("p", "q"):
            for index, vals in ((1, [0.5, bad, 0.5]), (0, [bad, 0.5, math.nan]), (2, [0.5, 0.5, bad])):
                args = (vals, [0.2, 0.3, 0.5]) if name == "p" else ([0.2, 0.3, 0.5], vals)
                message = f"{name}[{index}] = {bad} is not strictly positive and finite"
                with pytest.raises(PairValidationError, match=f"^{re.escape(message)}$"):
                    ProbabilityPair(m, *args)

    def test_empty_measure_fails_normalization(self):
        empty = QuadGrid([], [])
        with pytest.raises(PairValidationError, match="^p integrates to 0.0, not 1$"):
            ProbabilityPair(empty, [], [])

    def test_nan_total_rejected(self):
        # a measure that bypasses the constructors' checks: |nan - 1| > tol is false
        class NanWeights:
            size = 2
            weights = np.array([math.nan, 1.0])

        with pytest.raises(PairValidationError, match="^p integrates to nan, not 1$"):
            ProbabilityPair(NanWeights(), [0.5, 0.5], [0.5, 0.5])

    def test_from_raw_normalizes(self):
        pair = ProbabilityPair.from_raw(Counting(3), [1, 1, 2], [3, 1, 1])
        assert integrate(pair.measure, pair.p) == pytest.approx(1.0, abs=1e-12)
        assert integrate(pair.measure, pair.q) == pytest.approx(1.0, abs=1e-12)

    def test_swapped(self):
        pair = ProbabilityPair(Counting(2), [0.4, 0.6], [0.7, 0.3])
        np.testing.assert_array_equal(pair.swapped().p, pair.q)

    def test_values_read_only(self):
        pair = ProbabilityPair(Counting(2), [0.4, 0.6], [0.7, 0.3])
        with pytest.raises(ValueError):
            pair.p[0] = 0.9


class TestPairIO:
    def _counting_pair(self):
        return ProbabilityPair(Counting(3), [0.2, 0.3, 0.5], [0.5, 0.25, 0.25])

    def test_csv_round_trip_counting(self, tmp_path):
        pair = self._counting_pair()
        path = tmp_path / "pair.csv"
        save_pair(pair, path)
        loaded = load_pair(path)
        np.testing.assert_array_equal(loaded.p, pair.p)
        np.testing.assert_array_equal(loaded.q, pair.q)

    def test_csv_round_trip_quadgrid(self, tmp_path):
        grid = QuadGrid.trapezoid(0.0, 1.0, 11)
        rng = np.random.default_rng(42)
        pair = ProbabilityPair.from_raw(grid, rng.uniform(0.5, 2, 11), rng.uniform(0.5, 2, 11))
        path = tmp_path / "pair_grid.csv"
        save_pair(pair, path)
        loaded = load_pair(path)
        assert isinstance(loaded.measure, QuadGrid)
        np.testing.assert_array_equal(loaded.p, pair.p)
        np.testing.assert_array_equal(loaded.measure.weights, grid.weights)

    def test_json_round_trip_simple_nonatomic(self, tmp_path):
        m = SimpleNonAtomic([("a", 0.5), ("b", 1.5)])
        pair = ProbabilityPair.from_raw(m, [1.0, 2.0], [2.0, 1.0])
        path = tmp_path / "pair.json"
        save_pair(pair, path)
        loaded = load_pair(path)
        assert isinstance(loaded.measure, SimpleNonAtomic)
        assert loaded.measure.piece_ids == ("a", "b")
        np.testing.assert_array_equal(loaded.p, pair.p)
        # the other two measure kinds take the same JSON path
        grid = QuadGrid.trapezoid(0.0, 1.0, 5)
        for pair in (ProbabilityPair.from_raw(grid, [1.0, 2.0, 3.0, 2.0, 1.0], [1.0] * 5),
                     ProbabilityPair.from_raw(Counting(3), [1.0, 2.0, 3.0], [3.0, 2.0, 1.0])):
            save_pair(pair, path)
            loaded = load_pair(path)
            assert type(loaded.measure) is type(pair.measure)
            assert loaded.measure.to_json() == pair.measure.to_json()
            np.testing.assert_array_equal(loaded.p, pair.p)
            np.testing.assert_array_equal(loaded.q, pair.q)

    def test_json_validation_error_names_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"measure": {"kind": "counting", "n_atoms": 2}, "p": [0.5, NaN], "q": [0.5, 0.5]}')
        message = f"{path}: p[1] = nan is not strictly positive and finite"
        with pytest.raises(PairValidationError, match=f"^{re.escape(message)}$"):
            load_pair(path)

    def test_zero_probability_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("atom,p,q\n1,0.5,0.9\n2,0,0.1\n")
        with pytest.raises(PairValidationError, match="row 3"):
            load_pair(path)

    @pytest.mark.parametrize("cell, problem", [
        ("nan", "must be finite"), ("inf", "must be finite"), ("-inf", "must be > 0"),
    ])
    def test_non_finite_probability_names_row(self, tmp_path, cell, problem):
        path = tmp_path / "bad.csv"
        path.write_text(f"atom,p,q\n1,0.5,0.9\n2,0.5,{cell}\n")
        message = f"{path}: row 3: probabilities {problem} (p=0.5, q={float(cell)})"
        with pytest.raises(PairValidationError, match=f"^{re.escape(message)}$"):
            load_pair(path)

    def test_zero_cell_message_wins_over_nan(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("atom,p,q\n1,0.5,0.9\n2,0,nan\n")
        message = f"{path}: row 3: probabilities must be > 0 (p=0.0, q=nan)"
        with pytest.raises(PairValidationError, match=f"^{re.escape(message)}$"):
            load_pair(path)

    def test_mismatched_columns_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("atom,p,q\n1,0.5\n")
        with pytest.raises(MeasureError, match="row 2"):
            load_pair(path)

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(MeasureError, match="header"):
            load_pair(path)

    def test_seventeen_significant_digits(self, tmp_path):
        pair = ProbabilityPair(Counting(2), [1 / 3, 2 / 3], [2 / 7, 5 / 7])
        path = tmp_path / "pair.csv"
        save_pair(pair, path)
        text = path.read_text()
        assert "0.33333333333333331" in text  # exact float64 repr at 17 digits

    def test_simple_nonatomic_csv_rejected(self, tmp_path):
        m = SimpleNonAtomic([("a", 1.0), ("b", 1.0)])
        pair = ProbabilityPair.from_raw(m, [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="JSON"):
            save_pair(pair, tmp_path / "x.csv")
