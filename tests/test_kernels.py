"""The kernel contract behind N(kappa): phi saturates its own fresh output,
the family hooks never touch their input, integrate's +inf rule, and the
shared read-only counting weights."""

import dataclasses
import math

import numpy as np
import pytest

from deformed_renyi.families import (
    BUILTIN_FAMILIES,
    LOG_PHI_MAX,
    ClassicalExp,
    TabulatedMonotone,
    parse_family_spec,
)
from deformed_renyi.kappa import normalization_functional
from deformed_renyi.measures import Counting, ProbabilityPair, QuadGrid, integrate

EXP_KNOTS = np.linspace(-40.0, 40.0, 161)
TABULATED_EXP = TabulatedMonotone(list(zip(EXP_KNOTS, np.exp(EXP_KNOTS))))
FAMILIES = [parse_family_spec(s) for s in BUILTIN_FAMILIES] + [TABULATED_EXP]
FAMILY_IDS = list(BUILTIN_FAMILIES) + ["tabulated-exp"]
UNBOUNDED = FAMILIES[:-1]  # the table stops at log phi = 40


def reference_phi(family, u):
    """phi as the exp of log phi, capped at PHI_MAX: +inf above, NaN kept."""
    lp = np.asarray(family.log_phi(u))
    return np.where(lp > LOG_PHI_MAX, np.inf, np.exp(np.minimum(lp, LOG_PHI_MAX)))


def make_pair(measure, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(2, measure.size))
    return ProbabilityPair.from_raw(measure, raw[0], raw[1])


@pytest.mark.parametrize("n", [8, 1000])
@pytest.mark.parametrize("measure_kind", ["counting", "trapezoid"])
@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
def test_normalization_matches_reference(family, measure_kind, n):
    measure = Counting(n) if measure_kind == "counting" else QuadGrid.trapezoid(0.0, 2.0, n)
    pair = make_pair(measure, n)
    u0_array = np.random.default_rng(n + 1).uniform(0.5, 2.0, n)
    kappas = [0.0, 0.37, 3.0] if family is TABULATED_EXP else [0.0, 0.37, 3.0, 750.0]
    for alpha in (0.1, 0.5, 0.9):
        base = alpha * np.asarray(family.phi_inv(pair.p)) + (1.0 - alpha) * np.asarray(family.phi_inv(pair.q))
        for u0 in (1.0, u0_array):
            for kappa in kappas:
                expected = integrate(measure, reference_phi(family, base + kappa * np.asarray(u0)))
                assert normalization_functional(family, pair, alpha, u0, kappa) == expected, (alpha, kappa)


def _inputs(family, method):
    if method in ("phi_inv", "phi_inv_deriv"):
        return np.geomspace(1e-15, 1e15, 61)
    if family is TABULATED_EXP:
        return np.linspace(-40.0, 40.0, 61)
    return np.concatenate([np.linspace(-60.0, 60.0, 61), [np.nan, np.inf, -np.inf, 1e200]])


@pytest.mark.parametrize("method", ["phi", "log_phi", "phi_inv", "phi_inv_deriv"])
@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
def test_maps_leave_input_alone(family, method):
    fn = getattr(family, method)
    u = _inputs(family, method)
    before = u.copy()
    with np.errstate(over="ignore"):
        out = fn(u)
        assert isinstance(out, np.ndarray) and out.shape == u.shape
        assert not np.shares_memory(out, u)
        np.testing.assert_array_equal(u, before)
        for i in range(0, u.size, 15):
            scalar = fn(np.array(u[i]))
            assert type(scalar) is float
            assert np.array_equal(scalar, fn(float(u[i])), equal_nan=True)
            assert np.array_equal(scalar, out[i], equal_nan=True)


def _last_unsaturated(family):
    """The largest float u with log phi(u) <= LOG_PHI_MAX, by bisection."""
    lo, hi = 0.0, np.finfo(float).max
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return lo
        with np.errstate(over="ignore"):  # the counterexample's (u + 1)^2 overflows
            below = family.log_phi(mid) <= LOG_PHI_MAX
        lo, hi = (mid, hi) if below else (lo, mid)


class TestSaturation:
    def test_exp_edge(self):
        fam = ClassicalExp()
        assert math.isfinite(fam.phi(LOG_PHI_MAX))
        assert fam.phi(np.nextafter(LOG_PHI_MAX, math.inf)) == math.inf
        assert math.isnan(fam.phi(math.nan))
        assert fam.phi(-math.inf) == 0.0

    @pytest.mark.parametrize("family", UNBOUNDED, ids=FAMILY_IDS[:-1])
    def test_one_ulp_past_the_edge_is_inf(self, family):
        edge = _last_unsaturated(family)
        above = np.nextafter(edge, math.inf)
        assert family.log_phi(above) > LOG_PHI_MAX
        top = float(np.exp(family.log_phi(edge)))
        assert math.isfinite(top)
        assert family.phi(edge) == top
        assert family.phi(above) == math.inf
        np.testing.assert_array_equal(family.phi(np.array([edge, above])), [top, math.inf])

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_phi_is_capped_exp_of_log_phi(self, family):
        """+inf where log phi > LOG_PHI_MAX, 0 where log phi = -inf, NaN where it is NaN."""
        u = _inputs(family, "phi")
        if family is not TABULATED_EXP:
            u = np.concatenate([u, [-1e5, 1e5], -np.geomspace(1.0, 1e3, 7)])
        with np.errstate(over="ignore"):
            lp = np.asarray(family.log_phi(u))
            phi = np.asarray(family.phi(u))
            np.testing.assert_array_equal(phi, reference_phi(family, u))
        assert np.all(phi[lp == -np.inf] == 0.0)
        np.testing.assert_array_equal(np.isnan(phi), np.isnan(lp))

    def test_vanishing_region(self):
        fam = parse_family_spec("tsallis:0.5")
        np.testing.assert_array_equal(fam.phi(np.array([-np.inf, -1e5, -2.5, -2.0])), [0.0] * 4)


class TestIntegrateInfRule:
    @pytest.mark.parametrize("measure", [Counting(3), QuadGrid([0.0, 1.0, 2.0], [0.5, 1.0, 0.5])],
                             ids=["counting", "quad"])
    @pytest.mark.parametrize("values, expected", [
        ([1.0, np.inf, 2.0], math.inf),
        ([np.inf, -np.inf, 1.0], math.inf),
        ([np.nan, np.inf, 0.0], math.inf),
        ([np.inf, np.inf, np.nan], math.inf),
        ([np.nan, 1.0, 2.0], math.nan),
        ([np.nan, -np.inf, 1.0], math.nan),
        ([-np.inf, 1.0, 0.0], -math.inf),
        ([-np.inf, -np.inf, 3.0], -math.inf),
    ])
    def test_mixes(self, measure, values, expected):
        with np.errstate(invalid="ignore"):  # inf - inf inside the dot product
            got = integrate(measure, values)
        assert type(got) is float
        assert got == expected or (math.isnan(got) and math.isnan(expected))


class TestCountingWeights:
    def test_read_only_and_shared(self):
        m = Counting(4)
        assert m.weights is m.weights
        np.testing.assert_array_equal(m.weights, np.ones(4))
        assert not m.weights.flags.writeable
        with pytest.raises(ValueError):
            m.weights[0] = 2.0

    def test_not_part_of_identity(self):
        assert Counting(3) == Counting(3)
        assert hash(Counting(3)) == hash(Counting(3))
        assert Counting(3) != Counting(4)
        assert repr(Counting(3)) == "Counting(n_atoms=3)"
        assert [f.name for f in dataclasses.fields(Counting) if f.compare] == ["n_atoms"]
