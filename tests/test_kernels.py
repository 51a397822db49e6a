"""The kernel contract behind N(kappa): phi saturates its own fresh output,
the family hooks write into the buffer they are given and never touch their
input, phi' comes from u and phi(u) alone, integrate's +inf rule, and the
shared read-only counting weights."""

import dataclasses
import math

import numpy as np
import pytest

from deformed_renyi.families import (
    BUILTIN_FAMILIES,
    LOG_PHI_MAX,
    ClassicalExp,
    CounterexamplePhi,
    DomainError,
    KaniadakisKappa,
    TabulatedMonotone,
    TsallisQ,
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
        assert fam.phi(-math.inf) == 0.0
        for spec in BUILTIN_FAMILIES:
            assert math.isnan(parse_family_spec(spec).phi(math.nan)), spec

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

    @pytest.mark.parametrize("family", UNBOUNDED, ids=FAMILY_IDS[:-1])
    def test_nan_does_not_hide_saturation(self, family):
        """phi masks only when its max reduction asks for it; a NaN anywhere
        must still take the mask path, since NaN fails every comparison."""
        edge = _last_unsaturated(family)
        above = np.nextafter(edge, math.inf)
        top = float(np.exp(family.log_phi(edge)))
        for nan_at in (0, 2, 4):
            u = np.array([above, 0.5, edge, -1.0, above])
            expected = np.array([math.inf, family.phi(0.5), top, family.phi(-1.0), math.inf])
            u[nan_at], expected[nan_at] = math.nan, math.nan
            np.testing.assert_array_equal(family.phi(u), expected)

    def test_nan_next_to_exp_values_between_the_cap_and_overflow(self):
        u = np.array([math.nan, 700.0, 1.0, 709.0])  # e^700 and e^709 are finite floats
        np.testing.assert_array_equal(ClassicalExp().phi(u), [math.nan, math.inf, math.e, math.inf])

    @pytest.mark.parametrize("spec, m", [("tsallis:0.5", 2.0), ("tsallis:2", 1.0)])
    def test_tsallis_nan_next_to_the_vanishing_region(self, spec, m):
        """_log_phi masks u <= -m, and _phi_prime masks phi = 0, only when a
        min reduction asks for it; a NaN must still take the mask path."""
        family = parse_family_spec(spec)
        u = np.array([math.nan, -m - 1.0, -m, 0.0, m, math.nan])
        log_phi = np.asarray(family.log_phi(u))
        np.testing.assert_allclose(log_phi, [math.nan, -np.inf, -np.inf, 0.0, m * math.log(2.0), math.nan], rtol=1e-15)
        values = np.asarray(family.phi(u))
        np.testing.assert_allclose(values, [math.nan, 0.0, 0.0, 1.0, 2.0 ** m, math.nan], rtol=1e-15)
        got = family._phi_prime(u, values, np.empty_like(u))
        np.testing.assert_allclose(got, [math.nan, 0.0, 0.0, 1.0, 2.0 ** (m - 1.0), math.nan], rtol=1e-15)
        assert got[1] == 0.0 and got[2] == 0.0


def phi_prime(family, u):
    """The _phi_prime hook at u, fed the saturated phi(u) as the solver does."""
    u = np.asarray(u, dtype=float)
    return family._phi_prime(u, np.asarray(family.phi(u)), np.empty_like(u))


def _prime_grid(family):
    """A grid over the family's domain: the knots and segment midpoints of a
    table; else points either side of u = 0 (the counterexample's branch
    junction) and, where phi vanishes, the edge u = a_phi exactly, its float
    neighbours and points below it."""
    if family is TABULATED_EXP:
        return np.concatenate([EXP_KNOTS, EXP_KNOTS[:-1] + 0.25])
    u = np.concatenate([np.linspace(-60.0, 60.0, 121), [0.5, 1e-9, -1e-9]])
    if math.isfinite(family.a_phi):
        edge = family.a_phi
        u = np.concatenate([u, [edge, np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf),
                                edge + 1e-3, edge - 1.0, -np.inf]])
    return u


class TestPhiPrime:
    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_matches_inverse_derivative_and_central_difference(self, family):
        u = _prime_grid(family)
        values = np.asarray(family.phi(u))
        inside = (values > 0) & np.isfinite(values)
        u = u[inside]
        got = phi_prime(family, u)
        np.testing.assert_allclose(got, 1.0 / np.asarray(family.phi_inv_deriv(values[inside])), rtol=1e-12)
        # central difference on points whose whole stencil stays where phi > 0,
        # inside the table, and off the table's knots (a kink in general)
        h = 1e-6
        lo, hi = u - h, u + h
        keep = lo > family.a_phi
        if family is TABULATED_EXP:
            keep &= ~np.isin(u, EXP_KNOTS)
        lo, hi = lo[keep], hi[keep]
        central = (np.asarray(family.phi(hi)) - np.asarray(family.phi(lo))) / (hi - lo)
        np.testing.assert_allclose(got[keep], central, rtol=1e-6)

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_zero_where_phi_vanishes_nan_for_nan(self, family):
        u = _prime_grid(family)
        values = np.asarray(family.phi(u))
        got = phi_prime(family, u)
        assert not np.any(np.isnan(got))
        np.testing.assert_array_equal(got[values == 0.0], 0.0)
        assert np.all(got[values > 0] > 0)
        assert np.isnan(phi_prime(family, np.array([np.nan]))[0])
        assert np.isnan(phi_prime(family, np.nan))

    @pytest.mark.parametrize("spec, m", [("tsallis:0.5", 2.0), ("tsallis:2", 1.0), ("tsallis:0", 1.0)])
    def test_tsallis_vanishing_edge(self, spec, m):
        family = parse_family_spec(spec)
        u = np.array([-np.inf, -m - 1.0, -m, np.nextafter(-m, 0.0), -m + 0.5])
        values = np.asarray(family.phi(u))
        np.testing.assert_array_equal(values[:3], 0.0)
        got = family._phi_prime(u, values, np.empty_like(u))
        np.testing.assert_array_equal(got[:3], 0.0)
        np.testing.assert_allclose(got[3:], (1.0 + u[3:] / m) ** (m - 1.0), rtol=1e-12)

    @pytest.mark.parametrize("k", [1.0, -1.0, 0.6])
    def test_kaniadakis_where_k_u_squared_overflows(self, k):
        """phi(u) ~ (2|k|u)^(1/|k|) is still finite at u = 1e160 for |k| >= 0.6,
        while (k u)^2 overflows; phi' must not read 0 there."""
        family = parse_family_spec(f"kaniadakis:{k}")
        u = np.array([1e160, 1e170, 1.0, -1e170])
        values = np.asarray(family.phi(u))
        assert np.all(np.isfinite(values)) and np.all(values[:3] > 0)
        got = family._phi_prime(u, values, np.empty_like(u))
        np.testing.assert_allclose(got[:3], 1.0 / np.asarray(family.phi_inv_deriv(values[:3])), rtol=1e-12)
        assert got[3] == 0.0

    @pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
    def test_fresh_array_inputs_untouched(self, family):
        u = _prime_grid(family)
        values = np.asarray(family.phi(u))
        u_before, values_before = u.copy(), values.copy()
        got = family._phi_prime(u, values, np.empty_like(u))
        assert isinstance(got, np.ndarray) and got.shape == u.shape and got.dtype == float
        assert not np.shares_memory(got, u) and not np.shares_memory(got, values)
        np.testing.assert_array_equal(u, u_before)
        np.testing.assert_array_equal(values, values_before)
        for i in range(0, u.size, 20):
            scalar = family._phi_prime(np.array(u[i]), np.array(values[i]), np.empty(()))
            assert isinstance(scalar, np.ndarray) and scalar.shape == ()
            assert np.array_equal(scalar, got[i], equal_nan=True)

    def test_tabulated_is_phi_times_segment_slope(self):
        # a rising, a flat, a rising and a flat segment
        family = TabulatedMonotone([(0.0, 1.0), (1.0, 2.0), (2.0, 2.0), (3.0, 8.0), (4.0, 8.0)])
        u = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
        slope = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 0.0, 0.0]) * math.log(2.0)
        values = np.asarray(family.phi(u))
        np.testing.assert_allclose(family._phi_prime(u, values, np.empty_like(u)), values * slope, rtol=1e-15)
        with pytest.raises(DomainError):
            family.phi_inv_deriv(2.0)  # the inverse side cannot differentiate a flat value

    @staticmethod
    def _assert_phi_times_left_segment_slope(family, u):
        values = np.asarray(family.phi(u))
        knots = family.u_knots
        segment = np.clip(np.searchsorted(knots, u, side="left"), 1, knots.size - 1) - 1
        np.testing.assert_array_equal(family._phi_prime(u, values, np.empty_like(u)), values * family.log_slopes[segment])

    def test_tabulated_exp_knots_and_midpoints(self):
        self._assert_phi_times_left_segment_slope(TABULATED_EXP, _prime_grid(TABULATED_EXP))

    def test_tabulated_kaniadakis_knots_midpoints_and_nan(self):
        knots = np.linspace(-60.0, 60.0, 421)
        family = TabulatedMonotone(list(zip(knots, np.asarray(KaniadakisKappa(0.5).phi(knots)))))
        u = np.concatenate([knots, 0.5 * (knots[:-1] + knots[1:]), [np.nan]])
        self._assert_phi_times_left_segment_slope(family, u)


def fresh_log_phi(family, u):
    """log phi(u) from each family's closed form, in fresh arrays."""
    if isinstance(family, TabulatedMonotone):
        return np.interp(u, family.u_knots, family.log_knots)
    if isinstance(family, TsallisQ):
        out = np.log1p(u / family.m)
        out[u <= -family.m] = -np.inf
        return out * family.m
    if isinstance(family, KaniadakisKappa) and family.kappa != 0.0:
        return np.arcsinh(u * family.kappa) / family.kappa
    if isinstance(family, CounterexamplePhi):
        return np.where(u >= 0.0, np.square(u + 1.0) * 0.5, u + 0.5)
    return u.copy()


def fresh_phi_prime(family, u, values):
    """phi'(u) from u and values = phi(u), in fresh arrays."""
    if isinstance(family, TabulatedMonotone):
        return values * family.log_slopes[np.searchsorted(family.u_knots[1:-1], u, side="left")]
    if isinstance(family, TsallisQ):
        return values / np.where(values == 0.0, 1.0, u / family.m + 1.0)
    if isinstance(family, KaniadakisKappa) and family.kappa != 0.0:
        root = np.sqrt(np.square(u * family.kappa) + 1.0)
        root[np.isinf(root)] = np.abs(u * family.kappa)[np.isinf(root)]
        return values / root
    if isinstance(family, CounterexamplePhi):
        return np.maximum(u + 1.0, 1.0) * values
    return values.copy()


def fresh_phi_inv(family, v):
    """phi^-1(v) from each family's closed form, in fresh arrays."""
    logv = np.log(v)
    if isinstance(family, TabulatedMonotone):
        return np.interp(logv, family.log_knots, family.u_knots)
    if isinstance(family, TsallisQ):
        return np.expm1(logv / family.m) * family.m
    if isinstance(family, KaniadakisKappa) and family.kappa != 0.0:
        return np.sinh(logv * family.kappa) / family.kappa
    if isinstance(family, CounterexamplePhi):
        return np.where(logv >= 0.5, np.sqrt(np.maximum(logv * 2.0, 0.0)) - 1.0, logv - 0.5)
    return logv


def fresh_phi_inv_deriv(family, v):
    """(phi^-1)'(v) from each family's closed form, in fresh arrays."""
    logv = np.log(v)
    if isinstance(family, TabulatedMonotone):
        return family._u_per_log[np.searchsorted(family.log_knots[1:-1], logv, side="left")] / v
    if isinstance(family, TsallisQ):
        return np.exp(logv * (1.0 / family.m - 1.0))
    if isinstance(family, KaniadakisKappa) and family.kappa != 0.0:
        return np.cosh(logv * family.kappa) / v
    if isinstance(family, CounterexamplePhi):
        return np.where(logv >= 0.5, 1.0 / (v * np.sqrt(np.maximum(logv * 2.0, 1e-300))), 1.0 / v)
    return 1.0 / v


class TestBufferContract:
    """All four hooks, _log_phi(u, out), _phi_prime(u, values, out),
    _phi_inv(v, out) and _phi_inv_deriv(v, out), write into out and return
    it, as the kappa solve's buffers need: the same bits as the closed forms
    in fresh arrays (and, for the inverse hooks, as the public maps),
    whatever out held, on 1-d grids, (rows, n) blocks and 0-d arrays, and
    their inputs stay untouched."""

    @staticmethod
    def _check(hook, inputs, expected):
        before = [x.copy() for x in inputs]
        out = np.full_like(inputs[0], 7.0)
        with np.errstate(all="ignore"):
            got = hook(*inputs, out)
        assert got is out
        np.testing.assert_array_equal(out, expected)
        for x, x_before in zip(inputs, before):
            np.testing.assert_array_equal(x, x_before)

    @pytest.mark.parametrize("family", FAMILIES + [KaniadakisKappa(0.0), KaniadakisKappa(1.0)],
                             ids=FAMILY_IDS + ["kaniadakis:0", "kaniadakis:1"])
    def test_hooks_fill_out(self, family):
        u = np.concatenate([_prime_grid(family), [np.nan]])
        if family is not TABULATED_EXP:
            u = np.concatenate([u, [1e160, -1e160, 1e200]])
        with np.errstate(all="ignore"):
            values = np.asarray(family.phi(u))
            log_phi = fresh_log_phi(family, u)
            prime = fresh_phi_prime(family, u, values)
        rows = u.size // 3 * 3
        for shape in ((u.size,), (3, rows // 3)):
            take = slice(u.size if len(shape) == 1 else rows)
            args = [x[take].reshape(shape) for x in (u, values)]
            self._check(family._log_phi, args[:1], log_phi[take].reshape(shape))
            self._check(family._phi_prime, args, prime[take].reshape(shape))
        for i in range(0, u.size, 11):
            self._check(family._log_phi, [np.array(u[i])], log_phi[i])
            self._check(family._phi_prime, [np.array(u[i]), np.array(values[i])], prime[i])
        # positive v over the phi range, with the counterexample's branch
        # junction e^(1/2); a table's range stops at its end knots
        if family is TABULATED_EXP:
            v = np.geomspace(math.exp(EXP_KNOTS[0]), math.exp(EXP_KNOTS[-1]), 61)
        else:
            v = np.geomspace(1e-15, 1e15, 61)
        v = np.concatenate([v, [1.0, math.exp(0.5)]])
        for hook, public, fresh in ((family._phi_inv, family.phi_inv, fresh_phi_inv),
                                    (family._phi_inv_deriv, family.phi_inv_deriv, fresh_phi_inv_deriv)):
            expected = fresh(family, v)
            np.testing.assert_array_equal(public(v), expected)
            for shape in ((v.size,), (3, v.size // 3)):
                self._check(hook, [v.reshape(shape)], expected.reshape(shape))
            for i in range(0, v.size, 11):
                self._check(hook, [np.array(v[i])], expected[i])
                assert public(float(v[i])) == expected[i]


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
