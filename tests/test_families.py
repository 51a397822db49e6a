import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformed_renyi.families import (
    ClassicalExp,
    CounterexamplePhi,
    DomainError,
    FamilyParameterError,
    KaniadakisKappa,
    TabulatedMonotone,
    TsallisQ,
    parse_family_spec,
    q_logarithm,
    validate_family,
)

BUILTINS = [
    ClassicalExp(),
    TsallisQ(0.5),
    TsallisQ(2.0),
    KaniadakisKappa(0.5),
    KaniadakisKappa(-0.5),
    KaniadakisKappa(1.0),
    KaniadakisKappa(0.0),
    CounterexamplePhi(),
]


class TestEvaluation:
    def test_exp_at_zero(self):
        assert ClassicalExp().phi(0.0) == 1.0

    def test_counterexample_at_zero_both_branches(self):
        fam = CounterexamplePhi()
        # e^((u+1)^2/2) and e^(u+1/2) agree at u = 0
        assert fam.phi(0.0) == pytest.approx(math.exp(0.5), abs=1e-15)
        assert fam.phi(1e-12) == pytest.approx(fam.phi(-1e-12), rel=1e-10)

    def test_counterexample_branch_derivatives_agree(self):
        # per-branch slopes at the junction: d/du e^(u+1/2) = e^(1/2) and
        # d/du e^((u+1)^2/2) = (u+1) e^((u+1)^2/2) -> e^(1/2); the formulas
        # therefore join C^1, and finite differences confirm it
        left_slope = math.exp(0.5)
        right_slope = (0.0 + 1.0) * math.exp((0.0 + 1.0) ** 2 / 2.0)
        assert abs(left_slope - right_slope) <= 1e-12
        fam = CounterexamplePhi()
        h = 1e-7
        fd_left = (fam.phi(0.0) - fam.phi(-h)) / h
        fd_right = (fam.phi(h) - fam.phi(0.0)) / h
        assert fd_right == pytest.approx(fd_left, rel=1e-6)

    def test_counterexample_log_phi_at_huge_u(self):
        # (u + 1)^2 overflows to +inf for u = 1e200; the u < 0 branch is linear
        np.testing.assert_array_equal(CounterexamplePhi().log_phi(np.array([1e200, -1e200])), [math.inf, -1e200])

    def test_kaniadakis_zero_is_exp(self):
        k0, exp = KaniadakisKappa(0.0), ClassicalExp()
        u = np.linspace(-30.0, 30.0, 121)
        v = np.asarray(exp.phi(u))
        for name in ("log_phi", "phi"):
            np.testing.assert_array_equal(getattr(k0, name)(u), getattr(exp, name)(u))
        for name in ("phi_inv", "phi_inv_deriv"):
            np.testing.assert_array_equal(getattr(k0, name)(v), getattr(exp, name)(v))
        np.testing.assert_array_equal(k0._phi_prime(u, v, np.empty_like(u)), exp._phi_prime(u, v, np.empty_like(u)))

    def test_kaniadakis_unit_param_at_zero(self):
        assert KaniadakisKappa(1.0).phi(0.0) == 1.0

    def test_kaniadakis_closed_form(self):
        # (k u + sqrt(1 + k^2 u^2))^(1/k) at k=0.5, u=1.5: (0.75 + 1.25)^2 = 4
        assert KaniadakisKappa(0.5).phi(1.5) == pytest.approx(4.0, abs=1e-14)

    def test_kaniadakis_sign_symmetry(self):
        u = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(KaniadakisKappa(0.5).phi(u), KaniadakisKappa(-0.5).phi(u), rtol=1e-13)

    def test_tsallis_below_support_is_zero(self):
        fam = TsallisQ(0.5)
        assert fam.a_phi == -2.0
        assert fam.phi(-2.5) == 0.0
        assert fam.phi(-2.0) == 0.0
        assert fam.phi(-1.9) > 0.0

    def test_saturation_sentinel(self):
        assert ClassicalExp().phi(1000.0) == math.inf
        assert ClassicalExp().log_phi(1000.0) == 1000.0
        assert CounterexamplePhi().phi(50.0) == math.inf

    def test_vectorized_matches_scalar(self):
        u = np.array([-3.0, 0.0, 2.5])
        for fam in BUILTINS:
            np.testing.assert_allclose(fam.phi(u), [fam.phi(x) for x in u], rtol=1e-15)


class TestInverse:
    def test_kaniadakis_log_at_one(self):
        for k in (0.25, -0.5, 1.0):
            assert KaniadakisKappa(k).phi_inv(1.0) == 0.0

    def test_kaniadakis_log_closed_form(self):
        # (v^k - v^-k) / (2k) at k=0.5, v=4: (2 - 0.5) / 1 = 1.5
        assert KaniadakisKappa(0.5).phi_inv(4.0) == pytest.approx(1.5, abs=1e-14)

    def test_exp_inverse(self):
        assert ClassicalExp().phi_inv(math.e) == pytest.approx(1.0, abs=1e-15)

    def test_nonpositive_rejected(self):
        for fam in BUILTINS:
            with pytest.raises(DomainError):
                fam.phi_inv(0.0)
            with pytest.raises(DomainError):
                fam.phi_inv(-1.0)

    @pytest.mark.parametrize("fam", BUILTINS, ids=lambda f: repr(f))
    def test_round_trip_on_grid(self, fam):
        lo = fam.a_phi + 0.05 if math.isfinite(fam.a_phi) else -30.0
        u = np.linspace(lo, 30.0, 301)
        v = np.asarray(fam.phi(u))
        back = np.asarray(fam.phi_inv(v))
        np.testing.assert_allclose(back, u, atol=1e-10, rtol=1e-10)


class TestSubnormalKaniadakis:
    """A subnormal k u keeps only a few bits, so arcsinh(k u) / k quantizes;
    where |k u| < 2**-26 the maps are u and log v, exactly."""

    @pytest.mark.parametrize("k", [5e-324, -5e-324, 1e-320, -1e-320])
    def test_maps_are_exact(self, k):
        fam = KaniadakisKappa(k)
        u, v = np.array([0.4, 0.6, 1.3, -2.7]), np.array([1.5, 2.0, 3.0])
        assert np.asarray(fam.log_phi(u)).tobytes() == u.tobytes()
        assert np.asarray(fam.phi_inv(v)).tobytes() == np.log(v).tobytes()
        assert fam.log_phi(0.3) == 0.3 and fam.phi_inv(2.0) == math.log(2.0)

    def test_closed_form_where_k_u_is_large(self):
        # 2e-308 is subnormal, and k u = 2 is far from small
        k = 2e-308
        assert 0.0 < k < np.finfo(float).tiny
        assert KaniadakisKappa(k).log_phi(1e308) == pytest.approx(math.asinh(k * 1e308) / k, rel=1e-15)

    def test_non_finite_inputs(self):
        fam = KaniadakisKappa(5e-324)
        assert np.isnan(fam.log_phi(math.nan))
        assert fam.log_phi(math.inf) == math.inf and fam.log_phi(-math.inf) == -math.inf
        assert fam.phi_inv(math.inf) == math.inf

    def test_normal_k_keeps_its_closed_form(self):
        u = np.linspace(-30.0, 30.0, 61)
        for k in (np.finfo(float).tiny, 1e-300, 0.5, -1.0):
            got = np.asarray(KaniadakisKappa(k).log_phi(u))
            assert got.tobytes() == (np.arcsinh(k * u) / k).tobytes()


INVERSE_MAPS = ("phi_inv", "phi_inv_deriv")


class TestInverseInputChecks:
    @pytest.mark.parametrize("name", INVERSE_MAPS)
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, -math.inf])
    def test_outside_the_domain_rejected(self, name, bad):
        for fam in BUILTINS:
            for v in (bad, np.float64(bad), np.array(bad), np.array([2.0, bad, 3.0]), np.array([bad, math.inf])):
                with pytest.raises(DomainError, match=r"^phi_inv requires v > 0$"):
                    getattr(fam, name)(v)

    @pytest.mark.parametrize("fam", [ClassicalExp(), TsallisQ(0.5)], ids=repr)
    def test_positive_infinity_accepted(self, fam):
        assert fam.phi_inv(math.inf) == math.inf
        assert fam.phi_inv_deriv(math.inf) == 0.0
        np.testing.assert_array_equal(fam.phi_inv(np.array([1.0, math.inf])), [fam.phi_inv(1.0), math.inf])

    @pytest.mark.parametrize("name", INVERSE_MAPS)
    def test_empty_array_accepted(self, name):
        for fam in BUILTINS:
            out = getattr(fam, name)(np.array([]))
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("name", INVERSE_MAPS + ("phi", "log_phi"))
    def test_scalar_input_returns_float(self, name):
        for fam in BUILTINS:
            for v in (2.0, np.float64(2.0), np.array(2.0)):
                out = getattr(fam, name)(v)
                assert type(out) is float
                assert out == getattr(fam, name)(np.array([2.0]))[0]
            assert isinstance(getattr(fam, name)(np.array([2.0])), np.ndarray)


class TestInverseDerivative:
    def test_exp_reciprocal(self):
        assert ClassicalExp().phi_inv_deriv(0.25) == pytest.approx(4.0, abs=1e-14)

    def test_tsallis_at_one(self):
        # derivative of the deformed logarithm at 1 is 1 for every q
        for q in (0.3, 0.5, 1.5, 2.0):
            assert TsallisQ(q).phi_inv_deriv(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_counterexample_branch_junction(self):
        fam = CounterexamplePhi()
        v = math.exp(0.5)
        assert fam.phi_inv_deriv(v) == pytest.approx(math.exp(-0.5), rel=1e-12)

    @pytest.mark.parametrize("fam", BUILTINS, ids=lambda f: repr(f))
    def test_matches_finite_differences(self, fam):
        # away from branch junctions, agree with central differences of phi_inv
        v = np.geomspace(0.05, 50.0, 40)
        if isinstance(fam, CounterexamplePhi):
            v = v[np.abs(np.log(v) - 0.5) > 0.05]
        h = 1e-7 * v
        numeric = (np.asarray(fam.phi_inv(v + h)) - np.asarray(fam.phi_inv(v - h))) / (2 * h)
        np.testing.assert_allclose(np.asarray(fam.phi_inv_deriv(v)), numeric, rtol=1e-6)

    @pytest.mark.parametrize("q", [0.0, 0.05, 0.5, 2.0])
    def test_tsallis_exact_near_bottom_of_support(self, q):
        # (phi^-1)'(v) = v^(1/m - 1); 1 / phi'(phi^-1(v)) would lose up to 2e-5
        # here, since 1 + u/m cancels as u nears -m
        fam = TsallisQ(q)
        v = np.geomspace(1e-12, 1.0, 25)
        np.testing.assert_allclose(fam.phi_inv_deriv(v), v ** (1.0 / fam.m - 1.0), rtol=1e-13)


@settings(max_examples=200, deadline=None)
@given(u=st.floats(min_value=-25.0, max_value=25.0, allow_nan=False))
def test_round_trip_property(u):
    for fam in (ClassicalExp(), KaniadakisKappa(0.5), CounterexamplePhi()):
        v = fam.phi(u)
        assert fam.phi_inv(v) == pytest.approx(u, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    u1=st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
    u2=st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
    t=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_convexity_property(u1, u2, t):
    mid = t * u1 + (1 - t) * u2
    for fam in BUILTINS:
        lhs = fam.phi(mid)
        v1, v2 = fam.phi(u1), fam.phi(u2)
        if not (math.isfinite(v1) and math.isfinite(v2)):
            continue  # comparisons are meaningless once phi saturates
        assert lhs <= (t * v1 + (1 - t) * v2) * (1 + 1e-12) + 1e-12


class TestTsallisLimit:
    def test_pointwise_convergence_to_exp(self):
        u = np.linspace(-3.0, 3.0, 61)
        target = np.exp(u)
        err_coarse = {}
        for dq in (1e-3, 1e-5):
            for q in (1.0 - dq, 1.0 + dq):
                err = np.max(np.abs(np.asarray(TsallisQ(q).phi(u)) - target) / target)
                err_coarse[q] = err
        assert err_coarse[1.0 - 1e-3] < 2e-2
        assert err_coarse[1.0 + 1e-3] < 2e-2
        assert err_coarse[1.0 - 1e-5] < err_coarse[1.0 - 1e-3] / 10
        assert err_coarse[1.0 + 1e-5] < err_coarse[1.0 + 1e-3] / 10


class TestParameterValidation:
    @pytest.mark.parametrize("q", [-0.5, 1.0, 2.5, 3.0])
    def test_tsallis_rejects_bad_q(self, q):
        with pytest.raises(FamilyParameterError):
            TsallisQ(q)

    @pytest.mark.parametrize("k", [-1.5, 1.0001, 2.0])
    def test_kaniadakis_rejects_bad_kappa(self, k):
        with pytest.raises(FamilyParameterError):
            KaniadakisKappa(k)


class TestValidation:
    def test_exp_clean_on_wide_grid(self):
        report = validate_family(ClassicalExp(), np.linspace(-50, 50, 501))
        assert report.passed
        assert report.tail_low_value < 1e-20
        assert report.tail_high_value > 1e20

    def test_counterexample_is_valid(self):
        report = validate_family(CounterexamplePhi(), np.linspace(-50, 50, 501))
        assert report.passed

    def test_builtins_convex_on_wide_grid(self):
        for fam in BUILTINS:
            assert validate_family(fam, np.linspace(-100, 100, 801)).passed, repr(fam)

    def test_concave_knots_flagged(self):
        fam = TabulatedMonotone([(0.0, 1.0), (1.0, 10.0), (2.0, 11.0), (4.0, 12.0)])
        report = validate_family(fam, np.array([0.0, 2.0, 4.0]))
        assert len(report.convexity_violations) == 1
        assert not report.passed

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, bad):
        # an all-NaN grid used to pass: NaN comparisons flag nothing
        with pytest.raises(ValueError, match="u_grid must be finite"):
            validate_family(ClassicalExp(), np.full(11, bad))
        with pytest.raises(ValueError, match="u_grid must be finite"):
            validate_family(ClassicalExp(), [0.0, 1.0, bad])


def _table(family, u_knots):
    return TabulatedMonotone(list(zip(u_knots, np.asarray(family.phi(u_knots)))))


TABLES = {
    "exp-161": _table(ClassicalExp(), np.linspace(-40.0, 40.0, 161)),
    "kaniadakis-421": _table(KaniadakisKappa(0.5), np.linspace(-60.0, 60.0, 421)),
}


def _segment_formula(fam, v):
    """phi_inv and phi_inv_deriv by the explicit formula on the rising knot
    segment [i - 1, i] that holds log v, the left one at an interior knot."""
    logv = np.log(v)
    i = np.clip(np.searchsorted(fam.log_knots, logv, side="left"), 1, fam.log_knots.size - 1)
    lo, hi = fam.log_knots[i - 1], fam.log_knots[i]
    du = fam.u_knots[i] - fam.u_knots[i - 1]
    return fam.u_knots[i - 1] + (logv - lo) / (hi - lo) * du, du / (hi - lo) / v


class TestTabulated:
    def _family(self):
        u = np.linspace(-5.0, 5.0, 41)
        return TabulatedMonotone(list(zip(u, np.exp(u))))

    def test_tracks_exp(self):
        fam = self._family()
        u = np.linspace(-4.9, 4.9, 97)
        np.testing.assert_allclose(fam.phi(u), np.exp(u), rtol=1e-3)
        np.testing.assert_allclose(fam.phi_inv(np.exp(u)), u, atol=1e-9)

    def test_out_of_range_is_error(self):
        fam = self._family()
        with pytest.raises(DomainError):
            fam.phi(6.0)
        with pytest.raises(DomainError):
            fam.phi_inv(1e9)

    @pytest.mark.parametrize("u", [-5.5, 5.5, -math.inf, math.inf])
    def test_out_of_range_rejected_beside_nan(self, u):
        fam = self._family()
        for arg in (u, np.array([0.0, u]), np.array([math.nan, u]), np.array([u, math.nan, 1.0])):
            for name in ("phi", "log_phi"):
                with pytest.raises(DomainError, match=r"^u outside tabulated range \[-5\.0, 5\.0\]$"):
                    getattr(fam, name)(arg)

    def test_nan_u_passes_as_nan(self):
        fam = self._family()
        assert math.isnan(fam.phi(math.nan))
        out = fam.phi(np.array([math.nan, 0.0, -5.0, 5.0]))
        assert math.isnan(out[0])
        np.testing.assert_allclose(out[1:], [1.0, math.exp(-5.0), math.exp(5.0)], rtol=1e-14)
        assert fam.phi(np.array([])).shape == (0,)

    @pytest.mark.parametrize("v", [math.exp(-5.5), math.exp(5.5), math.inf])
    def test_value_out_of_range_rejected(self, v):
        fam = self._family()
        for name in INVERSE_MAPS:
            for arg in (v, np.array([1.0, v])):
                with pytest.raises(DomainError, match=r"^v outside tabulated phi range$"):
                    getattr(fam, name)(arg)
            with pytest.raises(DomainError, match=r"^phi_inv requires v > 0$"):
                getattr(fam, name)(np.array([v, math.nan]))
        assert fam.phi_inv(np.array([])).shape == (0,)

    def test_flat_segment_inversion_rejected(self):
        fam = TabulatedMonotone([(0.0, 1.0), (1.0, 2.0), (2.0, 2.0), (3.0, 5.0)])
        with pytest.raises(DomainError):
            fam.phi_inv(2.0)  # preimage is the whole flat run [1, 2]
        # strictly above the flat value the preimage is unique again
        assert fam.phi_inv(2.0001) > 2.0

    @pytest.mark.parametrize("run", [2, 3])
    def test_flat_run_rejected_only_at_its_value(self, run):
        # phi = 2 on the knots u = 1, ..., run
        fam = TabulatedMonotone([(0.0, 1.0)] + [(float(k), 2.0) for k in range(1, run + 1)] + [(run + 1.0, 5.0)])
        for name in INVERSE_MAPS:
            for arg in (2.0, np.array([1.5, 2.0, 3.0])):
                with pytest.raises(DomainError, match=r"^phi_inv hit a flat tabulated segment; preimage is ambiguous$"):
                    getattr(fam, name)(arg)
            # the range check comes first
            with pytest.raises(DomainError, match=r"^v outside tabulated phi range$"):
                getattr(fam, name)(np.array([2.0, 6.0]))
        below, above = np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0)
        assert np.log(below) < math.log(2.0) < np.log(above)
        # one ulp off the flat value the preimage is a unique point beside the run
        np.testing.assert_allclose(fam.phi_inv(np.array([below, above])), [1.0, run], rtol=1e-15)
        np.testing.assert_allclose(fam.phi_inv_deriv(np.array([below, above])),
                                   [1.0 / math.log(2.0) / 2.0, 1.0 / math.log(2.5) / 2.0], rtol=1e-15)

    @pytest.mark.parametrize("name", list(TABLES))
    def test_inverse_maps_match_segment_formula(self, name):
        fam = TABLES[name]
        logs = np.random.default_rng(3).uniform(fam.log_knots[0], fam.log_knots[-1], 20000)
        v = np.exp(np.concatenate([logs, fam.log_knots, 0.5 * (fam.log_knots[:-1] + fam.log_knots[1:])]))
        u_ref, deriv_ref = _segment_formula(fam, v)
        np.testing.assert_array_equal(fam.phi_inv_deriv(v), deriv_ref)
        got = np.asarray(fam.phi_inv(v))
        if name == "exp-161":
            np.testing.assert_array_equal(got, u_ref)
        else:  # one interpolation may round differently from the segment formula
            ulp = np.spacing(np.maximum(np.abs(u_ref), fam.u_knots[1] - fam.u_knots[0]))
            assert np.all(np.abs(got - u_ref) <= 2.0 * ulp)

    def test_knot_ordering_enforced(self):
        with pytest.raises(FamilyParameterError):
            TabulatedMonotone([(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(FamilyParameterError):
            TabulatedMonotone([(0.0, 2.0), (1.0, 1.0)])
        # NaN fails every comparison and inf makes the maps inconsistent
        for knots, message in [
            ([(0.0, 1.0), (math.nan, 2.0), (2.0, 3.0)], "knot u values must be finite"),
            ([(0.0, 1.0), (1.0, 2.0), (math.inf, 3.0)], "knot u values must be finite"),
            ([(0.0, 1.0), (1.0, math.nan), (2.0, 3.0)], "knot phi values must be finite"),
            ([(0.0, 1.0), (1.0, 2.0), (2.0, math.inf)], "knot phi values must be finite"),
        ]:
            with pytest.raises(FamilyParameterError, match=f"^{message}$"):
                TabulatedMonotone(knots)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "knots.csv"
        path.write_text("u,phi\n-1.0,0.5\n0.0,1.0\n1.0,3.0\n")
        fam = TabulatedMonotone.from_csv(path)
        assert fam.phi(0.0) == pytest.approx(1.0)
        with pytest.raises(FileNotFoundError):
            TabulatedMonotone.from_csv(tmp_path / "missing.csv")

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            TabulatedMonotone.from_csv(path)

    def test_derivative_by_finite_differences(self):
        fam = self._family()
        assert fam.phi_inv_deriv(1.0) == pytest.approx(1.0, rel=1e-3)

    def test_derivative_at_end_knots_is_segment_slope(self):
        fam = TabulatedMonotone([(0.0, 1.0), (1.0, 4.0), (3.0, 8.0)])
        assert fam.phi_inv_deriv(1.0) == pytest.approx(1.0 / math.log(4.0), rel=1e-14)
        assert fam.phi_inv_deriv(8.0) == pytest.approx(2.0 / math.log(2.0) / 8.0, rel=1e-14)
        np.testing.assert_allclose(fam.phi_inv_deriv(np.array([1.0, 8.0])),
                                   [1.0 / math.log(4.0), 0.25 / math.log(2.0)], rtol=1e-14)


class TestSerialization:
    def test_parse_specs(self, tmp_path):
        assert isinstance(parse_family_spec("exp"), ClassicalExp)
        assert parse_family_spec("tsallis:0.5").q == 0.5
        assert parse_family_spec("kaniadakis:-0.25").kappa == -0.25
        assert isinstance(parse_family_spec("counterexample"), CounterexamplePhi)
        knots = tmp_path / "knots.csv"
        knots.write_text("u,phi\n-1.0,0.5\n0.0,1.0\n1.0,3.0\n")
        fam = parse_family_spec(f"tabulated:{knots}")
        assert isinstance(fam, TabulatedMonotone)
        np.testing.assert_array_equal(fam.u_knots, [-1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            parse_family_spec("nope")
        with pytest.raises(ValueError):
            parse_family_spec("tabulated")
        for spec in ("exp:3", "counterexample:1"):
            with pytest.raises(ValueError, match="takes no argument"):
                parse_family_spec(spec)


@pytest.mark.parametrize("x", [math.nan, [1.0, math.nan], 0.0, [2.0, -1.0]])
def test_q_logarithm_rejects_nan_and_non_positive(x):
    for q in (1.0, 0.5):
        with pytest.raises(DomainError, match=r"^q_logarithm requires x > 0$"):
            q_logarithm(x, q)
    assert q_logarithm(np.array([]), 0.5).shape == (0,)


def test_q_logarithm_limit():
    x = np.linspace(0.2, 5.0, 30)
    np.testing.assert_allclose(q_logarithm(x, 1.0), np.log(x), rtol=1e-15)
    np.testing.assert_allclose(q_logarithm(x, 1.0 + 1e-9), np.log(x), atol=1e-7)
