import math

import numpy as np
import pytest

from deformed_renyi.existence import (
    VERDICT_BOUNDED,
    VERDICT_INCONCLUSIVE,
    VERDICT_UNBOUNDED,
    ConstructionError,
    DegenerateDomainError,
    adversarial_nonexistence_demo,
    build_divergent_pair,
    construct_u0_sequence,
    growth_envelope_check,
    pointwise_inequality_probe,
    ratio_limsup_probe,
    shifted_sum_check,
    verify_kaniadakis_u0,
)
from deformed_renyi.families import (
    ClassicalExp,
    CounterexamplePhi,
    KaniadakisKappa,
    TabulatedMonotone,
    TsallisQ,
    parse_family_spec,
)
from deformed_renyi.kappa import SolveStatus, normalization_functional, solve_kappa

BOUNDED_FAMILIES = ["exp", "tsallis:0.5", "tsallis:2", "kaniadakis:0.5", "kaniadakis:-0.5"]


class TestRatioProbe:
    def test_classical_constant_ratio(self):
        report = ratio_limsup_probe(ClassicalExp(), 1.0)
        assert report.verdict == VERDICT_BOUNDED
        assert report.sup_estimate == pytest.approx(math.e, rel=1e-12)
        assert report.bound_K == pytest.approx(math.e, rel=1e-8)
        assert report.bound_c == -math.inf

    @pytest.mark.parametrize("spec", BOUNDED_FAMILIES)
    def test_power_growth_families_bounded(self, spec):
        report = ratio_limsup_probe(parse_family_spec(spec), 1.0)
        assert report.verdict == VERDICT_BOUNDED
        assert report.bound_K is not None and report.bound_c is not None
        assert 0.0 < report.alpha_used < 1.0
        # the bound invariant: every sampled ratio at u >= c stays under K
        tail = report.u_samples >= report.bound_c
        assert np.all(report.ratio_samples[tail] <= report.bound_K)

    def test_counterexample_unbounded(self):
        report = ratio_limsup_probe(CounterexamplePhi(), 1.0, u_max=100.0, threshold=1e12)
        assert report.verdict == VERDICT_UNBOUNDED
        # ratio is e^(u + 1/2) on the upper branch
        assert report.sup_estimate == pytest.approx(math.exp(100.5), rel=1e-9)

    def test_kaniadakis_tail_matches_power_law_exponent(self):
        # tail ratio behaves like (u / (u - lambda0))^(1/kappa)
        kappa = 0.5
        report = ratio_limsup_probe(KaniadakisKappa(kappa), 1.0, u_max=200.0)
        u0 = 20.0  # tail decade starts here
        asymptotic = (u0 / (u0 - 1.0)) ** (1.0 / kappa)
        assert report.sup_estimate == pytest.approx(asymptotic, rel=0.05)

    def test_inconclusive_for_slow_super_exponential(self):
        # log phi = u^1.5 / 10: ratio grows without bound but stays under the
        # threshold within the probe range, so no verdict can be called
        u = np.linspace(0.0, 300.0, 601)
        fam = TabulatedMonotone(list(zip(u, np.exp(u ** 1.5 / 10.0))))
        report = ratio_limsup_probe(fam, 1.0, u_max=299.0, threshold=1e12)
        assert report.verdict == VERDICT_INCONCLUSIVE

    def test_degenerate_domain(self):
        fam = TabulatedMonotone([(0.0, 1.0), (0.5, 2.0)])
        with pytest.raises(DegenerateDomainError):
            ratio_limsup_probe(fam, 1.0, u_max=200.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ratio_limsup_probe(ClassicalExp(), 0.0)
        with pytest.raises(ValueError):
            ratio_limsup_probe(ClassicalExp(), 1.0, u_max=math.inf)

    @pytest.mark.parametrize("spec", BOUNDED_FAMILIES)
    def test_bounded_verdict_feeds_inequality_probe(self, spec):
        """A Bounded(K, c) verdict means alpha = 1/K shows no violation at u >= c."""
        fam = parse_family_spec(spec)
        report = ratio_limsup_probe(fam, 1.0)
        grid = report.u_samples[report.u_samples >= max(report.bound_c, report.u_samples[0])]
        result = pointwise_inequality_probe(fam, report.alpha_used, 1.0, grid)
        assert result.n_violations == 0


class TestInequalityProbe:
    def test_classical_small_alpha_holds_everywhere(self):
        grid = np.linspace(-30, 30, 1201)
        result = pointwise_inequality_probe(ClassicalExp(), math.exp(-1) * 0.999, 1.0, grid)
        assert result.c_found == -math.inf
        assert result.holds

    def test_classical_large_alpha_fails_everywhere(self):
        grid = np.linspace(-30, 30, 1201)
        result = pointwise_inequality_probe(ClassicalExp(), 0.5, 1.0, grid)
        assert result.c_found == grid[-1]
        assert not result.holds
        assert result.n_violations == grid.size

    def test_counterexample_violations_reach_edge_for_any_alpha(self):
        for alpha in (0.1, 0.5, 0.9):
            for umax in (50.0, 100.0, 200.0):
                grid = np.linspace(-10, umax, 2001)
                result = pointwise_inequality_probe(CounterexamplePhi(), alpha, 1.0, grid)
                assert result.c_found == umax
                assert not result.holds

    def test_tsallis_violation_boundary_matches_algebra(self):
        # sqrt(1/2) (1 + u/2) > (1 + u)/2 exactly when u < sqrt(2)
        fam = TsallisQ(0.5)
        grid = np.linspace(-1.9, 100.0, 4001)
        result = pointwise_inequality_probe(fam, 0.5, 1.0, grid)
        assert result.holds
        assert result.c_found == pytest.approx(math.sqrt(2.0), abs=0.05)

    def test_bad_arguments(self):
        grid = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            pointwise_inequality_probe(ClassicalExp(), 1.2, 1.0, grid)
        with pytest.raises(ValueError):
            pointwise_inequality_probe(ClassicalExp(), 0.5, -1.0, grid)
        with pytest.raises(ValueError, match="nothing to check"):
            pointwise_inequality_probe(ClassicalExp(), 0.5, 1.0, [])


class TestKaniadakisCertificate:
    def test_minimizer_quarter_alpha(self):
        for kp in (0.25, -0.5, 1.0):
            cert = verify_kaniadakis_u0(kp, 0.25)
            assert cert.v0 == pytest.approx(2.0, abs=1e-8)

    def test_lambda_closed_form(self):
        # log_0.5(2) - log_0.5(0.5) = sqrt(2)
        cert = verify_kaniadakis_u0(0.5, 0.25)
        assert cert.lam == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert cert.n == 1

    def test_certificate_grid_check(self):
        for kp in (0.25, -0.25, 0.5, -0.5, 1.0, -1.0):
            for alpha in (0.1, 0.25, 0.5, 0.9):
                cert = verify_kaniadakis_u0(kp, alpha)
                assert abs(cert.v0 - alpha ** -0.5) < 1e-8
                assert cert.check

    def test_zero_kappa_rejected(self):
        with pytest.raises(ValueError):
            verify_kaniadakis_u0(0.0, 0.5)


class TestGrowthEnvelope:
    def test_classical_envelope_exact_pattern(self):
        check = growth_envelope_check(
            ClassicalExp(), math.e, 1.0, -math.inf,
            np.linspace(-20, 100, 241), np.linspace(0, 20, 41),
        )
        assert check.holds
        assert check.lam == pytest.approx(1.0)

    @pytest.mark.parametrize("spec", BOUNDED_FAMILIES)
    def test_envelope_follows_from_bounded_verdict(self, spec):
        fam = parse_family_spec(spec)
        report = ratio_limsup_probe(fam, 1.0)
        u_lo = report.bound_c if math.isfinite(report.bound_c) else -20.0
        check = growth_envelope_check(
            fam, report.bound_K, 1.0, report.bound_c,
            np.linspace(u_lo, 200.0, 301), np.linspace(0, 20, 41),
        )
        assert check.holds

    def test_counterexample_defeats_any_candidate(self):
        check = growth_envelope_check(
            CounterexamplePhi(), 1e6, 1.0, 0.0,
            np.linspace(0, 120, 241), np.linspace(0, 20, 41),
        )
        assert not check.holds
        assert len(check.counterexamples) > 0
        # columns (u, v, log lhs, log rhs): every row has lhs above rhs
        assert np.all(check.counterexamples[:, 2] > check.counterexamples[:, 3])

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            growth_envelope_check(ClassicalExp(), 0.5, 1.0, 0.0, [0.0, 1.0], [0.0])
        with pytest.raises(ValueError):
            growth_envelope_check(ClassicalExp(), 2.0, 1.0, 0.0, [0.0, 1.0], [-1.0])
        with pytest.raises(ValueError, match="nothing to check"):
            growth_envelope_check(ClassicalExp(), 2.0, 1.0, 500.0, [0.0, 1.0], [0.0])
        with pytest.raises(ValueError, match="nothing to check"):
            growth_envelope_check(ClassicalExp(), 2.0, 1.0, 0.0, [0.0, 1.0], [])


ALL_BUILTINS = BOUNDED_FAMILIES + ["counterexample"]


class TestU0Construction:
    @pytest.mark.parametrize("spec", ALL_BUILTINS)
    def test_certificate_holds(self, spec):
        fam = parse_family_spec(spec)
        con = construct_u0_sequence(fam, alpha=0.3)
        assert con.certificate_ok
        assert np.all(con.u0_sequence > 0)
        assert np.all(np.diff(con.u0_sequence) <= 0)
        assert con.partial_sum_phi_c + con.tail_bound <= con.summability_target

    @pytest.mark.parametrize("spec", ALL_BUILTINS)
    def test_inequality_soundness_sampled(self, spec):
        """alpha phi(u) <= phi(u - u0_i) wherever u > c_i and phi(u - u0_i) <= eps."""
        fam = parse_family_spec(spec)
        con = construct_u0_sequence(fam, alpha=0.3)
        log_alpha = math.log(con.alpha)
        log_eps = math.log(con.epsilon)
        for i in range(0, con.u0_sequence.size, 4):
            u0_i = con.u0_sequence[i]
            c_i = con.c_sequence[i]
            lo = c_i + 1e-9 if math.isfinite(c_i) else -40.0
            u = np.linspace(lo, lo + 60.0, 3001)
            lhs = log_alpha + np.asarray(fam.log_phi(u))
            rhs = np.asarray(fam.log_phi(u - u0_i))
            applicable = rhs <= log_eps
            bad = applicable & (lhs > rhs + 1e-7)
            assert not np.any(bad), f"{spec}: term {i} fails at u={u[bad][:3]}"

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("spec, u_knots", [
        ("exp", np.linspace(-40.0, 40.0, 161)),
        ("exp", np.linspace(-10.0, 10.0, 41)),
        ("tsallis:0.5", np.linspace(-1.9, 40.0, 200)),
        # at alpha = 0.5, (-0.9 + lambda_1) - lambda_1 rounds to below -0.9
        ("exp", np.linspace(-0.9, 10.1, 111)),
    ], ids=["exp-161", "exp-41", "tsallis-0.5", "exp-rounded-edge"])
    def test_tabulated_certificate_and_soundness(self, spec, u_knots, alpha):
        """On a tabulated family the construction stays on the knot range and
        its boundaries are sound wherever the inequality can be sampled."""
        fam = TabulatedMonotone(list(zip(u_knots, np.asarray(parse_family_spec(spec).phi(u_knots)))))
        con = construct_u0_sequence(fam, alpha=alpha)
        assert con.certificate_ok
        log_alpha = math.log(alpha)
        log_eps = math.log(con.epsilon)
        for u0_i, c_i in zip(con.u0_sequence, con.c_sequence):
            lo = max(c_i + 1e-9, u_knots[0] + u0_i + 1e-9)
            u = np.linspace(lo, u_knots[-1], 2001)
            lhs = log_alpha + np.asarray(fam.log_phi(u))
            rhs = np.asarray(fam.log_phi(u - u0_i))
            bad = (rhs <= log_eps) & (lhs > rhs + 1e-7)
            assert not np.any(bad), f"u0={u0_i} fails at u={u[bad][:3]}"

    def test_eta_scan_and_explicit_eta(self):
        fam = CounterexamplePhi()
        con = construct_u0_sequence(fam, alpha=0.3, eta=-2.0)
        assert con.eta == -2.0
        with pytest.raises(ConstructionError):
            construct_u0_sequence(ClassicalExp(), alpha=0.3, eta=0.0,
                                  lambda_sequence=np.array([2.0, 1.0, 0.5]))  # alpha > e^-2 fails

    @pytest.mark.parametrize("spec", ["exp", "tsallis:2"])
    def test_boundaries_computed_only_up_to_last_selected(self, spec, monkeypatch):
        from deformed_renyi import existence

        calls = []
        boundary_sup = existence._boundary_sup

        def counted(*args):
            calls.append(args[2])
            return boundary_sup(*args)

        monkeypatch.setattr(existence, "_boundary_sup", counted)
        con = construct_u0_sequence(parse_family_spec(spec), alpha=0.3)
        assert len(calls) == con.lambda_indices[-1] + 1 < 64
        assert calls == sorted(calls, reverse=True)  # each lambda once, in order

    def test_boundaries_that_never_decay_are_inconclusive(self):
        # three lambdas cannot supply 16 terms
        with pytest.raises(ConstructionError, match="did not decay"):
            construct_u0_sequence(ClassicalExp(), 0.3, lambda_sequence=np.array([0.5, 0.25, 0.125]))

    def test_bad_lambda_sequence(self):
        with pytest.raises(ValueError):
            construct_u0_sequence(ClassicalExp(), 0.3, lambda_sequence=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            construct_u0_sequence(ClassicalExp(), 0.3, lambda_sequence=np.array([-1.0, -2.0]))

    def test_shifted_sums_stay_summable(self):
        fam = KaniadakisKappa(0.5)
        con = construct_u0_sequence(fam, alpha=0.3)
        rng = np.random.default_rng(42)
        for lam in (0.5, 1.0, 2.0):
            s = rng.uniform(0.5, 2.0)
            r = rng.uniform(0.3, 0.7)
            phi_targets = s * r ** np.arange(1, con.u0_sequence.size + 1)
            c_vals = np.asarray(fam.phi_inv(phi_targets))
            report = shifted_sum_check(fam, con.u0_sequence, c_vals, lam)
            assert report.finite
            assert math.isfinite(report.tail_bound)


class TestAdversarialDemo:
    def test_first_column_is_geometric(self):
        demo = adversarial_nonexistence_demo(1.0, 60, build_pair=False)
        np.testing.assert_allclose(demo.term_phi_c, np.exp2(-np.arange(1, 61.0)), rtol=1e-12)
        assert demo.gap_phi_c[-1] <= 2.0 ** -60
        assert abs(demo.cumsum_phi_c[-1] - 1.0) <= 2.0 ** -60

    def test_second_column_closed_form_and_divergence(self):
        demo = adversarial_nonexistence_demo(1.0, 60, build_pair=False)
        expected = (math.e / 2.0) ** np.arange(1, 61.0) * math.exp(1.5)
        np.testing.assert_allclose(demo.term_shifted, expected, rtol=1e-9)
        assert demo.cumsum_shifted[-1] > 1e6
        assert np.all(np.diff(demo.term_shifted) > 0)

    def test_small_lambda_rescales_spacing(self):
        demo = adversarial_nonexistence_demo(0.1, 20, build_pair=False)
        assert demo.spacing == 10.0
        assert np.all(np.diff(np.log(demo.term_shifted)) > 0)

    def test_certifies_larger_shifts(self):
        demo = adversarial_nonexistence_demo(0.8, 30, build_pair=False)
        fam = CounterexamplePhi()
        for lam in (0.8, 1.6, 3.2):
            terms = np.exp(demo.log_masses + np.asarray(fam.log_phi(demo.c_values + lam)))
            assert np.all(np.diff(terms) > 0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            adversarial_nonexistence_demo(0.0, 20)
        with pytest.raises(ValueError):
            adversarial_nonexistence_demo(1.0, 5)


class TestDivergentPair:
    def test_normalization_jumps_to_sentinel(self):
        pair = build_divergent_pair()
        fam = CounterexamplePhi()
        below = normalization_functional(fam, pair, 0.5, 1.0, 0.049)
        above = normalization_functional(fam, pair, 0.5, 1.0, 0.051)
        assert math.isfinite(below) and below < 1.0
        assert above == math.inf

    def test_solver_reports_divergent_integral(self):
        pair = build_divergent_pair()
        res = solve_kappa(CounterexamplePhi(), pair, 0.5)
        assert res.status is SolveStatus.DIVERGENT_INTEGRAL
        assert res.last_finite[1] < 1.0

    def test_divergence_across_alpha_window(self):
        pair = build_divergent_pair()
        for alpha in (0.1, 0.3, 0.7, 0.9):
            res = solve_kappa(CounterexamplePhi(), pair, alpha)
            assert res.status is SolveStatus.DIVERGENT_INTEGRAL, alpha
