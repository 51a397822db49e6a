"""Executable probes and constructions for the existence of the shift direction u0.

Whether the normalizing shift exists for every pair depends on the underlying
measure and on how fast phi grows:

- non-atomic measure: existence of u0 is equivalent to boundedness of the
  growth ratio phi(u)/phi(u - lambda0) as u -> inf for some lambda0 > 0
  (ratio_limsup_probe), itself equivalent to a pointwise inequality
  alpha phi(u) <= phi(u - u0) for u large (pointwise_inequality_probe), and
  implies the growth envelope phi(u+v) <= K phi(u) e^(lambda v);
- counting measure: a suitable decreasing sequence u0 always exists and is
  built explicitly by construct_u0_sequence;
- the adversarial harness exhibits a super-exponential phi together with a
  level-set ladder for which no shift renormalizes the pair.

All verdicts are evidence on sampled grids, never proofs; Inconclusive is the
honest fallback when a limsup cannot be called either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import LOG_PHI_MAX, PHI_MAX, CounterexamplePhi, DeformedExponential, KaniadakisKappa
from .jsonutil import jsonable_float, jsonable_floats
from .measures import ProbabilityPair, SimpleNonAtomic

VERDICT_BOUNDED = "bounded"
VERDICT_UNBOUNDED = "unbounded"
VERDICT_INCONCLUSIVE = "inconclusive"

# absolute slack for strict comparisons in log space; keeps exact-equality
# cases (e.g. alpha = e^-1 against the classical exponential) from flapping
LOG_SLACK = 1e-9


class ConstructionError(ValueError):
    """A construction could not certify itself within its probe range."""


class MinimizationError(ArithmeticError):
    """Sampled objective was not unimodal; minimizer untrusted."""


class DegenerateDomainError(ValueError):
    """phi vanished over the whole probe grid."""


# ---------------------------------------------------------------------------
# shared pieces: the log-space comparison, the probe range, scan-and-refine
# ---------------------------------------------------------------------------


def _log_exceeds(log_lhs, log_rhs):
    """lhs > rhs compared in log space with LOG_SLACK to spare.

    Every inequality test of this module goes through here; the probes pass
    log_alpha + log phi(u) and log phi(u - s).  A left side of -inf (phi = 0)
    never exceeds anything, so alpha phi(u) = 0 is never a violation.
    """
    return log_lhs > log_rhs + LOG_SLACK


def _shifted_range(family: DeformedExponential, shift: float) -> tuple[float, float]:
    """[lo, hi] of the u at which both u - shift and u lie where log_phi is
    defined: the knot range of a tabulated family, all of R otherwise."""
    knots = getattr(family, "u_knots", None)
    if knots is None:
        return -math.inf, math.inf
    lo = knots[0] + shift
    if lo - shift < knots[0]:  # rounding would step u - shift off the table
        lo = np.nextafter(lo, math.inf)
    return float(lo), float(knots[-1])


def _phi_or_zero(family: DeformedExponential, u) -> np.ndarray:
    """phi(u) where u is finite, 0 where it is not (an absent boundary adds nothing)."""
    u = np.asarray(u, dtype=float)
    finite = np.isfinite(u)
    out = np.zeros(u.shape)
    out[finite] = family.phi(u[finite])
    return out


def _refine_last(pred, grid: np.ndarray, tol: float = 0.0):
    """Bracket (lo, hi) from the last grid point where the array predicate
    holds to the next grid point, bisected until it is narrower than tol or
    lo and hi are adjacent floats.  None when the predicate holds nowhere."""
    hits = np.nonzero(pred(grid))[0]
    if hits.size == 0:
        return None
    i = int(hits[-1])
    lo, hi = grid[i], grid[min(i + 1, grid.size - 1)]
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if pred(np.array([mid]))[0]:
            lo = mid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# ratio limsup probe
# ---------------------------------------------------------------------------


@dataclass
class ConditionProbeReport:
    lambda0: float
    u_samples: np.ndarray          # valid sample locations
    ratio_samples: np.ndarray      # phi(u)/phi(u - lambda0), possibly inf
    sup_estimate: float            # tail sup of the ratio; +inf when saturated
    verdict: str
    bound_K: float | None = None   # every sampled ratio at u >= bound_c is <= bound_K
    bound_c: float | None = None   # -inf when the bound holds on the whole grid
    alpha_used: float | None = None   # 1/K, the constant the inequality criterion uses
    threshold: float = math.inf
    stabilized: bool = False
    u_max: float = math.nan

    def to_json(self):
        stride = max(1, len(self.u_samples) // 64)
        return {
            "lambda0": self.lambda0,
            "verdict": self.verdict,
            "sup_estimate": jsonable_float(self.sup_estimate),
            "bound_K": None if self.bound_K is None else jsonable_float(self.bound_K),
            "bound_c": None if self.bound_c is None else jsonable_float(self.bound_c),
            "alpha_used": self.alpha_used,
            "threshold": self.threshold,
            "stabilized": self.stabilized,
            "u_max": self.u_max,
            "n_samples": int(len(self.u_samples)),
            "u_samples": jsonable_floats(self.u_samples[::stride]),
            "ratio_samples": jsonable_floats(self.ratio_samples[::stride]),
        }


def _probe_grid(family: DeformedExponential, lambda0: float, u_max: float) -> np.ndarray:
    grid = [np.linspace(-max(10.0, 5.0 * lambda0), u_max, 4001)]
    g_lo = 0.01 * max(lambda0, 1.0)
    if u_max > g_lo:
        grid.append(np.geomspace(g_lo, u_max, 257))
    u = np.unique(np.concatenate(grid))
    lo, hi = _shifted_range(family, lambda0)
    return u[(u >= lo) & (u <= hi)]


def ratio_limsup_probe(
    family: DeformedExponential,
    lambda0: float,
    u_max: float = 200.0,
    threshold: float = 1e12,
) -> ConditionProbeReport:
    """Sample phi(u)/phi(u - lambda0) on a geometric-plus-linear grid up to u_max.

    Unbounded when the ratio exceeds the threshold in the tail decade
    [u_max/10, u_max]; Bounded when the running sup moves by less than 1e-6
    relatively across that decade; Inconclusive otherwise.  Ratios are formed
    in log space so saturation cannot masquerade as evidence.
    """
    if lambda0 <= 0:
        raise ValueError("lambda0 must be positive")
    if not math.isfinite(u_max) or u_max <= 0:
        raise ValueError("u_max must be finite and positive")

    u = _probe_grid(family, lambda0, u_max)
    log_num = np.asarray(family.log_phi(u))
    log_den = np.asarray(family.log_phi(u - lambda0))
    valid = np.isfinite(log_den) & (log_num > -np.inf)
    if not np.any(valid):
        raise DegenerateDomainError("phi(u - lambda0) vanished over the whole grid")

    u_valid = u[valid]
    log_ratio = log_num[valid] - log_den[valid]
    with np.errstate(over="ignore"):
        ratios = np.exp(log_ratio)

    tail_start = u_max / 10.0
    tail = u_valid >= tail_start
    report = ConditionProbeReport(
        lambda0=lambda0, u_samples=u_valid, ratio_samples=ratios,
        sup_estimate=math.nan, verdict=VERDICT_INCONCLUSIVE,
        threshold=threshold, u_max=u_max,
    )
    if not np.any(tail):
        return report

    sup_tail_log = float(np.max(log_ratio[tail]))
    with np.errstate(over="ignore"):
        report.sup_estimate = float(np.exp(sup_tail_log))

    if sup_tail_log > math.log(threshold):
        report.verdict = VERDICT_UNBOUNDED
        return report

    pre = u_valid < tail_start
    sup_pre_log = float(np.max(log_ratio[pre])) if np.any(pre) else -math.inf
    sup_all_log = max(sup_pre_log, sup_tail_log)
    report.stabilized = sup_all_log - sup_pre_log < 1e-6
    if not report.stabilized:
        return report

    report.verdict = VERDICT_BOUNDED
    report.bound_K = float(math.exp(sup_tail_log + LOG_SLACK))
    violators = _log_exceeds(log_ratio, sup_tail_log)
    if np.any(violators):
        last_violator = float(np.max(u_valid[violators]))
        above = u_valid[u_valid > last_violator]
        report.bound_c = float(above[0]) if above.size else tail_start
    else:
        report.bound_c = -math.inf
    report.alpha_used = min(1.0 / max(report.bound_K, 1.0 + 1e-15), 1.0 - 1e-15)
    return report


# ---------------------------------------------------------------------------
# pointwise inequality probe
# ---------------------------------------------------------------------------


@dataclass
class InequalityProbeResult:
    alpha: float
    u0_value: float
    c_found: float          # largest grid point violating alpha phi(u) <= phi(u - u0); -inf if none
    holds: bool             # violations do not persist to the grid edge
    n_violations: int
    grid_max: float

    def to_json(self):
        return {
            "alpha": self.alpha,
            "u0_value": self.u0_value,
            "c_found": jsonable_float(self.c_found),
            "holds": self.holds,
            "n_violations": self.n_violations,
            "grid_max": self.grid_max,
        }


def pointwise_inequality_probe(
    family: DeformedExponential, alpha: float, u0_value: float, u_grid
) -> InequalityProbeResult:
    """Largest grid point where alpha phi(u) > phi(u - u0), the empirical
    analog of the boundary constant in the inequality criterion."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if u0_value <= 0:
        raise ValueError("u0_value must be positive")
    u = np.asarray(u_grid, dtype=float)
    if u.size == 0:
        raise ValueError("u_grid is empty: nothing to check")
    viol = _log_exceeds(math.log(alpha) + np.asarray(family.log_phi(u)),
                        np.asarray(family.log_phi(u - u0_value)))
    n_viol = int(np.count_nonzero(viol))
    c_found = float(np.max(u[viol])) if n_viol else -math.inf
    return InequalityProbeResult(
        alpha=alpha, u0_value=u0_value, c_found=c_found,
        holds=c_found < float(np.max(u)), n_violations=n_viol,
        grid_max=float(np.max(u)),
    )


# ---------------------------------------------------------------------------
# Kaniadakis worked certificate
# ---------------------------------------------------------------------------


@dataclass
class KaniadakisCertificate:
    kappa: float
    alpha: float
    v0: float               # numeric minimizer of log_k(v) - log_k(alpha v); (1/alpha)^(1/2) in closed form
    lam: float              # minimum value; alpha exp_k(u) <= exp_k(u - lam) for all u
    n: int                  # ceil(1/lam)
    check: bool             # alpha^n exp_k(u) <= exp_k(u - 1) on the sample grid


def verify_kaniadakis_u0(
    kappa_param: float,
    alpha: float,
    u_lo: float = -50.0,
    u_hi: float = 50.0,
    n_u: int = 10_000,
) -> KaniadakisCertificate:
    """Verify that the Kaniadakis family admits a constant shift direction.

    Minimizes g(v) = log_k(v) - log_k(alpha v) over v > 0; g is unimodal
    (derivative negative then positive), so the minimizer is located by
    bisecting the sign change of g'.  Sets lam to the minimum value,
    n = ceil(1/lam), and checks alpha^n exp_k(u) <= exp_k(u - 1) on the grid.
    """
    if kappa_param == 0.0 or not -1.0 <= kappa_param <= 1.0:
        raise ValueError("kappa_param must be in [-1, 1] and nonzero")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    family = KaniadakisKappa(kappa_param)

    def g_prime(v):
        return family.phi_inv_deriv(v) - alpha * family.phi_inv_deriv(alpha * v)

    v_grid = np.geomspace(1e-8, 1e8, 2001)
    slopes = g_prime(v_grid)
    signs = np.sign(slopes[slopes != 0.0])
    flips = int(np.count_nonzero(np.diff(signs) != 0))
    if flips != 1 or signs[0] >= 0 or signs[-1] <= 0:
        raise MinimizationError(f"objective not unimodal on samples ({flips} slope sign changes)")
    lo, hi = _refine_last(lambda v: g_prime(v) < 0, v_grid)
    v0 = 0.5 * (lo + hi)

    lam = float(family.phi_inv(v0) - family.phi_inv(alpha * v0))
    n = math.ceil(1.0 / lam)
    u = np.linspace(u_lo, u_hi, n_u)
    check = not np.any(_log_exceeds(n * math.log(alpha) + np.asarray(family.log_phi(u)),
                                    np.asarray(family.log_phi(u - 1.0))))
    return KaniadakisCertificate(kappa=kappa_param, alpha=alpha, v0=float(v0), lam=lam, n=n, check=bool(check))


# ---------------------------------------------------------------------------
# growth envelope
# ---------------------------------------------------------------------------


@dataclass
class EnvelopeCheck:
    """counterexamples has one row per sampled (u, v) where the envelope
    fails, with the columns (u, v, log lhs, log rhs): a (k, 4) float array."""

    K: float
    lambda0: float
    c: float
    lam: float                    # log(K) / lambda0
    holds: bool
    n_checked: int
    counterexamples: np.ndarray

    def to_json(self):
        return {
            "K": self.K,
            "lambda0": self.lambda0,
            "c": jsonable_float(self.c),
            "lambda": self.lam,
            "holds": self.holds,
            "n_checked": self.n_checked,
            "counterexamples": [jsonable_floats(row) for row in self.counterexamples[:32]],
        }


def growth_envelope_check(
    family: DeformedExponential, K: float, lambda0: float, c: float, u_grid, v_grid
) -> EnvelopeCheck:
    """Check phi(u + v) <= K phi(u) e^(lam v) with lam = log(K)/lambda0 for
    sampled u >= c, v >= 0.  Follows from the ratio bound phi(u)/phi(u-lambda0)
    <= K at u >= c by chaining whole lambda0 steps."""
    if K < 1.0 or lambda0 <= 0:
        raise ValueError("need K >= 1 and lambda0 > 0")
    lam = math.log(K) / lambda0
    u = np.asarray(u_grid, dtype=float)
    u = u[u >= c]
    v = np.asarray(v_grid, dtype=float)
    if np.any(v < 0):
        raise ValueError("v_grid must be non-negative")
    if u.size == 0 or v.size == 0:
        raise ValueError("no sampled u >= c and v >= 0: nothing to check")
    log_u = np.asarray(family.log_phi(u))
    lhs = np.asarray(family.log_phi(u[:, None] + v[None, :]))
    rhs = math.log(K) + log_u[:, None] + lam * v[None, :]
    i, j = np.nonzero(_log_exceeds(lhs, rhs))
    return EnvelopeCheck(
        K=K, lambda0=lambda0, c=c, lam=lam,
        holds=i.size == 0, n_checked=int(lhs.size),
        counterexamples=np.column_stack([u[i], v[j], lhs[i, j], rhs[i, j]]),
    )


# ---------------------------------------------------------------------------
# constructive u0 sequence for the counting measure
# ---------------------------------------------------------------------------


@dataclass
class U0Construction:
    """Certificate that the built sequence works on the counting measure.

    u0_sequence holds the selected lambda values per atom (positive,
    non-increasing); c_sequence the matching boundary constants (-inf where
    the inequality holds everywhere under the epsilon cap).  partial_sum_phi_c
    plus tail_bound certifies sum phi(c_i) <= summability_target.
    """

    family: str
    alpha: float
    eta: float
    epsilon: float
    u0_sequence: np.ndarray
    c_sequence: np.ndarray
    lambda_indices: list
    partial_sum_phi_c: float
    tail_bound: float
    summability_target: float

    @property
    def certificate_ok(self) -> bool:
        return self.partial_sum_phi_c + self.tail_bound <= self.summability_target

    def to_json(self):
        return {
            "family": self.family,
            "alpha": self.alpha,
            "eta": self.eta,
            "epsilon": self.epsilon,
            "u0_sequence": jsonable_floats(self.u0_sequence),
            "c_sequence": jsonable_floats(self.c_sequence),
            "lambda_indices": list(self.lambda_indices),
            "partial_sum_phi_c": self.partial_sum_phi_c,
            "tail_bound": self.tail_bound,
            "summability_target": self.summability_target,
            "certificate_ok": self.certificate_ok,
        }


def default_lambda_sequence(alpha: float, n: int = 64) -> np.ndarray:
    lam1 = min(1.0, -math.log(alpha) / 2.0)
    return lam1 * np.exp2(-np.arange(n, dtype=float))


def _eta_ok(family: DeformedExponential, log_alpha: float, eta: float, lam1: float) -> bool:
    """alpha phi(eta) < phi(eta - lambda_1), i.e. phi(eta - lambda_1) exceeds alpha phi(eta)."""
    return bool(_log_exceeds(family.log_phi(eta - lam1), log_alpha + family.log_phi(eta)))


def _scan_eta(family: DeformedExponential, log_alpha: float, lam1: float) -> float:
    lo, hi = _shifted_range(family, lam1)
    for k in range(0, 41):
        for eta in ((0.0,) if k == 0 else (float(k), float(-k))):
            if lo <= eta <= hi and _eta_ok(family, log_alpha, eta, lam1):
                return eta
    raise ConstructionError("no eta found with alpha phi(eta) < phi(eta - lambda_1)")


def _boundary_sup(family: DeformedExponential, log_alpha: float, lam_n: float,
                  log_eps: float, u_cap: float) -> float:
    """sup{u : alpha phi(u) > phi(u - lam_n) and phi(u - lam_n) <= eps},
    by a grid scan of [u_cap - 80, u_cap] inside the probe range, refined
    by bisection toward the next grid point above (a conservative
    over-estimate keeps the certificate valid)."""

    def cond(u):
        rhs = np.asarray(family.log_phi(u - lam_n))
        return _log_exceeds(log_alpha + np.asarray(family.log_phi(u)), rhs) & ~_log_exceeds(rhs, log_eps)

    lo, hi = _shifted_range(family, lam_n)
    u_lo = max(u_cap - 80.0, family.a_phi, lo)
    u_hi = min(u_cap, hi)
    if u_lo >= u_hi:
        return -math.inf
    bracket = _refine_last(cond, np.linspace(u_lo, u_hi, 4001), tol=1e-10)
    return -math.inf if bracket is None else float(bracket[1])


def construct_u0_sequence(
    family: DeformedExponential,
    alpha: float,
    lambda_sequence=None,
    eta: float | None = None,
    summability_target: float = 1e-3,
    n_terms: int = 16,
) -> U0Construction:
    """Build a positive, decreasing shift sequence for the counting measure.

    Steps: fix eta with alpha phi(eta) < phi(eta - lambda_1), set
    eps = phi(eta - lambda_1), compute boundary constants for each lambda_n,
    then thin to a subsequence whose phi(c_i) sum stays under the target with
    a geometric margin.  Works for every valid deformed exponential, including
    the super-exponential counterexample family.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if summability_target <= 0:
        raise ValueError("summability_target must be positive")
    lambdas = default_lambda_sequence(alpha) if lambda_sequence is None else np.asarray(lambda_sequence, dtype=float)
    if np.any(lambdas <= 0) or np.any(np.diff(lambdas) >= 0):
        raise ValueError("lambda_sequence must be positive and strictly decreasing")

    lam1 = float(lambdas[0])
    log_alpha = math.log(alpha)
    if eta is None:
        eta = _scan_eta(family, log_alpha, lam1)
    elif not _eta_ok(family, log_alpha, eta, lam1):
        raise ConstructionError(f"eta={eta} fails alpha phi(eta) < phi(eta - lambda_1)")
    # finite and positive: _eta_ok has phi(eta - lambda_1) > alpha phi(eta) >= 0
    log_eps = float(family.log_phi(eta - lam1))
    epsilon = math.exp(log_eps)

    u_eps = family.phi_inv(epsilon)
    # the selection walks forward through the lambdas and usually stops well
    # before the last, so each boundary is computed only when the walk reaches it
    walk = iter(range(lambdas.size))
    indices, c_seq, phi_c_seq = [], [], []
    for i in range(n_terms):
        cap = summability_target * 2.0 ** -(i + 2)
        for j in walk:
            lam_n = float(lambdas[j])
            c = _boundary_sup(family, log_alpha, lam_n, log_eps, float(lam_n + u_eps))
            phi_c = _phi_or_zero(family, [c])[0]
            if phi_c <= cap:
                break
        else:
            raise ConstructionError(
                "boundary values did not decay within the lambda range; construction inconclusive"
            )
        indices.append(j)
        c_seq.append(c)
        phi_c_seq.append(phi_c)

    u0_seq = lambdas[indices]
    c_seq = np.array(c_seq)
    partial = float(np.sum(phi_c_seq))
    # further terms would be capped at target * 2^-(i+2); their total is below this
    tail_bound = summability_target * 2.0 ** -(n_terms + 1)
    return U0Construction(
        family=family.family_id, alpha=alpha, eta=float(eta), epsilon=epsilon,
        u0_sequence=u0_seq, c_sequence=c_seq, lambda_indices=[int(i) for i in indices],
        partial_sum_phi_c=partial, tail_bound=tail_bound,
        summability_target=summability_target,
    )


@dataclass
class ShiftedSumReport:
    """Truncated-summation evidence that sum phi(c_i + lam u0_i) is finite."""

    lam: float
    terms: np.ndarray
    partial_sum: float
    tail_ratio: float      # max consecutive term ratio over the last quarter
    tail_bound: float      # geometric continuation bound, inf if ratio >= 1
    finite: bool


def shifted_sum_check(family: DeformedExponential, u0_sequence, c_values, lam: float) -> ShiftedSumReport:
    """Evaluate phi(c_i + lam * u0_i) term by term and certify geometric decay
    (a tail term ratio below 0.95)."""
    u0_sequence = np.asarray(u0_sequence, dtype=float)
    c_values = np.asarray(c_values, dtype=float)
    if u0_sequence.shape != c_values.shape:
        raise ValueError("u0_sequence and c_values must have matching length")
    terms = _phi_or_zero(family, c_values + lam * u0_sequence)
    partial = float(np.sum(terms))
    last_quarter = terms[-max(2, terms.size // 4):]
    pos = last_quarter[last_quarter > 0]
    if pos.size >= 2:
        ratio = float(np.max(pos[1:] / pos[:-1]))
    else:
        ratio = 0.0
    finite = bool(np.all(np.isfinite(terms)) and ratio < 0.95)
    tail = float(terms[-1] * ratio / (1.0 - ratio)) if ratio < 1.0 else math.inf
    return ShiftedSumReport(lam=lam, terms=terms, partial_sum=partial,
                            tail_ratio=ratio, tail_bound=tail, finite=finite)


# ---------------------------------------------------------------------------
# adversarial non-existence harness
# ---------------------------------------------------------------------------


@dataclass
class AdversarialDemo:
    """Level-set ladder showing the super-exponential family defeats every shift.

    Piece n carries the value c_n = spacing * n with log-mass
    -n log 2 - log phi(c_n), so the unshifted column sums to 1 while the
    lam-shifted column grows geometrically.  Masses are kept in log space in
    the table (they underflow float64 beyond n ~ 36); the solver-facing pair
    is the separately materialized build_divergent_pair().
    """

    lam: float
    n_pieces: int
    spacing: float
    c_values: np.ndarray
    log_masses: np.ndarray
    term_phi_c: np.ndarray        # masses * phi(c): exactly 2^-n
    cumsum_phi_c: np.ndarray
    gap_phi_c: np.ndarray         # analytic remaining gap 2^-n
    term_shifted: np.ndarray      # masses * phi(c + lam)
    cumsum_shifted: np.ndarray
    certifies_lambda_at_least: float
    pair: ProbabilityPair | None = None

    def rows(self):
        for i in range(self.n_pieces):
            yield {
                "n": i + 1,
                "c_value": float(self.c_values[i]),
                "log_mass": float(self.log_masses[i]),
                "term_phi_c": float(self.term_phi_c[i]),
                "cumsum_phi_c": float(self.cumsum_phi_c[i]),
                "gap_phi_c": float(self.gap_phi_c[i]),
                "term_shifted": float(self.term_shifted[i]),
                "cumsum_shifted": float(self.cumsum_shifted[i]),
            }

    def to_json(self):
        return {
            "lambda": self.lam,
            "n_pieces": self.n_pieces,
            "spacing": self.spacing,
            "certifies_lambda_at_least": self.certifies_lambda_at_least,
            "first_column_final": float(self.cumsum_phi_c[-1]),
            "first_column_gap": float(self.gap_phi_c[-1]),
            "second_column_final": jsonable_float(self.cumsum_shifted[-1]),
            "rows": [
                {k: jsonable_float(v) if isinstance(v, float) else v for k, v in row.items()}
                for row in self.rows()
            ],
        }


def adversarial_nonexistence_demo(lam: float, n_pieces: int = 60, build_pair: bool = True) -> AdversarialDemo:
    """Emit the divergence evidence table for the super-exponential family.

    The construction certifies itself: the shifted column's terms must grow
    strictly, otherwise the spacing is rescaled by the caller's lam (c-values
    spacing max(1, 1/lam) guarantees the growth factor e^(lam spacing)/2 > 1).
    Divergence then holds for every shift >= lam as well, since the shifted
    terms increase in the shift.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if n_pieces < 10:
        raise ValueError("n_pieces must be >= 10")
    family = CounterexamplePhi()
    spacing = max(1.0, 1.0 / lam)
    n = np.arange(1, n_pieces + 1, dtype=float)
    c = spacing * n
    log_phi_c = np.asarray(family.log_phi(c))
    log_mass = -n * math.log(2.0) - log_phi_c

    term1 = np.exp2(-n)
    # cross-check the closed form against the float evaluation
    recomputed = np.exp(log_mass + log_phi_c)
    if not np.allclose(recomputed, term1, rtol=1e-9):
        raise ConstructionError("mass/value cancellation failed its self-check")
    cumsum1 = np.cumsum(term1)
    gap1 = np.exp2(-n)

    log_term2 = log_mass + np.asarray(family.log_phi(c + lam))
    if np.any(np.diff(log_term2) <= 0):
        raise ConstructionError(f"shifted column is not strictly growing for lam={lam}")
    with np.errstate(over="ignore"):
        term2 = np.exp(log_term2)
    cumsum2 = np.cumsum(term2)

    pair = build_divergent_pair() if build_pair else None
    return AdversarialDemo(
        lam=lam, n_pieces=n_pieces, spacing=spacing, c_values=c,
        log_masses=log_mass, term_phi_c=term1, cumsum_phi_c=cumsum1,
        gap_phi_c=gap1, term_shifted=term2, cumsum_shifted=cumsum2,
        certifies_lambda_at_least=lam, pair=pair,
    )


def build_divergent_pair() -> ProbabilityPair:
    """Materialize a pair for which the normalizing shift cannot be found.

    Mirrors the non-existence argument at float64 scale: a representable
    ladder of n_ladder level sets with total mass ladder_mass, plus an edge
    piece sitting jump_kappa below the saturation boundary of phi with a mass
    small enough that its finite contribution stays under 1.  Any shift
    beyond jump_kappa saturates the edge piece, so the normalization
    functional jumps from below 1 straight to +inf and the defining equation
    has no root.
    """
    jump_kappa, n_ladder, ladder_mass = 0.05, 30, 0.25
    family = CounterexamplePhi()
    u_sat = math.sqrt(2.0 * LOG_PHI_MAX) - 1.0
    d_edge = u_sat - jump_kappa
    p_edge = float(family.phi(d_edge))
    if not math.isfinite(p_edge):
        raise ConstructionError("edge density saturated")
    w_edge = 0.04 / PHI_MAX

    n = np.arange(1, n_ladder + 1, dtype=float)
    ladder_c = n.copy()
    ladder_p = np.asarray(family.phi(ladder_c))
    if not np.all(np.isfinite(ladder_p)):
        raise ConstructionError("ladder densities overflow")
    ladder_w = ladder_mass * np.exp2(-n) / ladder_p

    beta1, beta2 = -0.5, -6.0
    b1, b2 = float(family.phi(beta1)), float(family.phi(beta2))
    bulk_needed = 1.0 - ladder_mass * (1.0 - 2.0 ** -n_ladder) - w_edge * p_edge
    if bulk_needed <= 0:
        raise ConstructionError("no probability mass left for the bulk pieces")
    w_bulk = bulk_needed / (b1 + b2)

    pieces = [(f"ladder_{int(i)}", w) for i, w in zip(n, ladder_w)]
    pieces.append(("edge", w_edge))
    pieces.extend([("bulk_a", w_bulk), ("bulk_b", w_bulk)])
    measure = SimpleNonAtomic(pieces)
    p = np.concatenate([ladder_p, [p_edge, b1, b2]])
    q = np.concatenate([ladder_p, [p_edge, b2, b1]])
    pair = ProbabilityPair(measure, p, q)

    # self-certify: finite and below 1 just under the jump, saturated just above
    from .kappa import normalization_functional

    below = normalization_functional(family, pair, 0.5, 1.0, jump_kappa * (1.0 - 1e-3))
    above = normalization_functional(family, pair, 0.5, 1.0, jump_kappa * (1.0 + 1e-3))
    if not (math.isfinite(below) and below < 1.0 and math.isinf(above)):
        raise ConstructionError(
            f"divergent pair failed self-certification: N(jump-) = {below}, N(jump+) = {above}"
        )
    return pair
