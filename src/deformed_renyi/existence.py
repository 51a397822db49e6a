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

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .families import LOG_PHI_MAX, PHI_MAX, CounterexamplePhi, DeformedExponential, KaniadakisKappa
from .jsonutil import jsonable
from .kappa import ENVELOPE_BLOCK, normalization_functional
from .measures import ProbabilityPair, SimpleNonAtomic

VERDICT_BOUNDED = "bounded"
VERDICT_UNBOUNDED = "unbounded"
VERDICT_INCONCLUSIVE = "inconclusive"

# absolute slack for strict comparisons in log space; keeps exact-equality
# cases (e.g. alpha = e^-1 against the classical exponential) from flapping
LOG_SLACK = 1e-9


class ConstructionError(ValueError):
    """A construction could not certify itself within its probe range."""


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
    defined, for a shift of either sign: within the knot range of a tabulated
    family, all of R otherwise."""
    knots = getattr(family, "u_knots", None)
    if knots is None:
        return -math.inf, math.inf
    lo, hi = knots[0], knots[-1]
    if shift > 0:
        lo = knots[0] + shift
        if lo - shift < knots[0]:  # rounding would step u - shift off the table
            lo = np.nextafter(lo, math.inf)
    elif shift < 0:
        hi = knots[-1] + shift
        if hi - shift > knots[-1]:
            hi = np.nextafter(hi, -math.inf)
    return float(lo), float(hi)


def _phi_or_zero(family: DeformedExponential, u) -> np.ndarray:
    """phi(u), with 0 at u = -inf (an absent boundary adds nothing); phi(+inf)
    is inf, and a NaN u gives a NaN phi."""
    u = np.asarray(u, dtype=float)
    finite = np.isfinite(u)
    out = np.where(u == -np.inf, 0.0, u)
    out[finite] = family.phi(u[finite])
    return out


def _last_bracket(holds: np.ndarray, grid: np.ndarray):
    """(grid[i], grid[i + 1]) for the last i where holds is true, (grid[-1],
    grid[-1]) when that is the last point; None when it holds nowhere."""
    hits = np.nonzero(holds)[0]
    if hits.size == 0:
        return None
    i = int(hits[-1])
    return grid[i], grid[min(i + 1, grid.size - 1)]


# levels of the bisection tree evaluated per predicate call: 63 midpoints
BISECT_DEPTH = 6


def _midpoint_tree(lo, hi) -> np.ndarray:
    """One column per bracket (lo, hi): lo, the 2^BISECT_DEPTH - 1 midpoints
    of BISECT_DEPTH levels of bisection below it in increasing order, and hi.
    The midpoint at row m, with h the largest power of two dividing m, is
    0.5 * (lo + hi) of the interval from row m - h to row m + h, the very
    operation a one-point-at-a-time bisection performs."""
    step = 2 ** BISECT_DEPTH
    points = np.empty((step + 1, len(lo)))
    points[0], points[step] = lo, hi
    while step > 1:
        points[step // 2::step] = 0.5 * (points[:-1:step] + points[step::step])
        step //= 2
    return points


def _splits(lo: float, hi: float, tol: float) -> bool:
    """Whether a bisection step applies to (lo, hi): it is at least tol wide
    and its midpoint lies strictly inside."""
    return hi - lo >= tol and lo < 0.5 * (lo + hi) < hi


def _bisect_last(pred, lo, hi, tol: float):
    """Bisect each bracket (lo[r], hi[r]), keeping the upper half where the
    predicate holds at the midpoint, until the bracket is narrower than tol
    or its ends are adjacent floats; returns the lists of the final lo and
    hi.  Each call pred(mids, rows) sees BISECT_DEPTH levels of midpoints of
    every bracket still splitting, column i for bracket rows[i], and each
    bracket's descent through them, on Python floats, applies the same tests
    in the same order as a scalar loop, so every bracket is the scalar
    loop's for any elementwise predicate."""
    lo, hi = [float(x) for x in lo], [float(x) for x in hi]
    # the root's tests up front: no call once no bracket can shrink
    live = [r for r in range(len(lo)) if _splits(lo[r], hi[r], tol)]
    # the descent starts at the middle row of the midpoints and halves its
    # step at each level; the midpoint it meets is 0.5 * (a + b), the very
    # value in the tree
    root = 2 ** (BISECT_DEPTH - 1) - 1
    steps = [2 ** k for k in range(BISECT_DEPTH - 2, -1, -1)] + [0]
    while live:
        mids = _midpoint_tree([lo[r] for r in live], [hi[r] for r in live])[1:-1]
        for r, column_holds in zip(live, pred(mids, live).T.tolist()):
            a, b, m = lo[r], hi[r], root
            for step in steps:
                mid = 0.5 * (a + b)
                if not (b - a >= tol and a < mid < b):
                    break
                if column_holds[m]:
                    a, m = mid, m + step
                else:
                    b, m = mid, m - step
            lo[r], hi[r] = a, b
        live = [r for r in live if _splits(lo[r], hi[r], tol)]
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
        samples = replace(self, u_samples=self.u_samples[::stride], ratio_samples=self.ratio_samples[::stride])
        return {**jsonable(samples), "n_samples": len(self.u_samples)}


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
    if not 0.0 < lambda0 < math.inf:
        raise ValueError("lambda0 must be positive and finite")
    if not 0.0 < threshold < math.inf:
        raise ValueError("threshold must be positive and finite")
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
        return jsonable(self)


def pointwise_inequality_probe(
    family: DeformedExponential, alpha: float, u0_value: float, u_grid
) -> InequalityProbeResult:
    """Largest grid point where alpha phi(u) > phi(u - u0), the empirical
    analog of the boundary constant in the inequality criterion."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not 0.0 < u0_value < math.inf:
        raise ValueError("u0_value must be positive and finite")
    u = np.asarray(u_grid, dtype=float)
    if u.size == 0:
        raise ValueError("u_grid is empty: nothing to check")
    if not np.all(np.isfinite(u)):
        raise ValueError("u_grid must be finite")
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
    v0: float               # alpha^(-1/2), the minimizer of log_k(v) - log_k(alpha v) for every k
    lam: float              # the minimum, 2 sinh(x) / k with x = -(k/2) log alpha
    n: int                  # ceil(1/lam)
    check: bool             # alpha^n exp_k(u) <= exp_k(u - 1) on the sample grid


@functools.cache
def _certificate_grids():
    """The u points of the certificate's check and the same points less 1,
    read-only.  Built on first use, not at import, so that a process that
    makes no certificate never holds them."""
    u_grid = np.linspace(-50.0, 50.0, 10_000)
    grids = u_grid, u_grid - 1.0
    for grid in grids:
        grid.flags.writeable = False
    return grids


def verify_kaniadakis_u0(kappa_param: float, alpha: float) -> KaniadakisCertificate:
    """Verify that the Kaniadakis family admits a constant shift direction.

    g(v) = log_k(v) - log_k(alpha v) has g'(v) = 0 only at v0 = alpha^(-1/2),
    for every k, so its minimum is lam = g(v0) = 2 sinh(x) / k with
    x = -(k/2) log alpha.  lam is evaluated as -log(alpha) sinh(x) / x, the
    same value without the cancellation of alpha^(-k/2) - alpha^(k/2) near
    alpha = 1, and exact where x is subnormal or 0 (sinh(x) / x = 1), so
    every k the validator accepts gives a finite, positive lam.  Sets
    n = ceil(1/lam) and checks alpha^n exp_k(u) <= exp_k(u - 1) on 10 000
    points of [-50, 50], the sampled evidence.
    """
    if kappa_param == 0.0 or not -1.0 <= kappa_param <= 1.0:
        raise ValueError("kappa_param must be in [-1, 1] and nonzero")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    family = KaniadakisKappa(kappa_param)
    log_alpha = math.log(alpha)
    x = -0.5 * kappa_param * log_alpha
    lam = -log_alpha * (math.sinh(x) / x if x else 1.0)
    n = math.ceil(1.0 / lam)
    u, u_less_1 = _certificate_grids()
    check = not np.any(_log_exceeds(n * log_alpha + np.asarray(family.log_phi(u)),
                                    np.asarray(family.log_phi(u_less_1))))
    return KaniadakisCertificate(kappa=kappa_param, alpha=alpha, v0=alpha ** -0.5, lam=lam, n=n, check=bool(check))


# ---------------------------------------------------------------------------
# growth envelope
# ---------------------------------------------------------------------------


ENVELOPE_ROWS = 32  # the counterexample rows an envelope check keeps


@dataclass
class EnvelopeCheck:
    """n_violations counts the sampled (u, v) where the envelope fails;
    counterexamples is a (k, 4) float array of the first ENVELOPE_ROWS in the
    (u, v) grid's row-major order, with columns (u, v, log lhs, log rhs)."""

    K: float
    lambda0: float
    c: float
    lam: float                    # log(K) / lambda0
    holds: bool
    n_checked: int
    n_violations: int
    counterexamples: np.ndarray

    def to_json(self):
        obj = jsonable(self)
        obj["lambda"] = obj.pop("lam")
        return obj


def growth_envelope_check(
    family: DeformedExponential, K: float, lambda0: float, c: float, u_grid, v_grid
) -> EnvelopeCheck:
    """Check phi(u + v) <= K phi(u) e^(lam v) with lam = log(K)/lambda0 for
    sampled u >= c, v >= 0.  Follows from the ratio bound phi(u)/phi(u-lambda0)
    <= K at u >= c by chaining whole lambda0 steps."""
    if not (1.0 <= K < math.inf and 0.0 < lambda0 < math.inf):
        raise ValueError("need 1 <= K < inf and 0 < lambda0 < inf")
    lam = math.log(K) / lambda0
    u = np.asarray(u_grid, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("u_grid must be finite")
    u = u[u >= c]
    v = np.asarray(v_grid, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("v_grid must be finite")
    if np.any(v < 0):
        raise ValueError("v_grid must be non-negative")
    if u.size == 0 or v.size == 0:
        raise ValueError("no sampled u >= c and v >= 0: nothing to check")
    log_u = np.asarray(family.log_phi(u))
    lam_v = lam * v
    rows = min(u.size, max(1, ENVELOPE_BLOCK // v.size))
    # u + v, lhs and rhs in one allocation, as the sweep's buffers: the
    # allocator reuses it for the next check without new page faults
    blocks = np.empty((3, rows, v.size))
    kept, n_violations = [], 0
    for start in range(0, u.size, rows):
        ub = u[start:start + rows, None]
        w, lhs, rhs = blocks[:, :len(ub)]
        family._log_phi(np.add(ub, v, out=w), lhs)
        np.add(math.log(K) + log_u[start:start + rows, None], lam_v, out=rhs)
        bad = _log_exceeds(lhs, rhs)
        count = int(np.count_nonzero(bad))
        if count and len(kept) < ENVELOPE_ROWS:
            # np.nonzero of a C-order mask runs in row-major order
            i, j = (index[:ENVELOPE_ROWS - len(kept)] for index in np.nonzero(bad))
            kept += np.column_stack([ub[i, 0], v[j], lhs[i, j], rhs[i, j]]).tolist()
        n_violations += count
    return EnvelopeCheck(
        K=K, lambda0=lambda0, c=c, lam=lam,
        holds=n_violations == 0, n_checked=u.size * v.size,
        n_violations=n_violations, counterexamples=np.array(kept).reshape(-1, 4),
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
        return {**jsonable(self), "certificate_ok": self.certificate_ok}


def default_lambda_sequence(alpha: float) -> np.ndarray:
    """lambda_1 2^-k for k = 0, ..., 63, with lambda_1 = min(1, -log(alpha) / 2)."""
    lam1 = min(1.0, -math.log(alpha) / 2.0)
    return lam1 * np.exp2(-np.arange(64, dtype=float))


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


def _boundary_sups(family: DeformedExponential, log_alpha: float, lams: np.ndarray,
                   log_eps: float, u_eps: float) -> list:
    """sup{u : alpha phi(u) > phi(u - lam) and phi(u - lam) <= eps} for each
    lam of lams: a grid scan of [lam + u_eps - 80, lam + u_eps] inside the
    probe range for each lam, then the brackets found, each toward the next
    grid point above, bisected together (a conservative over-estimate keeps
    the certificate valid).  -inf where the condition holds nowhere."""

    def cond(u, lam):
        rhs = np.asarray(family.log_phi(u - lam))
        return _log_exceeds(log_alpha + np.asarray(family.log_phi(u)), rhs) & ~_log_exceeds(rhs, log_eps)

    sups = [-math.inf] * lams.size
    rows, brackets = [], []
    for r, lam in enumerate(lams.tolist()):
        lo, hi = _shifted_range(family, lam)
        u_cap = float(lam + u_eps)
        u_lo = max(u_cap - 80.0, family.a_phi, lo)
        u_hi = min(u_cap, hi)
        if u_lo < u_hi:
            grid = np.linspace(u_lo, u_hi, 4001)
            bracket = _last_bracket(cond(grid, lam), grid)
            if bracket is not None:
                rows.append(r)
                brackets.append(bracket)
    if rows:
        row_lams = lams[rows]
        _, his = _bisect_last(lambda u, live: cond(u, row_lams[live]), *zip(*brackets), 1e-10)
        for r, hi in zip(rows, his):
            sups[r] = hi
    return sups


def _sublevel_sup(family: DeformedExponential, log_eps: float) -> float:
    """sup{u : phi(u) <= eps}: phi_inv(eps) wherever phi rises through eps.
    Where a tabulated family is flat at eps (two or more knots share log phi
    = log_eps) the preimage is a whole run, and the sup is its right knot."""
    log_knots = getattr(family, "log_knots", None)
    if log_knots is not None:
        j = int(np.searchsorted(log_knots, log_eps, side="right")) - 1
        if j >= 1 and log_knots[j - 1] == log_eps:
            return float(family.u_knots[j])
    return family.phi_inv(math.exp(log_eps))


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
    if not 0.0 < summability_target < math.inf:
        raise ValueError("summability_target must be positive and finite")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    lambdas = default_lambda_sequence(alpha) if lambda_sequence is None else np.asarray(lambda_sequence, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError("lambda_sequence must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(lambdas)):
        raise ValueError("lambda_sequence must be finite")
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

    u_eps = _sublevel_sup(family, log_eps)
    # the selection walks forward through the lambdas and usually stops well
    # before the last.  Each term left takes at least one lambda, so a walk at
    # lambda j with i terms chosen reaches the next n_terms - i lambdas: their
    # boundaries are computed together, and none beyond them
    walk = iter(range(lambdas.size))
    indices, c_all, phi_c_all = [], [], []
    for i in range(n_terms):
        cap = summability_target * 2.0 ** -(i + 2)
        for j in walk:
            if j == len(c_all):
                sups = _boundary_sups(family, log_alpha, lambdas[j:j + n_terms - i], log_eps, u_eps)
                c_all += sups
                phi_c_all += _phi_or_zero(family, sups).tolist()
            if phi_c_all[j] <= cap:
                break
        else:
            raise ConstructionError(
                "boundary values did not decay within the lambda range; construction inconclusive"
            )
        indices.append(j)

    u0_seq = lambdas[indices]
    c_seq = np.array(c_all)[indices]
    partial = float(np.sum(np.array(phi_c_all)[indices]))
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
        with np.errstate(invalid="ignore"):  # inf / inf where phi saturates
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
        return jsonable({
            "lambda": self.lam,
            "n_pieces": self.n_pieces,
            "spacing": self.spacing,
            "certifies_lambda_at_least": self.lam,
            "first_column_final": self.cumsum_phi_c[-1],
            "first_column_gap": self.gap_phi_c[-1],
            "second_column_final": self.cumsum_shifted[-1],
            "rows": list(self.rows()),
        })


def adversarial_nonexistence_demo(lam: float, n_pieces: int = 60, build_pair: bool = True) -> AdversarialDemo:
    """Emit the divergence evidence table for the super-exponential family.

    The construction certifies itself: the shifted column's terms must grow
    strictly, otherwise the spacing is rescaled by the caller's lam (c-values
    spacing max(1, 1/lam) guarantees the growth factor e^(lam spacing)/2 > 1).
    Divergence then holds for every shift >= lam as well, since the shifted
    terms increase in the shift.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    if n_pieces < 10:
        raise ValueError("n_pieces must be >= 10")
    family = CounterexamplePhi()
    spacing = max(1.0, 1.0 / lam)
    n = np.arange(1, n_pieces + 1, dtype=float)
    c = spacing * n
    with np.errstate(over="ignore"):
        log_phi_c = np.asarray(family.log_phi(c))
    if not np.all(np.isfinite(log_phi_c)):
        raise ConstructionError(
            f"lam={lam:g} is too small: log phi(c_n) overflows at the ladder spacing 1/lam = {spacing:g}"
        )
    log_half_n = -n * math.log(2.0)
    log_mass = log_half_n - log_phi_c

    term1 = np.exp2(-n)
    cumsum1 = np.cumsum(term1)

    # log_mass + log phi(c + lam) with log phi(c + lam) - log phi(c) taken on
    # the u >= 0 branch (c_n >= 1): at a small lam, log phi(c_n) ~ (n/lam)^2/2
    # would swamp -n log 2 if it were added and subtracted
    log_term2 = log_half_n + lam * (c + 1.0) + 0.5 * lam * lam
    # the growth lam spacing - log 2 per row is >= 1 - log 2 in exact
    # arithmetic, so only rounding against lam^2/2 (or lam^2 = inf, where
    # the differences are inf - inf) can stop the column from growing
    with np.errstate(invalid="ignore"):
        growing = np.all(np.diff(log_term2) > 0)
    if not growing:
        raise ConstructionError(f"lam={lam:g} is too large: lam^2/2 swamps the per-row growth")
    with np.errstate(over="ignore"):
        term2 = np.exp(log_term2)
    cumsum2 = np.cumsum(term2)

    pair = build_divergent_pair() if build_pair else None
    return AdversarialDemo(
        lam=lam, n_pieces=n_pieces, spacing=spacing, c_values=c,
        log_masses=log_mass, term_phi_c=term1, cumsum_phi_c=cumsum1,
        gap_phi_c=term1, term_shifted=term2, cumsum_shifted=cumsum2, pair=pair,
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
    below = normalization_functional(family, pair, 0.5, 1.0, jump_kappa * (1.0 - 1e-3))
    above = normalization_functional(family, pair, 0.5, 1.0, jump_kappa * (1.0 + 1e-3))
    if not (math.isfinite(below) and below < 1.0 and math.isinf(above)):
        raise ConstructionError(
            f"divergent pair failed self-certification: N(jump-) = {below}, N(jump+) = {above}"
        )
    return pair
