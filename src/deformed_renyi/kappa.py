"""Normalization functional and the implicit solve for the shift kappa(alpha).

For densities p, q, a positive direction u0 and alpha in (0, 1), the shift
kappa >= 0 is defined by

    N(kappa) = integral phi(alpha phi^-1(p) + (1-alpha) phi^-1(q) + kappa u0) dmu = 1.

phi is convex and non-decreasing, so N is too, and N(0) <= 1.  The root is
found by safeguarded Newton iteration on log N inside a bracket [lo, hi] with
N(lo) < 1 <= N(hi): the step is -log N * N / N'.  For the classical exp with
a scalar u0, N(kappa) = e^kappa N(0), so log N is affine and the first step
lands on the closed form -log N(0); with the other built-in families a solve
takes about three evaluations of N.  The slope
N'(kappa) = integral u0 phi'(w) dmu comes from the family's phi' hook, which
works by cheap algebra on w and the phi(w) values that the evaluation of N
already holds, so a Newton step calls no inverse map.  Geometric bracket
expansion (while no point with N >= 1 is known) or bisection takes over
whenever N or N' is not finite and positive, a step leaves the bracket or
passes KAPPA_MAX, or a step is longer than half the step two before it.  When
N jumps from below 1 straight to +inf the instance has no root and is reported
as a divergent integral, never silently extrapolated; a NaN value of N is an
error.  tol must be positive and finite.

A scalar u0 stays a scalar: it is validated once as a positive finite float,
w = base + kappa u0 is one add into the solve's work buffer, and
N'(kappa) = u0 integral phi'(w) dmu, so no n-length copy of u0 is built.  A
per-atom u0 array is validated and multiplied in as it is.

A single solve is a one-alpha sweep.  A sweep computes phi^-1(p) and
phi^-1(q) once (a single alpha then overwrites them with its base and work
buffer) and solves its first alpha alone, exactly as a single solve does.  It
solves the other alphas in chunks of max(1, ENVELOPE_BLOCK // n) rows: each
step evaluates phi, and phi' when some row takes a Newton step, once on the
(rows, n) block of the running rows, in w, values and prime buffers that the
sweep allocates once, and one product with the weights gives every row's N
and N'.  The safeguarded step above is written once (_Root) and runs per row
on Python floats.  Every alpha of a chunk starts from the divergence value
D = kappa / (alpha (1 - alpha)) of the last converged alpha before the
chunk, that is from kappa = D alpha (1 - alpha), or cold from kappa = 0 when
the chunk before it has no converged alpha.  D has finite limits at both
endpoints (the phi-divergences), so kappa vanishes at alpha = 0 and 1 and D
varies slowly in alpha: the start costs nothing.  A block row sums its
integrals in another order than the 1-d dot product of a single solve, so a
sweep's kappa can differ from the single solve's in its last bits.
phi^-1(p) and phi^-1(q) come from the family's _phi_inv hook on the pair's
densities, which ProbabilityPair has already checked positive and finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .families import DeformedExponential
from .jsonutil import jsonable
from .measures import MeasureModel, ProbabilityPair, integrate, positive_finite

KAPPA_MAX = 1e6  # a solve with N(KAPPA_MAX) < 1 reports BRACKET_FAILURE
MAX_ITER = 400   # N evaluations per solve
# elements of one (rows, n) block, shared by the sweep's chunks of alphas and
# the existence module's envelope check: each temporary stays near 256 KiB
ENVELOPE_BLOCK = 2 ** 15


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    DIVERGENT_INTEGRAL = "divergent_integral"
    BRACKET_FAILURE = "bracket_failure"


@dataclass
class KappaSolveResult:
    alpha: float
    kappa: float            # +inf when no finite root exists
    residual: float         # N(kappa) - 1 at the reported point
    bracket: tuple          # (lo, hi) enclosing the root or the jump
    iterations: int         # number of N evaluations
    status: SolveStatus
    last_finite: tuple | None = None  # (kappa, N(kappa)) at the last finite probe below a jump

    def to_json(self):
        return jsonable(self)


def _resolve_u0(u0, measure: MeasureModel):
    """u0 as a positive finite float when it is a scalar (0-d arrays and NumPy
    scalars included), else as a validated per-atom positive array."""
    arr = np.asarray(u0, dtype=float)
    if arr.ndim == 0:
        u0 = float(arr)
        if not 0.0 < u0 < math.inf:
            raise ValueError("u0 must be strictly positive and finite")
        return u0
    if arr.shape != (measure.size,):
        raise ValueError(f"u0 has shape {arr.shape}, expected ({measure.size},)")
    if not positive_finite(arr):
        raise ValueError("u0 must be strictly positive and finite")
    return arr


def _interpolate(inv_p, inv_q, alpha, out, rest):
    """alpha inv_p + (1-alpha) inv_q into out, using rest as scratch; alpha
    is a float, or a (rows, 1) column of them for a (rows, n) out."""
    np.multiply(inv_p, alpha, out=out)
    np.multiply(inv_q, 1.0 - alpha, out=rest)
    return np.add(out, rest, out=out)


def interpolation_base(family: DeformedExponential, pair: ProbabilityPair, alpha: float) -> np.ndarray:
    """alpha phi^-1(p) + (1-alpha) phi^-1(q), the fixed part of the integrand."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    # the pair's densities are already checked positive and finite
    inv_p = family._phi_inv(pair.p, np.empty(pair.p.shape))
    inv_q = family._phi_inv(pair.q, np.empty(pair.q.shape))
    return _interpolate(inv_p, inv_q, alpha, out=inv_p, rest=inv_q)


def _shift(base, u0, kappa, out):
    """base + kappa u0 into out.  u0 is a float or a per-atom array; kappa is
    a float, or a (rows, 1) column beside a (rows, n) base."""
    if isinstance(u0, float):
        return np.add(base, u0 * kappa, out=out)
    np.multiply(u0, kappa, out=out)
    return np.add(base, out, out=out)


def normalization_functional(
    family: DeformedExponential,
    pair: ProbabilityPair,
    alpha: float,
    u0,
    kappa: float,
) -> float:
    """N(kappa); returns +inf when phi saturates on a set of positive measure."""
    if not math.isfinite(kappa):
        raise ValueError("kappa must be finite")
    u0 = _resolve_u0(u0, pair.measure)
    base = interpolation_base(family, pair, alpha)
    return integrate(pair.measure, family.phi(_shift(base, u0, kappa, np.empty_like(base))))


class _Root:
    """The safeguarded Newton-on-log-N solve of one alpha, on Python floats.

    The solver evaluates N at `kappa` and hands the value to `observe`; when
    the solve goes on, it hands N'(kappa) (NaN when not evaluated) to `move`,
    which picks the next `kappa`.  `result` is set once the solve has ended.
    A start `guess` inside (0, KAPPA_MAX) is warm and leaves N(0)
    unevaluated: lo = 0 is then a bound by convexity alone, and it is
    evaluated, with the cold-start checks, before the first fallback step.
    """

    __slots__ = ("alpha", "kappa", "n", "evals", "lo", "n_lo", "hi", "n_hi",
                 "best_k", "best_r", "step_1", "step_2", "result")

    def __init__(self, alpha: float, guess: float):
        self.alpha = alpha
        self.kappa = guess if 0.0 < guess < KAPPA_MAX else 0.0
        self.n = math.nan
        self.evals = 0
        self.lo, self.n_lo = 0.0, None        # n_lo is None until N(0) is evaluated
        self.hi, self.n_hi = math.inf, None   # n_hi is None until some N >= 1 is seen
        self.best_k, self.best_r = math.nan, math.inf
        self.step_1 = self.step_2 = math.inf  # lengths of the last step and the one before it
        self.result = None

    def observe(self, n: float, tol: float) -> bool:
        """Take N at kappa; True when the solve has ended.  Raises
        ArithmeticError on NaN and ValueError when N(0) > 1."""
        self.evals += 1
        kappa = self.kappa
        if math.isnan(n):
            raise ArithmeticError(f"N(kappa) is NaN at kappa = {kappa!r} (alpha = {self.alpha!r})")
        r = n - 1.0
        if kappa == 0.0:
            self.n_lo = n
            if abs(r) <= tol:
                # includes p = q, where the integrand collapses to p and kappa = 0 exactly
                self.result = KappaSolveResult(self.alpha, 0.0, r, (0.0, 0.0), self.evals, SolveStatus.CONVERGED)
                return True
            if n > 1.0:
                raise ValueError(f"N(0) = {n} > 1; phi is not convex on the data or the pair is invalid")
        elif n < 1.0:
            self.lo, self.n_lo = kappa, n
        else:
            self.hi, self.n_hi = kappa, n
        if abs(r) <= tol:
            bracket = (self.lo, self.hi if self.n_hi is not None else kappa)
            self.result = KappaSolveResult(self.alpha, kappa, r, bracket, self.evals, SolveStatus.CONVERGED)
            return True
        if abs(r) < abs(self.best_r):
            self.best_k, self.best_r = kappa, r
        if self.evals >= MAX_ITER:
            return self._stall()
        self.n = n
        return False

    def move(self, slope: float) -> bool:
        """Step from kappa given N'(kappa): Newton on log N, else expansion
        or bisection; True when the solve has ended."""
        n, kappa, lo, hi = self.n, self.kappa, self.lo, self.hi
        step = math.nan
        if 0.0 < n < math.inf and 0.0 < slope < math.inf:
            step = -math.log(n) * (n / slope)
        nxt = kappa + step
        if self.n_hi is None:
            # no point with N >= 1 yet: the Newton step from below, or expansion
            if not lo < nxt <= KAPPA_MAX:
                if lo >= KAPPA_MAX:
                    self.result = KappaSolveResult(
                        self.alpha, math.inf, self.n_lo - 1.0, (KAPPA_MAX, math.inf), self.evals,
                        SolveStatus.BRACKET_FAILURE, last_finite=(lo, self.n_lo),
                    )
                    return True
                nxt = min(max(2.0 * lo, 1.0), KAPPA_MAX)
        elif not (lo < nxt < hi and abs(step) <= 0.5 * self.step_2):
            if self.n_lo is None:
                nxt = 0.0
            else:
                nxt = 0.5 * (lo + hi)
                if not lo < nxt < hi:
                    return self._stall()  # float subdivision exhausted
        self.step_2, self.step_1 = self.step_1, abs(nxt - kappa)
        self.kappa = nxt
        return False

    def _stall(self) -> bool:
        """End a solve that ran out of evaluations or of floats in its bracket."""
        if self.n_hi == math.inf:
            # N jumps from below 1 to +inf: the defining equation has no root
            self.result = KappaSolveResult(
                self.alpha, math.inf, self.n_lo - 1.0, (self.lo, self.hi), self.evals,
                SolveStatus.DIVERGENT_INTEGRAL, last_finite=(self.lo, self.n_lo),
            )
        else:
            self.result = KappaSolveResult(
                self.alpha, self.best_k, self.best_r, (self.lo, self.hi), self.evals,
                SolveStatus.BRACKET_FAILURE, last_finite=(self.lo, self.n_lo),
            )
        return True


def _solve(family, measure, u0, tol, roots, base, w, values, prime):
    """Run each root's solve (see _Root) to its end.

    base holds alpha phi^-1(p) + (1-alpha) phi^-1(q) per root: one (n,) array
    for a single root, else a (rows, n) block whose leading rows follow the
    roots still running, compacted in place as roots end.  w, values and
    prime are work buffers of base's shape.  Each step evaluates N on every
    running root with one phi call and one product with the weights, then N'
    the same way when some root takes a Newton step.  A single root gets the
    1-d dot product that integrate computes, so its kappa is bit for bit the
    one-alpha solve's; a block row may differ from it in the last bits.
    """
    weights = measure.weights
    if base.ndim == 1:
        root, = roots
        while True:
            _shift(base, u0, root.kappa, w)
            n = float(weights @ family._phi(w, values))
            if root.observe(integrate(measure, values) if math.isnan(n) else n, tol):
                return
            slope = math.nan
            if 0.0 < root.n < math.inf:
                # Newton on log N: phi'(w) from w and phi(w), then N'(kappa)
                slope = float(_u0_integral(weights, family._phi_prime(w, values, prime), u0))
            if root.move(slope):
                return
    while roots:
        k = len(roots)
        b, wk, vk, pk = base[:k], w[:k], values[:k], prime[:k]
        _shift(b, u0, np.array([root.kappa for root in roots])[:, None], wk)
        ns = (family._phi(wk, vk) @ weights).tolist()
        for i in [i for i, n in enumerate(ns) if math.isnan(n)]:
            ns[i] = integrate(measure, vk[i])  # integrate's +inf rule
        going = [not root.observe(n, tol) for root, n in zip(roots, ns)]
        slopes = [math.nan] * k
        if any(g and 0.0 < root.n < math.inf for g, root in zip(going, roots)):
            # rows that have ended, or whose N is not finite, may warn here;
            # their slopes are never read
            with np.errstate(invalid="ignore", over="ignore"):
                slopes = _u0_integral(weights, family._phi_prime(wk, vk, pk), u0).tolist()
        keep = [i for i in range(k) if going[i] and not roots[i].move(slopes[i])]
        if len(keep) < k:
            base[:len(keep)] = b[keep]
            roots = [roots[i] for i in keep]


def _u0_integral(weights, f, u0):
    """integral f u0 dmu on f's last axis; f is overwritten.  u0 is a float
    or an array."""
    if isinstance(u0, float):
        return u0 * (f @ weights)
    return np.multiply(f, u0, out=f) @ weights


def solve_kappa(
    family: DeformedExponential,
    pair: ProbabilityPair,
    alpha: float,
    u0=1.0,
    tol: float = 1e-12,
) -> KappaSolveResult:
    """Solve N(kappa) = 1 for kappa >= 0 by safeguarded Newton iteration on
    log N from kappa = 0, with geometric bracket expansion from [0, 1] and
    bisection as the fallbacks (see the module docstring): a one-alpha sweep.

    Returns CONVERGED with |N(kappa) - 1| <= tol, DIVERGENT_INTEGRAL when N
    jumps from below 1 to +inf (no root exists), or BRACKET_FAILURE when
    N(kappa) stays below 1 up to KAPPA_MAX or the iteration stalls above tol.
    `iterations` counts N evaluations, at most MAX_ITER.  Raises
    ArithmeticError when N evaluates to NaN, and ValueError unless
    0 < tol < inf.
    """
    return _sweep_kappa(family, pair, [alpha], u0, tol)[0]


def _sweep_kappa(family, pair, alphas, u0, tol):
    """solve_kappa at each alpha, with phi^-1(p) and phi^-1(q) computed once.

    The first alpha is solved alone, as solve_kappa solves it; the rest go in
    chunks of max(1, ENVELOPE_BLOCK // n) alphas, solved together by _solve
    in buffers allocated once.  Every alpha of a chunk starts from the
    divergence value of the last converged alpha before the chunk, or from
    kappa = 0 when the chunk before it has none.  A single alpha solves in
    the inverse images' own memory.
    """
    alphas = [float(a) for a in alphas]
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}; endpoints are defined only as limits")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    u0 = _resolve_u0(u0, pair.measure)
    if not alphas:
        return []
    n = pair.measure.size
    # the pair's densities are already checked positive and finite
    inv_p = family._phi_inv(pair.p, np.empty(n))
    inv_q = family._phi_inv(pair.q, np.empty(n))
    rows = max(1, min(ENVELOPE_BLOCK // n, len(alphas) - 1))
    first = _Root(alphas[0], 0.0)
    if len(alphas) == 1:
        base, w, values, prime = inv_p, inv_q, np.empty(n), np.empty(n)
    else:
        # one allocation rather than four: the allocator then reuses it for
        # the next sweep of this size without new page faults
        blocks = np.empty((4, rows, n))
        base, w, values, prime = blocks[:, 0]
    _interpolate(inv_p, inv_q, first.alpha, out=base, rest=w)
    _solve(family, pair.measure, u0, tol, [first], base, w, values, prime)
    previous = [first.result]
    results = list(previous)
    for start in range(1, len(alphas), rows):
        chunk = alphas[start:start + rows]
        divergence = next((r.kappa / (r.alpha * (1.0 - r.alpha)) for r in reversed(previous)
                           if r.status is SolveStatus.CONVERGED), 0.0)
        roots = [_Root(alpha, divergence * (alpha * (1.0 - alpha))) for alpha in chunk]
        base, w, values, prime = blocks[:, :len(chunk)]
        _interpolate(inv_p, inv_q, np.array(chunk)[:, None], out=base, rest=w)
        _solve(family, pair.measure, u0, tol, roots, base, w, values, prime)
        previous = [root.result for root in roots]
        results += previous
    return results


def classical_kappa(pair: ProbabilityPair, alpha: float) -> float:
    """Closed form for the classical exponential with u0 = 1:
    kappa(alpha) = -log integral p^alpha q^(1-alpha) dmu."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    hellinger = integrate(
        pair.measure,
        np.exp(alpha * np.log(pair.p) + (1.0 - alpha) * np.log(pair.q)),
    )
    return -math.log(hellinger)
