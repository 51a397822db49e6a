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
phi^-1(q) once, with one work buffer for all its solves (a single alpha
overwrites phi^-1(p) and phi^-1(q) with the base and the work buffer), and
starts each solve from the previous converged alpha's divergence value
D_i = kappa_i / (alpha_i (1 - alpha_i)), that is from
kappa = D_i alpha_{i+1} (1 - alpha_{i+1}).  D has finite limits at both
endpoints (the phi-divergences), so kappa vanishes at alpha = 0 and 1 and D
varies slowly in alpha: the start costs nothing.  After an alpha that did not
converge, the next one starts cold from kappa = 0.
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


def _interpolate(inv_p, inv_q, alpha: float, out, rest):
    """alpha inv_p + (1-alpha) inv_q into out, using rest as scratch."""
    np.multiply(inv_p, alpha, out=out)
    np.multiply(inv_q, 1.0 - alpha, out=rest)
    return np.add(out, rest, out=out)


def interpolation_base(family: DeformedExponential, pair: ProbabilityPair, alpha: float) -> np.ndarray:
    """alpha phi^-1(p) + (1-alpha) phi^-1(q), the fixed part of the integrand."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    inv_p = family.phi_inv(pair.p)
    inv_q = family.phi_inv(pair.q)
    return _interpolate(inv_p, inv_q, alpha, out=inv_p, rest=inv_q)


def _integrand(family: DeformedExponential, base, u0, kappa: float, work) -> np.ndarray:
    """phi(base + kappa u0), a fresh array; base + kappa u0 is formed in the
    caller's work buffer, which is overwritten.  u0 is a float or an array."""
    if isinstance(u0, float):
        np.add(base, u0 * kappa, out=work)
    else:
        np.multiply(u0, kappa, out=work)
        np.add(base, work, out=work)
    return family.phi(work)


def _u0_integral(measure: MeasureModel, f, u0) -> float:
    """integral f u0 dmu; f is overwritten.  u0 is a float or an array."""
    if isinstance(u0, float):
        return u0 * integrate(measure, f)
    return integrate(measure, np.multiply(f, u0, out=f))


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
    return integrate(pair.measure, _integrand(family, base, u0, kappa, np.empty_like(base)))


def _solve(family, measure, alpha, base, u0, tol, guess, work):
    """Solve N(kappa) = 1 from kappa = guess, or from 0 (a cold start) when
    guess is not inside (0, KAPPA_MAX).

    A warm start leaves N(0) unevaluated: lo = 0 is then a bound by convexity
    alone, and it is evaluated, with the cold-start checks, before the first
    fallback step.  w = base + kappa u0 is formed in work, which is overwritten.
    """
    evals = 0
    lo, n_lo = 0.0, None           # n_lo is None until N(0) is evaluated
    hi, n_hi = math.inf, None      # n_hi is None until some N >= 1 is seen
    best_k, best_r = math.nan, math.inf
    kappa = guess if 0.0 < guess < KAPPA_MAX else 0.0
    step_1 = step_2 = math.inf     # lengths of the last step and the one before it
    while True:
        evals += 1
        values = None  # frees the previous point's phi(w) before phi allocates
        values = _integrand(family, base, u0, kappa, work)
        n = integrate(measure, values)
        if math.isnan(n):
            raise ArithmeticError(f"N(kappa) is NaN at kappa = {kappa!r} (alpha = {alpha!r})")
        r = n - 1.0
        if kappa == 0.0:
            n_lo = n
            if abs(r) <= tol:
                # includes p = q, where the integrand collapses to p and kappa = 0 exactly
                return KappaSolveResult(alpha, 0.0, r, (0.0, 0.0), evals, SolveStatus.CONVERGED)
            if n > 1.0:
                raise ValueError(f"N(0) = {n} > 1; phi is not convex on the data or the pair is invalid")
        elif n < 1.0:
            lo, n_lo = kappa, n
        else:
            hi, n_hi = kappa, n
        if abs(r) <= tol:
            bracket = (lo, hi if n_hi is not None else kappa)
            return KappaSolveResult(alpha, kappa, r, bracket, evals, SolveStatus.CONVERGED)
        if abs(r) < abs(best_r):
            best_k, best_r = kappa, r
        if evals >= MAX_ITER:
            break

        step = math.nan
        if 0.0 < n < math.inf:
            # Newton on log N: phi'(w) from w and phi(w), then N'(kappa)
            slope = _u0_integral(measure, family._phi_prime(work, values), u0)
            if 0.0 < slope < math.inf:
                step = -math.log(n) * (n / slope)
        nxt = kappa + step
        if n_hi is None:
            # no point with N >= 1 yet: the Newton step from below, or expansion
            if not lo < nxt <= KAPPA_MAX:
                if lo >= KAPPA_MAX:
                    return KappaSolveResult(
                        alpha, math.inf, n_lo - 1.0, (KAPPA_MAX, math.inf), evals,
                        SolveStatus.BRACKET_FAILURE, last_finite=(lo, n_lo),
                    )
                nxt = min(max(2.0 * lo, 1.0), KAPPA_MAX)
        elif not (lo < nxt < hi and abs(step) <= 0.5 * step_2):
            if n_lo is None:
                nxt = 0.0
            else:
                nxt = 0.5 * (lo + hi)
                if not lo < nxt < hi:
                    break  # float subdivision exhausted
        step_2, step_1 = step_1, abs(nxt - kappa)
        kappa = nxt

    if n_hi == math.inf:
        # N jumps from below 1 to +inf: the defining equation has no root
        return KappaSolveResult(
            alpha, math.inf, n_lo - 1.0, (lo, hi), evals,
            SolveStatus.DIVERGENT_INTEGRAL, last_finite=(lo, n_lo),
        )
    return KappaSolveResult(
        alpha, best_k, best_r, (lo, hi), evals,
        SolveStatus.BRACKET_FAILURE, last_finite=(lo, n_lo),
    )


def solve_kappa(
    family: DeformedExponential,
    pair: ProbabilityPair,
    alpha: float,
    u0=1.0,
    tol: float = 1e-12,
) -> KappaSolveResult:
    """Solve N(kappa) = 1 for kappa >= 0 by safeguarded Newton iteration on
    log N from kappa = 0, with geometric bracket expansion from [0, 1] and
    bisection as the fallbacks (see the module docstring): a one-alpha sweep,
    which overwrites phi^-1(p) and phi^-1(q) in place.

    Returns CONVERGED with |N(kappa) - 1| <= tol, DIVERGENT_INTEGRAL when N
    jumps from below 1 to +inf (no root exists), or BRACKET_FAILURE when
    N(kappa) stays below 1 up to KAPPA_MAX or the iteration stalls above tol.
    `iterations` counts N evaluations, at most MAX_ITER.  Raises
    ArithmeticError when N evaluates to NaN, and ValueError unless
    0 < tol < inf.
    """
    return _sweep_kappa(family, pair, [alpha], u0, tol)[0]


def _sweep_kappa(family, pair, alphas, u0, tol):
    """solve_kappa at each alpha, in order, with phi^-1(p) and phi^-1(q)
    computed once and one work buffer; each alpha after a converged one starts
    from the previous divergence value, each other alpha from kappa = 0.  A
    single alpha overwrites phi^-1(p) and phi^-1(q), which nothing reads again."""
    alphas = [float(a) for a in alphas]
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}; endpoints are defined only as limits")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    u0 = _resolve_u0(u0, pair.measure)
    inv_p = family.phi_inv(pair.p)
    inv_q = family.phi_inv(pair.q)
    base, work = (inv_p, inv_q) if len(alphas) == 1 else (np.empty_like(inv_p), np.empty_like(inv_p))
    results = []
    divergence = 0.0
    for alpha in alphas:
        scale = alpha * (1.0 - alpha)  # kappa = D alpha (1 - alpha)
        _interpolate(inv_p, inv_q, alpha, out=base, rest=work)
        result = _solve(family, pair.measure, alpha, base, u0, tol, divergence * scale, work)
        results.append(result)
        divergence = result.kappa / scale if result.status is SolveStatus.CONVERGED else 0.0
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
