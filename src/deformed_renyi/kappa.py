"""Normalization functional and the implicit solve for the shift kappa(alpha).

For densities p, q, a positive direction u0 and alpha in (0, 1), the shift
kappa >= 0 is defined by

    N(kappa) = integral phi(alpha phi^-1(p) + (1-alpha) phi^-1(q) + kappa u0) dmu = 1.

N is non-decreasing in kappa and N(0) <= 1 by convexity of phi, so the root is
found by geometric bracket expansion followed by bisection.  When N jumps from
below 1 straight to +inf the instance has no root and is reported as a
divergent integral, never silently extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .families import DeformedExponential
from .jsonutil import jsonable_float
from .measures import MeasureModel, ProbabilityPair, integrate


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
        return {
            "alpha": self.alpha,
            "kappa": jsonable_float(self.kappa),
            "residual": jsonable_float(self.residual),
            "bracket": [jsonable_float(self.bracket[0]), jsonable_float(self.bracket[1])],
            "iterations": self.iterations,
            "status": self.status.value,
            "last_finite": [jsonable_float(x) for x in self.last_finite] if self.last_finite else None,
        }


def as_u0_array(u0, measure: MeasureModel) -> np.ndarray:
    """Broadcast a positive scalar or validate a per-atom positive array."""
    arr = np.asarray(u0, dtype=float)
    if arr.ndim == 0:
        arr = np.full(measure.size, float(arr))
    if arr.shape != (measure.size,):
        raise ValueError(f"u0 has shape {arr.shape}, expected ({measure.size},)")
    if np.any(~(arr > 0)) or np.any(~np.isfinite(arr)):
        raise ValueError("u0 must be strictly positive and finite")
    return arr


def interpolation_base(family: DeformedExponential, pair: ProbabilityPair, alpha: float) -> np.ndarray:
    """alpha phi^-1(p) + (1-alpha) phi^-1(q), the fixed part of the integrand."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    base = family.phi_inv(pair.p)
    base *= alpha
    rest = family.phi_inv(pair.q)
    rest *= 1.0 - alpha
    base += rest
    return base


def _normalization(family: DeformedExponential, pair: ProbabilityPair, base, u0_arr, kappa: float, work) -> float:
    """N(kappa) from a precomputed interpolation base; base + kappa u0 is
    formed in the caller's work buffer, which is overwritten."""
    np.multiply(u0_arr, kappa, out=work)
    np.add(base, work, out=work)
    return integrate(pair.measure, family.phi(work))


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
    u0_arr = as_u0_array(u0, pair.measure)
    base = interpolation_base(family, pair, alpha)
    return _normalization(family, pair, base, u0_arr, kappa, np.empty_like(base))


def solve_kappa(
    family: DeformedExponential,
    pair: ProbabilityPair,
    alpha: float,
    u0=1.0,
    tol: float = 1e-12,
    kappa_max: float = 1e6,
    initial_hi: float = 1.0,
    max_iter: int = 400,
) -> KappaSolveResult:
    """Solve N(kappa) = 1 for kappa >= 0.

    Returns CONVERGED with |N(kappa) - 1| <= tol, DIVERGENT_INTEGRAL when N
    jumps from below 1 to +inf (no root exists), or BRACKET_FAILURE when
    N(kappa) stays below 1 up to kappa_max.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}; endpoints are defined only as limits")
    if tol <= 0:
        raise ValueError("tol must be positive")
    u0_arr = as_u0_array(u0, pair.measure)
    base = interpolation_base(family, pair, alpha)
    work = np.empty_like(base)

    evals = 0

    def n_of(kappa: float) -> float:
        nonlocal evals
        evals += 1
        return _normalization(family, pair, base, u0_arr, kappa, work)

    n0 = n_of(0.0)
    if abs(n0 - 1.0) <= tol:
        # includes p = q, where the integrand collapses to p and kappa = 0 exactly
        return KappaSolveResult(alpha, 0.0, n0 - 1.0, (0.0, 0.0), evals, SolveStatus.CONVERGED)
    if n0 > 1.0:
        raise ValueError(
            f"N(0) = {n0} > 1; phi is not convex on the data or the pair is invalid"
        )

    # geometric bracket expansion from [0, initial_hi], never probing past kappa_max
    lo, n_lo = 0.0, n0
    hi = min(float(initial_hi), kappa_max)
    n_hi = n_of(hi)
    while n_hi < 1.0 and math.isfinite(n_hi):
        lo, n_lo = hi, n_hi
        if hi >= kappa_max:
            return KappaSolveResult(
                alpha, math.inf, n_lo - 1.0, (kappa_max, math.inf), evals,
                SolveStatus.BRACKET_FAILURE, last_finite=(lo, n_lo),
            )
        hi = min(hi * 2.0, kappa_max)
        n_hi = n_of(hi)

    # bisection; +inf values always fall on the hi side
    best_k, best_r = (hi, n_hi - 1.0) if math.isfinite(n_hi) else (lo, n_lo - 1.0)
    if abs(n_lo - 1.0) < abs(best_r):
        best_k, best_r = lo, n_lo - 1.0
    while evals < max_iter:
        if abs(best_r) <= tol:
            break
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break  # float subdivision exhausted
        n_mid = n_of(mid)
        if n_mid < 1.0:
            lo, n_lo = mid, n_mid
            r = n_mid - 1.0
            if abs(r) < abs(best_r):
                best_k, best_r = mid, r
        else:
            hi, n_hi = mid, n_mid
            if math.isfinite(n_mid):
                r = n_mid - 1.0
                if abs(r) < abs(best_r):
                    best_k, best_r = mid, r

    if abs(best_r) <= tol:
        return KappaSolveResult(alpha, best_k, best_r, (lo, hi), evals, SolveStatus.CONVERGED)
    if not math.isfinite(n_hi):
        # N jumps from below 1 to +inf: the defining equation has no root
        return KappaSolveResult(
            alpha, math.inf, n_lo - 1.0, (lo, hi), evals,
            SolveStatus.DIVERGENT_INTEGRAL, last_finite=(lo, n_lo),
        )
    return KappaSolveResult(
        alpha, best_k, best_r, (lo, hi), evals,
        SolveStatus.BRACKET_FAILURE, last_finite=(lo, n_lo),
    )


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
