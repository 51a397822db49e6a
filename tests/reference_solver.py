"""Reference solve of N(kappa) = 1 by geometric bracket expansion followed by
bisection: the library's solver before its Newton iteration, kept so that the
solver tests can compare against an independent root finder."""

import math

import numpy as np

from deformed_renyi.kappa import KappaSolveResult, SolveStatus, _resolve_u0, interpolation_base
from deformed_renyi.measures import integrate


def as_u0_array(u0, measure):
    """Broadcast a positive scalar or validate a per-atom positive array."""
    u0 = _resolve_u0(u0, measure)
    return np.full(measure.size, u0) if isinstance(u0, float) else u0


def bisection_kappa(family, pair, alpha, u0=1.0, tol=1e-12, kappa_max=1e6, initial_hi=1.0, max_iter=400):
    u0_arr = as_u0_array(u0, pair.measure)
    base = interpolation_base(family, pair, alpha)
    evals = 0

    def n_of(kappa):
        nonlocal evals
        evals += 1
        return integrate(pair.measure, family.phi(base + kappa * u0_arr))

    n0 = n_of(0.0)
    if abs(n0 - 1.0) <= tol:
        return KappaSolveResult(alpha, 0.0, n0 - 1.0, (0.0, 0.0), evals, SolveStatus.CONVERGED)
    if n0 > 1.0:
        raise ValueError(f"N(0) = {n0} > 1")

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

    best_k, best_r = (hi, n_hi - 1.0) if math.isfinite(n_hi) else (lo, n_lo - 1.0)
    if abs(n_lo - 1.0) < abs(best_r):
        best_k, best_r = lo, n_lo - 1.0
    while evals < max_iter and abs(best_r) > tol:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        n_mid = n_of(mid)
        if n_mid < 1.0:
            lo, n_lo = mid, n_mid
        else:
            hi, n_hi = mid, n_mid
        if math.isfinite(n_mid) and abs(n_mid - 1.0) < abs(best_r):
            best_k, best_r = mid, n_mid - 1.0

    if abs(best_r) <= tol:
        return KappaSolveResult(alpha, best_k, best_r, (lo, hi), evals, SolveStatus.CONVERGED)
    if not math.isfinite(n_hi):
        return KappaSolveResult(
            alpha, math.inf, n_lo - 1.0, (lo, hi), evals,
            SolveStatus.DIVERGENT_INTEGRAL, last_finite=(lo, n_lo),
        )
    return KappaSolveResult(
        alpha, best_k, best_r, (lo, hi), evals,
        SolveStatus.BRACKET_FAILURE, last_finite=(lo, n_lo),
    )


def slope(family, pair, alpha, u0, kappa):
    """N'(kappa) = integral u0 phi'(w) dmu, with phi'(w) = 1 / (phi^-1)'(phi(w))."""
    u0_arr = as_u0_array(u0, pair.measure)
    values = np.asarray(family.phi(interpolation_base(family, pair, alpha) + kappa * u0_arr))
    positive = values > 0
    deriv = np.ones_like(values)
    deriv[positive] = family.phi_inv_deriv(values[positive])
    return integrate(pair.measure, np.where(positive, u0_arr / deriv, 0.0))
