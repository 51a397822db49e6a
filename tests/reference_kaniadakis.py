"""Reference Kaniadakis certificate: the minimizer of g(v) = log_k(v) -
log_k(alpha v) found numerically, by a slope scan, a unimodality test and a
one-midpoint-per-call bisection of the sign change of g', as
verify_kaniadakis_u0 found it before it took the closed form; kept as an
independent oracle for that closed form.  Also the minimum 2 sinh(x) / k,
x = -(k/2) ln alpha, in 60-digit decimal arithmetic."""

import math
from decimal import Decimal, localcontext

import numpy as np
from reference_bisection import refine_last

from deformed_renyi.existence import _log_exceeds
from deformed_renyi.families import KaniadakisKappa

V_GRID = np.geomspace(1e-8, 1e8, 2001)
U_GRID = np.linspace(-50.0, 50.0, 10_000)


def certificate(kappa_param, alpha):
    """(v0, lam, n, check) with v0 the numeric minimizer of g, lam = g(v0),
    n = ceil(1/lam) and check whether alpha^n exp_k(u) <= exp_k(u - 1) on
    10 000 points of [-50, 50].  Raises ArithmeticError unless g' changes
    sign exactly once, from negative to positive, on V_GRID: the minimizer
    must lie within [1e-8, 1e8], and the slope must not be lost in rounding
    (|k| well above 1e-8)."""
    family = KaniadakisKappa(kappa_param)

    def g_prime(v):
        return family.phi_inv_deriv(v) - alpha * family.phi_inv_deriv(alpha * v)

    slopes = g_prime(V_GRID)
    signs = np.sign(slopes[slopes != 0.0])
    flips = int(np.count_nonzero(np.diff(signs) != 0))
    if flips != 1 or signs[0] >= 0 or signs[-1] <= 0:
        raise ArithmeticError(f"objective not unimodal on samples ({flips} slope sign changes)")
    lo, hi = refine_last(lambda v: g_prime(v) < 0, V_GRID)
    v0 = 0.5 * (lo + hi)
    lam = float(family.phi_inv(v0) - family.phi_inv(alpha * v0))
    n = math.ceil(1.0 / lam)
    check = not np.any(_log_exceeds(n * math.log(alpha) + family.log_phi(U_GRID),
                                    family.log_phi(U_GRID - 1.0)))
    return float(v0), lam, n, bool(check)


def _sinh(x):
    if abs(x) >= 1:
        return (x.exp() - (-x).exp()) / 2
    # the Taylor series, free of the cancellation of e^x - e^-x at small x
    term = total = x
    i = 1
    while abs(term) > abs(total) * Decimal(10) ** -70:
        term = term * x * x / ((2 * i) * (2 * i + 1))
        total += term
        i += 1
    return total


def lam_decimal(kappa_param, alpha):
    """2 sinh(x) / k with x = -(k/2) ln alpha, to 60 digits, from the floats
    kappa_param and alpha taken exactly."""
    with localcontext() as ctx:
        ctx.prec = 60
        k = Decimal(kappa_param)
        return 2 * _sinh(-k / 2 * Decimal(alpha).ln()) / k
