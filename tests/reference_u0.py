"""Reference u0 construction: each boundary constant by its own grid scan and
one-midpoint-per-call bisection, computed one lambda at a time as the
selection walk reaches it, as construct_u0_sequence did before it bisected
the boundaries of a run of lambdas together; kept so that the tests can
compare the two exactly."""

import math

import numpy as np
from reference_bisection import refine_last

from deformed_renyi.existence import (
    ConstructionError,
    U0Construction,
    _log_exceeds,
    _phi_or_zero,
    _scan_eta,
    _shifted_range,
    _sublevel_sup,
    default_lambda_sequence,
)


def boundary_sup(family, log_alpha, lam_n, log_eps, u_cap):
    """sup{u : alpha phi(u) > phi(u - lam_n) and phi(u - lam_n) <= eps}, by a
    grid scan of [u_cap - 80, u_cap] inside the probe range, refined by
    bisection toward the next grid point above."""

    def cond(u):
        rhs = np.asarray(family.log_phi(u - lam_n))
        return _log_exceeds(log_alpha + np.asarray(family.log_phi(u)), rhs) & ~_log_exceeds(rhs, log_eps)

    lo, hi = _shifted_range(family, lam_n)
    u_lo = max(u_cap - 80.0, family.a_phi, lo)
    u_hi = min(u_cap, hi)
    if u_lo >= u_hi:
        return -math.inf
    bracket = refine_last(cond, np.linspace(u_lo, u_hi, 4001), tol=1e-10)
    return -math.inf if bracket is None else float(bracket[1])


def construct_u0_sequence(family, alpha, lambda_sequence=None, n_terms=16):
    """The construction on valid inputs, at the default eta and summability
    target."""
    summability_target = 1e-3
    lambdas = default_lambda_sequence(alpha) if lambda_sequence is None else np.asarray(lambda_sequence, dtype=float)
    lam1 = float(lambdas[0])
    log_alpha = math.log(alpha)
    eta = _scan_eta(family, log_alpha, lam1)
    log_eps = float(family.log_phi(eta - lam1))
    u_eps = _sublevel_sup(family, log_eps)
    walk = iter(range(lambdas.size))
    indices, c_seq, phi_c_seq = [], [], []
    for i in range(n_terms):
        cap = summability_target * 2.0 ** -(i + 2)
        for j in walk:
            lam_n = float(lambdas[j])
            c = boundary_sup(family, log_alpha, lam_n, log_eps, float(lam_n + u_eps))
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
    return U0Construction(
        family=family.family_id, alpha=alpha, eta=float(eta), epsilon=math.exp(log_eps),
        u0_sequence=lambdas[indices], c_sequence=np.array(c_seq), lambda_indices=[int(i) for i in indices],
        partial_sum_phi_c=float(np.sum(phi_c_seq)), tail_bound=summability_target * 2.0 ** -(n_terms + 1),
        summability_target=summability_target,
    )
