"""Divergences built on the solved shift, plus the classical oracles.

The generalized Renyi divergence of order alpha in (0, 1) is
kappa(alpha) / (alpha (1 - alpha)), which is non-negative since kappa >= 0.
Its endpoint values at alpha in {0, 1} are limits, and both coincide with the
phi-divergence (quotient-of-integrals generalization of Kullback-Leibler):
the alpha -> 1 limit of D(p||q) and the alpha -> 0 limit of D(q||p) equal
D_phi(p||q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .families import DeformedExponential, q_logarithm
from .jsonutil import jsonable
from .kappa import (
    KappaSolveResult,
    SolveStatus,
    _resolve_u0,
    _sweep_kappa,
    classical_kappa,
    solve_kappa,
)
from .measures import ProbabilityPair, integrate


@dataclass
class DivergenceReport:
    alpha: float
    kappa: float
    value: float
    family: str
    u0: str
    status: SolveStatus
    solver: KappaSolveResult | None = None

    def to_json(self):
        obj = jsonable(self)
        del obj["solver"]
        return obj


def generalized_renyi(
    family: DeformedExponential,
    pair: ProbabilityPair,
    alpha: float,
    u0=1.0,
    tol: float = 1e-12,
) -> DivergenceReport:
    """kappa(alpha) / (alpha (1 - alpha)); +inf when the solver reports no root.

    The report's u0 label is "const:<x>" for a scalar u0 and "seq[<n>]" for a
    per-atom one.
    """
    return sweep(family, pair, [alpha], u0=u0, tol=tol)[0]


def sweep(
    family: DeformedExponential,
    pair: ProbabilityPair,
    alphas,
    u0=1.0,
    tol: float = 1e-12,
) -> list[DivergenceReport]:
    """generalized_renyi at each alpha, in the given order: phi^-1(p) and
    phi^-1(q) are computed once, the first alpha is solved alone, as
    generalized_renyi solves it, and the others in chunks solved together
    (see the kappa module).  Each chunk starts from the divergence value of
    the last converged alpha before it, kappa = D alpha (1 - alpha), or from
    kappa = 0 when the chunk before it has none.  Every report meets the same
    tolerance as a single solve, though its kappa may differ from the single
    solve's in the last bits; a non-converged alpha does not stop the sweep.
    generalized_renyi is a one-alpha sweep, which overwrites its inverse images.
    """
    results = _sweep_kappa(family, pair, alphas, u0, tol)
    label = _u0_label(u0)
    reports = []
    for result in results:
        alpha, kappa = result.alpha, result.kappa
        value = kappa / (alpha * (1.0 - alpha)) if math.isfinite(kappa) else math.inf
        reports.append(DivergenceReport(alpha, kappa, value, family.family_id, label, result.status, result))
    return reports


def _u0_label(u0) -> str:
    arr = np.asarray(u0, dtype=float)
    if arr.ndim == 0:
        return f"const:{float(arr)}"
    return f"seq[{arr.size}]"


def classical_renyi(pair: ProbabilityPair, alpha: float) -> float:
    """Closed-form oracle:  -log(integral p^alpha q^(1-alpha) dmu) / (alpha (1-alpha)).

    Equals the generalized divergence for the classical exponential with u0 = 1.
    (The alpha(1-alpha) normalization keeps the value non-negative on (0, 1);
    conventions with alpha(alpha-1) differ by sign.)
    """
    return classical_kappa(pair, alpha) / (alpha * (1.0 - alpha))


class DivergentNumerator(ArithmeticError):
    """phi-divergence numerator integral is not finite."""


class DivergentDenominator(ArithmeticError):
    """phi-divergence denominator integral is not finite or not positive."""


def phi_divergence(family: DeformedExponential, pair: ProbabilityPair, u0=1.0) -> float:
    """Quotient-of-integrals divergence

        D_phi(p||q) = [int (phi^-1(p) - phi^-1(q)) / (phi^-1)'(p) dmu]
                      / [int u0 / (phi^-1)'(p) dmu].

    For the classical exponential with u0 = 1 this reduces exactly to
    Kullback-Leibler, since (phi^-1)'(p) = 1/p.
    """
    u0 = _resolve_u0(u0, pair.measure)
    # the pair's densities are already checked positive and finite
    n = pair.measure.size
    inv_p = family._phi_inv(pair.p, np.empty(n))
    inv_q = family._phi_inv(pair.q, np.empty(n))
    slope = family._phi_inv_deriv(pair.p, np.empty(n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        numerator = integrate(pair.measure, (inv_p - inv_q) / slope)
        denominator = integrate(pair.measure, u0 / slope)
    if not math.isfinite(numerator):
        raise DivergentNumerator(f"numerator integral = {numerator}")
    if not math.isfinite(denominator) or denominator <= 0:
        raise DivergentDenominator(f"denominator integral = {denominator}")
    return numerator / denominator


def kl_divergence(pair: ProbabilityPair) -> float:
    """Kullback-Leibler divergence  integral p log(p/q) dmu."""
    return integrate(pair.measure, pair.p * (np.log(pair.p) - np.log(pair.q)))


def tsallis_relative_entropy(pair: ProbabilityPair, q_param: float) -> float:
    """Tsallis relative entropy  integral p ln_q(p/q) dmu,  q_param finite and != 1."""
    if not math.isfinite(q_param):
        raise ValueError(f"q_param must be finite, got {q_param}")
    if q_param == 1.0:
        raise ValueError("q_param must differ from 1; use kl_divergence for the limit")
    with np.errstate(over="ignore", invalid="ignore"):
        value = integrate(pair.measure, pair.p * q_logarithm(pair.p / pair.q, q_param))
    if not math.isfinite(value):
        raise ValueError(f"Tsallis relative entropy is not finite in float64 at q_param={q_param}")
    return value


@dataclass
class LimitEstimate:
    """Endpoint limit of the generalized divergence along an alpha sequence."""

    endpoint: int
    value: float                 # Richardson-corrected estimate
    raw_last: float              # last table entry, uncorrected
    table: list = field(default_factory=list)  # (alpha, divergence value)
    converged: bool = True       # successive differences shrink monotonically


def default_alpha_sequence(endpoint: int) -> np.ndarray:
    """Alphas at distance 2^-4, ..., 2^-14 from the endpoint."""
    dist = np.exp2(-np.arange(4.0, 15.0))
    return 1.0 - dist if endpoint == 1 else dist


def limit_divergence(
    family: DeformedExponential,
    pair: ProbabilityPair,
    u0=1.0,
    endpoint: int = 1,
) -> LimitEstimate:
    """Extrapolate the endpoint limit along default_alpha_sequence(endpoint).

    The table comes from interior solves (one `sweep` at the default
    tolerance), never from the derivative of kappa at the endpoint itself.
    The distances to the endpoint halve, so the estimate is the final table
    entry plus the Richardson step for a ratio of 1/2, the last difference
    once more; the full table is returned so convergence can be judged.  A
    table whose successive differences fail to shrink flags the estimate as
    non-converged.
    """
    if endpoint not in (0, 1):
        raise ValueError("endpoint must be 0 or 1")
    alphas = default_alpha_sequence(endpoint)
    reports = sweep(family, pair, alphas, u0=u0)
    for report in reports:
        if report.status is not SolveStatus.CONVERGED:
            raise ArithmeticError(f"solver status {report.status.value} at alpha={report.alpha}")
    values = np.asarray([report.value for report in reports])

    diffs = np.abs(np.diff(values))
    window = diffs[-6:]
    converged = bool(np.all(window[1:] <= window[:-1] * 1.25 + 1e-12))

    estimate = float(values[-1] + (values[-1] - values[-2]))
    return LimitEstimate(
        endpoint=endpoint,
        value=estimate,
        raw_last=float(values[-1]),
        table=[(float(a), float(v)) for a, v in zip(alphas, values)],
        converged=converged,
    )


def kappa_derivative_at_endpoint(
    family: DeformedExponential,
    pair: ProbabilityPair,
    endpoint: int,
    u0=1.0,
) -> float:
    """One-sided finite-difference estimate of d kappa / d alpha at 0 or 1.

    kappa vanishes at both endpoints, so the derivative reduces to +-kappa(h)/h
    one step h = 1e-5 inside the interval, solved at the default tolerance; a
    solve that does not converge raises ArithmeticError.  Cross-checks the
    identity that the endpoint limits of the divergence equal the phi-divergence.
    """
    h = 1e-5
    if endpoint not in (0, 1):
        raise ValueError("endpoint must be 0 or 1")
    report = solve_kappa(family, pair, h if endpoint == 0 else 1.0 - h, u0=u0)
    if report.status is not SolveStatus.CONVERGED:
        raise ArithmeticError(f"solver status {report.status.value} at alpha={report.alpha}")
    return (report.kappa if endpoint == 0 else -report.kappa) / h
