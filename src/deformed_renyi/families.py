"""Deformed exponential families.

A deformed exponential is a convex, non-decreasing function phi: R -> [0, inf)
with phi(u) -> 0 as u -> -inf and phi(u) -> inf as u -> +inf.  Each family here
exposes evaluation, the inverse on (0, inf), the derivative of the inverse, the
derivative phi' (which the kappa solve uses), and the log of phi (which the
existence probes use to avoid overflow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jsonutil import jsonable
from .measures import read_float_csv

# Saturation ceiling for phi in linear space: phi is +inf wherever
# log phi > LOG_PHI_MAX, so that integrators treat it as divergence evidence
# instead of silently overflowing; NaN stays NaN.  log_phi never saturates;
# probes work in log space.
PHI_MAX = 1e300
LOG_PHI_MAX = math.log(PHI_MAX)


class DomainError(ValueError):
    """Argument outside the domain where the requested quantity is defined."""


class FamilyParameterError(ValueError):
    """Family parameter outside its admissible range."""


def _scalar_like(x, arr):
    """arr as a float when the ndarray x that it was computed from is 0-d."""
    return float(arr) if x.ndim == 0 else arr


def q_logarithm(x, q):
    """Tsallis q-logarithm  ln_q(x) = (x^(1-q) - 1) / (1 - q),  ln_1 = ln."""
    x = np.asarray(x, dtype=float)
    if x.size and not x.min() > 0:  # a NaN minimum fails too
        raise DomainError("q_logarithm requires x > 0")
    if q == 1.0:
        out = np.log(x)
    else:
        out = (np.power(x, 1.0 - q) - 1.0) / (1.0 - q)
    return _scalar_like(x, out)


class DeformedExponential:
    """Base interface. Subclasses are immutable and safe to share across threads.

    The public maps accept scalars or arrays and return a float for a scalar
    input: each converts its argument, checks v > 0 for the two inverse maps,
    and calls its hook on a fresh np.empty of the argument's shape.
    Subclasses implement only four array hooks, and all four write their
    result into the caller's out and return it: _log_phi(u, out) log phi(u),
    _phi_inv(v, out) phi^-1(v), _phi_inv_deriv(v, out) (phi^-1)'(v), and
    _phi_prime(u, values, out) phi'(u).  The inverse hooks receive v > 0 and
    do not check it, so library code holding densities that are already
    validated (a ProbabilityPair's) calls them directly.  _phi_prime receives
    u and values = phi(u) (as saturated by phi) and computes phi'(u) by cheap
    algebra on the two, so the kappa solve gets N'(kappa) without another
    transcendental pass: 0 wherever phi(u) = 0, NaN where u is NaN, and a
    one-sided derivative at a kink.  out is a float array of the first
    argument's shape (0-d included, or a (rows, n) block) that aliases no
    input, and no hook writes into its inputs, so the kappa solve can reuse
    its own buffers at every step.
    _phi_inv_deriv is its own hook, not 1 / _phi_prime(_phi_inv(v), v): for
    Tsallis, 1 + u/m cancels near the bottom of the support, which costs up
    to 2e-5 relative accuracy at v = 1e-12.
    """

    family_id: str = "base"
    a_phi: float = -math.inf  # inf{u : phi(u) > 0}

    def log_phi(self, u):
        """log phi(u); -inf where phi vanishes.  Never saturated."""
        u = np.asarray(u, dtype=float)
        return _scalar_like(u, self._log_phi(u, np.empty(u.shape)))

    def phi(self, u):
        """phi(u) >= 0, with values above PHI_MAX reported as +inf."""
        u = np.asarray(u, dtype=float)
        return _scalar_like(u, self._phi(u, np.empty(u.shape)))

    def _phi(self, u, out):
        """phi(u) into out, as _log_phi writes log phi (the same contract).

        The saturation mask is built only when the largest log phi exceeds
        LOG_PHI_MAX or is NaN (NaN fails the comparison, so a NaN anywhere
        also takes the mask path); otherwise phi is one in-place exp.
        """
        self._log_phi(u, out)
        if out.size and not out.max() <= LOG_PHI_MAX:
            saturated = out > LOG_PHI_MAX
            with np.errstate(over="ignore"):
                np.exp(out, out=out)
            out[saturated] = np.inf
        else:
            np.exp(out, out=out)
        return out

    def phi_inv(self, v):
        v = self._check_positive(v)
        return _scalar_like(v, self._phi_inv(v, np.empty(v.shape)))

    def phi_inv_deriv(self, v):
        """(phi^-1)'(v) = 1 / phi'(phi^-1(v)) > 0."""
        v = self._check_positive(v)
        return _scalar_like(v, self._phi_inv_deriv(v, np.empty(v.shape)))

    def _log_phi(self, u, out):
        raise NotImplementedError

    def _phi_inv(self, v, out):
        raise NotImplementedError

    def _phi_inv_deriv(self, v, out):
        raise NotImplementedError

    def _phi_prime(self, u, values, out):
        raise NotImplementedError

    @classmethod
    def from_spec(cls, arg: str) -> DeformedExponential:
        """Build from the argument of a CLI spec '<family_id>:<arg>' ('' when absent)."""
        if arg:
            raise ValueError(f"family {cls.family_id!r} takes no argument, got {arg!r}")
        return cls()

    def params(self) -> dict:
        return {}

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({ps})"

    @staticmethod
    def _check_positive(v):
        v = np.asarray(v, dtype=float)
        if v.size and not v.min() > 0:  # a NaN minimum fails too
            raise DomainError("phi_inv requires v > 0")
        return v


class ClassicalExp(DeformedExponential):
    """phi(u) = e^u."""

    family_id = "exp"

    def _log_phi(self, u, out):
        out[...] = u
        return out

    def _phi_inv(self, v, out):
        return np.log(v, out=out)

    def _phi_inv_deriv(self, v, out):
        return np.divide(1.0, v, out=out)

    def _phi_prime(self, u, values, out):
        out[...] = values
        return out


class TsallisQ(DeformedExponential):
    """Power-growth deformation  phi(u) = (1 + u/m)^m  on u > -m, 0 below.

    The growth exponent is m = 1/|1-q|, so q and 2-q give the same function.
    This keeps phi finite on all of R for every admissible q (direct inversion
    of the q-logarithm for q > 1 would blow up at finite u).  Admissible
    q in [0, 2], q != 1; q -> 1 recovers the classical exponential pointwise.
    """

    family_id = "tsallis"

    def __init__(self, q: float):
        if not (0.0 <= q <= 2.0) or q == 1.0:
            raise FamilyParameterError(f"tsallis q must be in [0, 2] and != 1, got {q}")
        self.q = float(q)
        self.m = 1.0 / abs(1.0 - self.q)
        self.a_phi = -self.m

    @classmethod
    def from_spec(cls, arg):
        return cls(float(arg))

    def params(self):
        return {"q": self.q}

    def _log_phi(self, u, out):
        np.divide(u, self.m, out=out)
        if out.size and not out.min() > -1.0:
            # some u/m <= -1 (or NaN): log1p gives -inf or NaN there, and
            # phi = 0 for u <= -m; NaN stays NaN
            with np.errstate(divide="ignore", invalid="ignore"):
                np.log1p(out, out=out)
            out[u <= -self.m] = -np.inf
        else:
            np.log1p(out, out=out)
        return np.multiply(out, self.m, out=out)

    def _phi_inv(self, v, out):
        # inverse of (1 + u/m)^m, equal to the q-logarithm of the effective q
        np.log(v, out=out)
        np.divide(out, self.m, out=out)
        np.expm1(out, out=out)
        return np.multiply(out, self.m, out=out)

    def _phi_inv_deriv(self, v, out):
        np.log(v, out=out)
        np.multiply(out, 1.0 / self.m - 1.0, out=out)
        return np.exp(out, out=out)

    def _phi_prime(self, u, values, out):
        # (1 + u/m)^(m-1) = phi / (1 + u/m); where phi vanishes (u <= -m) the
        # divisor becomes 1, so phi' = 0 there
        np.divide(u, self.m, out=out)
        np.add(out, 1.0, out=out)
        if values.size and not values.min() > 0.0:  # some phi = 0, or NaN
            out[values == 0.0] = 1.0
        return np.divide(values, out, out=out)


class KaniadakisKappa(DeformedExponential):
    """Kaniadakis exponential  exp_k(u) = (k u + sqrt(1 + k^2 u^2))^(1/k).

    Strictly positive with power-law tails for k != 0; k = 0 is e^u.
    The inverse is the k-logarithm  log_k(v) = (v^k - v^-k) / (2k).
    """

    family_id = "kaniadakis"

    def __init__(self, kappa: float):
        if not (-1.0 <= kappa <= 1.0):
            raise FamilyParameterError(f"kaniadakis kappa must be in [-1, 1], got {kappa}")
        self.kappa = float(kappa)
        self._subnormal = 0.0 < abs(self.kappa) < np.finfo(float).tiny

    @classmethod
    def from_spec(cls, arg):
        return cls(float(arg))

    def params(self):
        return {"kappa": self.kappa}

    def _log_phi(self, u, out):
        if self.kappa == 0.0:
            out[...] = u
            return out
        return self._closed_form(np.arcsinh, u, out)

    def _phi_inv(self, v, out):
        if self.kappa == 0.0:
            return np.log(v, out=out)
        return self._closed_form(np.sinh, np.log(v) if self._subnormal else np.log(v, out=out), out)

    def _closed_form(self, f, x, out):
        """f(k x) / k into out; a subnormal k, whose k x keeps few bits, gives x
        where |k x| < 2**-26, as f(y) / y (arcsinh or sinh) rounds to 1 there."""
        np.multiply(x, self.kappa, out=out)
        small = np.abs(out) < 2.0 ** -26 if self._subnormal else None
        f(out, out=out)
        np.divide(out, self.kappa, out=out)
        if self._subnormal:
            np.copyto(out, x, where=small)
        return out

    def _phi_inv_deriv(self, v, out):
        if self.kappa == 0.0:
            return np.divide(1.0, v, out=out)
        np.log(v, out=out)
        np.multiply(out, self.kappa, out=out)
        np.cosh(out, out=out)
        return np.divide(out, v, out=out)

    def _phi_prime(self, u, values, out):
        # phi / sqrt(1 + k^2 u^2)
        if self.kappa == 0.0:
            out[...] = values
            return out
        np.multiply(u, self.kappa, out=out)
        with np.errstate(over="ignore"):
            np.square(out, out=out)
        np.add(out, 1.0, out=out)
        np.sqrt(out, out=out)
        if not out.max() < math.inf:  # NaN u also lands here, harmlessly
            # (k u)^2 overflowed, so |k u| > 1e154 and sqrt(1 + k^2 u^2) = |k u|
            big = np.isinf(out)
            out[big] = np.abs(u[big] * self.kappa)
        return np.divide(values, out, out=out)


class CounterexamplePhi(DeformedExponential):
    """Super-exponential family  phi(u) = e^((u+1)^2/2) for u >= 0, e^(u+1/2) for u <= 0.

    A valid deformed exponential whose growth ratio phi(u)/phi(u - c) is
    unbounded for every c > 0, so it fails the non-atomic existence condition.
    Both branches give phi(0) = phi'(0) = e^(1/2).
    """

    family_id = "counterexample"

    _LOG_SPLIT = 0.5  # log phi(0)

    def _log_phi(self, u, out):
        np.add(u, 1.0, out=out)
        with np.errstate(over="ignore"):  # log phi = +inf for |u| > ~1.3e154; u < 0 is overwritten
            np.square(out, out=out)
        np.multiply(out, 0.5, out=out)
        np.add(u, 0.5, out=out, where=~(u >= 0.0))
        return out

    def _phi_inv(self, v, out):
        logv = np.log(v)
        np.multiply(logv, 2.0, out=out)
        np.maximum(out, 0.0, out=out)
        with np.errstate(invalid="ignore"):
            np.sqrt(out, out=out)
        np.subtract(out, 1.0, out=out)
        np.subtract(logv, 0.5, out=out, where=~(logv >= self._LOG_SPLIT))
        return out

    def _phi_inv_deriv(self, v, out):
        # at the branch junction v = e^(1/2) both branches give 1/v
        logv = np.log(v)
        np.multiply(logv, 2.0, out=out)
        np.maximum(out, 1.0e-300, out=out)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.sqrt(out, out=out)
            np.multiply(v, out, out=out)
            np.divide(1.0, out, out=out)
        np.divide(1.0, v, out=out, where=~(logv >= self._LOG_SPLIT))
        return out

    def _phi_prime(self, u, values, out):
        # phi (u + 1) for u >= 0 and phi for u <= 0
        np.add(u, 1.0, out=out)
        np.maximum(out, 1.0, out=out)
        return np.multiply(out, values, out=out)


class TabulatedMonotone(DeformedExponential):
    """Deformed exponential given by knots (u_i, phi_i), interpolated linearly
    in (u, log phi) space: one np.interp each for phi and phi_inv, one segment
    search for phi' and phi_inv_deriv (the left segment at an interior knot;
    phi' is 0 on a flat one).  Queries outside the knot range raise DomainError,
    as does inversion at a flat value (a log phi of >= 2 knots, found once).
    """

    family_id = "tabulated"

    def __init__(self, knots):
        knots = [(float(u), float(p)) for u, p in knots]
        if len(knots) < 2:
            raise FamilyParameterError("tabulated family needs at least 2 knots")
        us = np.array([k[0] for k in knots])
        ps = np.array([k[1] for k in knots])
        if not np.all(np.isfinite(us)):
            raise FamilyParameterError("knot u values must be finite")
        if not np.all(np.isfinite(ps)):
            raise FamilyParameterError("knot phi values must be finite")
        if np.any(np.diff(us) <= 0):
            raise FamilyParameterError("knot u values must be strictly increasing")
        if np.any(ps <= 0):
            raise FamilyParameterError("knot phi values must be positive")
        if np.any(np.diff(ps) < 0):
            raise FamilyParameterError("knot phi values must be non-decreasing")
        self.u_knots = us
        self.log_knots = np.log(ps)
        d_log = np.diff(self.log_knots)
        self.log_slopes = d_log / np.diff(us)  # d log phi / du per segment
        self._u_per_log = np.divide(np.diff(us), d_log, out=np.full_like(d_log, np.inf), where=d_log > 0)
        self._flat_logs = self.log_knots[1:][d_log == 0]
        for arr in (self.u_knots, self.log_knots, self.log_slopes, self._u_per_log):
            arr.flags.writeable = False

    def params(self):
        return {"knots": [[u, math.exp(lp)] for u, lp in zip(self.u_knots, self.log_knots)]}

    @classmethod
    def from_spec(cls, arg):
        if not arg:
            raise ValueError("tabulated family needs a CSV path: tabulated:<path>")
        return cls.from_csv(arg)

    @staticmethod
    def _segment_index(knots, x):
        # s with x in [knots[s], knots[s + 1]]; NaN picks the last segment
        return np.searchsorted(knots[1:-1], x, side="left")

    def _log_phi(self, u, out):
        # fmin and fmax skip NaN, which passes and gives phi = NaN
        if u.size and (np.fmin.reduce(u, axis=None) < self.u_knots[0]
                       or np.fmax.reduce(u, axis=None) > self.u_knots[-1]):
            raise DomainError(
                f"u outside tabulated range [{self.u_knots[0]}, {self.u_knots[-1]}]"
            )
        out[...] = np.interp(u, self.u_knots, self.log_knots)
        return out

    def _log_v(self, v, out):
        """log v into out, checked against the table's phi range and flat values."""
        logv = np.log(v, out=out)
        if logv.size and (logv.min() < self.log_knots[0] or logv.max() > self.log_knots[-1]):
            raise DomainError("v outside tabulated phi range")
        if self._flat_logs.size and np.isin(logv, self._flat_logs).any():
            raise DomainError("phi_inv hit a flat tabulated segment; preimage is ambiguous")
        return logv

    def _phi_inv(self, v, out):
        out[...] = np.interp(self._log_v(v, out), self.log_knots, self.u_knots)
        return out

    def _phi_inv_deriv(self, v, out):
        # phi_inv is linear in log v on each segment: the slope du / dlog phi over v
        slopes = self._u_per_log[self._segment_index(self.log_knots, self._log_v(v, out))]
        return np.divide(slopes, v, out=out)

    def _phi_prime(self, u, values, out):
        slopes = self.log_slopes[self._segment_index(self.u_knots, u)]  # NaN values stay NaN
        with np.errstate(over="ignore"):  # a phi' beyond the float range is +inf
            return np.multiply(values, slopes, out=out)

    @classmethod
    def from_csv(cls, path):
        """Load knots from CSV with header 'u,phi', u strictly increasing."""
        header, knots, _ = read_float_csv(path)
        if header != ["u", "phi"]:
            raise ValueError(f"{path}: expected header 'u,phi'")
        return cls(knots)


@dataclass
class ValidationReport:
    """Numeric check of the deformed-exponential axioms on a grid."""

    family: str
    convexity_violations: list = field(default_factory=list)   # (u_lo, u_hi, excess)
    monotonicity_violations: list = field(default_factory=list)  # (u_lo, u_hi, drop)
    tail_low_value: float = math.nan   # phi at the grid minimum
    tail_high_value: float = math.nan  # phi at the grid maximum
    n_points: int = 0

    @property
    def passed(self) -> bool:
        return not self.convexity_violations and not self.monotonicity_violations

    def to_json(self) -> dict:
        return {**jsonable(self), "passed": self.passed}


def validate_family(family: DeformedExponential, u_grid) -> ValidationReport:
    """Midpoint convexity test, monotonicity test, and tail probes.

    Violations are collected, not raised; a drop or a midpoint excess counts
    when it exceeds 1e-9 times max(1, |phi|).  Saturated (+inf) values are
    skipped in the convexity test since midpoint comparisons are meaningless
    there.
    """
    rel_tol = 1e-9
    u = np.asarray(u_grid, dtype=float)
    if u.size < 3:
        raise ValueError("u_grid needs at least 3 points")
    if not np.all(np.isfinite(u)):
        raise ValueError("u_grid must be finite")
    if np.any(np.diff(u) <= 0):
        raise ValueError("u_grid must be strictly increasing")

    vals = np.asarray(family.phi(u))
    report = ValidationReport(family=family.family_id, n_points=int(u.size))
    report.tail_low_value = float(vals[0])
    report.tail_high_value = float(vals[-1])

    with np.errstate(invalid="ignore"):
        # inf - inf gives nan, which correctly never flags (both saturated)
        drops = vals[:-1] - vals[1:]
        scale = np.maximum(1.0, np.abs(vals[:-1]))
        bad = drops > rel_tol * scale
    for i in np.nonzero(bad)[0]:
        report.monotonicity_violations.append((float(u[i]), float(u[i + 1]), float(drops[i])))

    mids = 0.5 * (u[:-1] + u[1:])
    mid_vals = np.asarray(family.phi(mids))
    finite = np.isfinite(vals[:-1]) & np.isfinite(vals[1:]) & np.isfinite(mid_vals)
    with np.errstate(invalid="ignore"):
        chord = 0.5 * (vals[:-1] + vals[1:])
        excess = mid_vals - chord
        bad = finite & (excess > rel_tol * np.maximum(1.0, chord))
    for i in np.nonzero(bad)[0]:
        report.convexity_violations.append((float(u[i]), float(u[i + 1]), float(excess[i])))
    return report


_FAMILIES = {
    cls.family_id: cls for cls in (ClassicalExp, TsallisQ, KaniadakisKappa, CounterexamplePhi, TabulatedMonotone)
}


def parse_family_spec(spec: str) -> DeformedExponential:
    """Parse CLI shorthand: exp | tsallis:<q> | kaniadakis:<k> | counterexample | tabulated:<csv>."""
    name, _, arg = spec.partition(":")
    if name not in _FAMILIES:
        raise ValueError(f"unknown family spec {spec!r}")
    return _FAMILIES[name].from_spec(arg)


BUILTIN_FAMILIES = ("exp", "tsallis:0.5", "tsallis:2", "kaniadakis:0.5", "kaniadakis:-0.5", "counterexample")
