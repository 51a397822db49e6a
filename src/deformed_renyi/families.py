"""Deformed exponential families.

A deformed exponential is a convex, non-decreasing function phi: R -> [0, inf)
with phi(u) -> 0 as u -> -inf and phi(u) -> inf as u -> +inf.  Each family here
exposes evaluation, the inverse on (0, inf), the derivative of the inverse, and
the log of phi (which the existence probes use to avoid overflow).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

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
    return float(arr) if np.isscalar(x) or np.ndim(x) == 0 else arr


def q_logarithm(x, q):
    """Tsallis q-logarithm  ln_q(x) = (x^(1-q) - 1) / (1 - q),  ln_1 = ln."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("q_logarithm requires x > 0")
    if q == 1.0:
        out = np.log(x)
    else:
        out = (np.power(x, 1.0 - q) - 1.0) / (1.0 - q)
    return _scalar_like(x, out)


class DeformedExponential:
    """Base interface. Subclasses are immutable and safe to share across threads.

    The public maps accept scalars or arrays and return a float for a scalar
    input.  Subclasses implement only the array hooks _log_phi, _phi_inv and
    _phi_inv_deriv; the two inverse hooks receive float arrays with v > 0.
    Each hook returns a fresh float array of its input's shape (0-d included)
    and never writes into its input, so phi can saturate the result in place.
    """

    family_id: str = "base"
    a_phi: float = -math.inf  # inf{u : phi(u) > 0}

    def log_phi(self, u):
        """log phi(u); -inf where phi vanishes.  Never saturated."""
        u = np.asarray(u, dtype=float)
        return _scalar_like(u, self._log_phi(u))

    def phi(self, u):
        """phi(u) >= 0, with values above PHI_MAX reported as +inf."""
        u = np.asarray(u, dtype=float)
        out = self._log_phi(u)
        saturated = out > LOG_PHI_MAX
        with np.errstate(over="ignore"):
            np.exp(out, out=out)
        out[saturated] = np.inf
        return _scalar_like(u, out)

    def phi_inv(self, v):
        v = self._check_positive(v)
        return _scalar_like(v, self._phi_inv(v))

    def phi_inv_deriv(self, v):
        """(phi^-1)'(v) = 1 / phi'(phi^-1(v)) > 0."""
        v = self._check_positive(v)
        return _scalar_like(v, self._phi_inv_deriv(v))

    def _log_phi(self, u):
        raise NotImplementedError

    def _phi_inv(self, v):
        raise NotImplementedError

    def _phi_inv_deriv(self, v):
        raise NotImplementedError

    @classmethod
    def from_spec(cls, arg: str) -> DeformedExponential:
        """Build from the argument of a CLI spec '<family_id>:<arg>' ('' when absent)."""
        if arg:
            raise ValueError(f"family {cls.family_id!r} takes no argument, got {arg!r}")
        return cls()

    def params(self) -> dict:
        return {}

    def to_json(self) -> dict:
        return {"family": self.family_id, "params": self.params()}

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({ps})"

    @staticmethod
    def _check_positive(v):
        v = np.asarray(v, dtype=float)
        if not np.all(v > 0):
            raise DomainError("phi_inv requires v > 0")
        return v


class ClassicalExp(DeformedExponential):
    """phi(u) = e^u."""

    family_id = "exp"

    def _log_phi(self, u):
        return u.copy()

    def _phi_inv(self, v):
        return np.log(v)

    def _phi_inv_deriv(self, v):
        return 1.0 / v


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

    def _log_phi(self, u):
        out = np.maximum(u, -self.m, out=np.empty_like(u))
        np.divide(out, self.m, out=out)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log1p(out, out=out)
        np.multiply(out, self.m, out=out)
        out[~(u > -self.m)] = -np.inf
        return out

    def _phi_inv(self, v):
        # inverse of (1 + u/m)^m, equal to the q-logarithm of the effective q
        out = np.log(v, out=np.empty_like(v))
        np.divide(out, self.m, out=out)
        np.expm1(out, out=out)
        return np.multiply(out, self.m, out=out)

    def _phi_inv_deriv(self, v):
        out = np.log(v, out=np.empty_like(v))
        np.multiply(out, 1.0 / self.m - 1.0, out=out)
        return np.exp(out, out=out)


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

    @classmethod
    def from_spec(cls, arg):
        return cls(float(arg))

    def params(self):
        return {"kappa": self.kappa}

    def _log_phi(self, u):
        if self.kappa == 0.0:
            return u.copy()
        out = np.multiply(u, self.kappa, out=np.empty_like(u))
        np.arcsinh(out, out=out)
        return np.divide(out, self.kappa, out=out)

    def _phi_inv(self, v):
        out = np.log(v, out=np.empty_like(v))
        if self.kappa == 0.0:
            return out
        np.multiply(out, self.kappa, out=out)
        np.sinh(out, out=out)
        return np.divide(out, self.kappa, out=out)

    def _phi_inv_deriv(self, v):
        if self.kappa == 0.0:
            return np.divide(1.0, v, out=np.empty_like(v))
        out = np.log(v, out=np.empty_like(v))
        np.multiply(out, self.kappa, out=out)
        np.cosh(out, out=out)
        return np.divide(out, v, out=out)


class CounterexamplePhi(DeformedExponential):
    """Super-exponential family  phi(u) = e^((u+1)^2/2) for u >= 0, e^(u+1/2) for u <= 0.

    A valid deformed exponential whose growth ratio phi(u)/phi(u - c) is
    unbounded for every c > 0, so it fails the non-atomic existence condition.
    Both branches give phi(0) = phi'(0) = e^(1/2).
    """

    family_id = "counterexample"

    _LOG_SPLIT = 0.5  # log phi(0)

    def _log_phi(self, u):
        out = np.add(u, 1.0, out=np.empty_like(u))
        np.square(out, out=out)
        np.multiply(out, 0.5, out=out)
        np.add(u, 0.5, out=out, where=~(u >= 0.0))
        return out

    def _phi_inv(self, v):
        logv = np.log(v, out=np.empty_like(v))
        out = np.multiply(logv, 2.0, out=np.empty_like(v))
        np.maximum(out, 0.0, out=out)
        with np.errstate(invalid="ignore"):
            np.sqrt(out, out=out)
        np.subtract(out, 1.0, out=out)
        np.subtract(logv, 0.5, out=out, where=~(logv >= self._LOG_SPLIT))
        return out

    def _phi_inv_deriv(self, v):
        # at the branch junction v = e^(1/2) both branches give 1/v
        logv = np.log(v, out=np.empty_like(v))
        out = np.multiply(logv, 2.0, out=np.empty_like(v))
        np.maximum(out, 1.0e-300, out=out)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.sqrt(out, out=out)
            np.multiply(v, out, out=out)
            np.divide(1.0, out, out=out)
        np.divide(1.0, v, out=out, where=~(logv >= self._LOG_SPLIT))
        return out


class TabulatedMonotone(DeformedExponential):
    """Deformed exponential given by knots (u_i, phi_i), interpolated linearly
    in (u, log phi) space.  Queries outside the knot range raise DomainError;
    inversion on a flat segment raises DomainError as well.
    """

    family_id = "tabulated"

    def __init__(self, knots):
        knots = [(float(u), float(p)) for u, p in knots]
        if len(knots) < 2:
            raise FamilyParameterError("tabulated family needs at least 2 knots")
        us = np.array([k[0] for k in knots])
        ps = np.array([k[1] for k in knots])
        if np.any(np.diff(us) <= 0):
            raise FamilyParameterError("knot u values must be strictly increasing")
        if np.any(ps <= 0):
            raise FamilyParameterError("knot phi values must be positive")
        if np.any(np.diff(ps) < 0):
            raise FamilyParameterError("knot phi values must be non-decreasing")
        self.u_knots = us
        self.log_knots = np.log(ps)
        self.u_knots.flags.writeable = False
        self.log_knots.flags.writeable = False

    def params(self):
        return {"knots": [[u, math.exp(lp)] for u, lp in zip(self.u_knots, self.log_knots)]}

    @classmethod
    def from_spec(cls, arg):
        if not arg:
            raise ValueError("tabulated family needs a CSV path: tabulated:<path>")
        return cls.from_csv(arg)

    def _log_phi(self, u):
        if np.any(u < self.u_knots[0]) or np.any(u > self.u_knots[-1]):
            raise DomainError(
                f"u outside tabulated range [{self.u_knots[0]}, {self.u_knots[-1]}]"
            )
        return np.asarray(np.interp(u, self.u_knots, self.log_knots))

    def _segment(self, v):
        """(log v, i) with log v inside the rising knot segment [i - 1, i]."""
        logv = np.log(v)
        if np.any(logv < self.log_knots[0]) or np.any(logv > self.log_knots[-1]):
            raise DomainError("v outside tabulated phi range")
        left = np.searchsorted(self.log_knots, logv, side="left")
        right = np.searchsorted(self.log_knots, logv, side="right")
        if np.any(right - left >= 2):
            # value shared by >= 2 knots: the preimage is a flat segment
            raise DomainError("phi_inv hit a flat tabulated segment; preimage is ambiguous")
        return logv, np.clip(left, 1, len(self.log_knots) - 1)

    def _phi_inv(self, v):
        logv, i = self._segment(v)
        lo, hi = self.log_knots[i - 1], self.log_knots[i]
        return self.u_knots[i - 1] + (logv - lo) / (hi - lo) * (self.u_knots[i] - self.u_knots[i - 1])

    def _phi_inv_deriv(self, v):
        # phi_inv is linear in log v on each segment: the slope du / dlog phi over v
        _, i = self._segment(v)
        return (self.u_knots[i] - self.u_knots[i - 1]) / (self.log_knots[i] - self.log_knots[i - 1]) / v

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
        from .jsonutil import jsonable_float, jsonable_floats

        return {
            "family": self.family,
            "passed": self.passed,
            "n_points": self.n_points,
            "convexity_violations": [jsonable_floats(v) for v in self.convexity_violations],
            "monotonicity_violations": [jsonable_floats(v) for v in self.monotonicity_violations],
            "tail_low_value": jsonable_float(self.tail_low_value),
            "tail_high_value": jsonable_float(self.tail_high_value),
        }


def validate_family(family: DeformedExponential, u_grid, rel_tol: float = 1e-9) -> ValidationReport:
    """Midpoint convexity test, monotonicity test, and tail probes.

    Violations are collected, not raised.  Saturated (+inf) values are skipped
    in the convexity test since midpoint comparisons are meaningless there.
    """
    u = np.asarray(u_grid, dtype=float)
    if u.size < 3:
        raise ValueError("u_grid needs at least 3 points")
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


def family_from_json(obj) -> DeformedExponential:
    """Build a family from {"family": name, "params": {...}} (dict or JSON text)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    name = obj.get("family")
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return _FAMILIES[name](**obj.get("params", {}))


def parse_family_spec(spec: str) -> DeformedExponential:
    """Parse CLI shorthand: exp | tsallis:<q> | kaniadakis:<k> | counterexample | tabulated:<csv>."""
    name, _, arg = spec.partition(":")
    if name not in _FAMILIES:
        raise ValueError(f"unknown family spec {spec!r}")
    return _FAMILIES[name].from_spec(arg)


BUILTIN_FAMILIES = ("exp", "tsallis:0.5", "tsallis:2", "kaniadakis:0.5", "kaniadakis:-0.5", "counterexample")
