"""Measure models and probability pairs.

Three desk-scale regimes for the underlying measure: a truncated counting
measure on the naturals, a trapezoid quadrature grid standing in for a
non-atomic measure on an interval, and simple functions over an abstract
non-atomic measure (pieces identified only by their masses), which is what
the adversarial constructions manipulate.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class MeasureError(ValueError):
    """Invalid measure or density data."""


def _readonly(arr):
    arr = np.asarray(arr, dtype=float).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Counting:
    """Counting measure on {1, ..., n_atoms} (leading block of the naturals)."""

    n_atoms: int
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    kind = "counting"

    def __post_init__(self):
        if self.n_atoms < 1:
            raise MeasureError("n_atoms must be >= 1")
        object.__setattr__(self, "weights", _readonly(np.ones(self.n_atoms)))

    @property
    def size(self) -> int:
        return self.n_atoms

    def to_json(self):
        return {"kind": self.kind, "n_atoms": self.n_atoms}


class QuadGrid:
    """Weighted nodes approximating integration against a non-atomic measure."""

    kind = "quad_grid"

    def __init__(self, nodes, weights):
        nodes = _readonly(nodes)
        weights = _readonly(weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise MeasureError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise MeasureError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise MeasureError("weights must be positive")
        self.nodes = nodes
        self._weights = weights

    @classmethod
    def trapezoid(cls, a: float, b: float, n_nodes: int = 4096) -> "QuadGrid":
        """Composite trapezoid rule on [a, b]; exact for polynomials of degree <= 1."""
        if n_nodes < 3:
            raise MeasureError("n_nodes must be >= 3")
        if not b > a:
            raise MeasureError("need b > a")
        nodes = np.linspace(a, b, n_nodes)
        h = (b - a) / (n_nodes - 1)
        weights = np.full(n_nodes, h)
        weights[0] = weights[-1] = 0.5 * h
        return cls(nodes, weights)

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def to_json(self):
        return {"kind": self.kind, "nodes": _float_list(self.nodes), "weights": _float_list(self._weights)}

    def __repr__(self):
        return f"QuadGrid(n={self.size}, range=[{self.nodes[0]}, {self.nodes[-1]}])"


class SimpleNonAtomic:
    """Simple functions over a non-atomic measure: only level-set masses matter."""

    kind = "simple_nonatomic"

    def __init__(self, pieces):
        ids = [str(pid) for pid, _ in pieces]
        masses = _readonly([m for _, m in pieces])
        if len(set(ids)) != len(ids):
            raise MeasureError("piece ids must be unique")
        if np.any(masses <= 0):
            raise MeasureError("piece masses must be positive")
        self.piece_ids = tuple(ids)
        self.masses = masses

    @property
    def size(self) -> int:
        return self.masses.size

    @property
    def weights(self) -> np.ndarray:
        return self.masses

    def to_json(self):
        return {"kind": self.kind, "pieces": [[pid, float(m)] for pid, m in zip(self.piece_ids, self.masses)]}

    def __repr__(self):
        return f"SimpleNonAtomic(n_pieces={self.size}, total_mass={self.masses.sum()})"


MeasureModel = Counting | QuadGrid | SimpleNonAtomic


def measure_from_json(obj) -> MeasureModel:
    kind = obj.get("kind")
    if kind == "counting":
        return Counting(int(obj["n_atoms"]))
    if kind == "quad_grid":
        return QuadGrid(obj["nodes"], obj["weights"])
    if kind == "simple_nonatomic":
        return SimpleNonAtomic(obj["pieces"])
    raise MeasureError(f"unknown measure kind {kind!r}")


def integrate(measure: MeasureModel, values) -> float:
    """Integral of per-atom values against the measure.

    Any +inf value makes the integral +inf, even beside -inf or NaN.  The
    weights are positive, so +inf can only turn the dot product into +inf or
    NaN, and the values are searched for +inf only in the NaN case.  (+inf
    beside -inf raises numpy's invalid-value warning on the way.)
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (measure.size,):
        raise MeasureError(f"expected {measure.size} values, got shape {values.shape}")
    total = float(measure.weights @ values)
    if math.isnan(total) and np.any(np.isposinf(values)):
        return math.inf
    return total


def normalize(measure: MeasureModel, raw) -> np.ndarray:
    """Scale positive raw values so they integrate to 1."""
    raw = np.asarray(raw, dtype=float)
    if np.any(~(raw > 0)):
        raise MeasureError("raw values must be strictly positive")
    total = integrate(measure, raw)
    if not math.isfinite(total) or total <= 0:
        raise MeasureError(f"total mass must be finite and positive, got {total}")
    return raw / total


class PairValidationError(MeasureError):
    """Probability pair fails positivity or normalization."""


class ProbabilityPair:
    """Two strictly positive densities p, q integrating to 1 on a shared measure."""

    NORM_TOL = 1e-9

    def __init__(self, measure: MeasureModel, p, q):
        self.measure = measure
        self.p = _readonly(p)
        self.q = _readonly(q)
        for name, vals in (("p", self.p), ("q", self.q)):
            if vals.shape != (measure.size,):
                raise PairValidationError(f"{name} has shape {vals.shape}, expected ({measure.size},)")
            if np.any(~(vals > 0)) or np.any(~np.isfinite(vals)):
                bad = int(np.argmin((vals > 0) & np.isfinite(vals)))
                raise PairValidationError(f"{name}[{bad}] = {vals[bad]} is not strictly positive and finite")
            total = integrate(measure, vals)
            if abs(total - 1.0) > self.NORM_TOL:
                raise PairValidationError(f"{name} integrates to {total!r}, not 1")

    @classmethod
    def from_raw(cls, measure: MeasureModel, raw_p, raw_q) -> "ProbabilityPair":
        return cls(measure, normalize(measure, raw_p), normalize(measure, raw_q))

    def swapped(self) -> "ProbabilityPair":
        return ProbabilityPair(self.measure, self.q, self.p)

    def __repr__(self):
        return f"ProbabilityPair({self.measure!r})"


def _float_list(arr):
    return [float(x) for x in arr]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_pair(pair: ProbabilityPair, path, fmt: str | None = None) -> None:
    """Write a pair as CSV (counting/quad_grid) or JSON (any measure kind)."""
    path = Path(path)
    fmt = fmt or ("json" if path.suffix == ".json" else "csv")
    if fmt == "json":
        obj = {
            "measure": pair.measure.to_json(),
            "p": _float_list(pair.p),
            "q": _float_list(pair.q),
        }
        path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    m = pair.measure
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if isinstance(m, Counting):
            writer.writerow(["atom", "p", "q"])
            for i in range(m.size):
                writer.writerow([i + 1, _fmt(pair.p[i]), _fmt(pair.q[i])])
        elif isinstance(m, QuadGrid):
            writer.writerow(["node", "weight", "p", "q"])
            for i in range(m.size):
                writer.writerow([_fmt(m.nodes[i]), _fmt(m.weights[i]), _fmt(pair.p[i]), _fmt(pair.q[i])])
        else:
            raise ValueError("CSV supports counting and quad_grid measures; use JSON for simple_nonatomic")


def read_float_csv(path) -> tuple[list[str], list[list[float]], list[int]]:
    """The stripped header, the float rows of a CSV file and the file line
    number of each row, skipping blank rows; every error names the file and
    the row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MeasureError(f"{path}: empty file")
        header = [h.strip() for h in header]
        rows, linenos = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise MeasureError(f"{path}: row {lineno}: expected {len(header)} columns, got {len(row)}")
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise MeasureError(f"{path}: row {lineno}: {exc}") from exc
            linenos.append(lineno)
    return header, rows, linenos


def load_pair(path, fmt: str | None = None) -> ProbabilityPair:
    """Load a pair saved by save_pair; validation errors carry row numbers."""
    path = Path(path)
    fmt = fmt or ("json" if path.suffix == ".json" else "csv")
    if fmt == "json":
        obj = json.loads(path.read_text())
        return ProbabilityPair(measure_from_json(obj["measure"]), obj["p"], obj["q"])
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    header, rows, linenos = read_float_csv(path)
    if header == ["atom", "p", "q"]:
        measure = Counting(len(rows))
        p = [r[1] for r in rows]
        q = [r[2] for r in rows]
    elif header == ["node", "weight", "p", "q"]:
        measure = QuadGrid([r[0] for r in rows], [r[1] for r in rows])
        p = [r[2] for r in rows]
        q = [r[3] for r in rows]
    else:
        raise MeasureError(f"{path}: unrecognized header {header}")
    for lineno, pi, qi in zip(linenos, p, q):
        if pi <= 0 or qi <= 0:
            raise PairValidationError(f"{path}: row {lineno}: probabilities must be > 0 (p={pi}, q={qi})")
    return ProbabilityPair(measure, p, q)
