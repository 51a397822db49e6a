"""Strict-JSON conversion of reports: non-finite floats become "inf"/"-inf"/"nan".

A report's JSON is its dataclass fields, so a field added to a report reaches
JSON with no encoder code of its own; a report's to_json writes only what
differs from its fields (a key renamed, an array shortened, a derived key).
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum

import numpy as np


def jsonable(obj):
    """obj as plain JSON values: a dataclass becomes the dict of its fields, a
    dict keeps its keys, a tuple, list or ndarray becomes a list, an Enum its
    value, and a float (np.float64 included) a finite float or one of the
    strings "inf", "-inf", "nan".  int, bool, str and None pass unchanged."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(obj)
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj
