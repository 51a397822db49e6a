import json
import math
from dataclasses import dataclass

import numpy as np

from deformed_renyi.jsonutil import jsonable
from deformed_renyi.kappa import SolveStatus


@dataclass
class _Report:
    value: float
    pair: tuple
    samples: np.ndarray
    status: SolveStatus
    note: str | None = None


def test_report_fields_become_strict_json():
    report = _Report(
        value=np.float64(math.inf),
        pair=(1.5, -math.inf),
        samples=np.array([[0.25, math.nan], [3.0, 4.0]]),
        status=SolveStatus.DIVERGENT_INTEGRAL,
    )
    obj = jsonable(report)
    assert obj == {
        "value": "inf",
        "pair": [1.5, "-inf"],
        "samples": [[0.25, "nan"], [3.0, 4.0]],
        "status": "divergent_integral",
        "note": None,
    }
    assert type(jsonable(np.float64(2.0))) is float
    json.dumps(obj, allow_nan=False)


def test_plain_values_pass_unchanged():
    for value in (0, 7, True, False, "inf", None, 0.5, -0.0):
        assert jsonable(value) == value
        assert type(jsonable(value)) is type(value)
    assert jsonable({"rows": [{"n": 1, "x": math.nan}]}) == {"rows": [{"n": 1, "x": "nan"}]}
