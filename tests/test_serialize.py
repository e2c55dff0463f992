import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flatlab.serialize import (format_float, json_float, json_int, read_json,
                               to_json)


def test_float_has_enough_digits():
    x = 0.1234567890123456789
    assert float(format_float(x)) == x


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_round_trips_exactly(x):
    assert float(format_float(x)) == x


def test_nonfinite_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            format_float(bad)
        # inside a float list, a mixed list and a dict too
        for payload in ([1.0, bad], (bad,), [1, bad], {"x": [2.0, bad]}):
            with pytest.raises(ValueError, match="non-finite"):
                to_json(payload)


def test_refuses_what_json_cannot_hold():
    with pytest.raises(TypeError, match="keys must be str"):
        to_json({1: 2.0})
    with pytest.raises(TypeError, match="cannot serialize set"):
        to_json([1.0, {2.0}])


def test_canonical_output_is_stable():
    payload = {"b": [1.5, 2], "a": {"nested": True, "x": None}}
    assert to_json(payload) == to_json(payload)


def test_numpy_scalars_and_arrays():
    payload = {
        "i": np.int64(3),
        "f": np.float64(0.25),
        "flag": np.bool_(True),
        "arr": np.array([1.0, 2.0]),
    }
    parsed = json.loads(to_json(payload))
    assert parsed == {"i": 3, "f": 0.25, "flag": True, "arr": [1.0, 2.0]}


def test_file_round_trip(tmp_path):
    path = tmp_path / "data.json"
    payload = {"widths": [2, 8, 1], "value": 1.0 / 3.0}
    path.write_text(to_json(payload) + "\n")
    loaded = read_json(str(path))
    assert loaded["value"] == payload["value"]


def test_insertion_order_preserved():
    text = to_json({"z": 1, "a": 2})
    assert text.index('"z"') < text.index('"a"')


def test_json_numbers_are_typed():
    assert json_float(2, "x") == 2.0 and type(json_float(2, "x")) is float
    assert json_float(0.5, "x") == 0.5
    assert json_int(401.0, "n") == 401
    for bad in (True, False, "0.5", None, [1.0], math.inf, -math.inf,
                math.nan, json.loads("1e400"), 10 ** 400):
        with pytest.raises(ValueError, match="^x must be a finite number"):
            json_float(bad, "x")
    for bad in (True, 1.5, "3", None):
        with pytest.raises(ValueError, match="^n must be an integer"):
            json_int(bad, "n")
