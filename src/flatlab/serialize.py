"""Deterministic JSON serialization.

Reading uses the stock ``json`` module. Writing goes through a small
recursive emitter that renders every float with 17 significant digits
(``0.10000000000000001``, and ``2`` for 2.0), the text of every output
this package has written; stock ``json`` is deterministic too, but its
``float.__repr__`` text (``0.1``, ``2.0``) would change those bytes.
Either round-trips every float64 exactly. Dict keys keep insertion
order, which the callers control deterministically.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np


def format_float(x: float) -> str:
    """Shortest decimal form carrying at least 17 significant digits."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def to_json(value: Any) -> str:
    """Serialize to a canonical JSON string (no trailing newline)."""
    if type(value) is float:  # the bulk of every output, tested first
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if value is None:
        return "null"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_key(k)}: {to_json(v)}"
                               for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(to_json, value)) + "]"
    if isinstance(value, np.ndarray):
        return to_json(value.tolist())
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def _key(key: Any) -> str:
    if not isinstance(key, str):
        raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
    return json.dumps(key)


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def json_int(value: Any, name: str) -> int:
    """Integer JSON field; a bool, a fraction or a non-number is an error."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def json_float(value: Any, name: str) -> float:
    """Float JSON field; a bool, a non-number (a string too) or a non-finite
    number (``Infinity``, ``NaN``, or an overflowing literal) is an error."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an integer literal past the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"{name} must be a finite number, got {value!r}")
