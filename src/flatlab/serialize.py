"""Deterministic JSON serialization.

The stock ``json`` module would work for reading, but its float output is
not pinned down tightly enough for byte-identical reproducibility across
runs, so writing goes through a small recursive emitter instead. Floats
are rendered with ``repr``-grade precision (17 significant digits), which
round-trips every float64 exactly; dict keys keep insertion order, which
the callers control deterministically.
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


def _emit(value: Any, pieces: list[str]) -> None:
    if isinstance(value, str):
        pieces.append(json.dumps(value))
    elif isinstance(value, bool) or isinstance(value, np.bool_):
        pieces.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        pieces.append(format_float(float(value)))
    elif value is None:
        pieces.append("null")
    elif isinstance(value, dict):
        pieces.append("{")
        for i, (k, v) in enumerate(value.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {type(k).__name__}")
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(k))
            pieces.append(": ")
            _emit(v, pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for i, v in enumerate(value):
            if i:
                pieces.append(", ")
            _emit(v, pieces)
        pieces.append("]")
    elif isinstance(value, np.ndarray):
        _emit(value.tolist(), pieces)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def to_json(value: Any) -> str:
    """Serialize to a canonical JSON string (no trailing newline)."""
    pieces: list[str] = []
    _emit(value, pieces)
    return "".join(pieces)


def write_json(path: str, value: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(value))
        fh.write("\n")


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def json_int(value: Any, name: str) -> int:
    """Integer JSON field; a bool, a fraction or a non-number is an error."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)
