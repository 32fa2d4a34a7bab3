"""JSON encodings shared by the CLI and the library.

Complex matrices are encoded row-major as ``[[[re, im], ...], ...]``.  Floats
are written with 17 significant digits so every double round-trips exactly
and reports are byte-identical across runs.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .costs import CostFunction, cost_function, identity_cost, require_numbering
from .engine import GuessworkReport, NumberingMeasurement
from .ensembles import Ensemble, validate
from .operators import from_bloch


def dumps(obj) -> str:
    """Deterministic JSON text: floats with 17 significant digits, NaN and infinities as null."""
    return _text(obj)


def _text(obj) -> str:  # the writers recurse here, so a wrapper of dumps sees each text once
    writer = _WRITERS.get(type(obj)) or next((w for t, w in _KINDS if isinstance(obj, t)), None)
    if writer is None:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return writer(obj)


def _float_text(value) -> str:
    value = float(value)
    return format(value, ".17g") if math.isfinite(value) else "null"


def _dict_text(obj: dict) -> str:
    items = (f"{encode_basestring_ascii(str(key))}: {_text(value)}" for key, value in obj.items())
    return "{" + ", ".join(items) + "}"


def _list_text(obj) -> str:  # a writer shared by items of one kind measured no faster
    return "[" + ", ".join(map(_text, obj)) + "]"


# _WRITERS is keyed by exact type, and bool is one, so no bool is written as an int; other
# types (numpy scalars, subclasses) are matched against _KINDS in order, numpy's bool_ to none
_KINDS = (
    ((int, np.integer), lambda obj: str(int(obj))),
    ((float, np.floating), _float_text),
    (str, encode_basestring_ascii),
    (dict, _dict_text),
    ((list, tuple, np.ndarray), _list_text),
)
_WRITERS = {type(None): lambda obj: "null", bool: lambda obj: "true" if obj else "false",
            int: int.__repr__, float: _float_text, str: encode_basestring_ascii,
            dict: _dict_text, list: _list_text, tuple: _list_text, np.ndarray: _list_text}


def matrix_to_json(mat) -> list:
    arr = np.asarray(mat, dtype=complex)
    return [[[float(cell.real), float(cell.imag)] for cell in row] for row in arr]


def _numbers(raw) -> np.ndarray:
    """Nested lists of JSON numbers as one float array.  numpy would also
    read a bool, or a string such as "0.5", as a number: both are refused."""
    try:
        values = np.asarray(raw, dtype=object)
        if set(map(type, values.flat)) <= {int, float}:
            return values.astype(float)
        np.asarray(raw, dtype=float)  # refuses ragged lists and other leaves
    except (TypeError, ValueError, OverflowError):
        raise ValueError("matrix entries must be [re, im] pairs")
    bad = next(x for x in values.flat if type(x) not in (int, float))
    raise ValueError(f"matrix entries must be numbers, got {bad!r}")


def matrix_from_json(rows) -> np.ndarray:
    return _matrix(_numbers(rows))


def _matrix(arr: np.ndarray) -> np.ndarray:
    """The complex matrix of a float array of rows of [re, im] pairs."""
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"matrix must be encoded as rows of [re, im] pairs, got shape {arr.shape}")
    with np.errstate(invalid="ignore"):  # inf * 0 makes a NaN that validation names
        return arr[:, :, 0] + 1j * arr[:, :, 1]


def ensemble_to_json(e: Ensemble) -> dict:
    return {"dim": e.dim, "states": [matrix_to_json(s) for s in e.states]}


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list, got {value!r}")
    return value


def _float(value, field: str) -> float:
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:  # an int beyond the doubles
            pass
    raise ValueError(f"{field} must be a number, got {value!r}")


def _integer(value, field: str) -> int:
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def ensemble_from_json(doc: dict) -> Ensemble:
    if not isinstance(doc, dict) or "dim" not in doc:
        raise ValueError("ensemble JSON requires a 'dim' key")
    dim = _integer(doc["dim"], "'dim'")
    if "states" in doc:
        raw = _list(doc["states"], "'states'")
        try:
            pairs = _numbers(raw)
        except ValueError:
            pairs = None
        if pairs is not None and pairs.shape == (len(raw), dim, dim, 2):
            # the rows of all states as one matrix
            return validate(_matrix(pairs.reshape(-1, dim, 2)).reshape(-1, dim, dim))
        # the batch does not convert: the per-state path words the error
        states = [matrix_from_json(rows) for rows in raw]
        for index, state in enumerate(states):
            if state.shape != (dim, dim):
                raise ValueError(f"state {index} has shape {state.shape}, expected ({dim}, {dim})")
        return validate(states)
    if "bloch" in doc:
        if dim != 2:
            raise ValueError("bloch-form ensembles require dim = 2")
        states = []
        for index, item in enumerate(_list(doc["bloch"], "'bloch'")):
            if not isinstance(item, dict) or "trace" not in item or "v" not in item:
                raise ValueError(f"bloch entry {index} requires 'trace' and 'v'")
            field = f"bloch entry {index}"
            trace = _float(item["trace"], f"{field} 'trace'")
            v = [_float(x, f"{field} 'v' entry") for x in _list(item["v"], f"{field} 'v'")]
            states.append(from_bloch(trace, v))
        return validate(states)
    raise ValueError("ensemble JSON requires 'states' or 'bloch'")


def cost_from_json(doc: dict, size_hint: int | None = None) -> CostFunction:
    """The cost a JSON document describes.  ``size_hint`` refuses an
    ``{"identity": M}`` of another size before its M values are built, so a
    short document cannot ask for an arbitrarily large cost."""
    if not isinstance(doc, dict):
        raise ValueError("cost JSON must be an object")
    if "values" in doc:
        values = _list(doc["values"], "'values'")
        return cost_function([_float(x, "'values' entry") for x in values])
    if "identity" in doc:
        m = _integer(doc["identity"], "'identity'")
        if size_hint is not None and m != size_hint:
            raise ValueError(f"identity cost of size {m} does not match ensemble size {size_hint}")
        return identity_cost(m)
    raise ValueError("cost JSON requires 'values' or 'identity'")


def measurement_to_json(m: NumberingMeasurement) -> dict:
    elements = [
        {"numbering": list(numbering), "matrix": matrix_to_json(element)}
        for numbering, element in sorted(m.elements.items())
    ]
    return {"elements": elements}


def measurement_from_json(doc: dict, dim: int) -> NumberingMeasurement:
    if not isinstance(doc, dict) or "elements" not in doc:
        raise ValueError("measurement JSON requires 'elements'")
    elements = {}
    for index, item in enumerate(_list(doc["elements"], "'elements'")):
        field = f"measurement element {index}"
        if not isinstance(item, dict) or "numbering" not in item or "matrix" not in item:
            raise ValueError(f"{field} requires 'numbering' and 'matrix'")
        entries = _list(item["numbering"], f"{field} 'numbering'")
        numbering = require_numbering([_integer(x, f"{field} 'numbering' entry") for x in entries])
        elements[numbering] = matrix_from_json(item["matrix"])
    return NumberingMeasurement(dim=dim, elements=elements)


def report_to_json(r: GuessworkReport) -> dict:
    """The report as JSON; an unverified bound has no measurement elements."""
    measurement = {"elements": []} if r.measurement is None else measurement_to_json(r.measurement)
    return {
        "value": r.value,
        "mean_cost": r.mean_cost,
        "trace_norm_term": r.trace_norm_term,
        "numbering": list(r.optimal_numbering),
        "method": r.method,
        "condition_verified": r.condition_verified,
        "measurement": measurement,
    }
