import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from guesswork import serialize
from guesswork.costs import identity_cost
from guesswork.engine import min_guesswork_qubit
from guesswork.ensembles import generate_mub, generate_random_uniform_prior, generate_sic


def test_dumps_scalars():
    assert serialize.dumps(True) == "true"
    assert serialize.dumps(None) == "null"
    assert serialize.dumps(3) == "3"
    assert serialize.dumps("a\"b") == json.dumps('a"b')
    assert serialize.dumps(float("nan")) == "null"
    assert serialize.dumps(0.25) == "0.25"


def test_dumps_seventeen_significant_digits():
    text = serialize.dumps(1 / 3)
    assert text == "0.33333333333333331"
    assert float(text) == 1 / 3  # exact round trip


def test_dumps_containers_parse_back():
    doc = {"a": [1, 2.5, None, True], "b": {"c": "x"}}
    assert json.loads(serialize.dumps(doc)) == doc


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        serialize.dumps(object())


def _write(obj, pieces: list[str]) -> None:
    """The recursive writer that ``serialize.dumps`` replaced, kept as its oracle."""
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value) or math.isinf(value):
            pieces.append("null")
        else:
            pieces.append(format(value, ".17g"))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(str(key)))
            pieces.append(": ")
            _write(value, pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        pieces.append("[")
        for i, value in enumerate(obj):
            if i:
                pieces.append(", ")
            _write(value, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj) -> str:
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308 / 3,
               1.7976931348623157e308, -1.7976931348623157e308, 1 / 3]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | FLOATS
    | FLOATS.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers(-(2**31), 2**31 - 1).map(np.int32)
    | st.text(max_size=6)
    | st.sampled_from(['a"b', "\\", "é", "\u2603", "line\nbreak", "\U0001f600"])
)
ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.int64]), hnp.array_shapes(min_dims=1, max_dims=3, max_side=3)
)
KEYS = st.text(max_size=6) | st.sampled_from(['"', 'say "hi"', "é", "日本"]) | st.integers()
DOCUMENTS = st.recursive(
    SCALARS | ARRAYS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(DOCUMENTS)
def test_dumps_writes_the_bytes_of_the_recursive_writer(doc):
    assert serialize.dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [object(), 1j, np.complex128(1), np.bool_(True), {1, 2}, np.array(0.5), [1, b"x"],
     {"a": np.array([1j])}, np.array([True])],
)
def test_dumps_refuses_what_the_recursive_writer_refuses(doc):
    with pytest.raises(TypeError) as want:
        reference_dumps(doc)
    with pytest.raises(TypeError) as got:
        serialize.dumps(doc)
    assert str(got.value) == str(want.value)


def test_matrix_round_trip():
    mat = np.array([[0.5, 0.25 - 0.1j], [0.25 + 0.1j, 0.5]])
    rebuilt = serialize.matrix_from_json(serialize.matrix_to_json(mat))
    np.testing.assert_array_equal(rebuilt, mat)


def test_matrix_from_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        serialize.matrix_from_json([[0.5, 0.5]])


def test_ensemble_round_trip_preserves_exact_floats():
    e = generate_random_uniform_prior(3, 3, seed=6)
    text = serialize.dumps(serialize.ensemble_to_json(e))
    rebuilt = serialize.ensemble_from_json(json.loads(text))
    for a, b in zip(e.states, rebuilt.states):
        np.testing.assert_array_equal(a, b)


def test_ensemble_bloch_form():
    doc = {
        "dim": 2,
        "bloch": [
            {"trace": 0.5, "v": [0.0, 0.0, 0.5]},
            {"trace": 0.5, "v": [0.0, 0.0, -0.5]},
        ],
    }
    e = serialize.ensemble_from_json(doc)
    assert e.size == 2
    np.testing.assert_allclose(e.states[0], np.diag([0.5, 0.0]), atol=1e-15)


def test_ensemble_json_errors():
    with pytest.raises(ValueError, match="dim"):
        serialize.ensemble_from_json({"states": []})
    with pytest.raises(ValueError, match="'states' or 'bloch'"):
        serialize.ensemble_from_json({"dim": 2})
    with pytest.raises(ValueError, match="dim = 2"):
        serialize.ensemble_from_json({"dim": 3, "bloch": []})
    sic_doc = serialize.ensemble_to_json(generate_sic())
    sic_doc["dim"] = 3
    with pytest.raises(ValueError, match="expected"):
        serialize.ensemble_from_json(sic_doc)


PAIR = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]  # diag(0.5, 0.5) as [re, im] rows


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"dim": 2, "states": 5}, "'states' must be a list, got 5"),
        ({"dim": 2, "states": []}, "ensemble must contain at least one state"),
        ({"dim": 1, "states": [[[["a", 0.0]]]]}, "matrix entries must be [re, im] pairs"),
        ({"dim": 2, "states": [[[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
         "matrix entries must be [re, im] pairs"),
        ({"dim": 1, "states": [[[0.5, 0.5]]]},
         "matrix must be encoded as rows of [re, im] pairs, got shape (1, 2)"),
        ({"dim": 2, "states": [PAIR, [[[0.0, 0.0]]]]}, "state 1 has shape (1, 1), expected (2, 2)"),
        ({"dim": 3, "states": [PAIR]}, "state 0 has shape (2, 2), expected (3, 3)"),
        ({"dim": 1, "states": [[[[-0.5, 0.0]]], [[[1.5, 0.0]]]]},
         "state 0 is not PSD (min eigenvalue -5.000e-01)"),
        # JSON booleans and strings are not numbers
        ({"dim": True, "states": [PAIR]}, "'dim' must be an integer, got True"),
        ({"dim": "2", "states": [PAIR]}, "'dim' must be an integer, got '2'"),
        ({"dim": 2, "bloch": [{"trace": True, "v": [0.0, 0.0, 0.0]}]},
         "bloch entry 0 'trace' must be a number, got True"),
        ({"dim": 2, "bloch": [{"trace": 1.0, "v": [0.0, "0.5", 0.0]}]},
         "bloch entry 0 'v' entry must be a number, got '0.5'"),
        ({"dim": 2, "bloch": [{"trace": 1.0, "v": [False, 0.0, 0.0]}]},
         "bloch entry 0 'v' entry must be a number, got False"),
        # numpy reads both as numbers, in the batched states and state by state
        ({"dim": 2, "states": [[[[0.5, False], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                               [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]},
         "matrix entries must be numbers, got False"),
        ({"dim": 2, "states": [[[["0.5", 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                               [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]},
         "matrix entries must be numbers, got '0.5'"),
        ({"dim": 2, "states": [PAIR, [[[True, 0.0]]]]}, "matrix entries must be numbers, got True"),
    ],
)
def test_ensemble_states_json_errors(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize.ensemble_from_json(doc)


def test_cost_round_trip_and_identity_form():
    c = serialize.cost_from_json({"values": [1.5, 0.5, 1.0]})
    assert c.values == (1.5, 0.5, 1.0)
    ident = serialize.cost_from_json({"identity": 4}, size_hint=4)
    assert ident.values == (1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ValueError, match="does not match"):
        serialize.cost_from_json({"identity": 4}, size_hint=3)
    with pytest.raises(ValueError):
        serialize.cost_from_json({})


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"values": [True, False]}, "'values' entry must be a number, got True"),
        ({"values": [1.0, False]}, "'values' entry must be a number, got False"),
        ({"values": ["1.5", 2]}, "'values' entry must be a number, got '1.5'"),
        ({"values": [None, 2]}, "'values' entry must be a number, got None"),
        ({"values": [10**400, 2]}, "'values' entry must be a number"),
        ({"identity": True}, "'identity' must be an integer, got True"),
        ({"identity": "4"}, "'identity' must be an integer, got '4'"),
        ({"identity": 4.5}, "'identity' must be an integer, got 4.5"),
    ],
)
def test_cost_json_errors(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize.cost_from_json(doc)


def test_integral_json_numbers_are_read():
    assert serialize.cost_from_json({"values": [1, 2.5]}).values == (1.0, 2.5)
    assert serialize.cost_from_json({"identity": 3.0}).values == (1.0, 2.0, 3.0)
    doc = {"elements": [{"numbering": [1.0], "matrix": [[[1, 0]]]}]}
    assert list(serialize.measurement_from_json(doc, dim=1).elements) == [(1,)]


def test_report_json_schema():
    e = generate_mub()
    report = min_guesswork_qubit(e, identity_cost(6))
    doc = serialize.report_to_json(report)
    assert set(doc) == {
        "value",
        "mean_cost",
        "trace_norm_term",
        "numbering",
        "method",
        "condition_verified",
        "measurement",
    }
    assert doc["method"] == "brute_force"
    assert doc["condition_verified"] is True
    assert len(doc["measurement"]["elements"]) == 2
    parsed = json.loads(serialize.dumps(doc))
    assert parsed["value"] == pytest.approx(report.value)
    rebuilt = serialize.measurement_from_json(parsed["measurement"], dim=2)
    rebuilt.validated()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({}, "requires 'elements'"),
        ({"elements": 5}, "'elements' must be a list"),
        ({"elements": [5]}, "element 0 requires 'numbering' and 'matrix'"),
        ({"elements": [{"numbering": [1]}]}, "element 0 requires 'numbering' and 'matrix'"),
        ({"elements": [{"numbering": 1, "matrix": [[[1, 0]]]}]}, "'numbering' must be a list"),
        ({"elements": [{"numbering": [1.5], "matrix": [[[1, 0]]]}]}, "must be an integer"),
        ({"elements": [{"numbering": [1, 1], "matrix": [[[1, 0]]]}]}, "not a bijection"),
        ({"elements": [{"numbering": [True], "matrix": [[[1, 0]]]}]},
         "'numbering' entry must be an integer, got True"),
        ({"elements": [{"numbering": ["1"], "matrix": [[[1, 0]]]}]},
         "'numbering' entry must be an integer, got '1'"),
        ({"elements": [{"numbering": [1], "matrix": [[[True, 0]]]}]},
         "matrix entries must be numbers, got True"),
        ({"elements": [{"numbering": [1], "matrix": [[["1", 0]]]}]},
         "matrix entries must be numbers, got '1'"),
    ],
)
def test_measurement_json_errors(doc, message):
    with pytest.raises(ValueError, match=message):
        serialize.measurement_from_json(doc, dim=1)


def test_measurement_elements_sorted():
    e = generate_sic()
    report = min_guesswork_qubit(e, identity_cost(4))
    doc = serialize.measurement_to_json(report.measurement)
    numberings = [tuple(item["numbering"]) for item in doc["elements"]]
    assert numberings == sorted(numberings)
