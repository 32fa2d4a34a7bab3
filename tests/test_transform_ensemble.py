"""scripts/transform_ensemble.py writes copies of an ensemble with the same minimum guesswork."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from guesswork import serialize
from guesswork.costs import identity_cost
from guesswork.engine import solve
from guesswork.ensembles import generate_mub, generate_polygon_antiprism

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "transform_ensemble.py"


@pytest.fixture(scope="module")
def transform():
    spec = importlib.util.spec_from_file_location("transform_ensemble", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [["relabel", "--seed", "6"], ["rotate"]])
def test_a_transformed_copy_solves_to_the_same_value(transform, tmp_path, argv):
    source, target = tmp_path / "mub.json", tmp_path / "copy.json"
    e = generate_mub()
    source.write_text(json.dumps(serialize.ensemble_to_json(e)))
    assert transform.main([argv[0], str(source), str(target), *argv[1:]]) == 0
    copy = serialize.ensemble_from_json(json.loads(target.read_text()))
    if argv[0] == "relabel":
        order = np.random.default_rng(6).permutation(6)
        np.testing.assert_array_equal(copy.states, e.states[order])
    else:  # every coordinate is used, so the general sweeps verify the qubit value
        assert copy.dim == 3 and (copy.states[:, 2] != 0).any()
    report, original = solve(copy, identity_cost(6)), solve(e, identity_cost(6))
    assert report.condition_verified
    assert abs(report.value - original.value) <= 1e-9


def test_a_lifted_copy_moves_every_bloch_vector_and_solves_to_the_same_value(transform, tmp_path):
    source, target = tmp_path / "polygon.json", tmp_path / "lifted.json"
    e = generate_polygon_antiprism(6, lam=0.05)
    source.write_text(json.dumps(serialize.ensemble_to_json(e)))
    assert transform.main(["lift", str(source), str(target), "--z", "0.07"]) == 0
    copy = serialize.ensemble_from_json(json.loads(target.read_text()))
    np.testing.assert_allclose(copy.bloch, e.bloch + [0.0, 0.0, 0.07], rtol=0, atol=1e-15)
    np.testing.assert_allclose(copy.prior, e.prior, rtol=0, atol=1e-16)
    report, original = solve(copy, identity_cost(6)), solve(e, identity_cost(6))
    assert report.condition_verified
    assert abs(report.value - original.value) <= 1e-9
