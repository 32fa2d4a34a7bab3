import contextlib
import io
import itertools
import json
import math
import re
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import oracle_min_guesswork
from hypothesis import given, settings, strategies as st

from guesswork import engine, serialize
from guesswork.cli import main
from guesswork.costs import identity_cost
from guesswork.engine import guesswork_value, min_guesswork_qubit, solve
from guesswork.ensembles import (
    generate_mub,
    generate_polygon_antiprism,
    generate_random_uniform_prior,
    generate_sic,
    validate,
)
from guesswork.qap import DEFAULT_FACTORIAL_CAP, arrangement_solve, benevolent_solve


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def write_ensemble(path, ensemble):
    path.write_text(serialize.dumps(serialize.ensemble_to_json(ensemble)) + "\n")
    return str(path)


def test_generate_sic(tmp_path, capsys):
    out = tmp_path / "sic.json"
    assert run_cli(["generate", "--family", "sic", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "saturates bound" in stdout
    doc = json.loads(out.read_text())
    assert doc["dim"] == 2
    assert len(doc["states"]) == 4
    rebuilt = serialize.ensemble_from_json(doc)
    for a, b in zip(rebuilt.states, generate_sic().states):
        np.testing.assert_array_equal(a, b)


def test_generate_mub_equivalent_antiprism(tmp_path):
    out = tmp_path / "mub6.json"
    code = run_cli(
        [
            "generate",
            "--family",
            "polygon_antiprism",
            "--m",
            "6",
            "--h",
            "0.70710678",
            "--lambda",
            "pure",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    e = serialize.ensemble_from_json(json.loads(out.read_text()))
    assert e.size == 6 and e.dim == 2


def test_generate_rejects_odd_m_with_height(tmp_path, capsys):
    out = tmp_path / "bad.json"
    code = run_cli(
        ["generate", "--family", "polygon_antiprism", "--m", "5", "--h", "0.1", "--out", str(out)]
    )
    assert code == 2
    assert "bound is 0 for odd M" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("h", ["inf", "nan"])
def test_generate_names_a_height_that_is_not_finite(tmp_path, capsys, h):
    out = tmp_path / "bad.json"
    argv = ["generate", "--family", "polygon_antiprism", "--m", "4", "--h", h, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning before the refusal
        assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: h must be finite, got {float(h)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, expected",
    [
        (
            ["--family", "polygon_antiprism", "--m", "6", "--h", "0.3", "--lambda", "0.1"],
            lambda: generate_polygon_antiprism(6, h=0.3, lam=0.1),
        ),
        (["--family", "sic"], generate_sic),
        (["--family", "mub"], generate_mub),
        (
            ["--family", "random", "--m", "4", "--dim", "3", "--seed", "7"],
            lambda: generate_random_uniform_prior(4, 3, 7),
        ),
    ],
    ids=["polygon_antiprism", "sic", "mub", "random"],
)
def test_generate_writes_the_library_states(tmp_path, flags, expected):
    out = tmp_path / "ensemble.json"
    assert run_cli(["generate", *flags, "--out", str(out)]) == 0
    written = serialize.ensemble_from_json(json.loads(out.read_text()))
    library = expected()
    assert written.dim == library.dim and written.size == library.size
    for a, b in zip(written.states, library.states):
        assert np.array_equal(a, b)


def test_generate_random_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["generate", "--family", "random", "--m", "3", "--seed", "9"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_trine_brute(tmp_path, capsys):
    # the reported value is the exact solver's maximum
    e = generate_polygon_antiprism(3)
    ensemble_path = write_ensemble(tmp_path / "trine.json", e)
    out = tmp_path / "report.json"
    code = run_cli(["solve", "--ensemble", ensemble_path, "--cost", "identity", "--out", str(out)])
    assert code == 0
    assert "condition verified   yes" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    _, objective = arrangement_solve(identity_cost(3), e.bloch)
    assert doc["value"] == pytest.approx(2 - math.sqrt(objective), abs=1e-12)
    assert doc["value"] == pytest.approx(2 - 1 / math.sqrt(3), abs=1e-9)
    assert doc["condition_verified"] is True


def test_solve_round_trip_matches_library(tmp_path):
    e = generate_polygon_antiprism(4, h=0.3)
    ensemble_path = write_ensemble(tmp_path / "anti.json", e)
    out = tmp_path / "report.json"
    assert run_cli(["solve", "--ensemble", ensemble_path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    report = min_guesswork_qubit(e, identity_cost(4))
    # byte-exact float round trip between CLI report and the library call
    assert doc["value"] == report.value
    assert tuple(doc["numbering"]) == report.optimal_numbering


def test_solve_accepts_bloch_form_ensemble(tmp_path):
    doc = {
        "dim": 2,
        "bloch": [
            {"trace": 0.5, "v": [0.0, 0.0, 0.5]},
            {"trace": 0.5, "v": [0.0, 0.0, -0.5]},
        ],
    }
    path = tmp_path / "pair.json"
    path.write_text(serialize.dumps(doc))
    out = tmp_path / "report.json"
    assert run_cli(["solve", "--ensemble", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["value"] == pytest.approx(1.0, abs=1e-10)


def test_solve_mub_reports_the_exact_solver_at_the_closed_form_value(tmp_path):
    e = generate_polygon_antiprism(6, h=1 / math.sqrt(2))
    ensemble_path = write_ensemble(tmp_path / "mub.json", e)
    out = tmp_path / "report.json"
    assert run_cli(["solve", "--ensemble", ensemble_path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # up to the cap the exact solver alone answers; the closed form agrees with it
    assert doc["method"] == "brute_force"
    assert doc["value"] == pytest.approx(3.5 - math.sqrt(35) / 6, abs=1e-9)
    c = identity_cost(6)
    assert doc["value"] == pytest.approx(c.mean - math.sqrt(benevolent_solve(c, e.bloch)[1]), abs=1e-12)


@pytest.mark.parametrize("m", [4, 6])
def test_solve_near_bound_antiprism_reports_the_exact_maximum(tmp_path, capsys, m):
    # at h = bound (1 + 1e-9) the ensemble is benevolent within tolerance, but
    # the zig-zag's objective lies about 1e-9 below the exact maximum
    path = str(tmp_path / "antiprism.json")
    argv = ["generate", "--family", "polygon_antiprism", "--m", str(m)]
    assert run_cli(argv + ["--h", "0.7071067818936543", "--out", path]) == 0
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run_cli(["solve", "--ensemble", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "method               brute_force" in stdout
    assert "condition verified   yes" in stdout
    doc = json.loads(out.read_text())
    e = serialize.ensemble_from_json(json.loads(Path(path).read_text()))
    c = identity_cost(m)
    _, objective = arrangement_solve(c, e.bloch)
    assert doc["value"] == pytest.approx(c.mean - math.sqrt(objective), abs=1e-12)
    assert doc["value"] == pytest.approx(oracle_min_guesswork(e, c), abs=1e-12)
    if m == 4:
        assert doc["value"] == pytest.approx(1.8545027753308652, abs=1e-12)


def test_solve_rejects_unbalanced_cost(tmp_path, capsys):
    ensemble_path = write_ensemble(tmp_path / "trine.json", generate_polygon_antiprism(3))
    cost_path = tmp_path / "cost.json"
    cost_path.write_text('{"values": [0, 1, 3]}')
    code = run_cli(["solve", "--ensemble", ensemble_path, "--cost", str(cost_path)])
    assert code == 2
    assert "not balanced" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, code",
    [
        # within 1e-10 of each other, but as unbalanced as (1, 5, 2)
        ([1e-12, 5e-12, 2e-12], 2),
        ([1.0, 5.0, 2.0], 2),
        # balanced at scale 1, so at 2^40 too
        ([2.0**40 * v for v in (1.0, 2.0, 3 + 3e-11)], 0),
        # every two-value cost is balanced, though 2 mean - gamma rounds at 1e6
        ([1000000.1, 1000000.3], 0),
    ],
)
def test_balance_is_judged_at_the_cost_scale(tmp_path, capsys, values, code):
    ensemble = generate_random_uniform_prior(len(values), 2, seed=1)
    ensemble_path = write_ensemble(tmp_path / "random.json", ensemble)
    cost_path = tmp_path / "cost.json"
    cost_path.write_text(json.dumps({"values": values}))
    assert run_cli(["solve", "--ensemble", ensemble_path, "--cost", str(cost_path)]) == code
    out, err = capsys.readouterr()
    if code:
        assert "not balanced" in err
    else:
        assert "condition verified   yes" in out


def test_solve_general_dim3_verified(tmp_path):
    # the pair uses all three coordinates, so it stays on the general path
    e = validate([np.diag([0.5, 0.0, 0.0]), np.diag([0.0, 0.25, 0.25])])
    ensemble_path = write_ensemble(tmp_path / "pair3.json", e)
    out = tmp_path / "report.json"
    assert run_cli(["solve", "--ensemble", ensemble_path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == pytest.approx(1.0, abs=1e-10)
    assert doc["method"] == "condition_check_only"


def test_solve_embedded_pair_takes_the_qubit_solver(tmp_path):
    e = validate([np.diag([0.5, 0.0, 0.0]), np.diag([0.0, 0.5, 0.0])])
    ensemble_path = write_ensemble(tmp_path / "pair3.json", e)
    out = tmp_path / "report.json"
    assert run_cli(["solve", "--ensemble", ensemble_path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == 1.0
    assert doc["method"] == "brute_force"
    diagonals = [
        [row[k][0] for k, row in enumerate(element["matrix"])]
        for element in doc["measurement"]["elements"]
    ]
    assert diagonals == [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]


def test_solve_embedded_benevolent_polygon_above_the_cap(tmp_path, capsys):
    # a zero row and column leave the 12-gon's closed form to the qubit solver
    polygon = generate_polygon_antiprism(12)
    padded = np.zeros((12, 3, 3), dtype=complex)
    padded[:, :2, :2] = polygon.states
    outputs = []
    for name, e in (("polygon.json", polygon), ("padded.json", validate(padded))):
        assert run_cli(["solve", "--ensemble", write_ensemble(tmp_path / name, e)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "condition verified   no" in outputs[1]


def test_solve_unverified_bound_exits_3(tmp_path, capsys):
    triple = validate(
        [np.diag([1 / 3, 0, 0]), np.diag([0, 1 / 3, 0]), np.diag([0, 0, 1 / 3])]
    )
    ensemble_path = write_ensemble(tmp_path / "triple.json", triple)
    out = tmp_path / "bound.json"
    code = run_cli(["solve", "--ensemble", ensemble_path, "--out", str(out)])
    assert code == 3
    assert "unverified upper bound" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["condition_verified"] is False
    assert doc["value"] == pytest.approx(2 - 2 / 3, abs=1e-10)
    assert doc["measurement"]["elements"] == []


def test_unverified_bound_report_matches_library_bytes(tmp_path):
    triple = validate(
        [np.diag([1 / 3, 0, 0]), np.diag([0, 1 / 3, 0]), np.diag([0, 0, 1 / 3])]
    )
    ensemble_path = write_ensemble(tmp_path / "triple.json", triple)
    out = tmp_path / "bound.json"
    assert run_cli(["solve", "--ensemble", ensemble_path, "--out", str(out)]) == 3
    report = solve(triple, identity_cost(3))
    assert out.read_text() == serialize.dumps(serialize.report_to_json(report)) + "\n"
    assert list(json.loads(out.read_text())) == [
        "value", "mean_cost", "trace_norm_term", "numbering", "method",
        "condition_verified", "measurement",
    ]


def test_solve_missing_file_is_input_error(tmp_path, capsys):
    assert run_cli(["solve", "--ensemble", str(tmp_path / "nope.json")]) == 2


def test_factorial_cap_env(tmp_path, capsys, monkeypatch):
    e = generate_polygon_antiprism(4, h=0.2)  # benevolent, so it solves above the cap
    ensemble_path = write_ensemble(tmp_path / "anti.json", e)
    assert run_cli(["solve", "--ensemble", ensemble_path]) == 0
    assert "condition verified   yes" in capsys.readouterr().out
    monkeypatch.setenv("GUESSWORK_FACTORIAL_CAP", "3")
    assert run_cli(["solve", "--ensemble", ensemble_path]) == 0
    stdout = capsys.readouterr().out
    assert "benevolent" in stdout
    assert "condition verified   no" in stdout


def test_auto_above_cap_degrades_to_unverified_bound(tmp_path, capsys, monkeypatch):
    from guesswork.ensembles import generate_random_uniform_prior

    e = generate_random_uniform_prior(4, 2, seed=99)  # no benevolent structure
    ensemble_path = write_ensemble(tmp_path / "rand.json", e)
    monkeypatch.setenv("GUESSWORK_FACTORIAL_CAP", "3")
    out = tmp_path / "bound.json"
    code = run_cli(["solve", "--ensemble", ensemble_path, "--out", str(out)])
    assert code == 3
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0] == "no sweep ran above the enumeration cap: zig-zag bound"
    assert "optimality condition failed" not in stdout
    assert "unverified upper bound" in stdout
    doc = json.loads(out.read_text())
    assert doc["condition_verified"] is False
    # the heuristic bound can only overestimate the true minimum
    assert doc["value"] >= min_guesswork_qubit(e, identity_cost(4)).value - 1e-12


def test_check_sic(tmp_path, capsys):
    ensemble_path = write_ensemble(tmp_path / "sic.json", generate_sic())
    assert run_cli(["check", "--ensemble", ensemble_path]) == 0
    stdout = capsys.readouterr().out
    assert "uniform prior        yes" in stdout
    assert "constant overlap     yes" in stdout
    assert "benevolent           yes (canonical labeling)" in stdout
    assert "h-bound" in stdout and "<= bound" in stdout


def test_check_above_bound_antiprism(tmp_path, capsys):
    e = generate_polygon_antiprism(4, h=0.76)
    ensemble_path = write_ensemble(tmp_path / "above.json", e)
    assert run_cli(["check", "--ensemble", ensemble_path]) == 0
    stdout = capsys.readouterr().out
    assert "property1_ok         no" in stdout
    assert "> bound" in stdout


def test_check_dim3_skips_bloch(tmp_path, capsys):
    e = validate([np.diag([0.5, 0.0, 0.0]), np.diag([0.0, 0.5, 0.0])])
    ensemble_path = write_ensemble(tmp_path / "pair3.json", e)
    assert run_cli(["check", "--ensemble", ensemble_path]) == 0
    assert "bloch checks skipped (dim = 3)" in capsys.readouterr().out


def test_check_single_state_skips_the_h_bound(tmp_path, capsys):
    # one pure state lies on the circle of the canonical layout, which needs M >= 2
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"dim": 2, "states": [[[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]]}))
    assert run_cli(["check", "--ensemble", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "h-bound              skipped (not a canonical polygon/anti-prism layout)" in out
    assert err == ""
    assert run_cli(["solve", "--ensemble", str(path)]) == 0


@pytest.mark.parametrize(
    "cap, verdict",
    [(None, "yes (relabeling 1 4 2 6 3 5)"), ("3", "yes (relabeling 6 2 4 1 5 3)")],
)
def test_check_relabels_a_shuffled_hexagon(tmp_path, capsys, monkeypatch, cap, verdict):
    # no rotation or reflection of these labels is benevolent: up to the cap
    # the exhaustive search finds the relabeling, above it the azimuthal order
    if cap is not None:
        monkeypatch.setenv("GUESSWORK_FACTORIAL_CAP", cap)
    hexagon = generate_polygon_antiprism(6)
    shuffled = validate([hexagon.states[label - 1] for label in (1, 3, 5, 2, 6, 4)])
    ensemble_path = write_ensemble(tmp_path / "hexagon.json", shuffled)
    assert run_cli(["check", "--ensemble", ensemble_path]) == 0
    stdout = capsys.readouterr().out
    assert "symmetric toeplitz   no" in stdout
    assert f"benevolent           {verdict}" in stdout


def test_check_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    two = validate([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])])
    doc = serialize.ensemble_to_json(two)
    doc["states"][0][0][0] = [1.0, 0.0]  # total trace becomes 1.5
    bad.write_text(serialize.dumps(doc))
    assert run_cli(["check", "--ensemble", str(bad)]) == 2
    assert "total trace" in capsys.readouterr().err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run_cli(["check", "--ensemble", str(garbled)]) == 2


def test_simulate_trine(tmp_path, capsys):
    ensemble_path = write_ensemble(tmp_path / "trine.json", generate_polygon_antiprism(3))
    out = tmp_path / "sim.json"
    code = run_cli(
        [
            "simulate",
            "--ensemble",
            ensemble_path,
            "--samples",
            "50000",
            "--seed",
            "42",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["z"]) <= 4
    assert doc["samples"] == 50000
    assert doc["analytic"] == pytest.approx(2 - 1 / math.sqrt(3), abs=1e-9)


def test_simulate_single_sample(tmp_path, capsys):
    ensemble_path = write_ensemble(tmp_path / "trine.json", generate_polygon_antiprism(3))
    code = run_cli(["simulate", "--ensemble", ensemble_path, "--samples", "1", "--seed", "5"])
    assert code == 0
    assert "unavailable" in capsys.readouterr().out


def test_simulate_deterministic_bytes(tmp_path):
    ensemble_path = write_ensemble(tmp_path / "sic.json", generate_sic())
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["simulate", "--ensemble", ensemble_path, "--samples", "20000", "--seed", "7"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_sample_count_bound(tmp_path, capsys):
    ensemble_path = write_ensemble(tmp_path / "trine.json", generate_polygon_antiprism(3))
    started = time.perf_counter()
    assert run_cli(["simulate", "--ensemble", ensemble_path, "--samples", str(10**15)]) == 0
    assert time.perf_counter() - started < 1.0
    capsys.readouterr()
    assert run_cli(["simulate", "--ensemble", ensemble_path, "--samples", str(10**16)]) == 2
    assert "2**53" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["1e-16", "1e-10", "1e-6"])
@pytest.mark.parametrize(
    "family", [["mub"], ["sic"], ["polygon_antiprism", "--m", "5"]], ids=["mub", "sic", "pentagon"]
)
def test_simulate_accepts_the_measurement_solve_returns(tmp_path, capsys, family, tol):
    # --tol is the optimality condition of the solve that simulate runs; the
    # measurement solve returns is checked at the tolerance it was built with
    ensemble_path = str(tmp_path / "ensemble.json")
    assert run_cli(["generate", "--family", *family, "--out", ensemble_path]) == 0
    argv = ["--ensemble", ensemble_path, "--tol", tol]
    capsys.readouterr()
    assert run_cli(["solve", *argv]) == 0
    value = capsys.readouterr().out.splitlines()[0].split()[-1]
    assert run_cli(["simulate", *argv, "--samples", "1000"]) == 0
    assert f"analytic value       {value}" in capsys.readouterr().out


def test_simulate_unverifiable_exits_3(tmp_path, capsys):
    triple = validate(
        [np.diag([1 / 3, 0, 0]), np.diag([0, 1 / 3, 0]), np.diag([0, 0, 1 / 3])]
    )
    ensemble_path = write_ensemble(tmp_path / "triple.json", triple)
    assert run_cli(["simulate", "--ensemble", ensemble_path, "--samples", "100"]) == 3


def test_tol_must_be_positive(tmp_path, capsys):
    ensemble_path = write_ensemble(tmp_path / "sic.json", generate_sic())
    assert run_cli(["solve", "--ensemble", ensemble_path, "--tol", "0"]) == 2


def test_engine_failure_exits_4(tmp_path, capsys, monkeypatch):
    # a two-outcome measurement that fails validation is a numerical failure
    # of the engine, not an input error
    broken = SimpleNamespace(
        negative_projector=np.eye(2), positive_projector=np.eye(2), null_projector=np.zeros((2, 2))
    )
    monkeypatch.setattr(engine, "spectral_parts", lambda operator: broken)
    ensemble_path = write_ensemble(tmp_path / "sic.json", generate_sic())
    assert run_cli(["solve", "--ensemble", ensemble_path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: constructed measurement failed validation")


def test_usage_error_exits_2():
    assert run_cli(["generate", "--family", "unknown", "--out", "x.json"]) == 2


def assert_input_error(code, capsys, fragment):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err


def test_non_finite_cost_is_input_error(tmp_path, capsys):
    ensemble_path = write_ensemble(tmp_path / "trine.json", generate_polygon_antiprism(3))
    cost_path = tmp_path / "cost.json"
    cost_path.write_text('{"values": [1, NaN, 3]}')
    code = run_cli(["solve", "--ensemble", ensemble_path, "--cost", str(cost_path)])
    assert_input_error(code, capsys, "cost values must be finite")


@pytest.mark.parametrize(
    "values",
    # the last has a finite 2 (gamma - mean) whose absolute sum overflows
    [[1e308, -1e308], [1e308, 1e308, -1e308, -1e308], [8e307, 8e307, -8e307, -8e307]],
)
def test_overflowing_cost_is_input_error(tmp_path, capsys, values):
    ensemble = generate_random_uniform_prior(len(values), 3, seed=1)
    ensemble_path = write_ensemble(tmp_path / "random.json", ensemble)
    cost_path = tmp_path / "cost.json"
    cost_path.write_text(json.dumps({"values": values}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["solve", "--ensemble", ensemble_path, "--cost", str(cost_path)])
    assert_input_error(code, capsys, "cost values overflow")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("m", [2, DEFAULT_FACTORIAL_CAP + 1])
def test_qubit_cost_too_large_to_square_solves_at_unit_scale(tmp_path, capsys, m):
    # (sum |gamma - mean|)^2 overflows at 1e200, but both qubit solvers work at
    # unit scale: up to the cap the value is the scale-1 one times 1e200, above
    # it the zig-zag bound, as at scale 1
    ensemble_path = write_ensemble(tmp_path / "qubits.json", generate_random_uniform_prior(m, 2, 1))
    cost_path, out = tmp_path / "cost.json", tmp_path / "report.json"
    values = []
    for factor in (1.0, 1e200):
        cost_path.write_text(json.dumps({"values": [factor, -factor] + [0.0] * (m - 2)}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                ["solve", "--ensemble", ensemble_path, "--cost", str(cost_path), "--out", str(out)]
            )
        assert not caught
        stdout = capsys.readouterr().out
        if m > DEFAULT_FACTORIAL_CAP:
            assert code == 3
            assert stdout.splitlines()[0] == "no sweep ran above the enumeration cap: zig-zag bound"
        else:
            assert code == 0
        values.append(json.loads(out.read_text())["value"])
    assert math.isclose(values[1] / 1e200, values[0], rel_tol=1e-12)


@pytest.mark.parametrize("kind", ["solve", "simulate"])
def test_tol_beyond_the_doubles_at_the_cost_scale(tmp_path, capsys, kind):
    # --tol times the cost's power of two overflows to inf, which passes every
    # numbering, as 1e300 already does
    ensemble_path = write_ensemble(tmp_path / "r.json", generate_random_uniform_prior(4, 3, 1))
    results = []
    for tol in ("1e300", "1e308", "1.7e308"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli([kind, "--ensemble", ensemble_path, "--tol", tol])
        assert not caught
        results.append((code, capsys.readouterr()))
    assert results[0][0] == 0
    assert results[1] == results[0] and results[2] == results[0]


def test_tol_must_be_finite(tmp_path, capsys):
    ensemble_path = write_ensemble(tmp_path / "sic.json", generate_sic())
    code = run_cli(["solve", "--ensemble", ensemble_path, "--tol", "nan"])
    assert_input_error(code, capsys, "--tol must be a finite positive number")


def test_factorial_cap_env_must_be_an_integer(tmp_path, capsys, monkeypatch):
    ensemble_path = write_ensemble(tmp_path / "sic.json", generate_sic())
    monkeypatch.setenv("GUESSWORK_FACTORIAL_CAP", "abc")
    code = run_cli(["solve", "--ensemble", ensemble_path])
    assert_input_error(code, capsys, "GUESSWORK_FACTORIAL_CAP must be an integer, got 'abc'")


def test_factorial_cap_env_must_be_positive(tmp_path, capsys, monkeypatch):
    ensemble_path = write_ensemble(tmp_path / "sic.json", generate_sic())
    monkeypatch.setenv("GUESSWORK_FACTORIAL_CAP", "0")
    code = run_cli(["solve", "--ensemble", ensemble_path])
    assert_input_error(code, capsys, "GUESSWORK_FACTORIAL_CAP must be >= 1, got 0")


def test_non_finite_state_is_input_error(tmp_path, capsys):
    doc = serialize.ensemble_to_json(generate_polygon_antiprism(3))
    doc["states"][1][0][1][0] = math.nan  # off-diagonal: passes the PSD check
    ensemble_path = tmp_path / "trine.json"
    ensemble_path.write_text(json.dumps(doc))
    code = run_cli(["solve", "--ensemble", str(ensemble_path)])
    assert_input_error(code, capsys, "state 1 has non-finite entries")
    # in Bloch form an infinite component is refused by name, without a warning
    bloch = [{"trace": 0.5, "v": [0, 0, 0]}, {"trace": 0.5, "v": [math.inf, 0, 0]}]
    doc = {"dim": 2, "bloch": bloch}
    ensemble_path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli(["solve", "--ensemble", str(ensemble_path)])
    assert_input_error(code, capsys, "state 1 has non-finite entries")


HUGE = 1.7e308


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize(
    "matrix, fragment",
    [
        ([[[1.0, math.inf]]], "has non-finite entries"),
        ([[[0.5, 0.0], [HUGE, 0.0]], [[-HUGE, 0.0], [0.5, 0.0]]], "is not Hermitian"),
        (
            [[[HUGE, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-HUGE, 0.0]]],
            "has non-finite entries or entries too large to symmetrize",
        ),
    ],
)
def test_huge_or_infinite_entries_are_refused_without_a_warning(
    tmp_path, capsys, matrix, fragment, index
):
    # re + 1j * im and A -+ A^dag overflow or make NaNs here: with warnings
    # raised as errors they must still exit 2, naming the state or element
    dim = len(matrix)
    states = [[[[0.0, 0.0]] * dim] * dim] * index + [matrix]
    ensemble_path = tmp_path / "ensemble.json"
    ensemble_path.write_text(json.dumps({"dim": dim, "states": states}))
    numberings = list(itertools.permutations(range(1, len(states) + 1)))
    elements = [{"numbering": list(n), "matrix": s} for n, s in zip(numberings, states)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli(["solve", "--ensemble", str(ensemble_path)])
        measurement = serialize.measurement_from_json({"elements": elements}, dim)
        with pytest.raises(ValueError, match=re.escape(f"element {numberings[index]} {fragment}")):
            measurement.validated()
    assert_input_error(code, capsys, f"state {index} {fragment}")


TRINE_STATES = serialize.ensemble_to_json(generate_polygon_antiprism(3))["states"]
TRINE_BLOCH = [{"trace": 1 / 3, "v": list(v)} for v in generate_polygon_antiprism(3).bloch]


@pytest.mark.parametrize(
    "ensemble, cost, fragment",
    [
        ({"dim": None, "states": TRINE_STATES}, None, "'dim' must be an integer, got None"),
        ({"dim": [2], "states": TRINE_STATES}, None, "'dim' must be an integer, got [2]"),
        ({"dim": 2.7, "states": TRINE_STATES}, None, "'dim' must be an integer, got 2.7"),
        ({"dim": 2, "states": 5}, None, "'states' must be a list, got 5"),
        ({"dim": 2, "bloch": 5}, None, "'bloch' must be a list, got 5"),
        ({"dim": 2, "bloch": [5] + TRINE_BLOCH[1:]}, None, "bloch entry 0 requires 'trace' and 'v'"),
        (
            {"dim": 2, "bloch": [{"trace": None, "v": [0, 0, 0]}] + TRINE_BLOCH[1:]},
            None,
            "bloch entry 0 'trace' must be a number, got None",
        ),
        (
            {"dim": 2, "bloch": [{"trace": 1 / 3, "v": None}] + TRINE_BLOCH[1:]},
            None,
            "bloch entry 0 'v' must be a list, got None",
        ),
        (
            {"dim": 2, "bloch": [{"trace": 1 / 3, "v": [[0], [0], [0]]}] + TRINE_BLOCH[1:]},
            None,
            "bloch entry 0 'v' entry must be a number, got [0]",
        ),
        (None, {"values": None}, "'values' must be a list, got None"),
        (None, {"values": 3}, "'values' must be a list, got 3"),
        (None, {"values": [[1], [2]]}, "'values' entry must be a number, got [1]"),
        (None, {"identity": None}, "'identity' must be an integer, got None"),
        (None, {"identity": 4}, "identity cost of size 4 does not match ensemble size 3"),
        # refused before a cost of 10**12 values is built
        (None, {"identity": 10**12}, "identity cost of size 1000000000000 does not match"),
    ],
)
def test_malformed_json_is_input_error(tmp_path, capsys, ensemble, cost, fragment):
    ensemble_path = tmp_path / "ensemble.json"
    ensemble_path.write_text(json.dumps(ensemble or {"dim": 2, "bloch": TRINE_BLOCH}))
    cost_path = tmp_path / "cost.json"
    cost_path.write_text(json.dumps(cost or {"identity": 3}))
    code = run_cli(["solve", "--ensemble", str(ensemble_path), "--cost", str(cost_path)])
    assert_input_error(code, capsys, fragment)


ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)


def _subtree_paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _subtree_paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_exit_code_contract_under_corrupted_json(data):
    m = data.draw(st.integers(2, 4), label="m")
    dim = data.draw(st.integers(2, 3), label="dim")
    e = generate_random_uniform_prior(m, dim, seed=data.draw(st.integers(0, 20), label="seed"))
    if dim == 2 and data.draw(st.booleans(), label="bloch form"):
        ensemble = {"dim": 2, "bloch": [{"trace": 1 / m, "v": list(v)} for v in e.bloch]}
    else:
        ensemble = serialize.ensemble_to_json(e)
    spread = data.draw(st.lists(st.integers(0, 3), min_size=m // 2, max_size=m // 2))
    values = [2 + d for d in spread] + [2 - d for d in spread] + [2] * (m % 2)
    cost = data.draw(st.sampled_from([{"identity": m}, {"values": values}]), label="cost")
    docs = [ensemble, cost]
    target = data.draw(st.integers(0, 1), label="document")
    path = data.draw(st.sampled_from(list(_subtree_paths(docs[target]))), label="path")
    docs[target] = _replaced(docs[target], path, data.draw(ANY_JSON, label="replacement"))
    with tempfile.TemporaryDirectory() as scratch:
        paths = [Path(scratch) / "ensemble.json", Path(scratch) / "cost.json"]
        for file, doc in zip(paths, docs):
            file.write_text(json.dumps(doc))
        code = main(["solve", "--ensemble", str(paths[0]), "--cost", str(paths[1])])
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("tol", ["0.05", "0.1", "0.5"])
def test_solve_tol_does_not_drive_benevolence_detection(tmp_path, capsys, tol):
    # a loose --tol once made -bloch_gram of this ensemble pass as benevolent,
    # and the exact solver's cross-check then failed with exit 4
    e = generate_random_uniform_prior(4, 2, seed=1)
    ensemble_path = write_ensemble(tmp_path / "random.json", e)
    out = tmp_path / "report.json"
    assert run_cli(["solve", "--ensemble", ensemble_path, "--tol", tol, "--out", str(out)]) == 0
    assert "method               brute_force" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    measurement = serialize.measurement_from_json(doc["measurement"], dim=2)
    assert guesswork_value(e, identity_cost(4), measurement) == pytest.approx(
        doc["value"], abs=1e-12
    )


def test_solve_tol_does_not_drive_prior_detection(tmp_path, capsys):
    # a loose --tol once let this non-uniform qubit pair pass as uniform, and
    # the qubit solver then reported a proved optimum that its own
    # measurement does not attain
    path = tmp_path / "nonuniform.json"
    path.write_text(json.dumps({
        "dim": 2,
        "bloch": [{"trace": 0.3, "v": [0.05, 0, 0]}, {"trace": 0.7, "v": [0, 0.05, 0]}],
    }))
    reports = {}
    for tol in (None, "0.05", "0.3"):
        out = tmp_path / f"report-{tol}.json"
        argv = ["solve", "--ensemble", str(path), "--out", str(out)]
        assert run_cli(argv + (["--tol", tol] if tol else [])) == 0
        reports[tol] = capsys.readouterr().out, out.read_text()
        doc = json.loads(reports[tol][1])
        measurement = serialize.measurement_from_json(doc["measurement"], dim=2)
        ensemble = serialize.ensemble_from_json(json.loads(path.read_text()))
        assert guesswork_value(ensemble, identity_cost(2), measurement) == pytest.approx(
            doc["value"], abs=1e-12
        )
    assert reports["0.05"] == reports[None]
    assert reports["0.3"] == reports[None]


def test_solve_accepts_a_cost_balanced_within_balance_tol(tmp_path):
    # the balance check accepts this cost, so the two-outcome measurement's
    # antisymmetry check must allow the gap that its balance residual leaves
    ensemble_path = write_ensemble(tmp_path / "r3.json", generate_random_uniform_prior(3, 2, 1))
    cost_path = tmp_path / "cost.json"
    cost_path.write_text(json.dumps({"values": [1, 2, 3.00000000003]}))
    out = tmp_path / "report.json"
    argv = ["solve", "--ensemble", ensemble_path, "--cost", str(cost_path), "--out", str(out)]
    assert run_cli(argv) == 0
    doc = json.loads(out.read_text())
    measurement = serialize.measurement_from_json(doc["measurement"], dim=2)
    ensemble = serialize.ensemble_from_json(json.loads(Path(ensemble_path).read_text()))
    cost = serialize.cost_from_json(json.loads(cost_path.read_text()))
    assert abs(guesswork_value(ensemble, cost, measurement) - doc["value"]) <= 5e-13


def _cli_outcome(argv):
    """(exit code, stderr) of one CLI run; an exception escaping main propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, err.getvalue()


FLOAT_TEXT = st.one_of(
    st.floats(-2, 2).map(repr), st.sampled_from(["0", "1e-10", "1e300", "nan", "inf", "-inf", "x"])
)


def _mostly(valid, invalid):
    """Draws that are valid about two times in three."""
    return st.one_of(valid, valid, invalid)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cli_flags_end_in_an_exit_code(data):
    draw = data.draw
    generate = [
        "generate",
        "--family", draw(st.sampled_from(["polygon_antiprism", "sic", "mub", "random"])),
        "--m", str(draw(_mostly(st.integers(2, 7), st.integers(-1, 1)), label="m")),
        "--dim", str(draw(_mostly(st.integers(2, 4), st.integers(-1, 1)), label="dim")),
        "--h", draw(_mostly(st.sampled_from(["0", "0.5"]), FLOAT_TEXT), label="h"),
        "--lambda", draw(_mostly(st.just("pure"), FLOAT_TEXT), label="lambda"),
        "--seed", str(draw(st.integers(-2, 50), label="seed")),
    ]
    tol = draw(_mostly(st.sampled_from(["1e-10", "1e-6", "0.1"]), FLOAT_TEXT), label="tol")
    kind = draw(st.sampled_from(["solve", "simulate", "check"]), label="subcommand")
    cost = draw(
        _mostly(st.sampled_from(["identity", "balanced"]), st.sampled_from(["unbalanced", "missing"]))
    )
    with tempfile.TemporaryDirectory() as workdir:
        ensemble_path = str(Path(workdir) / "ensemble.json")
        code, err = _cli_outcome(generate + ["--out", ensemble_path])
        assert code in (0, 2) and "Traceback" not in err
        if code != 0:
            return
        argv = [kind, "--ensemble", ensemble_path, "--tol", tol]
        if kind != "check":
            m = len(json.loads(Path(ensemble_path).read_text())["states"])
            cost_path = Path(workdir) / "cost.json"
            values = {"balanced": list(range(m)), "unbalanced": [0.0] * (m - 1) + [1.0]}
            if cost in values:
                cost_path.write_text(json.dumps({"values": values[cost]}))
            argv += ["--cost", "identity" if cost == "identity" else str(cost_path)]
        if kind == "simulate":
            samples = _mostly(st.integers(1, 2000) | st.integers(1, 2**64), st.integers(-1, 0))
            argv += ["--samples", str(draw(samples, label="samples"))]
            argv += ["--seed", str(draw(st.integers(-2, 50), label="simulate seed"))]
        code, err = _cli_outcome(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
