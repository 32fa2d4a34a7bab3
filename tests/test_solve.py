"""The single solve pipeline: dispatch, unverified bounds, and the sweeps it runs."""

import json
import math
import os
import sys

import numpy as np
import pytest
from conftest import (
    random_balanced_values,
    reference_condition_check,
    reference_zigzag,
    rotated_qubits,
)
from hypothesis import given, settings, strategies as st

from guesswork import engine
from guesswork.costs import cost_function, identity_cost
from guesswork.engine import (
    VALUE_TOL,
    condition_check,
    guesswork_value,
    min_guesswork_general,
    effective_operator,
    min_guesswork_qubit,
    optimal_two_outcome_measurement,
    solve,
)
from guesswork.ensembles import (
    antiprism_h_bound,
    generate_mub,
    generate_polygon_antiprism,
    generate_random_uniform_prior,
    is_uniform_prior,
    validate,
)
from guesswork.operators import from_bloch, trace_norm
from guesswork.qap import benevolent_solve
from guesswork.serialize import dumps, report_to_json

ORTHONORMAL_TRIPLE = [np.diag([1 / 3, 0, 0]), np.diag([0, 1 / 3, 0]), np.diag([0, 0, 1 / 3])]
# Anti-prism heights as multiples of the bound; just above it the zig-zag is
# no longer optimal.
HEIGHT_MULTIPLES = (0.0, 0.5, 1.0, 1 + 1e-9, 1.05, 1.3)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_qubit_certificate_matches_condition_sweep(data):
    m = data.draw(st.integers(3, 6), label="m")
    if data.draw(st.booleans(), label="random"):
        e = generate_random_uniform_prior(m, 2, seed=data.draw(st.integers(0, 10_000)))
    else:
        multiple = 0.0 if m % 2 else data.draw(st.sampled_from(HEIGHT_MULTIPLES))
        e = generate_polygon_antiprism(m, h=multiple * antiprism_h_bound(m))
    # small integer deviations make tied cost values common
    devs = data.draw(st.lists(st.integers(0, 3), min_size=m // 2, max_size=m // 2))
    values = [2 + d for d in devs] + [2 - d for d in devs] + [2] * (m % 2)
    c = cost_function(data.draw(st.permutations(values), label="values"))
    report = min_guesswork_qubit(e, c)
    # up to the cap the exact solver decides, so every answer is certified
    assert report.condition_verified
    assert condition_check(e, c, report.optimal_numbering)


def test_qubit_certificate_fails_just_above_the_height_bound():
    # judged at the Gram's scale, the closed form is refused where the zig-zag
    # misses the maximum, so the exact solver's numbering is reported, and it
    # is certified; closer to the bound the closed form is accepted, and holds
    e = generate_polygon_antiprism(4, h=(1 + 1e-9) * antiprism_h_bound(4))
    c = identity_cost(4)
    assert benevolent_solve(c, e.bloch) is None
    zigzag, _ = reference_zigzag(e, c)
    assert not condition_check(e, c, zigzag)
    near = generate_polygon_antiprism(4, h=(1 + 1e-10) * antiprism_h_bound(4))
    assert condition_check(near, c, benevolent_solve(c, near.bloch)[0])
    report = min_guesswork_qubit(e, c)
    assert report.method == "brute_force"
    assert report.condition_verified
    assert condition_check(e, c, report.optimal_numbering)


def test_qubit_solve_runs_no_condition_sweep(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the qubit path swept the condition")

    monkeypatch.setattr(engine, "condition_check", refuse)
    c = identity_cost(6)
    for e in [generate_mub(), generate_random_uniform_prior(6, 2, seed=3)]:
        report = solve(e, c)
        assert report.method == "brute_force"
        assert report.condition_verified and report.measurement is not None
    # the exact solver's answer is the MUB's closed form
    closed_form = c.mean - math.sqrt(benevolent_solve(c, generate_mub().bloch)[1])
    assert solve(generate_mub(), c).value == pytest.approx(closed_form, abs=1e-12)


def test_unverified_solve_sweeps_once(monkeypatch):
    calls = []
    sweep = engine.tracenorm_argmax

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(engine, "tracenorm_argmax", counted)
    report = solve(validate(ORTHONORMAL_TRIPLE), identity_cost(3))
    assert len(calls) == 1
    assert report.measurement is None
    assert not report.condition_verified
    assert report.method == "condition_check_only"
    assert report.value == pytest.approx(2 - 2 / 3, abs=1e-12)


def _summary(report):
    return (
        report.value,
        report.optimal_numbering,
        report.method,
        report.condition_verified,
        sorted(report.measurement.elements),
    )


def test_solve_matches_the_solvers_it_dispatches_to():
    e = generate_polygon_antiprism(4, h=0.3)
    c = identity_cost(4)
    assert _summary(solve(e, c)) == _summary(min_guesswork_qubit(e, c))
    # the pair uses all three coordinates, so it stays on the general path
    pair = validate([np.diag([0.5, 0.0, 0.0]), np.diag([0.0, 0.25, 0.25])])
    c = identity_cost(2)
    assert _summary(solve(pair, c)) == _summary(min_guesswork_general(pair, c))
    assert solve(pair, c).value == 1.0


def test_solve_reduces_an_embedded_pair_to_its_qubit_pair():
    pair = validate([np.diag([0.5, 0.0, 0.0]), np.diag([0.0, 0.5, 0.0])])
    qubits = validate([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])])
    c = identity_cost(2)
    report = solve(pair, c)
    assert _summary(report)[:4] == _summary(min_guesswork_qubit(qubits, c))[:4]
    assert report.method == "brute_force" and report.condition_verified
    assert report.value == 1.0
    # the unused third coordinate is split evenly between the two elements
    assert {n: np.diag(m).real.tolist() for n, m in report.measurement.elements.items()} == {
        (1, 2): [1.0, 0.0, 0.5],
        (2, 1): [0.0, 1.0, 0.5],
    }


def _embed(states, used, dim):
    """The states as dim x dim matrices that are zero off the coordinates ``used``."""
    padded = np.zeros((len(states), dim, dim), dtype=complex)
    for state, block in zip(padded, states):
        state[np.ix_(used, used)] = block
    return padded


@st.composite
def embedded_problems(draw):
    """Qubit or qutrit states embedded at random coordinates of d = 3 or 4,
    with a uniform or random prior and an identity or tied balanced cost."""
    m = draw(st.integers(2, 6), label="m")
    dim = draw(st.integers(3, 4), label="dim")
    count = draw(st.integers(2, dim - 1), label="used coordinates")
    used = sorted(draw(st.permutations(range(dim)), label="order")[:count])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    prior = np.full(m, 1 / m)
    if draw(st.booleans(), label="random prior"):
        prior = rng.uniform(0.5, 1.5, size=m)
        prior /= prior.sum()
    states = []
    for weight in prior:
        if len(used) == 2:
            v = rng.normal(size=3)
            states.append(from_bloch(weight, weight * rng.uniform(0, 1) * v / np.linalg.norm(v)))
        else:
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            w = g @ g.conj().T
            states.append(weight * w / np.trace(w).real)
    c = identity_cost(m)
    if draw(st.booleans(), label="tied cost"):
        devs = draw(st.lists(st.integers(0, 3), min_size=m // 2, max_size=m // 2))
        values = [2 + d for d in devs] + [2 - d for d in devs] + [2] * (m % 2)
        c = cost_function(draw(st.permutations(values), label="values"))
    return states, used, dim, c


@settings(max_examples=60, deadline=None)
@given(embedded_problems())
def test_solve_reduces_to_the_used_coordinates(problem):
    states, used, dim, c = problem
    sub = validate(states)
    padded = validate(_embed(states, used, dim))
    # a trace with two nonzero terms is exact in any order, so an embedded
    # qubit keeps its prior, which picks its solver, bit for bit; numpy sums
    # four diagonal entries pairwise, so three of four may move the last bit
    if len(used) == 2:
        np.testing.assert_array_equal(padded.prior, sub.prior)
    np.testing.assert_allclose(padded.prior, sub.prior, rtol=0, atol=1e-15)
    expected, report = solve(sub, c), solve(padded, c)
    assert report.optimal_numbering == expected.optimal_numbering
    assert report.value == expected.value
    assert report.method == expected.method
    assert report.condition_verified == expected.condition_verified
    assert report.trace_norm_term == expected.trace_norm_term
    if expected.measurement is None:
        assert report.measurement is None
        return
    elements = expected.measurement.elements
    assert sorted(report.measurement.elements) == sorted(elements)
    unused = np.eye(dim, dtype=complex)
    unused[used, used] = 0
    for numbering, element in elements.items():
        lifted = unused / len(elements)
        lifted[np.ix_(used, used)] = element
        np.testing.assert_array_equal(report.measurement.elements[numbering], lifted)
    assert abs(guesswork_value(padded, c, report.measurement) - report.value) <= VALUE_TOL


def test_a_tiny_entry_in_an_unused_row_keeps_the_general_path():
    qubits = generate_random_uniform_prior(4, 2, seed=5)
    c = identity_cost(4)
    padded = _embed(qubits.states, [0, 1], 3)
    assert solve(validate(padded), c).method == "brute_force"
    padded[2, 2, 2] = 1e-300
    report = solve(validate(padded), c)
    assert report.method == "condition_check_only"
    assert report.value == pytest.approx(solve(qubits, c).value, abs=1e-12)


def test_solve_verifies_a_rotated_embedded_qubit_through_the_general_path():
    # the rotated states use every coordinate, so nothing is dropped, and
    # the condition holds with 0 an eigenvalue of every |E*| - E(n); at M = 8
    # the condition sweep screens the one 8! split block in ten slices
    for m in (6, 8):
        qubits, rotated = rotated_qubits(m, 8)
        c = identity_cost(m)
        report = solve(rotated, c)
        assert report.method == "condition_check_only" and report.condition_verified
        assert abs(report.value - solve(qubits, c).value) <= 1e-12
        assert abs(guesswork_value(rotated, c, report.measurement) - report.value) <= VALUE_TOL
        n_star = report.optimal_numbering
        assert condition_check(rotated, c, n_star) == reference_condition_check(
            rotated, c, n_star, 1e-10
        )


SCALE_ENSEMBLES = {
    "random_dim3": generate_random_uniform_prior(8, 3, 1),  # the condition fails
    "mub": generate_mub(),
    "random_qubits": generate_random_uniform_prior(8, 2, 1),
    "rotated_qubits": rotated_qubits(8, 1)[1],  # the condition holds on the general path
}


@pytest.mark.parametrize("name", SCALE_ENSEMBLES)
def test_solve_does_not_depend_on_the_units_of_the_cost(name):
    # G(a gamma) = a G(gamma): the tolerances are taken at the cost's scale
    e = SCALE_ENSEMBLES[name]

    def solved(factor):
        c = cost_function([factor * t for t in range(1, e.size + 1)])
        return c, solve(e, c)

    def elements(report):
        if report.measurement is None:
            return None
        return {n: element.tobytes() for n, element in report.measurement.elements.items()}

    _, base = solved(1.0)
    for factor in (2.0**-40, 1e-11, 1e-10, 1e4, 1e6, 2.0**40):
        c, report = solved(factor)
        assert (report.method, report.condition_verified) == (base.method, base.condition_verified)
        assert (report.measurement is None) == (base.measurement is None)
        assert math.isclose(report.value / factor, base.value, rel_tol=1e-12)
        if report.measurement is not None:
            attained = guesswork_value(e, c, report.measurement)
            assert math.isclose(attained, report.value, rel_tol=1e-12)
        if math.frexp(factor)[0] == 0.5:  # a power of two scales every float exactly
            assert report.optimal_numbering == base.optimal_numbering
            assert elements(report) == elements(base)


def test_solve_above_cap_degrades_to_zigzag_bound():
    c = identity_cost(4)
    weights = (0.4, 0.8, 1.2, 1.6)
    skewed = [s * w for s, w in zip(generate_random_uniform_prior(4, 2, seed=3).states, weights)]
    for e in (
        generate_random_uniform_prior(4, 2, seed=99),  # qubit, no benevolent structure
        generate_random_uniform_prior(4, 3, seed=1),  # general dimension
        validate(skewed),  # qubit, non-uniform prior
    ):
        report = solve(e, c, cap=3)
        numbering, norm_value = reference_zigzag(e, c)
        assert report.measurement is None and report.method == "zigzag"
        assert report.optimal_numbering == numbering
        assert report.value == c.mean - norm_value / 2
        # the solvers return that report themselves, field by field; none raises
        assert min_guesswork_general(e, c, cap=3) == report
        if e.dim == 2 and is_uniform_prior(e):
            assert min_guesswork_qubit(e, c, cap=3) == report


def test_solve_input_errors():
    e = generate_random_uniform_prior(4, 2, seed=99)
    # above the cap the solver returns the zig-zag bound instead of raising
    assert min_guesswork_qubit(e, identity_cost(4), cap=3).measurement is None
    # every entry point that needs a balanced cost refuses it in the same words
    unbalanced, qubits = cost_function([0.0, 1.0, 3.0]), generate_random_uniform_prior(3, 2, 1)
    for refused in (
        lambda: solve(generate_random_uniform_prior(3, 3, seed=1), unbalanced),
        lambda: optimal_two_outcome_measurement(qubits, unbalanced, (1, 2, 3)),
        lambda: benevolent_solve(unbalanced, qubits.bloch),
    ):
        with pytest.raises(ValueError, match="cost function is not balanced"):
            refused()
    with pytest.raises(ValueError, match="3 values but the ensemble has 4"):
        solve(e, identity_cost(3))


@pytest.mark.parametrize(
    "e, values, cap, method",
    [
        (generate_random_uniform_prior(5, 2, 3), None, 10, "brute_force"),
        (generate_random_uniform_prior(8, 2, 4), [0.5, 3, 1, 1, 2, 2, 3, 3.5], 10, "brute_force"),
        (generate_mub(), [2.0] * 6, 10, "brute_force"),  # sigma = identity: one outcome
        (generate_polygon_antiprism(6, h=0.3), None, 5, "benevolent"),
        (generate_polygon_antiprism(11), [1, 1, 2, 2, 2, 3, 4, 4, 4, 5, 5], 10, "benevolent"),
        (generate_polygon_antiprism(12), None, 10, "benevolent"),
    ],
)
def test_qubit_report_forms_e_star_once_as_the_public_functions_do(e, values, cap, method):
    # the report's measurement and trace-norm term come from one E(n*), and
    # must be bitwise those of the public functions at its numbering
    c = identity_cost(e.size) if values is None else cost_function(values)
    report = min_guesswork_qubit(e, c, cap=cap)
    assert report.method == method
    n_star = report.optimal_numbering
    want = optimal_two_outcome_measurement(e, c, n_star)
    assert list(report.measurement.elements) == list(want.elements)
    for numbering, element in want.elements.items():
        assert report.measurement.elements[numbering].tobytes() == element.tobytes()
    assert report.trace_norm_term == trace_norm(effective_operator(e, c, n_star)) / 2
    if method == "benevolent":
        assert n_star == benevolent_solve(c, e.bloch)[0]


def _raises(*args, **kwargs):
    raise AssertionError("a numpy helper that runs as Python code was called")


def test_qubit_solves_call_no_python_level_numpy_helper(monkeypatch):
    # the uniform-qubit route uses C-level forms of these helpers, with the
    # same bits: each report equals the unpatched run's, which also fills the
    # per-M caches (qap._pairs reads np.triu_indices once per M)
    rng = np.random.default_rng(34)
    problems = []
    for m in (3, 8, 9, 10):
        e = generate_random_uniform_prior(m, 2, m)
        problems += [(e, identity_cost(m)), (e, cost_function(random_balanced_values(rng, m)))]
    qubits = generate_random_uniform_prior(8, 2, 5).states  # embedded in dim 3
    problems.append((validate([np.pad(s, ((0, 1), (0, 1))) for s in qubits]), identity_cost(8)))
    want = [dumps(report_to_json(solve(e, c))) for e, c in problems]
    for name in ("cross", "triu_indices", "put_along_axis", "stack", "outer", "flatnonzero"):
        monkeypatch.setattr(np, name, _raises)
    monkeypatch.setattr(np.linalg, "norm", _raises)
    got = [dumps(report_to_json(solve(e, c))) for e, c in problems]
    assert got == want
    assert [json.loads(text)["method"] for text in got] == ["brute_force"] * len(problems)


# The numpy wrappers that run as Python code and remain on the solve routes:
# their C cores are private modules (numpy.linalg._umath_linalg, c_einsum),
# and errstate has no C form.  Every other numpy call is a C function, or one
# with only a Python dispatcher (numpy._core.multiarray).
REMAINING_WRAPPERS = ("eigvalsh", "eigh", "einsum", "errstate")
_NUMPY = os.path.dirname(np.__file__)
_REDUCTION_WRAPPERS = (
    os.path.join(_NUMPY, "_core", "_methods.py"),
    os.path.join(_NUMPY, "_core", "fromnumeric.py"),
)


def _remaining(frame) -> bool:
    module, name = frame.f_globals.get("__name__", ""), frame.f_code.co_qualname
    dispatched = name.startswith("_") and name.endswith("_dispatcher")
    return module == "numpy._core.multiarray" or dispatched or name.split(".")[0] in REMAINING_WRAPPERS


def _numpy_python_calls(run) -> tuple[list[str], list[str]]:
    """The numpy functions that run as Python code entered during run(): those of
    ``ndarray.max``-style reductions and ``np.linalg.norm`` at any depth, and the
    others entered from the library's code that are not REMAINING_WRAPPERS."""
    forbidden, other = [], []

    def profile(frame, event, arg):
        if event != "call" or not frame.f_code.co_filename.startswith(_NUMPY):
            return
        name = f"{frame.f_globals.get('__name__')}.{frame.f_code.co_qualname}"
        if frame.f_code.co_filename in _REDUCTION_WRAPPERS or name == "numpy.linalg._linalg.norm":
            forbidden.append(name)
        elif frame.f_back.f_globals.get("__name__", "").startswith("guesswork") and not _remaining(frame):
            other.append(name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return forbidden, other


def _non_uniform_qubits(m: int, seed: int):
    rng = np.random.default_rng(seed)
    prior = rng.uniform(0.5, 1.5, m)
    prior /= prior.sum()
    directions = rng.normal(size=(m, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return validate([from_bloch(p, rng.uniform(0, p) * v) for p, v in zip(prior, directions)])


@pytest.mark.parametrize(
    "e, c, method, verified",
    [
        (generate_random_uniform_prior(8, 3, 1), identity_cost(8), "condition_check_only", False),
        (_non_uniform_qubits(8, 0), identity_cost(8), "condition_check_only", False),
        (rotated_qubits(8, 1)[1], identity_cost(8), "condition_check_only", True),
        (generate_random_uniform_prior(8, 2, 2), identity_cost(8), "brute_force", True),
        (generate_random_uniform_prior(9, 2, 3), identity_cost(9), "brute_force", True),
        (generate_polygon_antiprism(11), identity_cost(11), "benevolent", False),
    ],
    ids=["ginibre-qutrits", "non-uniform-qubits", "rotated-qubits", "qubits-8", "qubits-9", "polygon-11"],
)
def test_every_solve_route_calls_no_python_level_reduction(e, c, method, verified):
    # ndarray.max/min/sum/mean/any/all, np.max, np.argsort and np.linalg.norm run
    # as Python code, dear on a cold call; every route uses C-level forms with
    # the same bits.  A first solve fills the per-M caches
    report = solve(e, c)
    assert (report.method, report.condition_verified) == (method, verified)
    assert _numpy_python_calls(lambda: solve(e, c)) == ([], [])
