"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 3-6 share a module-level random suite of uniform-prior qubit
ensembles with random balanced costs; derived regression values are
recomputed by the independent enumeration oracle before being compared to
their frozen closed forms.
"""

import math
import time

import numpy as np

from conftest import (
    oracle_min_guesswork,
    random_balanced_cost,
    random_numbering,
    reference_brute_force,
    reference_cost_gram,
)
from guesswork import serialize
from guesswork.cli import main as cli_main
from guesswork.costs import compose, cost_function, identity_cost
from guesswork.engine import (
    condition_check,
    effective_operator,
    guesswork_value,
    min_guesswork_qubit,
    optimal_two_outcome_measurement,
    simulate,
)
from guesswork.ensembles import (
    antiprism_h_bound,
    generate_mub,
    generate_polygon_antiprism,
    generate_random_uniform_prior,
    generate_sic,
    validate,
)
from guesswork.operators import pauli_vector, trace_norm
from guesswork.qap import (
    arrangement_solve,
    benevolent_solve,
    bloch_gram,
    is_benevolent,
)


def _passed(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS — {text}")


def _random_suite():
    rng = np.random.default_rng(20260808)
    suite = []
    for index in range(100):
        m = 2 + index % 5  # M in 2..6
        e = generate_random_uniform_prior(m, 2, seed=1000 + index)
        c = random_balanced_cost(rng, m)
        suite.append((e, c))
    return rng, suite


_SUITE_RNG, _QUBIT_SUITE = _random_suite()
_DIM3_SUITE = [
    (generate_random_uniform_prior(2 + i % 5, 3, seed=2000 + i),
     random_balanced_cost(_SUITE_RNG, 2 + i % 5))
    for i in range(20)
]


def _brute_optimum(e, c):
    return reference_brute_force(reference_cost_gram(c), bloch_gram(e))


def test_criterion_01_benevolent_matches_brute_force():
    started = time.monotonic()
    checked = 0
    for m in range(3, 9):
        bound = antiprism_h_bound(m)
        for h in sorted({0.0, bound / 2, bound}):
            e = generate_polygon_antiprism(m, h=h)
            c = identity_cost(m)
            fast = benevolent_solve(c, e.bloch)
            assert fast is not None, f"no benevolent structure found for M={m}, h={h}"
            _, fast_value = fast
            _, brute_value = _brute_optimum(e, c)
            assert abs(fast_value - brute_value) <= 1e-12, (m, h)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _passed(1, f"fast path equals enumeration on {checked} polygon/anti-prism instances "
               f"within 1e-12 ({elapsed:.1f}s)")


def test_criterion_02_frozen_regression_values():
    cases = [
        ("trine", generate_polygon_antiprism(3), 2 - 1 / math.sqrt(3)),
        ("sic", generate_sic(), 2.5 - math.sqrt(5 / 3) / 2),
        ("mub", generate_mub(), 3.5 - math.sqrt(35) / 6),
    ]
    for name, e, frozen in cases:
        c = identity_cost(e.size)
        oracle = oracle_min_guesswork(e, c)
        assert abs(oracle - frozen) <= 1e-9, name
        for solver, (_, objective) in [
            ("exact", arrangement_solve(c, e.bloch)),
            ("benevolent", benevolent_solve(c, e.bloch)),
        ]:
            assert abs(c.mean - math.sqrt(objective) - frozen) <= 1e-9, (name, solver)
        assert abs(min_guesswork_qubit(e, c).value - frozen) <= 1e-9, name
    _passed(2, "trine/SIC/MUB values reproduced by the enumeration oracle, the exact "
               "and benevolent solvers and the solve pipeline within 1e-9")


def test_criterion_03_norm_identity():
    rng = np.random.default_rng(3)
    for e, c in _QUBIT_SUITE:
        cost, gram = reference_cost_gram(c), bloch_gram(e)
        for _ in range(20):
            n = random_numbering(rng, e.size)
            v = pauli_vector(effective_operator(e, c, n))
            objective = float(np.sum(cost * gram[np.ix_([x - 1 for x in n], [x - 1 for x in n])]))
            assert abs(float(v @ v) - 4 * objective) <= 1e-9
    _passed(3, "|v(E(n))|^2 = 4*objective on 100 ensembles x 20 numberings within 1e-9")


def test_criterion_04_antisymmetry():
    rng = np.random.default_rng(4)
    for e, c in _QUBIT_SUITE + _DIM3_SUITE:
        n = random_numbering(rng, e.size)
        partner = compose(n, c.balancing_permutation)
        gap = np.max(np.abs(effective_operator(e, c, n) + effective_operator(e, c, partner)))
        assert float(gap) <= 1e-12
    _passed(4, "E(n) + E(n o sigma) = 0 within 1e-12 on the full suite (dims 2 and 3)")


def test_criterion_05_measurement_validity():
    for e, c in _QUBIT_SUITE:
        n_star, _ = _brute_optimum(e, c)
        measurement = optimal_two_outcome_measurement(e, c, n_star)
        total = np.zeros((e.dim, e.dim), dtype=complex)
        for element in measurement.elements.values():
            assert float(np.linalg.eigvalsh(element)[0]) >= -1e-10
            total += element
        gap = float(np.max(np.abs(np.linalg.eigvalsh(total - np.eye(e.dim)))))
        assert gap <= 1e-10
    _passed(5, "two-outcome measurements PSD and complete within 1e-10 on the full suite")


def test_criterion_06_two_way_value_consistency():
    for e, c in _QUBIT_SUITE:
        n_star, _ = _brute_optimum(e, c)
        measurement = optimal_two_outcome_measurement(e, c, n_star)
        direct = guesswork_value(e, c, measurement)
        closed_form = c.mean - trace_norm(effective_operator(e, c, n_star)) / 2
        assert abs(direct - closed_form) <= 1e-10
    _passed(6, "measurement value equals mean - ||E(n*)||_1/2 within 1e-10 on the full suite")


def test_criterion_07_condition_holds_at_qubit_argmax():
    rng = np.random.default_rng(7)
    checked = 0
    for m in (2, 3, 4, 5):
        for repeat in range(3):
            e = generate_random_uniform_prior(m, 2, seed=3000 + 10 * m + repeat)
            c = random_balanced_cost(rng, m)
            n_star, _ = _brute_optimum(e, c)
            assert condition_check(e, c, n_star), (m, repeat)
            checked += 1
    _passed(7, f"|E(n*)| >= E(n) swept over all M! numberings at the argmax of "
               f"{checked} random instances")


def test_criterion_08_covariance():
    rng = np.random.default_rng(8)
    for m in (2, 3, 4, 5):
        e = generate_random_uniform_prior(m, 2, seed=4000 + m)
        c = random_balanced_cost(rng, m)
        base = min_guesswork_qubit(e, c).value
        for _ in range(20):
            sigma1 = random_numbering(rng, m)
            sigma2 = random_numbering(rng, m)
            permuted_e = validate([e.states[label - 1] for label in sigma2])
            permuted_c = cost_function([c.values[t - 1] for t in sigma1])
            assert abs(min_guesswork_qubit(permuted_e, permuted_c).value - base) <= 1e-10
    _passed(8, "minimum value invariant under 20 random relabelings per instance, M <= 5")


def test_criterion_09_h_bound_boundary():
    for m in (4, 6, 8):
        bound = antiprism_h_bound(m)
        at_bound = is_benevolent(-bloch_gram(generate_polygon_antiprism(m, h=bound)))
        assert at_bound.is_benevolent, m
        above = is_benevolent(-bloch_gram(generate_polygon_antiprism(m, h=bound + 0.05)))
        assert not above.property1_ok, m
    _passed(9, "benevolence holds at h = bound and Property 1 fails at bound + 0.05 "
               "for M in {4, 6, 8}")


def test_criterion_10_monte_carlo():
    cases = [
        (generate_polygon_antiprism(3), 42),
        (generate_sic(), 43),
        (generate_mub(), 44),
    ]
    for e, seed in cases:
        started = time.monotonic()
        c = identity_cost(e.size)
        report = min_guesswork_qubit(e, c)
        estimate, std_error = simulate(e, c, report.measurement, samples=1_000_000, seed=seed)
        assert abs(estimate - report.value) <= 4 * std_error, (e.size, seed)
        assert time.monotonic() - started < 30.0
    _passed(10, "10^6-sample estimates within 4 standard errors of the closed form")


def test_criterion_11_determinism(tmp_path):
    mub_path = tmp_path / "mub.json"
    mub_path.write_text(serialize.dumps(serialize.ensemble_to_json(generate_mub())) + "\n")
    outputs = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        assert cli_main(["solve", "--ensemble", str(mub_path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    sim_outputs = []
    for run in range(2):
        out = tmp_path / f"sim{run}.json"
        code = cli_main(
            ["simulate", "--ensemble", str(mub_path), "--samples", "100000",
             "--seed", "123", "--out", str(out)]
        )
        assert code == 0
        sim_outputs.append(out.read_bytes())
    assert sim_outputs[0] == sim_outputs[1]
    _passed(11, "solve and simulate reports byte-identical across repeated runs")
