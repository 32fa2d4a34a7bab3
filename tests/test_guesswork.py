import collections
import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    double_sum,
    oracle_min_guesswork,
    random_balanced_cost,
    random_numbering,
    random_two_outcome_measurement,
    reference_cost_gram,
    reference_simulate,
    reference_zigzag,
    rotated_qubits,
)
from guesswork import serialize
from guesswork.costs import compose, cost_function, identity_cost
from guesswork.engine import (
    VALUE_TOL,
    NumberingMeasurement,
    condition_check,
    effective_operator,
    guesswork_value,
    min_guesswork_general,
    min_guesswork_qubit,
    optimal_two_outcome_measurement,
    simulate,
    solve,
    tracenorm_argmax,
)
from guesswork.ensembles import (
    generate_mub,
    generate_polygon_antiprism,
    generate_random_uniform_prior,
    generate_sic,
    validate,
)
from guesswork.errors import FactorialCapError
from guesswork.operators import from_bloch
from guesswork.qap import arrangement_solve, benevolent_solve, bloch_gram

ORTHOGONAL_PAIR = [np.diag([0.5, 0.0]), np.diag([0.0, 0.5])]


def test_effective_operator_orthogonal_pair():
    e = validate(ORTHOGONAL_PAIR)
    op = effective_operator(e, identity_cost(2), (1, 2))
    np.testing.assert_allclose(op, np.diag([-0.5, 0.5]), atol=1e-15)


def test_effective_operator_traceless_for_uniform_prior():
    rng = np.random.default_rng(4)
    e = generate_random_uniform_prior(4, 2, seed=12)
    c = random_balanced_cost(rng, 4)
    for _ in range(10):
        op = effective_operator(e, c, random_numbering(rng, 4))
        assert abs(np.trace(op)) < 1e-12


def test_effective_operator_constant_cost_is_zero():
    e = generate_polygon_antiprism(3)
    op = effective_operator(e, cost_function([1.0, 1.0, 1.0]), (2, 3, 1))
    np.testing.assert_allclose(op, np.zeros((2, 2)), atol=1e-15)


def test_effective_operator_antisymmetric_under_balancing():
    rng = np.random.default_rng(8)
    for dim in (2, 3):
        for m in (2, 3, 4, 5, 6):
            e = generate_random_uniform_prior(m, dim, seed=100 * dim + m)
            c = random_balanced_cost(rng, m)
            n = random_numbering(rng, m)
            partner = compose(n, c.balancing_permutation)
            total = effective_operator(e, c, n) + effective_operator(e, c, partner)
            assert float(np.max(np.abs(total))) < 1e-12


def test_guesswork_value_perfect_discrimination():
    e = validate(ORTHOGONAL_PAIR)
    m = NumberingMeasurement(
        dim=2, elements={(1, 2): np.diag([1.0, 0.0j]), (2, 1): np.diag([0.0j, 1.0])}
    )
    assert guesswork_value(e, identity_cost(2), m) == pytest.approx(1.0, abs=1e-12)


def test_guesswork_value_single_outcome_gives_mean():
    e = generate_sic()
    c = identity_cost(4)
    m = NumberingMeasurement(dim=2, elements={(3, 1, 4, 2): np.eye(2, dtype=complex)})
    assert guesswork_value(e, c, m) == pytest.approx(c.mean, abs=1e-12)


def test_guesswork_value_trine_optimal_measurement():
    e = generate_polygon_antiprism(3)
    c = identity_cost(3)
    report = min_guesswork_qubit(e, c)
    value = guesswork_value(e, c, report.measurement)
    assert value == pytest.approx(2 - 1 / math.sqrt(3), abs=1e-10)


def test_guesswork_value_rejects_invalid_measurement():
    e = validate(ORTHOGONAL_PAIR)
    incomplete = NumberingMeasurement(dim=2, elements={(1, 2): np.diag([1.0, 0.0j])})
    with pytest.raises(ValueError, match="identity"):
        guesswork_value(e, identity_cost(2), incomplete)
    negative = NumberingMeasurement(
        dim=2,
        elements={(1, 2): np.diag([1.0, -0.1]), (2, 1): np.diag([0.0, 1.1])},
    )
    with pytest.raises(ValueError, match="not PSD"):
        guesswork_value(e, identity_cost(2), negative)


def test_two_outcome_measurement_orthogonal_pair():
    e = validate(ORTHOGONAL_PAIR)
    m = optimal_two_outcome_measurement(e, identity_cost(2), (2, 1))
    np.testing.assert_allclose(m.elements[(2, 1)], np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(m.elements[(1, 2)], np.diag([1.0, 0.0]), atol=1e-12)
    total = sum(m.elements.values())
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


def test_two_outcome_measurement_zero_effective_operator():
    # identical states make E vanish but the pairing stays two-outcome
    e = validate([np.eye(2) / 4, np.eye(2) / 4])
    m = optimal_two_outcome_measurement(e, identity_cost(2), (1, 2))
    assert set(m.elements) == {(1, 2), (2, 1)}
    for element in m.elements.values():
        np.testing.assert_allclose(element, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-10, 1e-11, 1e-13])
def test_verified_measurement_attains_its_value_at_short_bloch_vectors(scale):
    # E(n*) is as small as the Bloch vectors, whatever the cost: taken at the
    # cost's scale its whole spectrum would lie in the null space, and both
    # elements would be I / 2, which only attain the mean
    bloch = generate_random_uniform_prior(8, 2, 1).bloch * scale
    e = validate([from_bloch(1 / 8, v) for v in bloch])
    c = identity_cost(8)
    report = solve(e, c)
    assert report.condition_verified
    assert report.mean_cost - report.value > 0.9 * scale
    # guesswork_value sums 64 terms of order 1 / 8: it rounds by a few ulps of the mean
    assert abs(guesswork_value(e, c, report.measurement) - report.value) <= 1e-14


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["identical", "maximally_mixed"])
def test_measurement_of_a_vanishing_effective_operator(kind, dim):
    # E(n*) is zero or rounding noise: scaled to its own size, noise splits by
    # sign, and every measurement attains the mean
    state = 2 * generate_random_uniform_prior(2, dim, 3).states[0]
    if kind == "maximally_mixed":
        state = np.eye(dim) / dim
    e = validate([state / 5] * 5)
    for c in (identity_cost(5), cost_function([0.1, 0.7, 0.3, 0.9, 0.5])):
        report = solve(e, c)
        assert report.condition_verified
        report.measurement.validated()
        assert guesswork_value(e, c, report.measurement) == pytest.approx(
            report.value, abs=VALUE_TOL
        )


def test_two_outcome_measurement_degenerate_constant_cost():
    e = generate_polygon_antiprism(3)
    m = optimal_two_outcome_measurement(e, cost_function([1.0, 1.0, 1.0]), (1, 2, 3))
    assert set(m.elements) == {(1, 2, 3)}
    np.testing.assert_allclose(m.elements[(1, 2, 3)], np.eye(2), atol=1e-15)


def test_two_outcome_measurement_valid_on_trine():
    e = generate_polygon_antiprism(3)
    c = identity_cost(3)
    n_star, _ = arrangement_solve(c, e.bloch)
    m = optimal_two_outcome_measurement(e, c, n_star)
    m.validated()


def test_elements_whose_sum_overflows_do_not_validate():
    # each element is finite and PSD, but their sum overflows, so the gap to
    # the identity is NaN: that must fail the check, without a warning
    element = np.diag([8e307, 0.0]).astype(complex)
    numberings = [(1, 2, 3), (1, 3, 2), (2, 1, 3)]
    m = NumberingMeasurement(dim=2, elements={n: element for n in numberings})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="do not sum to the identity"):
            m.validated()


def test_two_outcome_measurement_requires_balanced():
    e = generate_polygon_antiprism(3)
    with pytest.raises(ValueError, match="balanced"):
        optimal_two_outcome_measurement(e, cost_function([0.0, 1.0, 3.0]), (1, 2, 3))


def test_condition_check_orthogonal_pair():
    e = validate(ORTHOGONAL_PAIR)
    assert condition_check(e, identity_cost(2), (2, 1))


def test_condition_check_fails_at_suboptimal_square_numbering():
    e = generate_polygon_antiprism(4, h=0.0)
    c = identity_cost(4)
    cost = reference_cost_gram(c)
    values = {n: double_sum(cost, bloch_gram(e), n) for n in itertools.permutations(range(1, 5))}
    worst = min(values, key=values.get)
    best = max(values, key=values.get)
    assert condition_check(e, c, best)
    assert not condition_check(e, c, worst)


def test_condition_check_random_argmax():
    rng = np.random.default_rng(21)
    for m in (2, 3, 4, 5):
        e = generate_random_uniform_prior(m, 2, seed=m)
        c = random_balanced_cost(rng, m)
        n_star, _ = arrangement_solve(c, e.bloch)
        assert condition_check(e, c, n_star)


def test_condition_check_cap():
    e = generate_sic()
    with pytest.raises(FactorialCapError):
        condition_check(e, identity_cost(4), (1, 2, 3, 4), cap=3)


def test_tracenorm_argmax_cap():
    e = generate_sic()
    with pytest.raises(FactorialCapError, match="sweeps 4! numberings, above the cap 3"):
        tracenorm_argmax(e, identity_cost(4), cap=3)


@pytest.mark.parametrize(
    "elements, message",
    [
        ({}, "measurement has no elements"),
        ({(1, 2): np.eye(3) / 2, (2, 1): np.eye(2) / 2}, r"element \(1, 2\) has dim 3, expected 2"),
    ],
)
def test_measurement_refuses_missing_or_mis_sized_elements(elements, message):
    with pytest.raises(ValueError, match=message):
        NumberingMeasurement(dim=2, elements=elements).validated()


FROZEN_VALUES = {
    # oracle-recomputed closed forms, see test_frozen_values_match_oracle
    "trine": 2 - 1 / math.sqrt(3),
    "sic": 2.5 - math.sqrt(5 / 3) / 2,
    "mub": 3.5 - math.sqrt(35) / 6,
}


def ensembles_under_test():
    return {
        "trine": generate_polygon_antiprism(3),
        "sic": generate_sic(),
        "mub": generate_mub(),
    }


@pytest.mark.parametrize("name", ["trine", "sic", "mub"])
def test_frozen_values_match_oracle(name):
    e = ensembles_under_test()[name]
    c = identity_cost(e.size)
    assert oracle_min_guesswork(e, c) == pytest.approx(FROZEN_VALUES[name], abs=1e-12)


# The optimal numbering from the solve pipeline, the exact solver and the closed form
QUBIT_SOLVERS = {
    "auto": lambda e, c: min_guesswork_qubit(e, c).optimal_numbering,
    "brute": lambda e, c: arrangement_solve(c, e.bloch)[0],
    "benevolent": lambda e, c: benevolent_solve(c, e.bloch)[0],
}


@pytest.mark.parametrize("solver", ["auto", "brute", "benevolent"])
@pytest.mark.parametrize("name", ["trine", "sic", "mub"])
def test_min_guesswork_qubit_families(name, solver):
    e = ensembles_under_test()[name]
    c = identity_cost(e.size)
    n_star = QUBIT_SOLVERS[solver](e, c)
    assert condition_check(e, c, n_star)
    measurement = optimal_two_outcome_measurement(e, c, n_star)
    assert guesswork_value(e, c, measurement) == pytest.approx(FROZEN_VALUES[name], abs=1e-9)
    report = min_guesswork_qubit(e, c)
    assert report.value == pytest.approx(FROZEN_VALUES[name], abs=1e-9)
    assert report.condition_verified
    assert report.value == pytest.approx(report.mean_cost - report.trace_norm_term, abs=1e-10)
    assert report.method == "brute_force"


def test_mub_optimal_numbering_pairs_antipodes():
    report = solve(generate_mub(), identity_cost(6))
    n = report.optimal_numbering
    # positions (1,6), (2,5), (3,4) must carry antipodal state pairs
    for t in range(1, 4):
        assert abs(n[t - 1] - n[6 - t]) == 3


def test_min_guesswork_qubit_input_errors():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="dim = 2"):
        min_guesswork_qubit(generate_random_uniform_prior(3, 3, seed=1), identity_cost(3))
    skew = validate([np.diag([0.6, 0.0]), np.diag([0.0, 0.4])])
    with pytest.raises(ValueError, match="uniform prior"):
        min_guesswork_qubit(skew, identity_cost(2))
    with pytest.raises(ValueError, match="not balanced"):
        min_guesswork_qubit(generate_polygon_antiprism(3), cost_function([0.0, 1.0, 3.0]))
    e = generate_random_uniform_prior(4, 2, seed=99)  # no benevolent structure
    # above the cap that is no error: the solver reports solve's zig-zag bound
    report = min_guesswork_qubit(e, identity_cost(4), cap=3)
    assert report.measurement is None
    assert report == solve(e, identity_cost(4), cap=3)


def test_min_guesswork_qubit_benevolent_above_cap():
    # the fast path needs no enumeration, so it works above the cap
    report = min_guesswork_qubit(generate_mub(), identity_cost(6), cap=4)
    assert report.method == "benevolent"
    assert not report.condition_verified
    assert report.value == pytest.approx(FROZEN_VALUES["mub"], abs=1e-9)


def test_min_guesswork_general_embedded_pair():
    e = validate([np.diag([0.5, 0.0, 0.0]), np.diag([0.0, 0.5, 0.0])])
    report = min_guesswork_general(e, identity_cost(2))
    assert report.measurement is not None
    assert report.value == pytest.approx(1.0, abs=1e-12)
    assert report.method == "condition_check_only"
    assert report.condition_verified


def test_min_guesswork_general_absent_on_orthonormal_triple():
    # three orthogonal states in dim 3: |E(n*)| misses one basis direction at
    # every numbering, so the sufficient condition never holds (a 3-outcome
    # strategy beats every two-outcome one here)
    e = validate([np.diag([1 / 3, 0, 0]), np.diag([0, 1 / 3, 0]), np.diag([0, 0, 1 / 3])])
    assert min_guesswork_general(e, identity_cost(3)).measurement is None
    _, best_norm = tracenorm_argmax(e, identity_cost(3))
    assert best_norm == pytest.approx(4 / 3, abs=1e-12)


def test_min_guesswork_general_agrees_with_qubit_path():
    rng = np.random.default_rng(5)
    for m in (2, 3, 4):
        e = generate_random_uniform_prior(m, 2, seed=m + 40)
        c = random_balanced_cost(rng, m)
        qubit = min_guesswork_qubit(e, c)
        general = min_guesswork_general(e, c)
        assert general.measurement is not None
        assert general.value == pytest.approx(qubit.value, abs=1e-9)


def test_zigzag_candidate_is_optimal_on_benevolent_families():
    # canonical labelings are already benevolent here, so the uncertified
    # heuristic coincides with the true optimum
    for e in (generate_polygon_antiprism(3), generate_mub()):
        c = identity_cost(e.size)
        n, norm_value = reference_zigzag(e, c)
        report = min_guesswork_qubit(e, c)
        assert c.mean - norm_value / 2 == pytest.approx(report.value, abs=1e-12)


def test_condition_certifies_a_given_numbering():
    e = validate(ORTHOGONAL_PAIR)
    c = identity_cost(2)
    assert condition_check(e, c, (2, 1))
    m = optimal_two_outcome_measurement(e, c, (2, 1))
    assert guesswork_value(e, c, m) == pytest.approx(1.0, abs=1e-12)


def test_permute_problem_covariance_of_value():
    rng = np.random.default_rng(14)
    e = generate_random_uniform_prior(4, 2, seed=77)
    c = random_balanced_cost(rng, 4)
    base = min_guesswork_qubit(e, c).value
    for _ in range(5):
        sigma1 = random_numbering(rng, 4)
        sigma2 = random_numbering(rng, 4)
        e2 = validate([e.states[label - 1] for label in sigma2])
        c2 = cost_function([c.values[t - 1] for t in sigma1])
        assert min_guesswork_qubit(e2, c2).value == pytest.approx(base, abs=1e-10)


def test_permuted_optimum_maps_back():
    from guesswork.costs import invert

    rng = np.random.default_rng(15)
    e = generate_random_uniform_prior(4, 2, seed=78)
    c = random_balanced_cost(rng, 4)
    sigma1 = random_numbering(rng, 4)
    sigma2 = random_numbering(rng, 4)
    e2 = validate([e.states[label - 1] for label in sigma2])
    c2 = cost_function([c.values[t - 1] for t in sigma1])
    n2, value2 = arrangement_solve(c2, e2.bloch)
    n1, value1 = arrangement_solve(c, e.bloch)
    # n2 maps to an optimum of the original problem (up to ties)
    mapped = compose(sigma2, compose(n2, invert(sigma1)))
    cost = reference_cost_gram(c)
    assert double_sum(cost, bloch_gram(e), mapped) == pytest.approx(value1, abs=1e-10)


def test_simulate_perfect_pair_zero_variance():
    e = validate(ORTHOGONAL_PAIR)
    m = NumberingMeasurement(
        dim=2, elements={(1, 2): np.diag([1.0, 0.0j]), (2, 1): np.diag([0.0j, 1.0])}
    )
    estimate, std_error = simulate(e, identity_cost(2), m, samples=100_000, seed=3)
    assert estimate == 1.0
    assert std_error == 0.0


def test_simulate_trine_hits_analytic_value():
    e = generate_polygon_antiprism(3)
    c = identity_cost(3)
    report = min_guesswork_qubit(e, c)
    estimate, std_error = simulate(e, c, report.measurement, samples=200_000, seed=42)
    assert abs(estimate - report.value) <= 4 * std_error


def test_simulate_single_outcome_matches_mean_cost():
    e = generate_sic()
    c = identity_cost(4)
    m = NumberingMeasurement(dim=2, elements={(1, 2, 3, 4): np.eye(2, dtype=complex)})
    estimate, std_error = simulate(e, c, m, samples=100_000, seed=11)
    assert abs(estimate - c.mean) <= 3 * std_error


def test_simulate_deterministic_and_single_sample():
    e = generate_polygon_antiprism(3)
    c = identity_cost(3)
    report = min_guesswork_qubit(e, c)
    first = simulate(e, c, report.measurement, samples=5_000, seed=7)
    second = simulate(e, c, report.measurement, samples=5_000, seed=7)
    assert first == second
    estimate, std_error = simulate(e, c, report.measurement, samples=1, seed=7)
    assert math.isnan(std_error)
    assert estimate in {1.0, 2.0, 3.0}
    with pytest.raises(ValueError):
        simulate(e, c, report.measurement, samples=0, seed=7)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("factor", [1e-200, 1e200])
@pytest.mark.parametrize("e", [generate_mub(), rotated_qubits(4, 1)[1]], ids=["mub", "rotated"])
def test_simulate_at_extreme_cost_scales(e, factor):
    # the squared deviations of 1e-200 costs underflow and those of 1e200
    # overflow unless they are taken at unit scale
    c = identity_cost(e.size)
    m = solve(e, c).measurement
    estimate, std_error = simulate(e, c, m, samples=100_000, seed=1)
    scaled = cost_function([factor * t for t in c.values])
    scaled_estimate, scaled_error = simulate(e, scaled, m, samples=100_000, seed=1)
    assert math.isclose(scaled_estimate / factor, estimate, rel_tol=1e-12)
    assert math.isclose(scaled_error / factor, std_error, rel_tol=1e-12)


def test_simulate_does_not_depend_on_the_order_of_the_elements():
    e = generate_random_uniform_prior(6, 2, seed=7)
    c = identity_cost(6)
    measurement = min_guesswork_qubit(e, c).measurement
    reversed_order = NumberingMeasurement(e.dim, dict(reversed(measurement.elements.items())))
    read_back = serialize.measurement_from_json(
        serialize.report_to_json(solve(e, c))["measurement"], dim=e.dim
    )
    estimates = {
        simulate(e, c, m, samples=10**6, seed=7) for m in (measurement, reversed_order, read_back)
    }
    assert len(estimates) == 1


def _skewed_problem():
    """Three qubit states with prior (0.5, 0.3, 0.2) and a two-outcome measurement."""
    e = validate(
        [
            0.5 * np.array([[0.9, 0.3], [0.3, 0.1]]),
            0.3 * np.array([[0.2, 0.4j], [-0.4j, 0.8]]),
            0.1 * np.eye(2),
        ]
    )
    c = identity_cost(3)
    return e, c, random_two_outcome_measurement(np.random.default_rng(5), e, c)


def test_simulate_has_the_round_by_round_distribution():
    # at 3 rounds the pair (estimate, standard error) takes finitely many
    # values; the cell-count draw and the round-by-round oracle must give them
    # the same distribution (seeds differ so that the two samples are independent)
    e, c, m = _skewed_problem()
    tallies = [collections.Counter(), collections.Counter()]
    for seed in range(3000):
        for tally, sampler, offset in zip(tallies, (simulate, reference_simulate), (0, 10**6)):
            estimate, std_error = sampler(e, c, m, samples=3, seed=seed + offset)
            tally[round(estimate, 9), round(std_error, 9)] += 1
    keys = set(tallies[0]) | set(tallies[1])
    # the two-sample chi-square statistic for equal sample sizes; df + 5 sqrt(2 df)
    # lies beyond its 0.999 quantile for these df
    chi2 = sum((tallies[0][k] - tallies[1][k]) ** 2 / (tallies[0][k] + tallies[1][k]) for k in keys)
    df = len(keys) - 1
    assert df >= 5
    assert chi2 <= df + 5 * math.sqrt(2 * df)


def test_simulate_z_scores_are_standard():
    e, c, m = _skewed_problem()
    analytic = guesswork_value(e, c, m)
    z = []
    for seed in range(400):
        estimate, std_error = simulate(e, c, m, samples=10_000, seed=seed)
        z.append((estimate - analytic) / std_error)
    assert abs(np.mean(z)) <= 0.2
    assert 0.8 <= np.var(z) <= 1.25


def test_simulate_memory_does_not_grow_with_samples():
    e = generate_mub()
    c = identity_cost(6)
    report = min_guesswork_qubit(e, c)
    tracemalloc.start()
    try:
        started = time.perf_counter()
        estimate, std_error = simulate(e, c, report.measurement, samples=10**12, seed=1)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20
    assert abs(estimate - report.value) <= 5 * std_error


def test_simulate_samples_bound():
    e = generate_polygon_antiprism(3)
    c = identity_cost(3)
    report = min_guesswork_qubit(e, c)
    estimate, std_error = simulate(e, c, report.measurement, samples=2**53, seed=1)
    assert abs(estimate - report.value) <= 5 * std_error
    with pytest.raises(ValueError, match=r"2\*\*53"):
        simulate(e, c, report.measurement, samples=2**53 + 1, seed=1)


@pytest.mark.parametrize(
    "solved, measured, message",
    [
        (generate_sic, generate_mub, "numbering has length 4, expected 6"),
        (generate_mub, generate_sic, "numbering has length 6, expected 4"),
        (
            generate_sic,
            lambda: generate_random_uniform_prior(4, 3, seed=1),
            "measurement has dim 2 but the ensemble has dim 3",
        ),
    ],
)
def test_simulate_refuses_a_measurement_of_another_ensemble(solved, measured, message):
    source = solved()
    measurement = solve(source, identity_cost(source.size)).measurement
    e = measured()
    with pytest.raises(ValueError, match=message):
        simulate(e, identity_cost(e.size), measurement, samples=100, seed=1)
    with pytest.raises(ValueError, match=message):
        guesswork_value(e, identity_cost(e.size), measurement)


def test_optimality_against_random_measurements():
    from conftest import random_two_outcome_measurement

    rng = np.random.default_rng(33)
    e = generate_random_uniform_prior(4, 2, seed=61)
    c = random_balanced_cost(rng, 4)
    best = min_guesswork_qubit(e, c).value
    for _ in range(200):
        m = random_two_outcome_measurement(rng, e, c)
        assert best <= guesswork_value(e, c, m) + 1e-10
