import itertools

import numpy as np
import pytest

from conftest import (
    double_sum,
    oracle_qap_max,
    random_numbering,
    reference_brute_force,
    reference_cost_gram,
    reference_is_benevolent,
    reference_zigzag,
)
from guesswork import qap
from guesswork.costs import cost_function, identity_cost
from guesswork.engine import effective_operator, min_guesswork_qubit
from guesswork.ensembles import (
    antiprism_h_bound,
    generate_mub,
    generate_polygon_antiprism,
    generate_random_uniform_prior,
    generate_sic,
    validate,
)
from guesswork.operators import pauli_vector
from guesswork.qap import (
    _objective,
    arrangement_solve,
    benevolent_solve,
    bloch_gram,
    find_benevolent_permutation,
    is_benevolent,
    zigzag_numbering,
)


def toeplitz_from_column(column):
    m = len(column)
    return np.array([[column[abs(i - j)] for j in range(m)] for i in range(m)])


def conjugate(a, sigma):
    idx = [s - 1 for s in sigma]
    return a[np.ix_(idx, idx)]


def test_bloch_gram_orthogonal_pair():
    e = validate([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])])
    np.testing.assert_allclose(bloch_gram(e), [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)


def test_bloch_gram_trine():
    g = bloch_gram(generate_polygon_antiprism(3))
    np.testing.assert_allclose(np.diag(g), [1 / 9] * 3, atol=1e-12)
    off = g[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, -1 / 18, atol=1e-12)


def test_bloch_gram_square_first_row():
    g = bloch_gram(generate_polygon_antiprism(4, h=0.0))
    np.testing.assert_allclose(g[0], np.array([1, 0, -1, 0]) / 16, atol=1e-12)


def test_bloch_gram_requires_qubits():
    with pytest.raises(ValueError):
        bloch_gram(generate_random_uniform_prior(3, 3, seed=0))


def test_objective_zero_cost():
    e = generate_sic()
    assert _objective(np.zeros((4, 4)), bloch_gram(e), np.array([[1, 0, 3, 2]]))[0] == 0.0


def test_objective_orthogonal_pair_hand_value():
    e = validate([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])])
    value = _objective(reference_cost_gram(identity_cost(2)), bloch_gram(e), np.array([[0, 1]]))
    assert value[0] == pytest.approx(0.25, abs=1e-15)


def test_objective_constant_for_sic():
    e = generate_sic()
    cost, gram = reference_cost_gram(identity_cost(4)), bloch_gram(e)
    rows = np.array(list(itertools.permutations(range(4))))
    values = _objective(cost, gram, rows)
    assert values.max() - values.min() < 1e-12
    assert values[0] == pytest.approx(5 / 12, abs=1e-12)
    np.testing.assert_allclose(values, [double_sum(cost, gram, row + 1) for row in rows], atol=1e-15)


def test_brute_force_tie_breaks_lexicographically():
    e = validate([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])])
    numbering, value = arrangement_solve(identity_cost(2), e.bloch)
    assert numbering == (1, 2)
    assert value == pytest.approx(0.25, abs=1e-15)


def test_brute_force_trine_value():
    # all six numberings tie at 1/3 (checked against the plain double-sum oracle)
    e = generate_polygon_antiprism(3)
    numbering, value = arrangement_solve(identity_cost(3), e.bloch)
    oracle = oracle_qap_max(reference_cost_gram(identity_cost(3)), bloch_gram(e))
    assert value == pytest.approx(oracle, abs=1e-14)
    assert value == pytest.approx(1 / 3, abs=1e-12)
    assert numbering == (1, 2, 3)


def test_brute_force_dominates_random_numberings():
    rng = np.random.default_rng(17)
    e = generate_random_uniform_prior(5, 2, seed=23)
    c = cost_function(rng.uniform(-2, 2, size=5))
    _, best = arrangement_solve(c, e.bloch)
    for _ in range(100):
        n = random_numbering(rng, 5)
        assert best >= double_sum(reference_cost_gram(c), bloch_gram(e), n) - 1e-12


def test_qubit_solver_above_the_cap_reports_the_zigzag_bound():
    e = generate_random_uniform_prior(4, 2, seed=99)  # no benevolent structure
    c = identity_cost(4)
    report = min_guesswork_qubit(e, c, cap=3)
    numbering, norm_value = reference_zigzag(e, c)
    assert report.measurement is None and not report.condition_verified
    assert report.method == "zigzag"
    assert report.optimal_numbering == numbering
    assert report.value == c.mean - norm_value / 2


@pytest.mark.parametrize("m, h", [(11, 0.0), (31, 0.0), (12, antiprism_h_bound(12) / 2)])
def test_shuffled_layout_above_the_cap_keeps_the_closed_form(m, h):
    # no rotation or reflection of the shuffled labels is benevolent, and the
    # exhaustive search stops at the cap; the azimuthal order finds the layout
    e = generate_polygon_antiprism(m, h=h)
    shuffled = validate([e.states[i] for i in np.random.default_rng(11).permutation(m)])
    c = identity_cost(m)
    canonical, relabeled = min_guesswork_qubit(e, c), min_guesswork_qubit(shuffled, c)
    assert (canonical.method, relabeled.method) == ("benevolent", "benevolent")
    assert relabeled.value == pytest.approx(canonical.value, abs=1e-9)


def test_square_gram_is_benevolent():
    report = is_benevolent(-bloch_gram(generate_polygon_antiprism(4, h=0.0)))
    assert report.is_symmetric_toeplitz
    assert report.property1_ok and report.property2_ok
    assert report.is_benevolent


def test_above_bound_antiprism_fails_property1():
    h = antiprism_h_bound(4) + 0.05
    report = is_benevolent(-bloch_gram(generate_polygon_antiprism(4, h=h)))
    assert not report.property1_ok
    assert report.failing_index == 1
    assert not report.is_benevolent


@pytest.mark.parametrize("m", [4, 6, 8])
def test_below_bound_antiprism_is_benevolent(m):
    h = antiprism_h_bound(m) / 2
    assert is_benevolent(-bloch_gram(generate_polygon_antiprism(m, h=h))).is_benevolent


def test_non_symmetric_matrix():
    report = is_benevolent(np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert not report.is_symmetric_toeplitz


@pytest.mark.parametrize("test", [is_benevolent, find_benevolent_permutation])
def test_benevolence_tests_refuse_a_non_square_matrix(test):
    with pytest.raises(ValueError, match=r"matrix must be square, got shape \(2, 3\)"):
        test(np.zeros((2, 3)))


def test_benevolence_survives_reversal_relabeling():
    ben = toeplitz_from_column([5.0, 0.0, 1.0, 3.0, 2.0, 0.0])
    assert is_benevolent(ben).is_benevolent
    reversal = tuple(range(6, 0, -1))
    assert is_benevolent(conjugate(ben, reversal)).is_benevolent


def test_zigzag_numberings():
    assert zigzag_numbering(4) == (1, 4, 2, 3)
    assert zigzag_numbering(5) == (1, 5, 2, 4, 3)
    assert zigzag_numbering(1) == (1,)
    with pytest.raises(ValueError, match="m must be >= 1"):
        zigzag_numbering(0)


def test_find_benevolent_identity_first():
    ben = toeplitz_from_column([5.0, 0.0, 1.0, 3.0, 2.0, 0.0])
    assert find_benevolent_permutation(ben) == (1, 2, 3, 4, 5, 6)


def test_find_benevolent_round_trip():
    ben = toeplitz_from_column([5.0, 0.0, 1.0, 3.0, 2.0, 0.0])
    rng = np.random.default_rng(9)
    for _ in range(5):
        tau = random_numbering(rng, 6)
        scrambled = conjugate(ben, tau)
        sigma = find_benevolent_permutation(scrambled)
        assert sigma is not None
        assert is_benevolent(conjugate(scrambled, sigma)).is_benevolent


def _near_toeplitz(rng, m, tol):
    """A symmetric Toeplitz matrix on a grid of tol, with a few entries (and
    their mirrors, mostly) moved to tol from the head of their diagonal and
    then one ulp either way, so both the Toeplitz test and the column
    properties meet equalities at tol."""
    mat = toeplitz_from_column(rng.integers(-3, 4, size=m) * tol)
    for _ in range(rng.integers(0, 4)):
        i, j = rng.integers(0, m, size=2)
        head = mat[max(i - j, 0), max(j - i, 0)]
        value = head + rng.choice([-1.0, 1.0]) * tol
        value = [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)][rng.integers(3)]
        mat[i, j] = value
        if rng.random() < 0.8:
            mat[j, i] = value
    return mat


@pytest.mark.parametrize("tol", [2.0**-10, qap.BENEVOLENCE_TOL, 0.3])
def test_is_benevolent_matches_the_per_diagonal_loop(tol):
    rng = np.random.default_rng(11)
    verdicts = set()
    for _ in range(1500):
        mat = _near_toeplitz(rng, int(rng.integers(1, 10)), tol)
        report = is_benevolent(mat, tol)
        assert report == reference_is_benevolent(mat, tol), mat
        verdicts.add((report.is_symmetric_toeplitz, report.is_benevolent, report.failing_index))
    # the draws reach every branch
    assert {v[:2] for v in verdicts} == {(False, False), (True, False), (True, True)}
    assert {v[2] for v in verdicts} >= {None, 1, 2}


def _gram_cases():
    rng = np.random.default_rng(5)
    for m in range(2, 13):
        bound = antiprism_h_bound(m)
        heights = [0.0] if m % 2 else [0.0, bound / 2, bound, bound * (1 + 1e-9), bound + 0.05]
        for h in heights if np.isfinite(bound) else [0.0, 0.5]:
            gram = -bloch_gram(generate_polygon_antiprism(m, h=h))
            yield gram
            yield conjugate(gram, random_numbering(rng, m))
        yield -bloch_gram(generate_random_uniform_prior(m, 2, seed=m))


def test_find_benevolent_permutation_matches_the_loop_oracle(monkeypatch):
    cases = list(_gram_cases())
    found = [find_benevolent_permutation(gram) for gram in cases]
    monkeypatch.setattr(qap, "is_benevolent", reference_is_benevolent)
    assert [find_benevolent_permutation(gram) for gram in cases] == found
    assert any(sigma is None for sigma in found)
    assert sum(sigma is not None for sigma in found) > len(found) // 2


def test_find_benevolent_absent_for_distinct_rows():
    # every row has a distinct entry multiset, but any symmetric Toeplitz
    # matrix repeats the first row's multiset in the last row
    bad = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
    assert find_benevolent_permutation(bad) is None


def test_find_benevolent_skips_the_search_for_an_asymmetric_matrix(monkeypatch):
    # no relabeling repairs asymmetry, so the exhaustive search never starts
    monkeypatch.setattr(qap, "_toeplitz_search", lambda mat, tol: pytest.fail("searched"))
    bad = np.array([[0.0, 1.0, 2.0], [1.5, 0.0, 4.0], [2.0, 4.0, 0.0]])
    assert find_benevolent_permutation(bad) is None


def test_benevolent_solve_square_matches_brute():
    e = generate_polygon_antiprism(4, h=0.0)
    c = identity_cost(4)
    fast = benevolent_solve(c, e.bloch)
    assert fast is not None
    n_fast, value_fast = fast
    _, value_bf = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
    assert value_fast == pytest.approx(value_bf, abs=1e-12)
    assert value_fast == pytest.approx(0.625, abs=1e-12)


def test_benevolent_solve_mub_matches_brute():
    e = generate_mub()
    c = identity_cost(6)
    n_fast, value_fast = benevolent_solve(c, e.bloch)
    _, value_bf = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
    assert value_fast == pytest.approx(value_bf, abs=1e-12)
    assert value_fast == pytest.approx(35 / 36, abs=1e-12)


def test_benevolent_solve_handles_decreasing_cost():
    # gamma given in decreasing order exercises the sorting permutation
    e = generate_mub()
    c = cost_function([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
    n_fast, value_fast = benevolent_solve(c, e.bloch)
    _, value_bf = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
    assert value_fast == pytest.approx(value_bf, abs=1e-12)
    assert value_fast == pytest.approx(35 / 36, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_benevolent_solve_objective_beyond_the_doubles_is_inf():
    # the objective at cost scale 1e200 is about 1e400; unscaled, its sum of
    # products was inf - inf
    e = generate_polygon_antiprism(11)
    n_star, _ = benevolent_solve(identity_cost(11), e.bloch)
    scaled = cost_function([1e200 * t for t in range(1, 12)])
    assert benevolent_solve(scaled, e.bloch) == (n_star, np.inf)


def test_benevolent_solve_requires_balanced_cost():
    with pytest.raises(ValueError, match="balanced"):
        benevolent_solve(cost_function([0.0, 1.0, 3.0]), generate_polygon_antiprism(3).bloch)


def test_benevolent_solve_takes_bloch_vectors_not_their_gram():
    gram = bloch_gram(generate_polygon_antiprism(4))
    with pytest.raises(ValueError, match=r"4 Bloch vectors of 3 entries, got shape \(4, 4\)"):
        benevolent_solve(identity_cost(4), gram)


def test_arrangement_solve_takes_bloch_vectors_not_their_gram():
    # the 5x5 Gram used to give a wrong maximum silently (0.0213 against 0.4166)
    e = generate_random_uniform_prior(5, 2, seed=23)
    with pytest.raises(ValueError, match=r"5 Bloch vectors of 3 entries, got shape \(5, 5\)"):
        arrangement_solve(identity_cost(5), bloch_gram(e))


def test_benevolent_solve_none_without_structure():
    rng = np.random.default_rng(3)
    e = generate_random_uniform_prior(4, 2, seed=99)
    assert find_benevolent_permutation(-bloch_gram(e)) is None
    assert benevolent_solve(identity_cost(4), e.bloch) is None


@pytest.mark.parametrize(
    "m,h", [(3, 0.0), (4, 0.0), (4, antiprism_h_bound(4)), (5, 0.0), (6, antiprism_h_bound(6))]
)
def test_shift_invariance_of_argmax(m, h):
    # with a centered ensemble (vanishing Bloch barycenter) a shift of the
    # centered cost changes no objective at all, so the argmax set is unchanged
    e = generate_polygon_antiprism(m, h=h)
    c = identity_cost(m)
    argmax_sets = []
    for shift in (0.0, 1.0, 5.0):
        shifted = np.asarray(c.values) - c.mean + shift
        gram = np.outer(shifted, shifted)
        values = {
            n: double_sum(gram, bloch_gram(e), n) for n in itertools.permutations(range(1, m + 1))
        }
        top = max(values.values())
        argmax_sets.append({n for n, v in values.items() if v >= top - 1e-12})
    assert argmax_sets[0] == argmax_sets[1] == argmax_sets[2]


def test_norm_identity_links_objective_to_bloch_norm():
    rng = np.random.default_rng(31)
    e = generate_random_uniform_prior(4, 2, seed=55)
    c = cost_function(rng.uniform(-2, 2, size=4))
    for _ in range(20):
        n = random_numbering(rng, 4)
        v = pauli_vector(effective_operator(e, c, n))
        objective = _objective(reference_cost_gram(c), bloch_gram(e), np.array([n]) - 1)[0]
        assert float(v @ v) == pytest.approx(4 * objective, abs=1e-9)
