import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_balanced_values
from guesswork.costs import (
    balance_certificate,
    compose,
    cost_function,
    identity_cost,
    invert,
    require_numbering,
)
from guesswork.qap import cost_gram


def certificate_holds(values, sigma, tol=1e-10):
    gamma = np.asarray(values, dtype=float)
    mean = gamma.mean()
    inv = invert(sigma)
    return all(
        abs((gamma[t] + gamma[inv[t] - 1]) / 2 - mean) <= tol for t in range(len(gamma))
    )


def test_identity_cost_certificate_is_reversal():
    c = identity_cost(4)
    assert c.balancing_permutation == (4, 3, 2, 1)
    assert c.mean == 2.5
    assert certificate_holds(c.values, c.balancing_permutation)


def test_two_level_cost_balanced():
    sigma = balance_certificate([0.0, 0.0, 1.0, 1.0])
    assert sigma is not None
    assert certificate_holds([0.0, 0.0, 1.0, 1.0], sigma)


def test_unbalanced_cost_has_no_certificate():
    assert balance_certificate([0.0, 1.0, 3.0]) is None
    assert not cost_function([0.0, 1.0, 3.0]).is_balanced


def test_identity_cost_small():
    assert identity_cost(2).values == (1.0, 2.0)
    assert identity_cost(2).mean == 1.5
    c1 = identity_cost(1)
    assert c1.values == (1.0,)
    assert c1.balancing_permutation == (1,)


@given(st.integers(2, 7), st.integers(0, 10_000))
def test_random_balanced_costs_certified(m, seed):
    rng = np.random.default_rng(seed)
    values = random_balanced_values(rng, m)
    sigma = balance_certificate(values)
    assert sigma is not None
    assert certificate_holds(values, sigma)


@given(st.integers(2, 6), st.integers(0, 10_000), st.booleans())
def test_balancedness_invariant_under_permutation(m, seed, balanced):
    rng = np.random.default_rng(seed)
    if balanced:
        values = random_balanced_values(rng, m)
    else:
        values = list(rng.uniform(-5, 5, size=m))
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert (balance_certificate(values) is None) == (balance_certificate(shuffled) is None)


def test_cost_gram_two_values():
    g = cost_gram(identity_cost(2))
    np.testing.assert_allclose(g, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)


def test_cost_gram_constant_cost_is_zero():
    g = cost_gram(cost_function([2.0, 2.0, 2.0]))
    np.testing.assert_allclose(g, np.zeros((3, 3)), atol=1e-15)


def test_cost_gram_psd_rank_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = cost_function(rng.uniform(-3, 3, size=5))
        g = cost_gram(c)
        eig = np.linalg.eigvalsh(g)
        assert eig[0] >= -1e-12
        assert np.linalg.matrix_rank(g, tol=1e-10) <= 1


def test_cost_gram_monotone_anti_monge_precondition():
    # with the non-negativity shift applied to a sorted cost, rows and columns
    # of the rank-1 Gram are non-decreasing
    c = cost_function([1.0, 2.0, 4.0, 9.0])
    shift = c.mean - min(c.values)  # smallest shift making gamma - mean + shift >= 0
    shifted = np.asarray(c.values) - c.mean + shift
    g = np.outer(shifted, shifted)
    # expanding the product gives back the unshifted cost Gram
    unshifted = g - shift * (shifted[:, None] + shifted[None, :]) + shift**2
    np.testing.assert_allclose(unshifted, cost_gram(c), atol=1e-12)
    assert np.all(np.diff(g, axis=0) >= -1e-12)
    assert np.all(np.diff(g, axis=1) >= -1e-12)


def test_sorting_permutation():
    c = cost_function([3.0, 1.0, 2.0])
    assert c.sorting_permutation == (2, 3, 1)
    ordered = [c.values[t - 1] for t in c.sorting_permutation]
    assert ordered == sorted(c.values)


def test_invert_involution():
    assert invert((4, 3, 2, 1)) == (4, 3, 2, 1)


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(1, 8))
        n = tuple(int(x) + 1 for x in rng.permutation(m))
        assert compose(n, invert(n)) == tuple(range(1, m + 1))
        assert compose(invert(n), n) == tuple(range(1, m + 1))


def test_require_numbering_rejects():
    with pytest.raises(ValueError):
        require_numbering((1, 1, 2))
    with pytest.raises(ValueError):
        require_numbering((1, 2), size=3)
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_require_numbering_accepts_integral_entries():
    assert require_numbering([2.0, 1.0]) == (2, 1)
    assert require_numbering(np.array([3, 1, 2])) == (3, 1, 2)
    assert require_numbering((np.int64(1), np.float64(2.0))) == (1, 2)


@pytest.mark.parametrize(
    "bad", [[1.9, 2.2], [1.5, 2, 3], [float("nan"), 1], [float("inf"), 1], ["1", "2"], [[1, 2]]]
)
def test_require_numbering_refuses_entries_that_are_not_integers(bad):
    with pytest.raises(ValueError, match="numbering entries must be integers"):
        require_numbering(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_cost_function_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="must be finite"):
        cost_function([1.0, bad, 3.0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: cost_function([]), "cost function must have at least one value"),
        (lambda: balance_certificate([]), "cost function must have at least one value"),
        (lambda: identity_cost(0), "m must be >= 1"),
    ],
)
def test_an_empty_cost_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()
