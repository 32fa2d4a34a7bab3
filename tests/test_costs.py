import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_balanced_values, reference_cost_gram
from guesswork.costs import (
    BALANCE_TOL,
    _balance_certificate,
    _exponent,
    compose,
    cost_function,
    identity_cost,
    invert,
    require_numbering,
)


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
    sigma = _balance_certificate([0.0, 0.0, 1.0, 1.0])
    assert sigma is not None
    assert certificate_holds([0.0, 0.0, 1.0, 1.0], sigma)


def test_unbalanced_cost_has_no_certificate():
    assert _balance_certificate([0.0, 1.0, 3.0]) is None
    assert not cost_function([0.0, 1.0, 3.0]).is_balanced


@pytest.mark.parametrize("factor", [2.0**-40, 1.0, 2.0**40])
@pytest.mark.parametrize(
    "values, balanced",
    [
        ((1.0, 2.0, 3 + 3e-11), True),
        ((1.0, 5.0, 2.0), False),
        # a perturbation with no spread to mirror: within 1e-10 of each other,
        # but 4e-11 apart is as unbalanced as (1, 5, 2)
        ((3 + 4e-11, 3.0, 3.0), False),
        # every two-value cost is balanced, though 2 mean - gamma rounds at 1e6
        ((1000000.1, 1000000.3), True),
    ],
)
def test_balance_verdict_does_not_depend_on_the_cost_scale(values, balanced, factor):
    assert cost_function([factor * v for v in values]).is_balanced == balanced


def test_mirrored_costs_are_balanced_at_any_offset_and_spread():
    rng = np.random.default_rng(2400)
    for _ in range(300):
        m = int(rng.integers(2, 65))
        offset = float(rng.uniform(0, 1e12)) if rng.random() < 0.5 else 0.0
        deviations = 10.0 ** rng.uniform(-6, 3) * rng.uniform(0, 1, size=m // 2)
        values = np.concatenate([offset + deviations, offset - deviations, [offset] * (m % 2)])
        rng.shuffle(values)
        sigma = _balance_certificate(values)
        assert sigma is not None, (offset, values)
        assert certificate_holds(values, sigma, tol=m * 2.0**-52 * float(np.abs(values).max()))


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
    sigma = _balance_certificate(values)
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
    assert (_balance_certificate(values) is None) == (_balance_certificate(shuffled) is None)


def test_cost_gram_two_values():
    g = reference_cost_gram(identity_cost(2))
    np.testing.assert_allclose(g, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)


def test_cost_gram_constant_cost_is_zero():
    g = reference_cost_gram(cost_function([2.0, 2.0, 2.0]))
    np.testing.assert_allclose(g, np.zeros((3, 3)), atol=1e-15)


def test_cost_gram_psd_rank_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = cost_function(rng.uniform(-3, 3, size=5))
        g = reference_cost_gram(c)
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
    np.testing.assert_allclose(unshifted, reference_cost_gram(c), atol=1e-12)
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
        (lambda: _balance_certificate([]), "cost function must have at least one value"),
        (lambda: identity_cost(0), "m must be >= 1"),
    ],
)
def test_an_empty_cost_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# --- the numbering utilities against the plain-Python loops they replaced -----------


def reference_require_numbering(n, size=None):
    entries = tuple(n)
    try:
        mapping = tuple(int(x) for x in entries)
    except (TypeError, ValueError, OverflowError):
        mapping = None
    if mapping is None or mapping != entries:
        raise ValueError(f"numbering entries must be integers, got {entries}")
    m = len(mapping)
    if size is not None and m != size:
        raise ValueError(f"numbering has length {m}, expected {size}")
    if sorted(mapping) != list(range(1, m + 1)):
        raise ValueError(f"not a bijection of {{1..{m}}}: {mapping}")
    return mapping


def reference_compose(a, b):
    left = reference_require_numbering(a)
    right = reference_require_numbering(b, size=len(left))
    return tuple(left[x - 1] for x in right)


def reference_invert(n):
    mapping = reference_require_numbering(n)
    inverse = [0] * len(mapping)
    for t, value in enumerate(mapping, start=1):
        inverse[value - 1] = t
    return tuple(inverse)


def reference_balance_certificate(values):
    gamma = np.asarray(values, dtype=float)
    m = gamma.size
    if m < 1:
        raise ValueError("cost function must have at least one value")
    mean = float(gamma.mean())
    target = 2 * mean - gamma
    sigma_inverse = [0] * m
    for g_idx, t_idx in zip(np.argsort(gamma, kind="stable"), np.argsort(target, kind="stable")):
        sigma_inverse[t_idx] = int(g_idx) + 1
    tol = math.ldexp(BALANCE_TOL, _exponent(gamma - mean))
    tol += m * np.finfo(float).eps * float(np.abs(gamma).max())
    for t in range(m):
        if abs(gamma[sigma_inverse[t] - 1] - target[t]) > tol:
            return None
    return reference_invert(sigma_inverse)


def _outcome(function, *args):
    """The value with the type of each entry, or the exception's type and message."""
    try:
        value = function(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return value if value is None else (value, [type(x) for x in value])


# permutations, often spoiled: a repeat, an entry out of range, a non-integral or
# non-numeric entry, numpy and float entries, an empty one
BAD_ENTRIES = [0, -1, 1.5, "1", None, True, 10**30, float("nan"), float("inf"), np.float64(2.5)]


@st.composite
def numberings(draw, m=None):
    m = draw(st.integers(0, 12)) if m is None else m
    entries = list(draw(st.permutations(range(1, m + 1))))
    if entries and draw(st.booleans()):
        at = draw(st.integers(0, m - 1))
        entries[at] = draw(st.sampled_from(BAD_ENTRIES + [entries[(at + 1) % m], m + 1]))
    form = draw(st.sampled_from(["tuple", "list", "int64", "float", "array"]))
    if form == "int64":
        entries = [np.int64(x) if isinstance(x, int) and abs(x) < 2**62 else x for x in entries]
    elif form == "float":
        entries = [float(x) if isinstance(x, int) and abs(x) < 2**62 else x for x in entries]
    elif form == "array":
        try:
            return np.array(entries)
        except (TypeError, ValueError, OverflowError):
            pass
    return tuple(entries) if form == "tuple" else entries


@settings(max_examples=400, deadline=None)
@given(numberings(), st.one_of(st.none(), st.integers(0, 12)))
def test_require_numbering_and_invert_match_the_loops(n, size):
    assert _outcome(require_numbering, n, size) == _outcome(reference_require_numbering, n, size)
    assert _outcome(invert, n) == _outcome(reference_invert, n)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_compose_matches_the_loop(data):
    m = data.draw(st.integers(0, 12))
    a = data.draw(numberings(m))
    b = data.draw(numberings(data.draw(st.sampled_from([m, m, m + 1]))))
    assert _outcome(compose, a, b) == _outcome(reference_compose, a, b)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_balance_certificate_matches_the_loop(data):
    # mirrored values around a mean, nudged by about the tolerance, shuffled, or any values
    m = data.draw(st.integers(1, 12))
    scale = data.draw(st.sampled_from([1e-300, 1e-10, 1.0, 1e6, 1e300]))
    half = data.draw(st.lists(st.floats(-1, 1), min_size=m // 2, max_size=m // 2))
    centre = data.draw(st.floats(-1e3, 1e3)) * scale
    values = [centre + scale * x for x in half] + [centre - scale * x for x in half]
    values += [centre] * (m % 2)
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, m - 1))
        values[at] += data.draw(st.sampled_from([1e-11, 1e-10, 2e-10, 1.0])) * scale
    if data.draw(st.booleans()):
        values = data.draw(st.lists(st.floats(-1e300, 1e300), min_size=m, max_size=m))
    values = data.draw(st.permutations(values))
    assert _outcome(_balance_certificate, values) == _outcome(reference_balance_certificate, values)
