"""The screened sweeps against the exact sweeps they replace, compared with ==.

The references enumerate ``itertools.permutations`` in blocks of 8! rows and
evaluate every numbering with the exact formulas (the double sum over the
gathered Bloch Gram, and the exact batch of effective operators), keeping the
(max value, earliest) numbering block by block.  The screened sweeps must
return the same numbering, the same float and the same bool, ties included,
also where the trace-norm sweep screens one numbering of each pair
{n, n o sigma} and the condition check first tries to refute n*.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guesswork
from guesswork import engine
from guesswork.costs import cost_function, cost_gram, identity_cost
from guesswork.engine import (
    _effective_operator_batch,
    condition_check,
    effective_operator,
    tracenorm_argmax,
)
from guesswork.ensembles import (
    generate_polygon_antiprism,
    generate_random_uniform_prior,
    validate,
)
from guesswork.errors import FactorialCapError
from guesswork.operators import abs_operator
from guesswork.qap import QapInstance, bloch_gram, brute_force_solve, numbering_blocks


def reference_blocks(m):
    perms = itertools.permutations(range(m))
    while chunk := list(itertools.islice(perms, 40320)):
        yield np.array(chunk, dtype=np.intp)


def reference_brute_force(inst):
    best_value, best_perm = -math.inf, None
    for block in reference_blocks(inst.size):
        permuted = inst.bloch_gram[block[:, :, None], block[:, None, :]]
        values = np.einsum("ts,kts->k", inst.cost_gram, permuted)
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value, best_perm = float(values[k]), block[k]
    return tuple(int(x) + 1 for x in best_perm), best_value


def reference_tracenorm_argmax(e, c):
    best_norm, best_perm = -math.inf, None
    for block in reference_blocks(e.size):
        operators = _effective_operator_batch(e, c, block)
        norms = np.abs(np.linalg.eigvalsh(operators)).sum(axis=1)
        k = int(np.argmax(norms))
        if norms[k] > best_norm:
            best_norm, best_perm = float(norms[k]), block[k]
    return tuple(int(x) + 1 for x in best_perm), best_norm


def reference_lowest(e, c, n_star):
    """Smallest eigenvalue of |E(n*)| - E(n) over every n, from the exact batch."""
    magnitude = abs_operator(effective_operator(e, c, n_star))
    return min(
        float(np.linalg.eigvalsh(magnitude - _effective_operator_batch(e, c, block))[:, 0].min())
        for block in reference_blocks(e.size)
    )


def reference_condition_check(e, c, n_star, tol):
    return not reference_lowest(e, c, n_star) < -tol


def assert_sweeps_match(e, c, candidates=()):
    if e.dim == 2 and np.allclose(e.prior, 1 / e.size):
        inst = QapInstance(cost_gram(c), bloch_gram(e))
        assert brute_force_solve(inst) == reference_brute_force(inst)
    best = tracenorm_argmax(e, c)
    assert best == reference_tracenorm_argmax(e, c)
    for n_star in (best[0], *candidates):
        assert condition_check(e, c, n_star) == reference_condition_check(e, c, n_star, 1e-10)


# --- strategies ---------------------------------------------------------------

sizes = st.sampled_from(range(2, 8))


@st.composite
def balanced_costs(draw, m):
    """Identity, constant (sigma the identity), mirrored small-integer deviations
    (ties likely), or those perturbed by up to 4e-11, so that sigma is found
    only within BALANCE_TOL and n, n o sigma differ in exact arithmetic."""
    kind = draw(st.sampled_from(["identity", "constant", "tied", "perturbed"]))
    if kind == "identity":
        return identity_cost(m)
    if kind == "constant":
        return cost_function([2.5] * m)
    deviations = draw(st.lists(st.integers(0, 2), min_size=m // 2, max_size=m // 2))
    values = [3 + d for d in deviations] + [3 - d for d in deviations] + [3] * (m % 2)
    if kind == "perturbed":
        # only the upper half moves: every pairing then stays within 8e-11
        noise = st.floats(-4e-11, 4e-11)
        values[: m // 2] = [v + draw(noise) for v in values[: m // 2]]
    c = cost_function(draw(st.permutations(values)))
    assert c.is_balanced
    return c


def conjugate_mirror(m, seed):
    """Random dim-3 states, a real one when m is odd, then the complex
    conjugates of the first ones in reverse order.  Relabelling i -> m + 1 - i
    conjugates every E(n), which here leaves its computed norm bitwise
    unchanged, so distinct pairs {n, n o sigma} tie exactly."""
    states = [s / 2 for s in generate_random_uniform_prior(m // 2 + m % 2, 3, seed).states]
    middle = [2 * states.pop().real.astype(complex)] if m % 2 else []
    return validate(states + middle + [s.conj() for s in reversed(states)])


@st.composite
def problems(draw):
    m = draw(sizes)
    kinds = ["random", "polygon", "antiprism", "ginibre", "embedded", "mirror"]
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(0, 2**16))
    if kind == "random":
        e = generate_random_uniform_prior(m, 2, seed)
    elif kind == "polygon":  # coplanar Bloch vectors, many exact ties
        e = generate_polygon_antiprism(m)
    elif kind == "antiprism":
        m += m % 2
        e = generate_polygon_antiprism(m, h=draw(st.sampled_from([0.3, 0.7071067811865476])))
    elif kind == "ginibre":
        e = generate_random_uniform_prior(m, 3, seed)
    elif kind == "mirror":
        m = max(m, 3)
        e = conjugate_mirror(m, seed)
    else:  # qubits embedded in dim 3: |E*| - E(n) always has an exact zero eigenvalue
        qubits = generate_random_uniform_prior(m, 2, seed)
        e = validate([np.pad(s, ((0, 1), (0, 1))) for s in qubits.states])
    candidate = tuple(int(x) + 1 for x in np.random.default_rng(seed).permutation(m))
    return e, draw(balanced_costs(m)), candidate


@settings(max_examples=60, deadline=None)
@given(problems())
def test_screened_sweeps_equal_exact_sweeps(problem):
    e, c, candidate = problem
    assert_sweeps_match(e, c, candidates=(candidate,))


@settings(max_examples=25, deadline=None)
@given(problems())
def test_condition_check_with_tol_at_a_smallest_eigenvalue(problem):
    # a random candidate usually fails somewhere; tol = -lowest puts the
    # decision exactly on that numbering's smallest eigenvalue
    e, c, candidate = problem
    boundary = -reference_lowest(e, c, candidate)
    for tol in (boundary, np.nextafter(boundary, -math.inf), np.nextafter(boundary, math.inf)):
        tol = float(tol)
        assert condition_check(e, c, candidate, tol=tol) == reference_condition_check(
            e, c, candidate, tol
        )


def test_polygon9_identity_cost_matches_exact_sweeps():
    e = generate_polygon_antiprism(9)
    assert_sweeps_match(e, identity_cost(9))


def test_random_dim3_m9_identity_cost_matches_exact_sweeps():
    # sigma's first 2-cycle is (1, 9): the blocks whose prefix n(1) = 9 hold
    # no numbering with n(1) < n(9) and are skipped whole
    assert_sweeps_match(generate_random_uniform_prior(9, 3, 2), identity_cost(9))


def test_pair_window_covers_perturbed_costs():
    # costs of small spread, moved by a few 1e-11: n and n o sigma differ in
    # norm by far more than the screen's error, and the larger norm of the
    # maximal pair is screened only through a partner that a window of twice
    # the screen's error alone would drop
    e = conjugate_mirror(4, 1)
    c = cost_function([3.001 + 8e-12, 3.002 + 1.8e-11, 3.003, 3.004])
    assert tracenorm_argmax(e, c) == reference_tracenorm_argmax(e, c)


def test_partners_in_later_blocks_tie_lexicographically():
    # at M = 9 a partner lies in another block, and the maximal norm is
    # computed bitwise equal in several blocks
    e = conjugate_mirror(9, 4)
    values = [3 + t / 1000 for t in range(1, 10)]
    for t, shift in enumerate([-3.6e-11, 4e-11, 1.2e-11, -2.1e-11]):
        values[t] += shift
    c = cost_function(values)
    assert tracenorm_argmax(e, c) == reference_tracenorm_argmax(e, c)


def test_random_m9_tied_cost_matches_exact_sweep():
    e = generate_random_uniform_prior(9, 2, 4)
    c = cost_function([1, 1, 2, 2, 3, 4, 4, 5, 5])
    inst = QapInstance(cost_gram(c), bloch_gram(e))
    assert brute_force_solve(inst) == reference_brute_force(inst)


# --- work counts of the fast paths ------------------------------------------------


def test_tracenorm_sweep_screens_one_numbering_per_pair(monkeypatch):
    rows = []
    screen = engine._screened_operators

    def counted(e, c, block):
        rows.append(len(block))
        return screen(e, c, block)

    monkeypatch.setattr(engine, "_screened_operators", counted)
    e = generate_random_uniform_prior(7, 3, 1)
    for c in (identity_cost(7), cost_function([1, 5, 2, 3, 4, 1, 5])):
        rows.clear()
        tracenorm_argmax(e, c)
        assert sum(rows) == math.factorial(7) // 2
    rows.clear()
    tracenorm_argmax(e, cost_function([2.5] * 7))  # sigma is the identity: no pairs
    assert sum(rows) == math.factorial(7)


def failing_certificate():
    e, c = generate_random_uniform_prior(6, 3, 1), identity_cost(6)
    n_star, _ = tracenorm_argmax(e, c)
    assert not reference_condition_check(e, c, n_star, 1e-10)
    return e, c, n_star


def test_condition_check_refutes_a_failing_certificate_without_sweeping(monkeypatch):
    e, c, n_star = failing_certificate()

    def refuse(m):
        raise AssertionError("the condition check swept the numberings")

    monkeypatch.setattr(engine, "numbering_blocks", refuse)
    assert condition_check(e, c, n_star) is False


def test_condition_check_above_cap_raises_before_refuting():
    e, c, n_star = failing_certificate()
    with pytest.raises(FactorialCapError):
        condition_check(e, c, n_star, cap=5)


# --- the enumeration primitive ---------------------------------------------------


@pytest.mark.parametrize("m", range(1, 10))
def test_numbering_blocks_follow_itertools_order(m):
    rows = np.concatenate(list(numbering_blocks(m)))
    assert [tuple(row) for row in rows.tolist()] == list(itertools.permutations(range(m)))


def test_numbering_blocks_m10_shape_and_ends():
    blocks = list(numbering_blocks(10))
    assert len(blocks) == 90
    assert all(block.shape == (40320, 10) for block in blocks)
    assert blocks[0][0].tolist() == list(range(10))
    assert blocks[0][1].tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 9, 8]
    assert blocks[-1][-1].tolist() == list(range(9, -1, -1))
    assert [block[0, :2].tolist() for block in blocks] == [
        list(prefix) for prefix in itertools.permutations(range(10), 2)
    ]


def test_import_does_not_build_the_permutation_table():
    source = os.path.dirname(os.path.dirname(guesswork.__file__))
    code = (
        "import guesswork, guesswork.cli\n"
        "from guesswork.qap import _permutation_table\n"
        "assert _permutation_table.cache_info().currsize == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": source}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
