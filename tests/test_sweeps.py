"""The screened sweeps and the exact qubit solver against the exhaustive exact
sweeps, compared with ==.

The references enumerate ``itertools.permutations`` in blocks of 8! rows and
evaluate every numbering with the exact formulas (the double sum over the
gathered Bloch Gram, ``reference_brute_force`` in conftest, and the exact
batch of effective operators), keeping the (max value, earliest) numbering
block by block.  The fast paths must return the same numbering, the same
float and the same bool, ties included: also where the trace-norm sweep
bounds every numbering from its head and tail sums and screens one row of
each mirror pair {n, n reversed} in cost order, where the condition check
first tries to refute n*, and where the qubit solver above M = 8 sees only
the sorted matchings of the great-circle arrangement and their near-tied
swaps.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guesswork
from conftest import (
    random_balanced_values,
    reference_blocks,
    reference_brute_force,
    reference_condition_check,
    reference_cost_gram,
    reference_lowest,
    rotate_into_dim3,
    rotated_qubits,
)
from guesswork import engine, qap
from guesswork.costs import _exponent, compose, cost_function, identity_cost
from guesswork.engine import (
    _effective_operator_batch,
    _numbering_blocks,
    condition_check,
    solve,
    tracenorm_argmax,
)
from guesswork.ensembles import (
    generate_polygon_antiprism,
    generate_random_uniform_prior,
    validate,
)
from guesswork.operators import from_bloch
from guesswork.qap import _screened_max, arrangement_solve, bloch_gram


def reference_tracenorm_argmax(e, c):
    best_norm, best_perm = -math.inf, None
    for block in reference_blocks(e.size):
        operators = _effective_operator_batch(e, c, block)
        norms = np.abs(np.linalg.eigvalsh(operators)).sum(axis=1)
        k = int(np.argmax(norms))
        if norms[k] > best_norm:
            best_norm, best_perm = float(norms[k]), block[k]
    return tuple(int(x) + 1 for x in best_perm), best_norm


def assert_sweeps_match(e, c, candidates=()):
    if e.dim == 2 and np.allclose(e.prior, 1 / e.size):
        expected = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
        assert arrangement_solve(c, e.bloch) == expected
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
    only within the balance tolerance and n, n o sigma differ in exact
    arithmetic.  A perturbed cost has a nonzero deviation: the tolerance
    scales with the spread, so noise alone is no balanced cost."""
    kind = draw(st.sampled_from(["identity", "constant", "tied", "perturbed"]))
    if kind == "identity":
        return identity_cost(m)
    if kind == "constant":
        return cost_function([2.5] * m)
    deviations = draw(st.lists(st.integers(0, 2), min_size=m // 2, max_size=m // 2))
    if kind == "perturbed" and not any(deviations):
        deviations[0] = 1
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


def mirror_costs(m):
    """3 + t / 1000, the first four moved by a few 1e-11: n and n o sigma differ
    in norm by more than the screen's error."""
    values = [3 + t / 1000 for t in range(1, m + 1)]
    for t, shift in enumerate([-3.6e-11, 4e-11, 1.2e-11, -2.1e-11]):
        values[t] += shift
    return cost_function(values)


def nonuniform_qubits(m, seed):
    """Random qubits whose priors are reweighted by factors in [0.3, 1.7]."""
    weights = np.random.default_rng(seed).uniform(0.3, 1.7, m)
    states = generate_random_uniform_prior(m, 2, seed).states
    return validate([s * (w * m / weights.sum()) for s, w in zip(states, weights)])


def degenerate_qubits(m, mixed, signs, seed):
    """``mixed`` maximally mixed states of prior 2q, then pure states of prior q
    along +-one axis.  The weights sum to 0, so A(n) = -q sum w over the pure
    states: every E(n) whose pure states share a sign is rank 1, and W(n) = 0
    wherever their signed weights cancel."""
    axis = np.random.default_rng(seed).normal(size=3)
    axis /= np.linalg.norm(axis)
    q = 1 / (m + mixed)
    return validate(
        [from_bloch(2 * q, np.zeros(3))] * mixed
        + [from_bloch(q, sign * q * axis) for sign in signs[: m - mixed]]
    )


@st.composite
def problems(draw):
    m = draw(sizes)
    kinds = [
        "random", "polygon", "antiprism", "ginibre", "embedded", "mirror",
        "nonuniform", "ginibre4", "mixed", "identical", "rotated", "degenerate",
    ]
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(0, 2**16))
    if kind == "random":
        e = generate_random_uniform_prior(m, 2, seed)
    elif kind == "nonuniform":  # Tr E(n) != 0: the trace A of the d = 2 Pauli screen
        e = nonuniform_qubits(m, seed)
    elif kind == "degenerate":  # d = 2: many W(n) = 0 and rank-1 E(n), |A(n)| = |W(n)|
        e = degenerate_qubits(m, draw(st.integers(1, m - 1)), draw(st.lists(
            st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)), seed)
    elif kind == "ginibre4":  # d = 4: the screens' eigvalsh branch
        e = generate_random_uniform_prior(m, 4, seed)
    elif kind == "mixed":  # up to two states that are not maximally mixed: repeated spectra
        d, kept = draw(st.sampled_from([2, 3])), draw(st.integers(0, 2))
        states = generate_random_uniform_prior(m, d, seed).states
        e = validate(list(states[:kept]) + [np.eye(d) / (d * m)] * (m - kept))
    elif kind == "identical":  # every E(n) is zero up to rounding
        d = draw(st.sampled_from([2, 3]))
        state = generate_random_uniform_prior(2, d, seed).states[0] * (2 / m)
        e = validate([state] * m)
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
    elif kind == "rotated":  # embedded, then off the coordinate axes: a shared kernel vector
        e = rotated_qubits(m, seed)[1]
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
    # the uniform polygon has A(n) = 0 in every prefix block; the reweighted
    # prior screens the trace A of the d = 2 Pauli coordinates there too
    for e in (generate_polygon_antiprism(9), nonuniform_qubits(9, 9)):
        assert_sweeps_match(e, identity_cost(9))


def test_random_dim3_m9_identity_cost_matches_exact_sweeps():
    # sigma's first 2-cycle is (1, 9): the block whose prefix n(1) = 9 holds
    # no numbering with n(1) < n(9) and is skipped
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
    e, c = conjugate_mirror(9, 4), mirror_costs(9)
    assert tracenorm_argmax(e, c) == reference_tracenorm_argmax(e, c)


@pytest.mark.parametrize("d", [2, 3])
def test_m9_tracenorm_sweep_with_a_tied_cost_and_a_repeated_state(d):
    # nine blocks of 8! rows, each scored from its split sums; the repeated
    # state and the tied costs tie numberings exactly, across blocks too
    base = nonuniform_qubits(9, 3) if d == 2 else generate_random_uniform_prior(9, d, 3)
    states = list(base.states)
    states[6] = states[2]
    e = validate([s / sum(np.trace(t).real for t in states) for s in states])
    c = cost_function([1, 1, 2, 2, 3, 4, 4, 5, 5])
    assert tracenorm_argmax(e, c) == reference_tracenorm_argmax(e, c)


def test_random_m9_tied_cost_matches_exact_sweep():
    e = generate_random_uniform_prior(9, 2, 4)
    c = cost_function([1, 1, 2, 2, 3, 4, 4, 5, 5])
    expected = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
    assert arrangement_solve(c, e.bloch) == expected


# --- the closed-form spectra of the screens ---------------------------------------

# A quarter of the screen's error on unit-norm operators is about 4e-13.
BUDGET = 1e-12


def rotated(spectra, seed):
    """Hermitian matrices with the given rows of eigenvalues in random eigenbases."""
    rng = np.random.default_rng(seed)
    n, d = spectra.shape
    u = np.linalg.qr(rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d)))[0]
    return np.einsum("kij,kj,klj->kil", u, spectra, u.conj())


def spectra_of_pairs(split, n=40, seed=3):
    """Rows (a, a + split, b) with b at least 0.2 away from a."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, n)
    b = a + rng.choice([-1, 1], n) * rng.uniform(0.2, 1, n)
    return np.stack([a, a + split, b], axis=1)


def crafted_3x3():
    """(batches whose every row must go to eigvalsh, batches that may take
    either path, well-conditioned batches that must not)."""
    rng = np.random.default_rng(11)
    s = rng.uniform(0.1, 2, 40)[:, None]
    psi = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    qubits = rotated(rng.uniform(-1, 1, (40, 2)), 12)
    ill = [
        np.zeros((4, 3, 3), dtype=complex),
        np.array([k * np.eye(3) for k in (-2.5, 1e-3, 1.0, 7.0)], dtype=complex),
        rotated(s * [2, -1, -1], 13),
        rotated(s * [1, 1, -2], 14),
        rotated(spectra_of_pairs(1e-9), 15),
        rotated(spectra_of_pairs(1e-14), 16),
        np.einsum("ki,kj->kij", psi, psi.conj()),  # rank 1: (0, 0, |psi|^2)
    ]
    either = [
        rotated(spectra_of_pairs(split), 17) for split in (1e-3, 1e-4, 1e-5, 1e-6)
    ] + [np.pad(qubits, ((0, 0), (0, 1), (0, 1)))]  # embedded qubits
    well = rotated(rng.uniform(-1, 1, (40, 1)) + s * [-1, 0, 1], 18)
    return ill, either, [well, well + 40 * np.eye(3)]


def spectra_and_fallback(batch, monkeypatch):
    """The kernel's values and which rows it handed to eigvalsh."""
    eigvalsh, handed = np.linalg.eigvalsh, set()

    def recording(matrices):
        handed.update(m.tobytes() for m in matrices)
        return eigvalsh(matrices)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", recording)
        values = engine._spectra(batch, BUDGET)
    return values, np.array([m.tobytes() in handed for m in batch])


def test_3x3_spectra_within_budget_and_ill_conditioned_rows_fall_back(monkeypatch):
    ill, either, well = crafted_3x3()
    batch = np.concatenate(ill + either + well)
    expected = np.linalg.eigvalsh(batch)
    values, fell_back = spectra_and_fallback(batch, monkeypatch)
    assert np.all(np.abs(values - expected) <= BUDGET)
    n_ill, n_well = sum(map(len, ill)), sum(map(len, well))
    assert fell_back[:n_ill].all()
    assert not fell_back[-n_well:].any()
    np.testing.assert_array_equal(values[fell_back], expected[fell_back])


def test_spectra_of_other_dimensions_are_eigvalsh():
    for d in (1, 2, 4):
        batch = rotated(np.random.default_rng(d).uniform(-1, 1, (20, d)), d)
        np.testing.assert_array_equal(engine._spectra(batch, BUDGET), np.linalg.eigvalsh(batch))


# --- the trace-norm bound of the trace-norm sweep ---------------------------------


def hermitian_batch(d, seed):
    """General, traceless, rank-1 (both signs) and multiples of the identity."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(40, d, d)) + 1j * rng.normal(size=(40, d, d))
    general = a + a.conj().transpose(0, 2, 1)
    traceless = general - np.trace(general, axis1=1, axis2=2)[:, None, None] * np.eye(d) / d
    psi = rng.normal(size=(20, d)) + 1j * rng.normal(size=(20, d))
    rank1 = np.einsum("ki,kj->kij", psi, psi.conj())
    multiples = np.array([k * np.eye(d) for k in (-3.0, -1e-3, 0.0, 2.5)], dtype=complex)
    return np.concatenate([general, traceless, rank1, -rank1, multiples])


def squares_and_traces(batch):
    """q = ||A||_F^2 and tau = Tr A of each matrix, as the sweep feeds them to the bound."""
    return np.einsum("kij,kij->k", batch.conj(), batch).real, np.trace(batch, axis1=1, axis2=2).real


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("scale", [1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300])
def test_trace_norm_bounds_cover_the_norms(d, scale):
    # the sweep bounds E(n) 2^-k, at unit scale; scaled back, the bound is at
    # least the norm, and with the screen's error at least the screened norm
    unit = hermitian_batch(d, d)
    batch = unit * scale
    k = _exponent(np.abs(batch))
    scaled = batch * 2.0**-k
    norms = np.abs(np.linalg.eigvalsh(batch)).sum(axis=1)
    bounds = engine._norm_bound(*squares_and_traces(scaled), d, 0.0, (0.0, 0.0))
    assert np.isfinite(bounds).all()
    assert np.all(bounds * 2.0**k >= norms)
    error = qap.SCREEN_MARGIN / 2 * d * float(np.linalg.norm(scaled, axis=(1, 2)).max())
    bounds = engine._norm_bound(*squares_and_traces(scaled), d, error, (0.0, 0.0))
    assert np.all(bounds >= np.abs(engine._spectra(scaled, error / 4)).sum(axis=1))


@pytest.mark.parametrize("spectrum", [(1, -1), (1, 1, -2), (1, 1, -1, -1)])
@pytest.mark.parametrize("a", [1e-100, 0.3, 7.0, 1e100])
def test_trace_norm_bounds_are_tight_at_balanced_spectra(spectrum, a):
    spectra = a * np.tile(spectrum, (20, 1)).astype(float)
    batch = rotated(spectra, len(spectrum))
    norms = np.abs(spectra).sum(axis=1)
    bounds = engine._norm_bound(*squares_and_traces(batch), len(spectrum), 0.0, (0.0, 0.0))
    assert np.all(bounds >= norms)
    assert np.all(bounds <= norms * (1 + 1e-12))


eigenvalues = st.sampled_from([-1.0, -0.5, 0.0, 1e-9, 0.3, 1.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 4).flatmap(lambda d: st.lists(eigenvalues, min_size=d, max_size=d)),
    st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300]),
    st.integers(0, 2**16),
)
def test_the_bound_covers_the_norms_at_extreme_cost_scales(spectrum, scale, seed):
    # repeated, zero and one-signed spectra, in a random eigenbasis, with
    # q and tau taken at unit scale as the sweep takes them
    d = len(spectrum)
    batch = rotated(np.array([spectrum]) * scale, seed)
    k = _exponent(np.abs(batch))
    bound = engine._norm_bound(*squares_and_traces(batch * 2.0**-k), d, 0.0, (0.0, 0.0))[0]
    assert math.isfinite(bound)
    assert math.ldexp(bound, k) >= np.abs(np.linalg.eigvalsh(batch)).sum()


# --- the shared screened-max reduction ------------------------------------------

# Exact values of the numberings of range(3), equal under reversal, so a row
# and its reversal are partners of equal value.
_VALUES = {(0, 1, 2): 3.0, (2, 1, 0): 3.0, (0, 2, 1): 3.0, (1, 2, 0): 3.0, (1, 0, 2): 1.0, (2, 0, 1): 1.0}


def _exact(rows):
    return rows, np.array([_VALUES[tuple(row)] for row in rows.tolist()])


def _screen(block, running):
    # below the exact values by less than half the window used below
    return _exact(block)[1] - 0.2 * (block[:, 0] == 1)


def _rows(*rows):
    return np.array(rows, dtype=np.intp).reshape(-1, 3)


def test_screened_max_tie_across_blocks_keeps_the_earlier_row():
    blocks = [_rows((1, 0, 2), (1, 2, 0)), _rows((2, 1, 0))]
    assert _screened_max(iter(blocks), _screen, _exact, 0.5) == ((2, 3, 1), 3.0)
    # the same with the later block first: the smaller row still wins
    assert _screened_max(iter(blocks[::-1]), _screen, _exact, 0.5) == ((2, 3, 1), 3.0)


def test_screened_max_partner_rows_sort_before_the_screened_row():
    def with_reversals(rows):
        return _exact(np.concatenate([rows, rows[:, ::-1]]))

    # (1, 2, 0) brings its partner (0, 2, 1); the later (2, 1, 0) brings
    # (0, 1, 2), which sorts before both and wins the tie
    blocks = [_rows((1, 0, 2), (1, 2, 0)), _rows((2, 0, 1), (2, 1, 0))]
    assert _screened_max(iter(blocks), _screen, with_reversals, 0.5) == ((1, 2, 3), 3.0)
    assert _screened_max(iter(blocks[:1]), _screen, with_reversals, 0.5) == ((1, 3, 2), 3.0)


def test_screened_max_hands_the_screen_the_running_maximum_and_honours_its_contract():
    # integer values over the numberings of range(5), so that exact ties are
    # common; the screen errs by less than window / 4, and blocks of 8 rows
    rng = np.random.default_rng(5)
    rows = np.array(list(itertools.permutations(range(5))), dtype=np.intp)
    values = dict(zip(map(tuple, rows.tolist()), rng.integers(0, 20, len(rows)).astype(float)))
    noise = dict(zip(values, rng.uniform(-0.2, 0.2, len(rows))))
    window = 1.0

    def exact(block):
        return block, np.array([values[tuple(row)] for row in block.tolist()])

    def screen(block, running):
        return exact(block)[1] + np.array([noise[tuple(row)] for row in block.tolist()])

    blocks = [rows[start : start + 8] for start in range(0, len(rows), 8)]
    handed = []

    def recording(block, running):
        handed.append(running)
        return screen(block, running)

    full = _screened_max(iter(blocks), recording, exact, window)
    tops = [float(screen(block, None).max()) for block in blocks]
    assert handed == [-math.inf] + list(itertools.accumulate(tops, max))[:-1]

    # an upper bound on each screened score places a row below running - window
    pruned = []

    def bounded(block, running):
        scores = screen(block, running)
        below = scores + 0.25 < running - window
        pruned.append(int(below.sum()))
        return np.where(below, -math.inf, scores)

    assert _screened_max(iter(blocks), bounded, exact, window) == full
    assert sum(pruned) > len(rows) // 2


# --- the exact qubit solver on degenerate layouts ----------------------------------


@contextlib.contextmanager
def arrangement_only():
    """Send every M > 1 through the arrangement, not the small-M mirrored sweep."""
    with mock.patch.object(qap, "_ENUMERATED", 1):
        yield


def qubits(vectors):
    """Uniform-prior qubits whose Bloch vectors are ``vectors``, scaled into the ball."""
    vectors = np.asarray(vectors, dtype=float)
    m = len(vectors)
    radius = float(np.linalg.norm(vectors, axis=1).max())
    scale = 0.9 / (m * radius) if radius > 0 else 0.0
    return validate([from_bloch(1 / m, scale * v) for v in vectors])


# Coplanar layouts whose circles of (1, 2) and (3, 4) lie about this far apart
# in angle, on either side of qap._PARALLEL = 1e-13.  Every circle passes
# through the poles, so no other circle crosses the lune between those two.
THIN_LUNES = {"near_parallel_merged": 1e-14, "near_parallel_split": 1e-10}


def degenerate_layout(kind, m):
    rng = np.random.default_rng(m)
    v = rng.normal(size=(m, 3))
    if kind == "repeated":
        v[m // 2 :] = v[: m - m // 2]
    elif kind == "identical":  # no arrangement at all: every numbering ties
        v[:] = v[0]
    elif kind == "collinear":  # every circle coincides
        v = np.outer(rng.uniform(-1, 1, m), v[0])
    elif kind == "collinear_offset":
        v = np.outer(rng.uniform(-1, 1, m), v[0]) + v[1]
    elif kind == "coplanar":  # every circle passes through the poles
        v[:, 2] = 0
    elif kind == "coplanar_offset":
        v[:, 2] = 1.5
    elif kind == "mixed":  # maximally mixed states among pure ones
        v[::2] = 0
    elif kind == "all_mixed":
        v[:] = 0
    elif kind == "near_parallel":  # the circles of (1, 2) and (3, 4) lie 1e-12 apart
        v[3] = v[2] + 0.7 * (v[1] - v[0]) + 1e-12 * np.array([0.3, -0.5, 0.8])
    elif kind in THIN_LUNES:
        v[:, 2] = 0
        d = v[1] - v[0]
        across = np.array([-d[1], d[0], 0.0]) / np.linalg.norm(d)
        v[3] = v[2] + 0.7 * d + THIN_LUNES[kind] * across
    return qubits(v)


def degenerate_costs(m):
    half, pairs = m // 2, (m - m // 2) // 2
    mirrored = [3.0 + d for d in range(1, pairs + 1)] + [3.0 - d for d in range(1, pairs + 1)]
    return [
        identity_cost(m),
        cost_function([2.5] * m),
        # the mean repeated M/2 times, and two values each repeated M/2 times
        cost_function([3.0] * (m - 2 * pairs) + mirrored),
        cost_function([1.0] * half + [2.0] * half + [1.5] * (m % 2)),
    ]


@pytest.mark.parametrize("m", [4, 7, 8])
@pytest.mark.parametrize(
    "kind",
    ["random", "repeated", "identical", "collinear", "collinear_offset", "coplanar",
     "coplanar_offset", "mixed", "all_mixed", "near_parallel", *THIN_LUNES],
)
def test_arrangement_equals_exact_sweep_on_degenerate_layouts(kind, m):
    e = degenerate_layout(kind, m)
    for c in degenerate_costs(m):
        assert c.is_balanced
        expected = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
        assert arrangement_solve(c, e.bloch) == expected
        with arrangement_only():
            assert arrangement_solve(c, e.bloch) == expected


@pytest.mark.parametrize("m", [4, 6, 7])
@pytest.mark.parametrize(
    "kind, low, high",
    [("near_parallel", 1e-13, 1e-11), ("near_parallel_merged", 0.0, 2e-14),
     ("near_parallel_split", 5e-11, 2e-10)],
)
def test_near_parallel_circles_lie_at_their_angle(kind, low, high, m):
    e = degenerate_layout(kind, m)
    a, b = e.bloch[0] - e.bloch[1], e.bloch[2] - e.bloch[3]
    sine = np.linalg.norm(np.cross(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert low < sine < high


@pytest.mark.parametrize(
    "kind, reached", [("near_parallel_split", True), ("near_parallel_merged", False)]
)
def test_only_merged_circles_leave_the_lune_between_them_to_the_closure(kind, reached):
    # directions on the circle bisecting the two near-parallel circles lie in
    # the thin lune between them, which no other circle crosses: its cells are
    # candidates unless the two circles were merged into one
    e = degenerate_layout(kind, 6)
    g = np.arange(6) - 2.5
    a, b = e.bloch[0] - e.bloch[1], e.bloch[2] - e.bloch[3]
    bisector = a / np.linalg.norm(a) + b / np.linalg.norm(b)
    bisector /= np.linalg.norm(bisector)
    directions = np.random.default_rng(0).normal(size=(2000, 3))
    directions -= np.outer(directions @ bisector, bisector)
    sampled = np.empty((len(directions), 6), dtype=np.intp)
    sampled[:, np.argsort(g)] = np.argsort(directions @ e.bloch.T, axis=1)
    candidates = {tuple(row) for row in qap._sorted_matchings(g, e.bloch).tolist()}
    assert ({tuple(row) for row in sampled.tolist()} <= candidates) == reached


@pytest.mark.parametrize(
    "e",
    [generate_random_uniform_prior(m, 2, seed) for m, seed in [(3, 1), (4, 2), (6, 3), (8, 4)]]
    + [generate_polygon_antiprism(m, h) for m, h in [(5, 0.0), (8, 0.0), (6, 0.3)]]
    + [degenerate_layout(kind, 6) for kind in ("collinear_offset", "near_parallel", *THIN_LUNES)],
)
def test_sorted_matchings_reach_every_sampled_cell(e):
    # the sorted matching of a random direction lies in a random cell of the
    # arrangement; each must be among the candidates
    g = np.arange(e.size) - (e.size - 1) / 2
    directions = np.random.default_rng(e.size).normal(size=(20000, 3))
    sampled = np.empty((len(directions), e.size), dtype=np.intp)
    sampled[:, np.argsort(g)] = np.argsort(directions @ e.bloch.T, axis=1)
    candidates = {tuple(row) for row in qap._sorted_matchings(g, e.bloch).tolist()}
    assert {tuple(row) for row in sampled.tolist()} <= candidates


def test_circles_parallel_up_to_rounding_are_one_circle():
    # collinear Bloch vectors: every circle is one great circle, whose two
    # hemispheres give the ascending and the descending matching
    e = degenerate_layout("collinear_offset", 7)
    g = np.arange(7) - 3.0
    rows = {tuple(row) for row in qap._sorted_matchings(g, e.bloch).tolist()}
    assert len(rows - {tuple(range(7))}) == 2


def test_closure_hands_a_tie_of_every_numbering_to_the_sweep():
    e, c = degenerate_layout("identical", 7), identity_cost(7)
    g = np.asarray(c.values) - c.mean
    window = qap.SCREEN_MARGIN * float(g @ g) * float(np.trace(bloch_gram(e)))
    assert qap._closure(g, e.bloch, qap._sorted_matchings(g, e.bloch), window) is None


@pytest.mark.parametrize("m", [5, 8])
def test_arrangement_closure_hands_the_tie_to_the_sweep(m):
    # identical states tie every numbering: the arrangement runs, and its
    # closure hands the tie to the sweep of all M! numberings
    e, c = degenerate_layout("identical", m), identity_cost(m)
    expected = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
    with mock.patch.object(qap, "_ENUMERATED", m - 1), mock.patch.object(
        qap, "_split_max", wraps=qap._split_max
    ) as sweep:
        assert arrangement_solve(c, e.bloch) == expected
    sweep.assert_called_once()


def test_arrangement_above_the_cap_when_the_closure_needs_no_sweep():
    # the arrangement runs at M = 8 once the sweep stops at 7, as above the cap
    e, c = generate_random_uniform_prior(8, 2, 1), identity_cost(8)
    expected = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
    with mock.patch.object(qap, "_ENUMERATED", 7), mock.patch.object(
        qap, "_split_max", wraps=qap._split_max
    ) as sweep:
        assert arrangement_solve(c, e.bloch) == expected
    sweep.assert_not_called()


@pytest.mark.parametrize("m", [1, 2])
def test_arrangement_equals_exact_sweep_at_m1_and_m2(m):
    e = qubits(np.random.default_rng(5).normal(size=(m, 3)))
    for c in (cost_function([4.0] * m), identity_cost(m), cost_function([-1.5, 7.0][:m])):
        expected = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
        with arrangement_only():
            assert arrangement_solve(c, e.bloch) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mirrored_qubit_sweep_equals_exact_sweep_on_balanced_costs(data):
    # the pair allowance of a balanced cost is its balance residual: 0 for
    # the identity, constant and tied kinds, a few 1e-11 for the perturbed one
    m = data.draw(st.integers(2, 8))
    seed = data.draw(st.integers(0, 2**16))
    polygon = data.draw(st.booleans())
    e = generate_polygon_antiprism(m) if polygon else generate_random_uniform_prior(m, 2, seed)
    c = data.draw(balanced_costs(m))
    expected = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
    assert arrangement_solve(c, e.bloch) == expected


@pytest.mark.parametrize("m, seed", [(2, 0), *itertools.product(range(5, 9), range(3))])
def test_mirrored_qubit_sweep_equals_exact_sweep_on_unbalanced_costs(m, seed):
    # a mirror row's value can lie far from its partner's: the allowance is
    # of the order of the values themselves, and every row is rechecked
    e = generate_random_uniform_prior(m, 2, seed)
    values = [-1.5, 7.0] if m == 2 else np.random.default_rng(seed).normal(size=m).tolist()
    c = cost_function(values)
    expected = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
    assert arrangement_solve(c, e.bloch) == expected


@st.composite
def qubit_costs(draw, m):
    """A balanced cost (identity, constant, tied or perturbed), an unbalanced
    one, or small integers with ties, balanced or not."""
    kind = draw(st.sampled_from(["balanced", "unbalanced", "tied"]))
    if kind == "balanced":
        return draw(balanced_costs(m))
    if kind == "unbalanced":
        values = st.integers(-10**6, 10**6).map(lambda x: x / 1000)
    else:
        values = st.integers(0, 2)
    return cost_function(draw(st.lists(values, min_size=m, max_size=m)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_split_sweep_equals_exact_sweep(data):
    # up to M = 8 every numbering is scored from its head and tail sums;
    # repeated states, zero Bloch vectors and collinear or coplanar layouts
    # tie many numberings exactly
    m = data.draw(st.integers(2, 8))
    kind = data.draw(st.sampled_from([
        "random", "polygon", "repeated", "identical", "collinear", "coplanar", "mixed",
        "all_mixed",
    ]))
    if kind == "random":
        e = generate_random_uniform_prior(m, 2, data.draw(st.integers(0, 2**16)))
    elif kind == "polygon":
        e = generate_polygon_antiprism(m)
    else:
        e = degenerate_layout(kind, m)
    c = data.draw(qubit_costs(m))
    expected = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
    assert arrangement_solve(c, e.bloch) == expected


@settings(max_examples=60, deadline=None)
@given(problems().filter(lambda problem: problem[0].dim == 2))
def test_arrangement_equals_exact_sweep(problem):
    e, c, _ = problem
    expected = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
    with arrangement_only():
        assert arrangement_solve(c, e.bloch) == expected


# --- work counts of the fast paths ------------------------------------------------


def test_tracenorm_sweep_screens_one_numbering_per_pair(monkeypatch):
    # every numbering is scored once, from its split sums; E(n) is formed
    # only for the leads and for the rows sent to the spectra, one row of
    # each mirror pair: all of them under the constant cost, whose norms all tie
    scored, formed, screened = [], [], []
    screened_max, split_parts, spectra = engine._screened_max, engine._split_parts, engine._spectra

    def counted_max(blocks, screen, exact, window):
        def counting(block, running):
            scores = screen(block, running)
            assert scores.shape == block.shape
            scored.append(block.copy())
            return scores

        return screened_max(blocks, counting, exact, window)

    def counted_parts(left, right, flat, columns):
        formed.append(len(flat))
        return split_parts(left, right, flat, columns)

    def counted_spectra(batch, budget):
        screened.append(len(batch))
        return spectra(batch, budget)

    monkeypatch.setattr(engine, "_screened_max", counted_max)
    monkeypatch.setattr(engine, "_split_parts", counted_parts)
    monkeypatch.setattr(engine, "_spectra", counted_spectra)
    e = generate_random_uniform_prior(7, 3, 1)
    for c in (identity_cost(7), cost_function([1, 5, 2, 3, 4, 1, 5]), cost_function([2.5] * 7)):
        for record in (scored, formed, screened):
            record.clear()
        assert tracenorm_argmax(e, c) == reference_tracenorm_argmax(e, c)
        flat = np.sort(np.concatenate(scored))
        np.testing.assert_array_equal(flat, np.arange(math.factorial(7)))
        assert sum(formed) <= sum(screened) + engine._LEADS * len(scored)
        assert sum(screened) <= math.factorial(7) // 2
    assert sum(screened) == math.factorial(7) // 2


@pytest.mark.parametrize("m", [6, 7, 9])
def test_tracenorm_sweep_pairs_several_mean_values_and_constant_costs(m):
    # the mean repeated M - 4 times among four mirrored values, and a constant
    # whose computed mean is off by rounding at M = 6, 7 and exact at M = 9
    e = generate_random_uniform_prior(m, 3, m)
    several = np.random.default_rng(m).permutation([3.0] * (m - 4) + [1.0, 2.0, 4.0, 5.0])
    for c in (cost_function(several), cost_function([0.1] * m)):
        assert c.is_balanced
        assert tracenorm_argmax(e, c) == reference_tracenorm_argmax(e, c)


@pytest.mark.parametrize("d, share", [(3, 0.05), (4, 0.2)])
def test_tracenorm_sweep_screens_only_the_rows_its_bound_keeps(monkeypatch, d, share):
    rows = []
    spectra = engine._spectra

    def counted(batch, budget):
        rows.append(len(batch))
        return spectra(batch, budget)

    monkeypatch.setattr(engine, "_spectra", counted)
    c = identity_cost(8)
    for seed in range(6):
        e = generate_random_uniform_prior(8, d, seed)
        rows.clear()
        assert tracenorm_argmax(e, c) == reference_tracenorm_argmax(e, c)
        assert sum(rows) < share * math.factorial(8) // 2


def handed_to_the_exact_batch(monkeypatch, e, c, bound=True):
    """tracenorm_argmax's result and the rows it evaluates exactly; without
    ``bound``, neither stage prunes a row, and every row with n(0) < n(M - 1)
    in cost order is screened."""
    handed, batch = [], engine._effective_operator_batch

    def recording(e, c, rows):
        handed.append(rows.copy())
        return batch(e, c, rows)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_effective_operator_batch", recording)
        if not bound:
            patch.setattr(engine, "_norm_cutoff", lambda *args: -math.inf)
            patch.setattr(engine, "_norm_bound", lambda q, *args: np.full(len(q), np.inf))
        return tracenorm_argmax(e, c), np.concatenate(handed)


@pytest.mark.parametrize(
    "e, c",
    [
        (generate_random_uniform_prior(8, 3, 1), identity_cost(8)),
        (generate_random_uniform_prior(8, 4, 2), cost_function([1, 5, 2, 3, 4, 1, 5, 3])),
        (rotated_qubits(7, 3)[1], identity_cost(7)),
        (rotate_into_dim3(generate_polygon_antiprism(8), 8), identity_cost(8)),
        (conjugate_mirror(8, 4), mirror_costs(8)),
        (conjugate_mirror(9, 4), mirror_costs(9)),
    ],
)
def test_the_bound_hands_the_full_screens_rows_to_the_exact_batch(monkeypatch, e, c):
    result, rows = handed_to_the_exact_batch(monkeypatch, e, c)
    full_result, full_rows = handed_to_the_exact_batch(monkeypatch, e, c, bound=False)
    assert result == full_result
    np.testing.assert_array_equal(rows, full_rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e100, 1e200, 1e300])
def test_tracenorm_sweep_at_extreme_cost_scales(d, scale):
    for m in range(2, 6):
        e = generate_random_uniform_prior(m, d, m)
        c = cost_function([scale * t for t in range(1, m + 1)])
        assert tracenorm_argmax(e, c) == reference_tracenorm_argmax(e, c)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e150, 1e300])
def test_qubit_sweeps_at_extreme_cost_scales(scale):
    # |W| from squares of 1e-300 costs would underflow, and of 1e300 overflow
    for m in range(5, 8):
        e = nonuniform_qubits(m, m)
        c = cost_function([scale * t for t in range(1, m + 1)])
        best = tracenorm_argmax(e, c)
        assert best == reference_tracenorm_argmax(e, c)
        candidate = tuple(int(x) + 1 for x in np.random.default_rng(m).permutation(m))
        at_scale = math.ldexp(1e-10, _exponent(np.asarray(c.values) - c.mean))
        for n in (best[0], candidate):
            for tol in (at_scale, -reference_lowest(e, c, n)):
                assert condition_check(e, c, n, tol=tol) == reference_condition_check(e, c, n, tol)


@pytest.mark.parametrize(
    "e, verified", [(nonuniform_qubits(8, 1), False), (generate_random_uniform_prior(8, 2, 1), True)]
)
def test_qubit_general_solves_screen_pauli_coordinates(monkeypatch, e, verified):
    # the d = 2 trace-norm sweep scores (A, W) from its split sums: no bound,
    # no spectra and no chunk loop; the condition sweep runs the chunk loop
    def refuse(*args):
        raise AssertionError("the d = 2 trace-norm sweep screened matrices or ran the chunk loop")

    runs, chunks, check = [], engine._chunks, engine.condition_check
    monkeypatch.setattr(engine, "_norm_bound", refuse)
    monkeypatch.setattr(engine, "_spectra", refuse)
    monkeypatch.setattr(engine, "_chunks", refuse)

    def counted(weights, inverses, values):
        for rows, product in chunks(weights, inverses, values):
            runs.append((len(rows), product.shape[1]))
            yield rows, product

    def checked(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_chunks", counted)
            return check(*args, **kwargs)

    monkeypatch.setattr(engine, "condition_check", checked)
    report = engine.min_guesswork_general(e, identity_cost(8))
    # the uniform prior's certificate holds, so its condition sweep runs in
    # full; a refuted certificate sweeps no condition rows
    assert report.condition_verified == verified
    assert all(width == 4 for _, width in runs)
    assert sum(rows for rows, _ in runs) == (math.factorial(8) if verified else 0)


def failing_certificate():
    e, c = generate_random_uniform_prior(6, 3, 1), identity_cost(6)
    n_star, _ = tracenorm_argmax(e, c)
    assert not reference_condition_check(e, c, n_star, 1e-10)
    return e, c, n_star


def test_condition_check_refutes_a_failing_certificate_without_sweeping(monkeypatch):
    e, c, n_star = failing_certificate()

    def refuse(m):
        raise AssertionError("the condition check swept the numberings")

    monkeypatch.setattr(engine, "_numbering_blocks", refuse)
    assert condition_check(e, c, n_star) is False


def test_m8_qubit_solves_score_every_numbering_from_split_sums(monkeypatch):
    def refuse(*args):
        raise AssertionError("the qubit solve built the arrangement or ran the chunk loop")

    for name in ("_sorted_matchings", "_closure"):
        monkeypatch.setattr(qap, name, refuse)
    monkeypatch.setattr(engine, "_chunks", refuse)
    scored, screened_max = [], qap._screened_max

    def counted(blocks, screen, exact, window):
        def counting(block, running):
            scores = screen(block, running)
            assert scores.shape == block.shape
            scored.append(exact(block)[0])  # every index of the block, as a numbering
            return scores

        return screened_max(blocks, counting, exact, window)

    monkeypatch.setattr(qap, "_screened_max", counted)
    c = identity_cost(8)
    for e in (generate_polygon_antiprism(8), generate_random_uniform_prior(8, 2, 1)):
        scored.clear()
        report = solve(e, c)
        assert report.method == "brute_force"
        assert report.condition_verified
        rows = np.concatenate(scored)
        assert len(rows) == math.factorial(8)
        assert len(np.unique(rows, axis=0)) == math.factorial(8)


def test_m9_qubit_solves_do_not_score_every_numbering(monkeypatch):
    def refuse(*args):
        raise AssertionError("the qubit solve scored every numbering")

    monkeypatch.setattr(qap, "_split_max", refuse)
    for e in (generate_polygon_antiprism(9), generate_random_uniform_prior(9, 2, 1)):
        assert solve(e, identity_cost(9)).method == "brute_force"


@pytest.mark.parametrize(
    "e, values",
    [
        (generate_random_uniform_prior(9, 2, 1), list(range(1, 10))),
        (generate_polygon_antiprism(9), list(range(1, 10))),
        (generate_random_uniform_prior(9, 2, 4), [1, 1, 2, 2, 3, 4, 4, 5, 5]),
        (generate_random_uniform_prior(9, 2, 5), np.random.default_rng(5).normal(size=9).tolist()),
    ],
)
def test_split_sweep_blocks_per_prefix_equal_exact_sweep(monkeypatch, e, values):
    # a closure that would outgrow M! sends the solver to the sweep: one
    # block of 8! numberings per first label, its fixed sum in the head
    blocks, screened_max = [], qap._screened_max

    def counted(rows, screen, exact, window):
        return screened_max((blocks.append(len(b)) or b for b in rows), screen, exact, window)

    monkeypatch.setattr(qap, "_closure", lambda *args: None)
    monkeypatch.setattr(qap, "_screened_max", counted)
    c = cost_function(values)
    expected = reference_brute_force(reference_cost_gram(c), bloch_gram(e))
    assert arrangement_solve(c, e.bloch) == expected
    assert blocks == [math.factorial(8)] * 9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", [5, 8, 9])
def test_uniform_qubit_solves_at_extreme_scales(m):
    # the window SCREEN_MARGIN Tr(cost_gram) Tr(bloch_gram) and the squares in
    # |w(n*)| underflow at the tiny scales unless they are taken at unit scale,
    # and (sum |gamma - mean|)^2 overflows from 1e155 on
    e, c = generate_random_uniform_prior(m, 2, m), identity_cost(m)
    report = solve(e, c)
    pair = {report.optimal_numbering, compose(report.optimal_numbering, c.balancing_permutation)}
    for factor in (1e-300, 1e-160, 1e150, 1e155, 1e200, 1e300):
        scaled = solve(e, cost_function([factor * t for t in range(1, m + 1)]))
        assert scaled.condition_verified
        assert scaled.optimal_numbering in pair
        assert math.isclose(
            (scaled.value - scaled.mean_cost) / factor, report.value - report.mean_cost,
            rel_tol=1e-12,
        )
    # Bloch vectors 2^-560 long (a state cannot hold them: its diagonal
    # rounds them away) give |w|^2 below the smallest double; 2^-500 long,
    # the value is the scale-1 one times 2^-1000, bitwise
    base = arrangement_solve(c, e.bloch)
    assert arrangement_solve(c, np.ldexp(e.bloch, -560))[0] == base[0]
    numbering, value = arrangement_solve(c, np.ldexp(e.bloch, -500))
    assert (numbering, math.ldexp(value, 1000)) == base


ENSEMBLE_KINDS = {
    "uniform qubits": lambda m, seed: generate_random_uniform_prior(m, 2, seed),
    "non-uniform qubits": nonuniform_qubits,
    "dim 3": lambda m, seed: generate_random_uniform_prior(m, 3, seed),
    "rotated qubits": lambda m, seed: rotated_qubits(m, seed)[1],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_no_verdict_depends_on_the_cost_units(data):
    # G(a gamma + b) = a G(gamma) + b: every solve path keeps its verdict, and
    # its value and trace-norm term divided by the factor, near both ends of
    # the doubles.  Rounding f gamma moves a value by about eps max |gamma| f,
    # so the comparison is relative to the larger of the value and max |gamma|.
    m = data.draw(st.integers(2, 6), label="m")
    seed = data.draw(st.integers(0, 10_000), label="seed")
    e = ENSEMBLE_KINDS[data.draw(st.sampled_from(sorted(ENSEMBLE_KINDS)), label="kind")](m, seed)
    values = random_balanced_values(np.random.default_rng(seed), m)
    report = solve(e, cost_function(values))
    for factor in (1e-300, 1e-200, 1e200, 1e300):
        scaled = solve(e, cost_function([factor * v for v in values]))
        assert (scaled.measurement is None) == (report.measurement is None)
        for field in ("value", "trace_norm_term"):
            expected = getattr(report, field)
            size = max(abs(expected), max(abs(v) for v in values))
            assert abs(getattr(scaled, field) / factor - expected) <= 1e-12 * size, field


def test_m9_qubit_solves_do_not_sweep(monkeypatch):
    def refuse(m):
        raise AssertionError("the qubit solve swept the numberings")

    def no_closed_form(*args, **kwargs):
        raise AssertionError("the qubit solve ran the closed form up to the cap")

    monkeypatch.setattr(engine, "_numbering_blocks", refuse)
    polygon, rand = generate_polygon_antiprism(9), generate_random_uniform_prior(9, 2, 1)
    c = identity_cost(9)
    with monkeypatch.context() as patched:
        patched.setattr(engine, "benevolent_solve", no_closed_form)
        for e in (polygon, rand):
            report = solve(e, c)
            assert report.method == "brute_force"
            assert report.condition_verified
    # above the cap only the closed form runs, unverified
    report = solve(polygon, c, cap=8)
    assert report.method == "benevolent"
    assert not report.condition_verified


# --- the enumeration primitive ---------------------------------------------------


@pytest.mark.parametrize("m", range(1, 10))
def test_numbering_blocks_follow_itertools_order(m):
    rows = np.concatenate(list(_numbering_blocks(m)))
    assert [tuple(row) for row in rows.tolist()] == list(itertools.permutations(range(m)))


def lexicographic_ranks(rows):
    """Each row's index in the lexicographic list of the permutations of range(m)."""
    m = rows.shape[1]
    later = np.triu(np.ones((m, m), dtype=bool), 1)
    digits = ((rows[:, :, None] > rows[:, None, :]) & later).sum(axis=2)
    return digits @ np.array([math.factorial(m - 1 - i) for i in range(m)])


@pytest.mark.parametrize("m", range(1, 11))
def test_half_blocks_hold_one_row_of_each_complement_pair(m):
    # the trace-norm sweep screens the rows of the split blocks with
    # n(0) < n(M - 1) in cost order: every permutation is one of them or the
    # reversal of one.  M = 1: the one row is its own reversal, and the sweep
    # returns E = 0 without a block
    seen = np.zeros(math.factorial(m), dtype=np.int8)
    for block in qap._split_blocks(m):
        rows = qap._split_rows(m, block)[engine._first_half(m, block)]
        for r in (rows, rows[:, ::-1]):
            np.add.at(seen, lexicographic_ranks(r), 1)
    np.testing.assert_array_equal(seen, 0 if m == 1 else 1)


@pytest.mark.parametrize("m", range(1, 9))
def test_half_table_is_a_read_only_view_of_the_cached_table(m):
    # the split's tail table is a reversed read-only view of the cached
    # orderings, so a second sweep builds no table
    k = min(m, 8)
    heads, _, tails, _, starts = qap._split(m)
    entries = qap._orderings.cache_info().currsize
    assert qap._split(m)[2] is tails
    assert qap._orderings.cache_info().currsize == entries
    assert np.shares_memory(tails, qap._orderings(k, k - k // 2)[0]) and not tails.flags.writeable
    assert not heads.flags.writeable and not starts.flags.writeable
    assert len(tails) == len(heads) == math.comb(k, k // 2)


def test_numbering_blocks_m10_shape_and_ends():
    blocks = list(_numbering_blocks(10))
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
        "from guesswork.engine import _permutation_table\n"
        "assert _permutation_table.cache_info().currsize == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": source}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
