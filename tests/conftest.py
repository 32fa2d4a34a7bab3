"""Shared test helpers: independent oracles and random problem generators."""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np

from guesswork import cost_function
from guesswork.costs import compose, invert
from guesswork.engine import NumberingMeasurement, _effective_operator_batch, effective_operator
from guesswork.ensembles import TRACE_TOL, Ensemble, generate_random_uniform_prior, validate
from guesswork.operators import (
    EIGEN_TOL,
    abs_operator,
    pauli_vector,
    require_hermitian,
    spectral_parts,
    trace_norm,
)
from guesswork.qap import BENEVOLENCE_TOL, BenevolenceReport, is_benevolent, zigzag_numbering


def reference_validate(raw_states) -> Ensemble:
    """The per-state validation loop that ``ensembles.validate`` batched.

    Each state in turn: square shape, finite entries, Hermiticity, the
    dimension of state 0, then PSD; the total trace after the loop.
    """
    if len(raw_states) == 0:
        raise ValueError("ensemble must contain at least one state")
    states = []
    dim = None
    for index, raw in enumerate(raw_states):
        mat = require_hermitian(raw, name=f"state {index}")
        if dim is None:
            dim = mat.shape[0]
        elif mat.shape[0] != dim:
            raise ValueError(
                f"mixed dimensions: state {index} is {mat.shape[0]}x{mat.shape[0]}, expected {dim}"
            )
        low = float(np.linalg.eigvalsh(mat)[0])
        if low < -EIGEN_TOL:
            raise ValueError(f"state {index} is not PSD (min eigenvalue {low:.3e})")
        mat.setflags(write=False)
        states.append(mat)
    prior = np.array([float(np.trace(s).real) for s in states])
    total = float(prior.sum())
    if abs(total - 1.0) > TRACE_TOL:
        raise ValueError(f"total trace is {total!r}, must be 1 within {TRACE_TOL:.1e}")
    prior.setflags(write=False)
    bloch = None
    if dim == 2:
        bloch = np.stack([pauli_vector(s) for s in states])
        bloch.setflags(write=False)
    return Ensemble(dim=dim, states=tuple(states), prior=prior, bloch=bloch)


def reference_is_benevolent(a, tol: float = BENEVOLENCE_TOL) -> BenevolenceReport:
    """The loop form of ``qap.is_benevolent``: one pass per diagonal for the
    Toeplitz test and one step at a time along the first column."""
    mat = np.asarray(a, dtype=float)
    m = mat.shape[0]
    symmetric = float(np.max(np.abs(mat - mat.T))) <= tol
    toeplitz = True
    for offset in range(-(m - 1), m):
        diag = np.diagonal(mat, offset)
        if diag.size > 1 and float(np.max(np.abs(diag - diag[0]))) > tol:
            toeplitz = False
            break
    column = mat[:, 0]
    half = m // 2
    property1 = property2 = True
    failing = None
    for step in range(1, half):
        if column[step + 1] < column[step] - tol:
            property1 = False
            failing = step
            break
    for step in range(1, half + 1):
        if column[m - step] < column[step] - tol:
            property2 = False
            if failing is None:
                failing = step
            break
    return BenevolenceReport(
        is_symmetric_toeplitz=bool(symmetric and toeplitz),
        property1_ok=property1,
        property2_ok=property2,
        failing_index=failing,
    )


def oracle_benevolent_relabeling(a, tol: float = BENEVOLENCE_TOL):
    """The first relabeling in ``itertools.permutations`` order that makes A,
    divided by the smallest power of two above max |A|, benevolent within tol,
    or None: the all-M! search that ``qap.find_benevolent_permutation`` must agree with."""
    mat = np.asarray(a, dtype=float)
    mat = np.ldexp(mat, -max(math.frexp(float(np.abs(mat).max()))[1], -1000))
    for perm in itertools.permutations(range(len(mat))):
        if is_benevolent(mat[np.ix_(perm, perm)], tol).is_benevolent:
            return tuple(i + 1 for i in perm)
    return None


def oracle_min_guesswork(e, c) -> float:
    """Independent enumeration oracle: mean - max_n ||E(n)||_1 / 2.

    Deliberately avoids the Gram route so it can certify it: the effective
    operator is assembled inline and its trace norm taken from eigenvalues.
    """
    coefficients = np.asarray(c.values) - c.mean
    best = -np.inf
    for perm in itertools.permutations(range(e.size)):
        operator = 2 * sum(
            coefficients[t] * e.states[perm[t]] for t in range(e.size)
        )
        best = max(best, float(np.abs(np.linalg.eigvalsh(operator)).sum()))
    return c.mean - best / 2


def reference_cost_gram(c) -> np.ndarray:
    """The rank-1 cost Gram G_ij = (gamma(i) - mean)(gamma(j) - mean)."""
    g = np.asarray(c.values) - c.mean
    return np.outer(g, g)


def reference_zigzag(e, c):
    """The zig-zag numbering composed with the cost's sorting permutation, and
    ||E(n)||_1: the closed form applied without its benevolence certificate."""
    n = compose(zigzag_numbering(e.size), invert(c.sorting_permutation))
    return n, trace_norm(effective_operator(e, c, n))


def oracle_qap_max(cost_gram, bloch_gram) -> float:
    """Independent exhaustive maximum of the double-sum objective."""
    m = cost_gram.shape[0]
    best = -np.inf
    for perm in itertools.permutations(range(m)):
        total = 0.0
        for t in range(m):
            for s in range(m):
                total += cost_gram[t, s] * bloch_gram[perm[t], perm[s]]
        best = max(best, total)
    return best


def reference_blocks(m):
    """Every permutation of range(m) in ``itertools.permutations`` order, in blocks of 8! rows."""
    perms = itertools.permutations(range(m))
    while chunk := list(itertools.islice(perms, 40320)):
        yield np.array(chunk, dtype=np.intp)


def reference_lowest(e, c, n_star):
    """Smallest eigenvalue of |E(n*)| - E(n) over every n, from the exact batch."""
    magnitude = abs_operator(effective_operator(e, c, n_star))
    return min(
        float(np.linalg.eigvalsh(magnitude - _effective_operator_batch(e, c, block))[:, 0].min())
        for block in reference_blocks(e.size)
    )


def reference_condition_check(e, c, n_star, tol):
    return not reference_lowest(e, c, n_star) < -tol


def double_sum(cost_gram, bloch_gram, n) -> float:
    """sum_{t,t'} cost_gram[t, t'] * bloch_gram[n(t), n(t')] for a 1-based numbering n."""
    perm = np.asarray(n, dtype=np.intp) - 1
    return float(np.sum(cost_gram * bloch_gram[np.ix_(perm, perm)]))


def reference_brute_force(cost_gram, bloch_gram):
    """The exhaustive exact sweep: the double sum of every numbering over
    the gathered Bloch Gram, keeping the (max value, earliest) numbering block
    by block, i.e. the lexicographically smallest among equal computed values."""
    best_value, best_perm = -math.inf, None
    for block in reference_blocks(len(cost_gram)):
        permuted = bloch_gram[block[:, :, None], block[:, None, :]]
        values = np.einsum("ts,kts->k", cost_gram, permuted)
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value, best_perm = float(values[k]), block[k]
    return tuple(int(x) + 1 for x in best_perm), best_value


def reference_closure(g, bloch, rows, window) -> list[tuple[int, ...]]:
    """Breadth-first search over tuples: the rows of ``rows`` scored within
    window of the top, closed under swaps of two entries whose score stays
    within window of the largest score met so far, in lexicographic order.
    Each score |sum_t g(t) v(n(t))|^2 is summed in plain Python."""
    g, bloch = [float(x) for x in g], np.asarray(bloch, dtype=float).tolist()

    def score(n):
        w = [sum(gt * bloch[i][x] for gt, i in zip(g, n)) for x in range(3)]
        return sum(x * x for x in w)

    scores = {tuple(row): score(row) for row in np.asarray(rows).tolist()}
    top = max(scores.values())
    seen = {row for row, value in scores.items() if value >= top - window}
    queue = collections.deque(sorted(seen))
    while queue:
        row = queue.popleft()
        for s, t in itertools.combinations(range(len(row)), 2):
            near = list(row)
            near[s], near[t] = near[t], near[s]
            near = tuple(near)
            if near in seen:
                continue
            value = score(near)
            top = max(top, value)
            if value >= top - window:
                seen.add(near)
                queue.append(near)
    return sorted(seen)


def reference_simulate(e, c, m, samples: int, seed: int) -> tuple[float, float]:
    """Round-by-round Monte Carlo: the sampler ``engine.simulate`` replaced.

    Draws a state label from the prior for every round, then a numbering
    outcome from Tr[pi(n) rho] / Tr[rho] for every round of each label, and
    pays gamma(n^-1(label)).  O(samples) memory, so only for small runs.
    """
    rng = np.random.default_rng(seed)
    size = e.size
    prior = np.clip(e.prior, 0.0, None)
    prior = prior / prior.sum()
    outcomes = list(m.elements.items())
    joint = np.array(
        [
            [float(np.trace(element @ state).real) for state in e.states]
            for _, element in outcomes
        ]
    )
    joint = np.clip(joint, 0.0, None)
    column_totals = joint.sum(axis=0, keepdims=True)
    conditional = joint / np.where(column_totals > 0, column_totals, 1.0)
    cost_table = np.array(
        [[c.values[invert(numbering)[label] - 1] for label in range(size)]
         for numbering, _ in outcomes]
    )
    labels = rng.choice(size, size=samples, p=prior)
    drawn = np.empty(samples, dtype=np.intp)
    for label in range(size):
        hits = np.flatnonzero(labels == label)
        if hits.size:
            drawn[hits] = rng.choice(len(outcomes), size=hits.size, p=conditional[:, label])
    costs = cost_table[drawn, labels]
    estimate = float(costs.mean())
    if samples < 2:
        return estimate, math.nan
    return estimate, float(costs.std(ddof=1) / math.sqrt(samples))


def random_balanced_values(rng, m: int, span: float = 5.0) -> list[float]:
    """Random balanced cost: deviations mirrored about a random mean, shuffled."""
    base = float(rng.uniform(-span, span))
    half = m // 2
    devs = rng.uniform(0.0, span, size=half)
    values = [base + d for d in devs] + [base - d for d in devs]
    if m % 2 == 1:
        values.append(base)
    rng.shuffle(values)
    return values


def random_balanced_cost(rng, m: int, span: float = 5.0):
    c = cost_function(random_balanced_values(rng, m, span))
    assert c.is_balanced
    return c


def random_numbering(rng, m: int) -> tuple[int, ...]:
    return tuple(int(x) + 1 for x in rng.permutation(m))


def random_two_outcome_measurement(rng, e, c) -> NumberingMeasurement:
    """A valid measurement on a random pair (n, n o sigma) for the spot-checks.

    Elements come from the spectral parts of a random traceless Hermitian
    operator, so they are PSD and complete by construction.
    """
    n = random_numbering(rng, e.size)
    partner = tuple(n[s - 1] for s in c.balancing_permutation)
    raw = rng.normal(size=(e.dim, e.dim)) + 1j * rng.normal(size=(e.dim, e.dim))
    herm = (raw + raw.conj().T) / 2
    herm -= np.trace(herm) / e.dim * np.eye(e.dim)
    if partner == n:
        return NumberingMeasurement(dim=e.dim, elements={n: np.eye(e.dim, dtype=complex)})
    parts = spectral_parts(herm)
    return NumberingMeasurement(
        dim=e.dim,
        elements={
            n: parts.negative_projector + parts.null_projector / 2,
            partner: parts.positive_projector + parts.null_projector / 2,
        },
    )


def rotate_into_dim3(qubits: Ensemble, seed: int) -> Ensemble:
    """Qubit states padded to dim 3 and conjugated by a seeded random unitary.
    The rotated states use every coordinate, so ``solve`` cannot drop one, yet
    they share a kernel vector: 0 is an eigenvalue of every |E(n*)| - E(n)."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    padded = [np.pad(s, ((0, 1), (0, 1))) for s in qubits.states]
    return validate([u @ s @ u.conj().T for s in padded])


def rotated_qubits(m: int, seed: int) -> tuple[Ensemble, Ensemble]:
    """Random uniform-prior qubits, and the same states rotated into dim 3
    (:func:`rotate_into_dim3`) with the same seed."""
    qubits = generate_random_uniform_prior(m, 2, seed)
    return qubits, rotate_into_dim3(qubits, seed)
