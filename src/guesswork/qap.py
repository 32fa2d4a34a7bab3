"""Quadratic assignment over numberings: exact enumeration and a structured fast path.

The qubit guesswork problem reduces to maximizing

    objective(n) = sum_{t,t'} cost_gram[t, t'] * bloch_gram[n(t), n(t')]

over all numberings n (equivalently Tr[C X_n B X_n^T] with permutation
matrices).  Two solvers are provided:

* :func:`brute_force_solve` — exhaustive enumeration over the blocks of
  :func:`numbering_blocks`, deterministic block-wise reduction (equal
  computed values resolve lexicographically), capped at M! <= cap!.
* :func:`benevolent_solve` — closed form when -bloch_gram is permutationally
  equivalent to a *benevolent* matrix: symmetric Toeplitz with a first column
  whose tail is non-decreasing up to the midpoint (Property 1) and dominated
  by its mirrored tail (Property 2).  Paired with the rank-1 (monotone
  anti-Monge) cost Gram, such instances are maximized by the zig-zag
  numbering, conjugated back through the sorting and relabeling permutations.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .costs import CostFunction, Numbering, compose, invert, require_numbering
from .costs import cost_gram as build_cost_gram
from .ensembles import Ensemble
from .errors import FactorialCapError

DEFAULT_FACTORIAL_CAP = 10
SYMMETRY_TOL = 1e-12
BENEVOLENCE_TOL = 1e-10

# Blocks list the permutations of the last min(M, 8) positions under one prefix
# of the first M - 8: 8! = 40320 rows per block bound the sweeps' memory.
_TABLE_POSITIONS = 8

# The sweeps score every numbering with a cheap screen and recompute the exact
# formula only where the screen comes within SCREEN_MARGIN * scale of a
# decision, scale bounding the magnitude of the scored quantity.  Double
# rounding in sums of M <= 16 terms and in the eigensolvers of d <= 16 matrices
# stays below 1e-14 * scale, far inside the margin; on unit-trace ensembles the
# margin stays far below EIGEN_TOL = 1e-10.
SCREEN_MARGIN = 1e-12


@dataclass(frozen=True)
class QapInstance:
    """A cost Gram / Bloch Gram pair defining one assignment problem."""

    cost_gram: np.ndarray
    bloch_gram: np.ndarray

    def __post_init__(self):
        cost = np.asarray(self.cost_gram, dtype=float)
        bloch = np.asarray(self.bloch_gram, dtype=float)
        for name, mat in (("cost_gram", cost), ("bloch_gram", bloch)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square, got shape {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} has non-finite entries")
            if float(np.max(np.abs(mat - mat.T))) > SYMMETRY_TOL:
                raise ValueError(f"{name} is not symmetric within {SYMMETRY_TOL:.1e}")
        if cost.shape != bloch.shape:
            raise ValueError(f"size mismatch: {cost.shape} vs {bloch.shape}")
        cost.setflags(write=False)
        bloch.setflags(write=False)
        object.__setattr__(self, "cost_gram", cost)
        object.__setattr__(self, "bloch_gram", bloch)

    @property
    def size(self) -> int:
        return self.cost_gram.shape[0]


@dataclass(frozen=True)
class BenevolenceReport:
    """Outcome of the benevolent-structure checks on a matrix."""

    is_symmetric_toeplitz: bool
    property1_ok: bool
    property2_ok: bool
    failing_index: int | None = None

    @property
    def is_benevolent(self) -> bool:
        return self.is_symmetric_toeplitz and self.property1_ok and self.property2_ok


def bloch_gram(e: Ensemble) -> np.ndarray:
    """Gram matrix of the ensemble's Bloch vectors: G_ij = v(rho(i)) . v(rho(j))."""
    if e.dim != 2:
        raise ValueError(f"bloch_gram requires dim = 2, got {e.dim}")
    return e.bloch @ e.bloch.T


def qap_objective(inst: QapInstance, n) -> float:
    """Evaluate sum_{t,t'} cost_gram[t, t'] * bloch_gram[n(t), n(t')]."""
    perm = np.asarray(require_numbering(n, size=inst.size), dtype=np.intp) - 1
    return float(np.sum(inst.cost_gram * inst.bloch_gram[np.ix_(perm, perm)]))


@functools.lru_cache(maxsize=None)
def _permutation_table(k: int) -> np.ndarray:
    """All permutations of range(k) in lexicographic order, as a read-only int8 table."""
    table = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, k + 1):
        # rows led by each first entry in turn, then the shorter table relabelled around it
        firsts = np.repeat(np.arange(size, dtype=np.int8), len(table))[:, None]
        rests = np.tile(table, (size, 1))
        table = np.hstack([firsts, rests + (rests >= firsts)])
    table.setflags(write=False)
    return table


def numbering_blocks(m: int):
    """Every permutation of range(m), in ``itertools.permutations`` order, in blocks.

    Each block is an integer array with one permutation per row: those that
    share their first m - 8 entries (all m! permutations when m <= 8).
    """
    tail = min(m, _TABLE_POSITIONS)
    table = _permutation_table(tail)
    for prefix in itertools.permutations(range(m), m - tail):
        block = np.empty((len(table), m), dtype=np.intp)
        block[:, : m - tail] = prefix
        block[:, m - tail :] = np.array([x for x in range(m) if x not in prefix])[table]
        yield block


def _eigenpairs(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues and eigenvectors of a symmetric Gram, and its nuclear norm.

    Eigenvalues within SCREEN_MARGIN / 8 of zero, relative to the mean
    |eigenvalue|, are dropped: together they weigh at most SCREEN_MARGIN / 8
    of the nuclear norm.
    """
    values, vectors = np.linalg.eigh(gram)
    nuclear = float(np.abs(values).sum())
    keep = np.abs(values) > SCREEN_MARGIN / 8 * nuclear / len(values)
    return values[keep], vectors[:, keep], nuclear


def brute_force_solve(
    inst: QapInstance, cap: int = DEFAULT_FACTORIAL_CAP
) -> tuple[Numbering, float]:
    """Exhaustively maximize the objective over all M! numberings.

    A screen scores every numbering: with cost_gram = sum_j mu_j c_j c_j^T and
    bloch_gram = sum_i lambda_i b_i b_i^T, objective(n) = sum_j mu_j sum_i
    lambda_i (W_j b_i)^2, where row n of W_j holds c_j(t) at column n(t).  The
    exact double sum is then evaluated only for numberings screened within
    SCREEN_MARGIN times the product of the Grams' nuclear norms of the running
    maximum, block by block in lexicographic order, keeping the (max value,
    earliest) one.  The screen errs by less than half that window, so the
    result equals the exact sweep over all numberings: the largest computed
    value, the lexicographically smallest numbering among equal computed
    values.  Numberings that tie in exact arithmetic, such as n and n o sigma
    for every n under a balanced cost, are usually separated by rounding,
    not by that order.
    """
    m = inst.size
    if m > cap:
        raise FactorialCapError(
            f"M = {m} exceeds the exhaustive-search cap {cap} ({m}! numberings); "
            "use the benevolent fast path"
        )
    costs, cost_vectors, cost_norm = _eigenpairs(inst.cost_gram)
    blochs, bloch_vectors, bloch_norm = _eigenpairs(inst.bloch_gram)
    # |objective| <= cost_norm * bloch_norm; the eigenvalues each Gram drops
    # move a score by at most window / 8, rounding by far less.
    window = SCREEN_MARGIN * cost_norm * bloch_norm
    best_value = running = -math.inf
    best_perm = None
    for block in numbering_blocks(m):
        weights = np.empty(block.shape)
        scores = np.zeros(len(block))
        for value, vector in zip(costs, cost_vectors.T):
            np.put_along_axis(weights, block, vector[None, :], axis=1)
            scores += value * ((weights @ bloch_vectors) ** 2 @ blochs)
        running = max(running, float(scores.max()))
        rows = block[scores >= running - window]
        if not len(rows):
            continue
        permuted = inst.bloch_gram[rows[:, :, None], rows[:, None, :]]
        values = np.einsum("ts,kts->k", inst.cost_gram, permuted)
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value = float(values[k])
            best_perm = rows[k]
    return tuple(int(x) + 1 for x in best_perm), best_value


def is_benevolent(a, tol: float = BENEVOLENCE_TOL) -> BenevolenceReport:
    """Check symmetry, Toeplitz structure and the two first-column properties.

    Property 1: A[m+1, 1] is non-decreasing for m in 1..floor(M/2).
    Property 2: A[M+1-m, 1] >= A[m+1, 1] for m in 1..floor(M/2).
    (1-based indices; each inequality is tested within tol.)
    """
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
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
    property1 = True
    property2 = True
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


def zigzag_numbering(m: int) -> Numbering:
    """The numbering whose inverse maps m to 2m-1 up to ceil(M/2), then 2(M+1-m).

    It interleaves positions from both ends: for M = 4 it is (1, 4, 2, 3).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    inverse = []
    for position in range(1, m + 1):
        if position <= (m + 1) // 2:
            inverse.append(2 * position - 1)
        else:
            inverse.append(2 * (m + 1 - position))
    return invert(inverse)


def _conjugate(a: np.ndarray, sigma: Numbering) -> np.ndarray:
    idx = np.asarray(sigma, dtype=np.intp) - 1
    return a[np.ix_(idx, idx)]


def _cyclic_candidates(m: int):
    # Rotations (identity first) and reflections of the index circle; these
    # cover every vertex-transitive family, e.g. circulant Gram matrices.
    for shift in range(m):
        yield tuple((i + shift) % m + 1 for i in range(m))
    for shift in range(m):
        yield tuple((shift - i) % m + 1 for i in range(m))


def _toeplitz_search(mat: np.ndarray, tol: float) -> Numbering | None:
    """Backtracking search for a relabeling making ``mat`` benevolent.

    Prunes on the Toeplitz constraint (every new entry must match the value
    one step up the diagonal) and on the first-column monotonicity while rows
    are placed; full benevolence is re-checked before accepting.
    """
    m = mat.shape[0]
    half = m // 2
    chosen: list[int] = []
    used = [False] * m

    def rows_compatible(candidate: int) -> bool:
        k = len(chosen)
        for j in range(1, k):
            if abs(mat[candidate, chosen[j]] - mat[chosen[k - 1], chosen[j - 1]]) > tol:
                return False
        if 2 <= k <= half and mat[candidate, chosen[0]] < mat[chosen[k - 1], chosen[0]] - tol:
            return False
        return True

    def descend() -> Numbering | None:
        if len(chosen) == m:
            sigma = tuple(c + 1 for c in chosen)
            if is_benevolent(_conjugate(mat, sigma), tol).is_benevolent:
                return sigma
            return None
        for candidate in range(m):
            if used[candidate] or not rows_compatible(candidate):
                continue
            used[candidate] = True
            chosen.append(candidate)
            found = descend()
            if found is not None:
                return found
            chosen.pop()
            used[candidate] = False
        return None

    return descend()


def find_benevolent_permutation(
    a, tol: float = BENEVOLENCE_TOL, cap: int = DEFAULT_FACTORIAL_CAP
) -> Numbering | None:
    """Find sigma such that A[sigma(i), sigma(j)] is benevolent, or None.

    Cyclic relabelings (rotations and reflections, identity first) are tried
    before the pruned exhaustive search; the exhaustive stage only runs for
    M <= cap, so above the cap only cyclic structure is detected.
    """
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    m = mat.shape[0]
    for sigma in _cyclic_candidates(m):
        if is_benevolent(_conjugate(mat, sigma), tol).is_benevolent:
            return sigma
    # Conjugation cannot repair asymmetry, so a symmetric relabeling is hopeless.
    if float(np.max(np.abs(mat - mat.T))) > tol:
        return None
    if m > cap:
        return None
    return _toeplitz_search(mat, tol)


def benevolent_solve(
    c: CostFunction,
    bloch: np.ndarray,
    tol: float = BENEVOLENCE_TOL,
    cap: int = DEFAULT_FACTORIAL_CAP,
) -> tuple[Numbering, float] | None:
    """Closed-form QAP solution for benevolent instances.

    Returns the optimal numbering sigma_2 o zigzag o sigma_1^-1 and its
    objective, or None when no relabeling sigma_2 making -bloch benevolent
    was found.  Requires a balanced cost.
    """
    if not c.is_balanced:
        raise ValueError("benevolent_solve requires a balanced cost function")
    bloch = np.asarray(bloch, dtype=float)
    m = bloch.shape[0]
    if c.size != m:
        raise ValueError(f"cost has {c.size} values but the Gram matrix is {m}x{m}")
    sigma2 = find_benevolent_permutation(-bloch, tol=tol, cap=cap)
    if sigma2 is None:
        return None
    n_star = compose(sigma2, compose(zigzag_numbering(m), invert(c.sorting_permutation)))
    inst = QapInstance(build_cost_gram(c), bloch)
    return n_star, qap_objective(inst, n_star)
