"""Uniform-prior qubit solvers: an exact polynomial solver and the paper's closed form.

The qubit guesswork problem reduces to maximizing |w(n)|^2 over all
numberings n, with w(n) = sum_t (gamma(t) - mean) v(n(t)) and v the Bloch
vectors; as a double sum it is sum_{t,t'} cost_gram[t, t'] bloch_gram[n(t),
n(t')] with the rank-1 :func:`cost_gram`.  Two solvers are provided:

* :func:`arrangement_solve` — exact: the sorted matchings of the cells of the
  great-circle arrangement of the Bloch vectors, closed under near-tied
  swaps, in polynomial time; its answer equals the exhaustive sweep's (equal
  computed values resolve lexicographically).  It alone decides solves up to the cap.
* :func:`benevolent_solve` — the paper's closed form, when -bloch_gram is
  permutationally equivalent to a *benevolent* matrix: symmetric Toeplitz
  with a first column whose tail is non-decreasing up to the midpoint
  (Property 1) and dominated by its mirrored tail (Property 2).  Paired with
  the rank-1 (monotone anti-Monge) cost Gram, such instances are maximized
  by the zig-zag numbering, conjugated back through the sorting and
  relabeling permutations.

:func:`screened_max` is the reduction shared by this solver and the engine's
trace-norm sweep.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .costs import CostFunction, Numbering, compose, invert
from .ensembles import Ensemble
from .errors import FactorialCapError

DEFAULT_FACTORIAL_CAP = 10
BENEVOLENCE_TOL = 1e-10

# Blocks list the permutations of the last min(M, 8) positions under one prefix
# of the first M - 8: 8! = 40320 rows per block bound the sweeps' memory.
_TABLE_POSITIONS = 8

# The sweeps score every numbering with a cheap screen and recompute the exact
# formula only where the screen comes within SCREEN_MARGIN * scale of a
# decision, scale bounding the magnitude of the scored quantity.  Double
# rounding in sums of M <= 16 terms and in eigvalsh of d <= 16 matrices stays
# below 1e-14 * scale, far inside the margin.  The engine's closed-form spectra
# for d <= 3 bound each row's error and hand a row to eigvalsh when that bound
# exceeds a quarter of the screen's error, SCREEN_MARGIN / 8 * d * scale per
# eigenvalue (nearly repeated eigenvalues).  On unit-trace ensembles the margin
# stays far below EIGEN_TOL = 1e-10.
SCREEN_MARGIN = 1e-12

# Two arrangement circles whose unit normals are closer than this in angle
# are one circle: their crossing points would be rounding noise.
_PARALLEL = 1e-13

# Up to M = 7 sweeping all M! numberings is faster than building the
# arrangement: about 0.1 ms against 0.9 ms at M = 6, and 0.7-0.9 ms against
# 1.0-1.4 ms at M = 7 (random and polygon layouts, BENCH_6.json).
_ENUMERATED = 7


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


def _in_order(rows: np.ndarray, order: tuple[int, int]) -> np.ndarray:
    """The rows in which the entry order[0] comes before the entry order[1]."""
    return rows[(rows == order[0]).argmax(axis=1) < (rows == order[1]).argmax(axis=1)]


@functools.lru_cache(maxsize=None)
def _permutation_table(k: int, order: tuple[int, int] | None = None) -> np.ndarray:
    """All permutations of range(k) in lexicographic order, as a read-only int8
    table; with ``order``, only the rows that :func:`_in_order` keeps."""
    if order is not None:
        table = _in_order(_permutation_table(k), order)
        table.setflags(write=False)
        return table
    table = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, k + 1):
        # rows led by each first entry in turn, then the shorter table relabelled around it
        firsts = np.repeat(np.arange(size, dtype=np.int8), len(table))[:, None]
        rests = np.tile(table, (size, 1))
        table = np.hstack([firsts, rests + (rests >= firsts)])
    table.setflags(write=False)
    return table


def numbering_blocks(m: int, order: tuple[int, int] | None = None):
    """Every permutation of range(m), in ``itertools.permutations`` order, in blocks.

    Each block is an integer array with one permutation per row: those that
    share their first m - 8 entries.  With ``order``, each block keeps only
    the rows that :func:`_in_order` keeps, and blocks left empty are skipped:
    a prefix that places order[0] first keeps every row, one that places
    order[1] first keeps none, and otherwise the tails are the cached ordered
    table of the two entries' places among the remaining ones.  When m <= 8
    the one block is a cached read-only table.
    """
    tail = min(m, _TABLE_POSITIONS)
    table = _permutation_table(tail)
    if m == tail:
        yield table if order is None else _permutation_table(m, order)
        return
    for prefix in itertools.permutations(range(m), m - tail):
        rest = np.array([x for x in range(m) if x not in prefix])
        rows = table
        if order is not None:
            first, second = (prefix.index(t) if t in prefix else m for t in order)
            if second < first:
                continue
            if first == m:  # neither is placed yet: t is entry t - #{x in prefix: x < t} of rest
                places = tuple(t - sum(x < t for x in prefix) for t in order)
                rows = _permutation_table(tail, places)
        block = np.empty((len(rows), m), dtype=np.intp)
        block[:, : m - tail] = prefix
        block[:, m - tail :] = rest[rows]
        yield block


def _scores(g: np.ndarray, bloch: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|w(n)|^2 for each row of 0-based numberings, w(n) = W @ bloch with
    row n of W holding g(t) at column n(t)."""
    weights = np.empty(rows.shape)
    np.put_along_axis(weights, rows, g[None, :], axis=1)
    w = weights @ bloch
    return np.einsum("kx,kx->k", w, w)


def _sorted_matchings(g: np.ndarray, bloch: np.ndarray) -> np.ndarray:
    """The identity, and the sorted matching of g against (r . v_i) for r on
    both sides of the midpoint of every arc of the great-circle arrangement.

    Circle a is the plane (v_i - v_j) . r = 0 of one pair of distinct Bloch
    vectors; normals closer than _PARALLEL in angle make one circle.  Each
    midpoint m is stepped by +-delta n_a, delta half its distance to every
    other circle, and -r gives the reversed matching.
    """
    m = len(g)
    identity = np.arange(m)[None, :]
    i, j = np.triu_indices(m, 1)
    normals = bloch[i] - bloch[j]
    lengths = np.linalg.norm(normals, axis=1)
    normals = normals[lengths > 0] / lengths[lengths > 0, None]
    if not len(normals):
        return identity
    # (e1, e2) spans each circle; crossings are measured by angle mod pi, as
    # the crossing points of two circles are antipodal
    e1 = np.cross(normals, np.eye(3)[np.argmin(np.abs(normals), axis=1)])
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(normals, e1)
    crossings = np.cross(normals[:, None, :], normals[None, :, :])
    apart = np.linalg.norm(crossings, axis=2) > _PARALLEL
    angles = np.arctan2(
        (crossings * e2[:, None, :]).sum(axis=2), (crossings * e1[:, None, :]).sum(axis=2)
    )
    angles = np.sort(np.where(apart, angles % np.pi, 0.0), axis=1)
    mids = (angles + np.concatenate([angles[:, 1:], angles[:, :1] + np.pi], axis=1)) / 2
    points = np.cos(mids)[:, :, None] * e1[:, None, :] + np.sin(mids)[:, :, None] * e2[:, None, :]
    distances = np.where(apart[:, None, :], np.abs(points @ normals.T), np.inf)
    steps = (np.minimum(distances.min(axis=2), 1.0) / 2)[:, :, None] * normals[:, None, :]
    directions = np.concatenate([points + steps, points - steps]).reshape(-1, 3)
    order = np.argsort(directions @ bloch.T, axis=1)
    matchings = np.empty((2, len(order), m), dtype=np.intp)
    matchings[:, :, np.argsort(g, kind="stable")] = order, order[:, ::-1]
    return np.concatenate([identity, matchings.reshape(-1, m)])


def _keys(rows: np.ndarray) -> np.ndarray:
    """One bytes key per row; keys sort as the rows do lexicographically."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(f"V{rows.shape[1]}").ravel()


def _closure(
    g: np.ndarray, bloch: np.ndarray, rows: np.ndarray, window: float
) -> np.ndarray | None:
    """The rows screened within window of the top, closed under swaps of two
    entries that keep the screen within window, as one lexicographically
    sorted block; None once the closure would screen more rows than M!."""
    m = len(g)
    first, second = np.triu_indices(m, 1)
    swaps = np.arange(len(first))
    chunk = max(1, math.factorial(_TABLE_POSITIONS) // len(swaps))
    scores = _scores(g, bloch, rows)
    top = float(scores.max())
    seen = frontier = np.unique(_keys(rows[scores >= top - window]))
    while len(frontier):
        if len(seen) * len(swaps) > math.factorial(m):
            return None
        found = []
        for start in range(0, len(frontier), chunk):
            base = frontier[start : start + chunk].view(np.uint8).reshape(-1, m).astype(np.intp)
            near = np.repeat(base[:, None, :], len(swaps), axis=1)
            near[:, swaps, first] = base[:, second]
            near[:, swaps, second] = base[:, first]
            near = near.reshape(-1, m)
            scores = _scores(g, bloch, near)
            top = max(top, float(scores.max()))
            found.append(near[scores >= top - window])
        frontier = np.setdiff1d(_keys(np.concatenate(found)), seen)
        seen = np.union1d(seen, frontier)
    return seen.view(np.uint8).reshape(-1, m).astype(np.intp)


def cost_gram(c: CostFunction) -> np.ndarray:
    """Rank-1 Gram matrix G_ij = (gamma(i) - mean)(gamma(j) - mean); refused
    when the objective's sums could overflow."""
    centered = np.asarray(c.values) - c.mean
    with np.errstate(over="ignore"):
        spread = float(np.abs(centered).sum())
    if not math.isfinite(spread * spread):
        raise ValueError(
            "cost values are too large for the qubit solver: "
            "(sum |gamma - mean|)^2 is not a finite double"
        )
    return np.outer(centered, centered)


def _grams(c: CostFunction, bloch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`cost_gram`, ``bloch`` as an (M, 3) float array and its Gram.  Other
    shapes of ``bloch``, such as the M x M Bloch Gram, are refused; the 3 x 3
    Gram cannot be told from three Bloch vectors."""
    cost = cost_gram(c)
    bloch = np.asarray(bloch, dtype=float)
    if bloch.shape != (c.size, 3):
        raise ValueError(f"expected {c.size} Bloch vectors of 3 entries, got shape {bloch.shape}")
    return cost, bloch, bloch @ bloch.T


def _objective(cost: np.ndarray, gram: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_{t,t'} cost[t, t'] gram[n(t), n(t')] for each row n of 0-based numberings."""
    return np.einsum("ts,kts->k", cost, gram[rows[:, :, None], rows[:, None, :]])


def screened_max(blocks, screen, exact, window: float) -> tuple[Numbering, float]:
    """The largest exact value over every row of ``blocks``, and the
    lexicographically smallest row among equal exact values, as a 1-based numbering.

    ``blocks`` yields arrays of 0-based numberings, one per row; empty blocks
    are skipped.  ``screen(block)`` scores each row cheaply.  Rows screened
    within ``window`` of the running maximum go to ``exact(rows)``, which
    returns the rows it evaluated (it may add others, such as partners of
    equal value) and their exact values.  When every screened score lies
    within window / 2 of the exact value, the result equals the exact values
    of all rows reduced the same way.
    """
    best_value = running = -math.inf
    best = None
    for block in blocks:
        if not len(block):
            continue
        scores = screen(block)
        running = max(running, float(scores.max()))
        rows = block[scores >= running - window]
        if not len(rows):
            continue
        rows, values = exact(rows)
        top = float(values.max())
        row = min(rows[values == top].tolist())
        if top > best_value or (top == best_value and row < best):
            best_value, best = top, row
    return tuple(int(x) + 1 for x in best), best_value


def arrangement_solve(
    c: CostFunction, bloch: np.ndarray, cap: int = DEFAULT_FACTORIAL_CAP
) -> tuple[Numbering, float]:
    """Maximize the qubit objective |w(n)|^2, w(n) = sum_t g(t) v(n(t)), exactly.

    ``bloch`` stacks the Bloch vectors v_i (see :func:`_grams`), and g = gamma - mean.
    The result equals the exhaustive exact sweep over all M! numberings: the largest
    value of sum_{t,t'} cost_gram[t, t'] bloch_gram[n(t), n(t')] as
    :func:`_objective` computes it, and the lexicographically smallest
    numbering among equal computed values (:func:`screened_max`).
    Numberings that tie in exact arithmetic, such as n and n o sigma under a
    balanced cost, are usually separated by rounding, not by that order.

    The candidates are :func:`_sorted_matchings`, about 4 K^2 rows for the
    K = M(M - 1)/2 circles, or all M! numberings up to M = _ENUMERATED,
    where that sweep is the faster.  Those screened within window =
    SCREEN_MARGIN * Tr(cost_gram) * Tr(bloch_gram) of the top are closed
    under swaps (:func:`_closure`) and evaluated with the exact formula.
    Both Grams are PSD, so their traces are their nuclear norms and bound
    |objective|; the screen and the exact formula each err by far less than
    a quarter of the window.  When the closure would screen more rows than M!, every
    numbering is swept instead, and FactorialCapError refuses that sweep
    above ``cap``.  Costs or Bloch vectors that are all zero make every
    value 0, and the identity is returned.

    Soundness.  |w|^2 is convex, so its maximum over the convex hull P of
    the w(n) is at a vertex.  The vertex maximizing r . w is w of the sorted
    matching of g against (r . v_i) for any r inside one cell of the
    arrangement of the circles (v_i - v_j) . r = 0, and every numbering
    mapped to that vertex is such a matching; they differ by swaps of equal
    costs or identical Bloch vectors, which leave w unchanged.  Every cell
    has an edge, an arc of one circle between two crossings.  A point
    stepped off the arc's midpoint by less than its distance to every other
    circle lies inside one of the two cells beside the arc (with a single
    circle, a hemisphere), so the candidates reach every vertex of P.
    Rounding decides among exactly tied numberings.  Numberings within
    rounding of the maximum that no candidate reaches (nearly equal costs or
    states, thin cells between circles closer than _PARALLEL) differ from a
    candidate by swaps that each stay within the window.  For thin cells:
    if n* is the maximum, w* = w(n*), and swapping its states i, j at
    positions s, t moves w by D = (g_s - g_t)(v_j - v_i), then
    |w* + D|^2 <= |w*|^2 puts r = w*/|w*| at least
    |g_s - g_t| |v_i - v_j| / (2 |w*|) in angle from the circle of (i, j).
    So a cell narrower than _PARALLEL holds the maximum only if a swap has
    |D| < 2 _PARALLEL |w*|, which moves the value by about _PARALLEL^2
    |w*|^2, and |w*|^2 <= Tr(cost_gram) Tr(bloch_gram) keeps that far inside
    the window.  So the closure holds every numbering whose computed value
    can be the largest.  The floating-point part is argued, not proved; the
    tests compare the solver with the exhaustive sweep on degenerate layouts.
    """
    g = np.asarray(c.values) - c.mean
    cost, bloch, gram = _grams(c, bloch)
    m = len(g)
    window = SCREEN_MARGIN * float(np.trace(cost)) * float(np.trace(gram))
    if window == 0:
        blocks = [np.arange(m)[None, :]]
    else:
        closed = None
        if m > _ENUMERATED:
            closed = _closure(g, bloch, _sorted_matchings(g, bloch), window)
        if closed is None and m > cap:
            raise FactorialCapError(
                f"M = {m} exceeds the exhaustive-search cap {cap} ({m}! numberings) "
                "and the near-tied numberings outnumber a sweep"
            )
        blocks = numbering_blocks(m) if closed is None else [closed]
    return screened_max(
        blocks,
        lambda block: _scores(g, bloch, block),
        lambda rows: (rows, _objective(cost, gram, rows)),
        window,
    )


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
    # every entry against the head of its diagonal: mat[0, k] above, mat[k, 0] below
    offset = np.subtract.outer(np.arange(m), np.arange(m))
    heads = mat[np.maximum(offset, 0), np.maximum(-offset, 0)]
    toeplitz = float(np.max(np.abs(mat - heads))) <= tol

    column = mat[:, 0]
    half = m // 2
    drops = np.flatnonzero(column[2 : half + 1] < column[1:half] - tol) + 1
    crossings = np.flatnonzero(column[::-1][:half] < column[1 : half + 1] - tol) + 1
    failing = [int(steps[0]) for steps in (drops, crossings) if len(steps)]
    return BenevolenceReport(
        is_symmetric_toeplitz=bool(symmetric and toeplitz),
        property1_ok=not len(drops),
        property2_ok=not len(crossings),
        failing_index=failing[0] if failing else None,
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
    c: CostFunction, bloch: np.ndarray, cap: int = DEFAULT_FACTORIAL_CAP
) -> tuple[Numbering, float] | None:
    """Closed-form maximum of |w(n)|^2 for benevolent instances.

    ``bloch`` stacks the Bloch vectors v_i, as in :func:`arrangement_solve`.
    Returns the optimal numbering sigma_2 o zigzag o sigma_1^-1 and its
    objective, or None when no relabeling sigma_2 making -bloch_gram
    benevolent within BENEVOLENCE_TOL was found.  Requires a balanced cost;
    :func:`cost_gram` refuses an overflowing one before the search.
    """
    if not c.is_balanced:
        raise ValueError("benevolent_solve requires a balanced cost function")
    cost, bloch, gram = _grams(c, bloch)
    sigma2 = find_benevolent_permutation(-gram, cap=cap)
    if sigma2 is None:
        return None
    n_star = compose(sigma2, compose(zigzag_numbering(c.size), invert(c.sorting_permutation)))
    rows = np.asarray([n_star], dtype=np.intp) - 1
    return n_star, float(_objective(cost, gram, rows)[0])
