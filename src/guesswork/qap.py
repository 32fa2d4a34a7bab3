"""Uniform-prior qubit solvers: an exact polynomial solver and the paper's closed form.

The qubit guesswork problem reduces to maximizing |w(n)|^2 over all
numberings n, with w(n) = sum_t (gamma(t) - mean) v(n(t)) and v the Bloch
vectors; as a double sum it is sum_{t,t'} cost_gram[t, t'] bloch_gram[n(t),
n(t')] with the rank-1 cost_gram = g g^T, g = gamma - mean.  Two solvers are provided:

* :func:`arrangement_solve` — exact: up to M = 8 a sweep, above it the sorted
  matchings of the cells of the great-circle arrangement of the Bloch
  vectors, closed under near-tied swaps, in polynomial time; its answer equals
  the exhaustive sweep's (equal computed values resolve lexicographically).
  It alone decides solves up to the cap.
* :func:`benevolent_solve` — the paper's closed form, when -bloch_gram is
  permutationally equivalent to a *benevolent* matrix: symmetric Toeplitz
  with a first column whose tail is non-decreasing up to the midpoint
  (Property 1) and dominated by its mirrored tail (Property 2).  Paired with
  the rank-1 (monotone anti-Monge) cost Gram, such instances are maximized
  by the zig-zag numbering, conjugated back through the sorting and
  relabeling permutations.

Neither solver takes the enumeration cap: the routes of ``engine.solve``
read it, and so does the exhaustive relabeling search of
:func:`find_benevolent_permutation`, which ``check`` runs up to the cap.

The split enumeration (:func:`_split`) scores every numbering from the
sums over a head and a tail of its positions, by one batched product over
the splits of the labels (meet in the middle: Horowitz and Sahni, J. ACM
21:277, 1974).  Two sweeps share its head and tail sums
(:func:`_split_sums`) and the decoding of its flat indices
(:func:`_split_rows`): this solver's :func:`_split_max`, and the
trace-norm sweep ``engine.tracenorm_argmax``.
:func:`_screened_max` reduces a sweep's blocks: ``screen(block, running)``
may give any score below running - window to a row it can show lies there.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .costs import CostFunction, Numbering, _exponent, compose, invert
from .ensembles import Ensemble

DEFAULT_FACTORIAL_CAP = 10
BENEVOLENCE_TOL = 1e-10

# A sweep's block holds the numberings that share one prefix of the first
# M - 8 positions: 8! = 40320 rows per block, and as many swapped rows per
# chunk of the closure, bound the sweeps' memory.
_TABLE_POSITIONS = 8

# The sweeps score every numbering with a cheap screen and recompute the exact
# formula only where the screen comes within SCREEN_MARGIN * scale of a
# decision, scale bounding the magnitude of the scored quantity.  Double
# rounding in sums of M <= 16 terms and in eigvalsh of d <= 16 matrices stays
# below 1e-14 * scale, far inside the margin.  On unit-trace ensembles the
# margin stays far below EIGEN_TOL = 1e-10.
SCREEN_MARGIN = 1e-12

# Two arrangement circles whose unit normals are closer than this in angle
# are one circle: their crossing points would be rounding noise.
_PARALLEL = 1e-13

# Up to M = 8 the split sweep of all M! numberings is faster than building
# the arrangement: 0.37-0.45 ms against 1.25-1.6 ms at M = 8 (random and
# polygon layouts, identity cost, BENCH_23.json).  At M = 9 neither wins: on
# the M = 9 instances of perfbench's qubit_exact at seeds 1-3 (a polygon and
# a random layout each; in-process, median of 31 alternating calls, BLAS on
# one thread) both gave the same answers, the arrangement in 3.3-3.9 ms and
# the split sweep in 3.2-3.8 ms, each the faster on some instances.  M = 9
# keeps the arrangement, whose work grows polynomially in M, not as M!.
_ENUMERATED = 8


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


@functools.lru_cache(maxsize=None)
def _orderings(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The orderings of each n-subset of range(k) as a read-only (C(k, n), n!,
    n) table, subsets in ``itertools.combinations`` order, and its 0/1
    incidence matrix: row s n! + i is 1 at column p k + l where ordering i of
    subset s puts label l in slot p.  The complements of the n-subsets are
    the (k - n)-subsets in reverse order."""
    table = np.array(
        [list(itertools.permutations(s)) for s in itertools.combinations(range(k), n)],
        dtype=np.intp,
    ).reshape(math.comb(k, n), math.factorial(n), n)
    rows = table.reshape(len(table) * len(table[0]), n)
    incidence = np.zeros((len(rows), n * k))
    incidence[np.arange(len(rows))[:, None], np.arange(n) * k + rows] = 1
    table.setflags(write=False)
    incidence.setflags(write=False)
    return table, incidence


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


def _checked(c: CostFunction, bloch) -> tuple[np.ndarray, np.ndarray, int]:
    """g = gamma - mean and ``bloch`` as an (M, 3) float array at unit scale,
    divided by 2^k and 2^j (``costs._exponent`` of each), and 2 (k + j), the
    exponent that scales |w|^2 back.  Other shapes of ``bloch`` are refused,
    such as the M x M Bloch Gram; the 3 x 3 Gram cannot be told from three
    Bloch vectors."""
    g = np.asarray(c.values) - c.mean
    bloch = np.asarray(bloch, dtype=float)
    if bloch.shape != (c.size, 3):
        raise ValueError(f"expected {c.size} Bloch vectors of 3 entries, got shape {bloch.shape}")
    k, j = _exponent(g), _exponent(bloch)
    return np.ldexp(g, -k), np.ldexp(bloch, -j), 2 * (k + j)


def _objective(cost: np.ndarray, gram: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_{t,t'} cost[t, t'] gram[n(t), n(t')] for each row n of 0-based numberings."""
    return np.einsum("ts,kts->k", cost, gram[rows[:, :, None], rows[:, None, :]])


def _screened_max(blocks, screen, exact, window: float) -> tuple[Numbering, float]:
    """The largest exact value over every row of ``blocks``, and the
    lexicographically smallest row among equal exact values, as a 1-based numbering.

    ``blocks`` yields non-empty arrays of 0-based numberings, one per row.
    ``screen(block, running)`` scores each row cheaply, given
    the running maximum: the largest score of the earlier blocks, -inf before
    the first.  Rows scored within ``window`` of the running maximum, this
    block's scores included, go to ``exact(rows)``, which returns the rows it
    evaluated (it may add others, such as partners of equal value) and their
    exact values.  When every screened score lies within window / 2 of the
    exact value, the result equals the exact values of all rows reduced the
    same way.  Scores and ``window`` may be taken in units of their own,
    such as the exact values times a power of two: scores are compared only
    with each other and the window, exact values only with each other.

    A row scored below running - window, running taken after its block, is
    neither rechecked nor allowed to raise the maximum.  So a screen may give
    any such score to a row it can show lies there, in place of its cheap score.
    """
    best_value = running = -math.inf
    best = None
    for block in blocks:
        scores = screen(block, running)
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


@functools.lru_cache(maxsize=None)
def _split(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The read-only tables of the split enumeration of the numberings of range(m).

    The last k = min(M, 8) positions split into a head of h = floor(k / 2)
    and a tail.  A block holds the numberings that share one prefix of the
    first M - k positions (``starts``: each prefix, then the labels it
    leaves, ascending; prefixes in ``itertools.permutations`` order), as flat
    indices (prefix, subset, head, tail): the rest of the labels fill the
    head with an ordering of one h-subset of them (``heads``, from
    :func:`_orderings`) and the tail with one of its complement's
    (``tails``, row s ordering the complement of heads' subset s).  Returns
    (heads, head incidence, tails, tail incidence, starts); the tail
    incidence keeps the subset order of :func:`_orderings`."""
    k = min(m, _TABLE_POSITIONS)
    heads, head_incidence = _orderings(k, k // 2)
    tails, tail_incidence = _orderings(k, k - k // 2)
    prefixes = itertools.permutations(range(m), m - k)
    starts = np.array([p + tuple(sorted(set(range(m)) - set(p))) for p in prefixes], dtype=np.intp)
    starts.setflags(write=False)
    return heads, head_incidence, tails[::-1], tail_incidence, starts


def _split_sums(products: np.ndarray, index: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows (2a, |2a|^2, 1) of the head sums a, (C, h!, D + 2), and (b,
    1/4, |b|^2) of the tail sums b, (C, t!, D + 2), of every numbering of
    block ``index`` of :func:`_split`, products[t, i] holding the D columns
    of label i at position t, for M >= 2: left[s] @ right[s].T holds |a|^2 +
    |b|^2 + 2 a . b = |a + b|^2 of subset s.  Slot 0 of the head is filled
    once per ordering, so it carries the prefix's sum and the head's
    constant, and slot 0 of the tail the tail's."""
    m, _, columns = products.shape
    heads, head_incidence, tails, tail_incidence, starts = _split(m)
    k, h = min(m, _TABLE_POSITIONS), heads.shape[2]
    start = starts[index]
    local = np.zeros((k, k, columns + 2))  # [position, label] of the rest
    local[:, :, :columns] = products[m - k :, start[m - k :]]
    local[0, :, :columns] += products[np.arange(m - k), start[: m - k]].sum(axis=0)
    local[:h, :, :columns] *= 2
    local[0, :, columns + 1], local[h, :, columns] = 1, 0.25
    left = head_incidence @ local[:h].reshape(-1, columns + 2)
    right = tail_incidence @ local[h:].reshape(-1, columns + 2)
    np.einsum("kx,kx->k", left[:, :columns], left[:, :columns], out=left[:, columns])
    np.einsum("kx,kx->k", right[:, :columns], right[:, :columns], out=right[:, columns + 1])
    return left.reshape(*heads.shape[:2], -1), right.reshape(*tails.shape[:2], -1)[::-1]


def _split_rows(m: int, flat: np.ndarray) -> np.ndarray:
    """The 0-based numberings of range(m) at flat indices of :func:`_split`'s blocks."""
    heads, _, tails, _, starts = _split(m)
    k = min(m, _TABLE_POSITIONS)
    shape = (len(starts), *heads.shape[:2], tails.shape[1])
    index, subset, head, tail = np.unravel_index(flat, shape)
    rows = starts[index]
    slots = np.concatenate([heads[subset, head], tails[subset, tail]], axis=1)
    rows[:, m - k :] = rows[np.arange(len(rows))[:, None], m - k + slots]
    return rows


def _split_blocks(m: int):
    """The blocks of :func:`_split`'s flat indices, one per prefix."""
    size = math.factorial(min(m, _TABLE_POSITIONS))
    return (np.arange(i * size, (i + 1) * size) for i in range(len(_split(m)[4])))


def _split_max(
    g: np.ndarray, bloch: np.ndarray, exact, window: float
) -> tuple[Numbering, float]:
    """:func:`_screened_max` over every numbering, each scored |a + b|^2 from
    the sums a over a head of its positions and b over the tail.

    The blocks are :func:`_split`'s; head sums, the prefix's fixed sum
    included, and tail sums of g(t) v_i come from its incidence products
    (:func:`_split_sums`), and the score from one batched product per
    subset.  ``exact(rows)`` gets the kept indices as
    0-based numberings.  M >= 2 here, as M = 1 has g = 0, so h >= 1."""
    m = len(g)
    products = g[:, None, None] * bloch[None, :, :]  # g(t) v_i at [t, i]
    size = math.factorial(min(m, _TABLE_POSITIONS))

    def screen(block, running):
        left, right = _split_sums(products, block[0] // size)
        return (left @ right.transpose(0, 2, 1)).ravel()

    def rechecked(flat):
        rows = _split_rows(m, flat)
        return rows, exact(rows)

    return _screened_max(_split_blocks(m), screen, rechecked, window)


def arrangement_solve(c: CostFunction, bloch: np.ndarray) -> tuple[Numbering, float]:
    """Maximize the qubit objective |w(n)|^2, w(n) = sum_t g(t) v(n(t)), exactly.

    ``bloch`` stacks the Bloch vectors v_i (see :func:`_checked`), and g = gamma - mean.
    The result equals the exhaustive exact sweep over all M! numberings: the largest
    value of sum_{t,t'} cost_gram[t, t'] bloch_gram[n(t), n(t')] as
    :func:`_objective` computes it, and the lexicographically smallest
    numbering among equal computed values (:func:`_screened_max`).
    Numberings that tie in exact arithmetic, such as n and n o sigma under a
    balanced cost, are usually separated by rounding, not by that order.

    The solver runs on g 2^-k and v 2^-j, 2^k and 2^j the smallest powers of
    two above max |g| and the largest Bloch entry, but at least 2^-1000
    (:func:`_checked`), and scales the value back by 2^(2k + 2j), to inf beyond
    the doubles.  While no scaled entry leaves the normal range, every computed
    value, and so every decision, is exactly the unscaled one times 2^-(2k + 2j).  The
    scaled Grams give window = SCREEN_MARGIN S^2 with S^2 = Tr(cost_gram)
    Tr(bloch_gram) >= 1/16, or >= 2^-300 for inputs below 2^-1001, so tiny
    inputs cannot underflow it, unless g or v is all zero: then every value
    is 0, and the identity is returned.

    Up to M = _ENUMERATED, where that is the faster, every
    numbering is scored by :func:`_split_max`: w = a + b over a head and a
    tail of the positions, |w|^2 = |a|^2 + |b|^2 + 2 a . b.  By Cauchy-Schwarz
    sum_t |g(t)| |v(n(t))| <= S for every n, which bounds |a| + |b| and |w|.
    Products g(t) v_i summed M at a time give a and b within gamma_M S
    together (gamma_n = n u / (1 - n u), u = 2^-53), which moves |a + b|^2 by
    at most 3 gamma_M S^2; the expansion's norms and five-term dot products
    add gamma_8 S^2.  The M^2 terms of :func:`_objective` are at most S^2 in
    sum and err by gamma_(M^2 + 4) S^2.  So a score lies within about (M^2 +
    3 M + 12) u S^2 of the computed exact value, below window / 8 for M <=
    30, past any M whose M! numberings a sweep can visit; an underflow adds
    at most 2^-1075 per operation.

    Above that the candidates are :func:`_sorted_matchings`, about 4 K^2
    rows for the K = M(M - 1)/2 circles.  Those screened within the window
    of the top are closed under swaps (:func:`_closure`) and evaluated with
    the exact formula.  Both Grams are PSD, so their traces are their
    nuclear norms and bound |objective|; the screen and the exact formula
    each err by far less than a quarter of the window.  When the closure
    would screen more rows than M!, :func:`_split_max` scores every
    numbering instead, at any M, one block per prefix of the first M - 8
    positions.  The closure hands over holding more than 2 M! / (M - 1) bytes
    of keys, more than the sweep's 8 M M! / 8! bytes of prefixes for M <= 100.

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
    g, bloch, scale = _checked(c, bloch)
    cost, gram = np.outer(g, g), bloch @ bloch.T
    m = len(g)
    window = SCREEN_MARGIN * float(np.trace(cost)) * float(np.trace(gram))
    exact = functools.partial(_objective, cost, gram)
    closed = np.arange(m)[None, :] if window == 0 else None
    if window and m > _ENUMERATED:
        closed = _closure(g, bloch, _sorted_matchings(g, bloch), window)
    if closed is not None:
        best, value = _screened_max(
            [closed], lambda block, running: _scores(g, bloch, block),
            lambda rows: (rows, exact(rows)), window,
        )
    else:
        best, value = _split_max(g, bloch, exact, window)
    with np.errstate(over="ignore"):
        return best, float(np.ldexp(value, scale))


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


def _cyclic_search(mat: np.ndarray, labels: list[int], tol: float) -> Numbering | None:
    """The first rotation (``labels`` first) or reflection of the cycle ``labels`` that makes
    ``mat`` benevolent, or None; these cover every vertex-transitive family of that cycle."""
    m = len(labels)
    for step, shift in itertools.product((1, -1), range(m)):
        sigma = tuple(labels[(shift + step * i) % m] for i in range(m))
        if is_benevolent(_conjugate(mat, sigma), tol).is_benevolent:
            return sigma
    return None


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
    before the pruned exhaustive search, which only runs for M <= cap.  Above
    it those of the labels sorted by the angle of their two leading principal
    coordinates (eigenvectors of -A) are tried, which finds Bloch layouts
    arranged around one axis, such as polygons and anti-prisms.
    """
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    m = mat.shape[0]
    sigma = _cyclic_search(mat, list(range(1, m + 1)), tol)
    # Conjugation cannot repair asymmetry (or NaN), so a relabeling is hopeless.
    if sigma is not None or not float(np.max(np.abs(mat - mat.T))) <= tol:
        return sigma
    if m <= cap:
        return _toeplitz_search(mat, tol)
    v = np.linalg.eigh(-mat)[1]
    order = np.argsort(np.arctan2(v[:, -2], v[:, -1]), kind="stable")
    return _cyclic_search(mat, [int(i) + 1 for i in order], tol)


def benevolent_solve(c: CostFunction, bloch: np.ndarray) -> tuple[Numbering, float] | None:
    """Closed-form maximum of |w(n)|^2 for benevolent instances.

    ``bloch`` stacks the Bloch vectors v_i, as in :func:`arrangement_solve`.
    Returns the optimal numbering sigma_2 o zigzag o sigma_1^-1 and its
    objective, or None when no relabeling sigma_2 making -bloch_gram
    benevolent within BENEVOLENCE_TOL, on the unscaled Bloch Gram, was found.
    The relabelings tried are the rotations and reflections of the given
    order and of the azimuthal order (:func:`find_benevolent_permutation`
    with cap 0), at every M, with no exhaustive search.
    Requires a balanced cost.  The objective is taken at unit scale, as in
    :func:`arrangement_solve`, and is inf beyond the doubles.
    """
    if not c.is_balanced:
        raise ValueError("benevolent_solve requires a balanced cost function")
    g, v, scale = _checked(c, bloch)
    bloch = np.asarray(bloch, dtype=float)
    sigma2 = find_benevolent_permutation(-(bloch @ bloch.T), cap=0)
    if sigma2 is None:
        return None
    n_star = compose(sigma2, compose(zigzag_numbering(c.size), invert(c.sorting_permutation)))
    rows = np.asarray([n_star], dtype=np.intp) - 1
    with np.errstate(over="ignore"):
        return n_star, float(np.ldexp(_objective(np.outer(g, g), v @ v.T, rows)[0], scale))
