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

Neither solver takes the enumeration cap: the routes of ``engine.solve`` read it.

The split enumeration (:func:`_split`) scores every numbering from the
sums over a head and a tail of its positions, by one batched product over
the splits of the labels (meet in the middle: Horowitz and Sahni, J. ACM
21:277, 1974).  It is the one enumeration of the numberings: three sweeps
share its blocks (:func:`_split_blocks`), head and tail sums
(:func:`_split_sums`) and the decoding of its flat indices
(:func:`_split_rows`): this solver's :func:`_split_max`, the trace-norm
sweep ``engine.tracenorm_argmax`` and the condition sweep
``engine.condition_check``.  Beside the split's tables, cached as they are,
the mirror tables (:func:`_mirror_tables`) mark in each block the rows n
with n(0) < n(M - 1), one of each pair {n, n reversed}: the trace-norm
sweep screens only those, so its layout stays here.
:func:`_screened_max` reduces a sweep's blocks: ``screen(block, running)``
may give any score below running - window to a row it can show lies there.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .costs import CostFunction, Numbering, _exponent, _mean, _require_balanced, compose, invert
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

# A step of delta off an arc keeps r at least delta from every circle, so it
# moves each r . (v_i - v_j) at least delta |v_i - v_j| from 0.  Where the
# lower bound on the distances would leave that below this, several hundred
# times the rounding of the projections at unit scale, an arc takes its exact
# distances to the circles instead.
_RESOLVED = 2.0**-40

# The unit axes: a circle's first direction e1 is its normal crossed with the
# axis least aligned with it.
_AXES = np.eye(3)
_AXES.setflags(write=False)

# Up to M = 8 the split sweep of all M! numberings is faster than building
# the arrangement, above it slower.  In process on a 2-vCPU shared host, BLAS
# on one thread, each call after summing a fresh 16 MB array as the
# benchmark's gauge does (median of 15 alternating calls, perfbench's
# instances at seeds 1-3, the same answers from both), the sweep took
# 0.36-0.45 / 0.16-0.21 / 2.01-2.47 ms and the arrangement 0.74-1.13 /
# 0.39-0.59 / 0.86-1.57 ms on qubit_exact's four M = 8 instances / the
# trine, SIC and MUB (M = 3, 4, 6) / qubit_exact's two M = 9 instances.
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


@functools.lru_cache(maxsize=None)
def _pairs(m: int) -> np.ndarray:
    """np.triu_indices(m, 1), cached read-only: it runs as Python code, dear on a cold call."""
    pair = np.array(np.triu_indices(m, 1))
    pair.setflags(write=False)
    return pair


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of (N, 3) rows, bit for bit, without its Python code, dear on a cold call."""
    return a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1) of real rows, by numpy's own formula."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _scores(g: np.ndarray, bloch: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|w(n)|^2 for each row of 0-based numberings, w(n) = W @ bloch with
    row n of W holding g(t) at column n(t)."""
    # filling W by index beats gathering bloch[rows]: 2.8 vs 7.5-12 ms, 40,320 rows, M = 10, 2 vCPUs
    weights = np.empty(rows.shape)
    weights[np.arange(len(rows))[:, None], rows] = g
    w = weights @ bloch
    return np.einsum("kx,kx->k", w, w)


def _sorted_matchings(g: np.ndarray, bloch: np.ndarray) -> np.ndarray:
    """The identity, then each distinct sorted matching of g against (r .
    v_i) for r on both sides of the midpoint of every arc of the
    great-circle arrangement.

    Circle a is the plane (v_i - v_j) . r = 0 of one pair of distinct Bloch
    vectors; normals closer than _PARALLEL in angle make one circle.  Arcs
    shorter than _PARALLEL are skipped: they are the zero-length arcs at
    triple points and at the common crossing of coplanar layouts, whose
    midpoints sit on a crossing.  Each other midpoint p is stepped by +-delta
    n_a, delta half a lower bound on its distance to every other circle b:
    b crosses circle a outside the open arc, so p lies at least |n_a x n_b|
    sin(gap / 2) from it, gap the arc's length.  Where that bound leaves some
    r . (v_i - v_j) below _RESOLVED, the arc's exact distances to the
    circles, one K-vector, are taken instead; delta is at most 1/2.  -r gives
    the reversed matching.

    Work and memory grow as K^2 for the K = M(M - 1)/2 circles: two K x K
    products give every crossing, and the directions are sorted a chunk of
    about 8! / K arcs at a time into integer keys of a word or two
    (:func:`_order_keys`), made distinct once at the end.  Every cell is
    reached from each of its edges, so the K(K - 1) + 2 cells of K circles
    in general position, and fewer where circles meet three at a time (as
    those of (i, j), (j, k) and (i, k) always do), are far fewer than the
    arcs: at M = 9, 1,095 rows from the 4,176 orders of a random layout's
    arc sides and their reversals, and 19 from the 284 of a 9-gon.
    """
    m = len(g)
    identity = np.arange(m)[None, :]
    i, j = _pairs(m)
    normals = bloch[i] - bloch[j]
    lengths = _row_norms(normals)
    normals = normals[lengths > 0] / lengths[lengths > 0, None]
    if not len(normals):
        return identity
    # with n_b = x e1 + y e2 + z n_a, circle b crosses circle a at the angle
    # atan2(x, -y), mod pi as the two crossing points are antipodal, and
    # |n_a x n_b| = hypot(x, y)
    e1 = _cross(normals, _AXES[np.abs(normals).argmin(axis=1)])
    e1 /= _row_norms(e1)[:, None]
    e2 = _cross(normals, e1)
    x, y = e1 @ normals.T, e2 @ normals.T
    sines = np.hypot(x, y)
    apart = sines > _PARALLEL
    angles = np.where(apart, np.arctan2(x, -y) % np.pi, 0.0)
    angles.sort(axis=1)
    gaps = np.concatenate([angles[:, 1:], angles[:, :1] + np.pi], axis=1) - angles
    circle, arc = (gaps >= _PARALLEL).nonzero()
    halves = gaps[circle, arc] / 2
    mids = angles[circle, arc] + halves
    bounds = np.minimum.reduce(np.where(apart, sines, 1.0), axis=1)[circle] * np.sin(halves)
    floor = 2 * _RESOLVED / np.minimum.reduce(lengths[lengths > 0])
    size = max(1, math.factorial(_TABLE_POSITIONS) // max(len(normals), m))
    keys = []
    for start in range(0, len(circle), size):
        a, mid = circle[start : start + size], mids[start : start + size, None]
        points = np.cos(mid) * e1[a] + np.sin(mid) * e2[a]
        bound = bounds[start : start + size].copy()
        low = bound < floor
        if np.logical_or.reduce(low):
            distances = np.abs(points[low] @ normals.T)
            bound[low] = np.minimum.reduce(np.where(apart[a[low]], distances, np.inf), axis=1)
        steps = (np.minimum(bound, 1.0) / 2)[:, None] * normals[a]
        order = (np.concatenate([points + steps, points - steps]) @ bloch.T).argsort(axis=1)
        keys.append(_order_keys(np.concatenate([order, order[:, ::-1]])))
    orders = _order_rows(_distinct(np.concatenate(keys)), m)
    matchings = np.empty_like(orders)
    matchings[:, g.argsort(kind="stable")] = orders
    return np.concatenate([identity, matchings])


def _digits(m: int) -> int:
    """Base-m digits per int64 word of :func:`_order_keys`: up to 15, as
    M^M overflows one word from M = 16."""
    return next(d for d in range(m, 0, -1) if m**d < 2**63)


def _order_keys(rows: np.ndarray) -> np.ndarray:
    """One row of int64 words per row of labels in range(M), each word a
    number of base-M digits; the keys sort lexicographically as the rows do."""
    m = rows.shape[1]
    digits = _digits(m)
    keys = np.empty((len(rows), -(-m // digits)), dtype=np.int64)
    for word, start in enumerate(range(0, m, digits)):  # one product per word, below 2^63
        block = rows[:, start : start + digits]
        keys[:, word] = block @ m ** np.arange(block.shape[1] - 1, -1, -1, dtype=np.int64)
    return keys


def _order_rows(keys: np.ndarray, m: int) -> np.ndarray:
    """The rows of labels in range(m) whose :func:`_order_keys` are ``keys``."""
    digits = _digits(m)
    rows = np.empty((len(keys), m), dtype=np.intp)
    for word, start in enumerate(range(0, m, digits)):
        block = rows[:, start : start + digits]
        block[:] = keys[:, word, None] // m ** np.arange(block.shape[1] - 1, -1, -1) % m
    return rows


def _distinct(keys: np.ndarray, seen: np.ndarray | None = None) -> np.ndarray:
    """The distinct rows of an (N, W) integer array not in ``seen``, sorted: one stable sort
    puts rows of ``seen`` before their equals, so rows of ``keys`` after unequal rows are new."""
    held, keys = (0, keys) if seen is None else (len(seen), np.concatenate([seen, keys]))
    if held or keys.shape[1] > 1:
        order = np.lexsort(keys.T[::-1])  # stable, and one key is a stable argsort
        keys, fresh = keys[order], order >= held
    else:  # a plain sort of one word is several times faster
        keys, fresh = keys.copy(), np.empty(len(keys), dtype=bool)
        keys.sort(axis=0)
        fresh.fill(True)
    fresh[1:] &= np.logical_or.reduce(keys[1:] != keys[:-1], axis=1)
    return keys[fresh]


def _closure(
    g: np.ndarray, bloch: np.ndarray, rows: np.ndarray, window: float
) -> np.ndarray | None:
    """The rows screened within window of the top, closed under swaps of two entries that
    keep the screen within window (held as :func:`_order_keys`), as one lexicographically
    sorted block; None once the closure would screen more rows than M!."""
    m = len(g)
    first, second = _pairs(m)
    swaps = np.arange(len(first))
    chunk = max(1, math.factorial(_TABLE_POSITIONS) // len(swaps))
    scores = _scores(g, bloch, rows)
    top = float(np.maximum.reduce(scores))
    seen = frontier = _distinct(_order_keys(rows[scores >= top - window]))
    while len(frontier):
        if len(seen) * len(swaps) > math.factorial(m):
            return None
        found = []
        for start in range(0, len(frontier), chunk):
            base = _order_rows(frontier[start : start + chunk], m)
            near = base[:, None, :].repeat(len(swaps), axis=1)
            near[:, swaps, first] = base[:, second]
            near[:, swaps, second] = base[:, first]
            near = near.reshape(-1, m)
            scores = _scores(g, bloch, near)
            top = max(top, float(np.maximum.reduce(scores)))
            found.append(near[scores >= top - window])
        frontier = _distinct(_order_keys(np.concatenate(found)), seen)
        seen = np.concatenate([seen, frontier])
    return _order_rows(_distinct(seen), m)


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
        running = max(running, float(np.maximum.reduce(scores)))
        rows = block[scores >= running - window]
        if not len(rows):
            continue
        rows, values = exact(rows)
        top = float(np.maximum.reduce(values))
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


def _split_sums(products: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows (2a, |2a|^2, 1) of the head sums a, (C, h!, D + 2), and (b,
    1/4, |b|^2) of the tail sums b, (C, t!, D + 2), of every numbering of
    ``block`` (one of :func:`_split_blocks`), products[t, i] holding the D columns
    of label i at position t, for M >= 2: left[s] @ right[s].T holds |a|^2 +
    |b|^2 + 2 a . b = |a + b|^2 of subset s.  Slot 0 of the head is filled
    once per ordering, so it carries the prefix's sum and the head's
    constant, and slot 0 of the tail the tail's."""
    m, _, columns = products.shape
    heads, head_incidence, tails, tail_incidence, starts = _split(m)
    k, h = min(m, _TABLE_POSITIONS), heads.shape[2]
    start = starts[block[0] // math.factorial(k)]
    local = np.zeros((k, k, columns + 2))  # [position, label] of the rest
    local[:, :, :columns] = products[m - k :, start[m - k :]]
    local[0, :, :columns] += np.add.reduce(products[np.arange(m - k), start[: m - k]], axis=0)
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


@functools.lru_cache(maxsize=None)
def _mirror_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only mirror tables of :func:`_split`'s blocks, M >= 2, and the
    row of each prefix.  Row r marks the flat indices of a block whose
    numbering n has n(0) < n(M - 1).  Up to M = 8 there is one block and
    one row: the head's first label below the tail's last.  Above it n(0)
    starts the prefix and the rest of the labels fill the last 8 positions
    in ascending order, so n(0) < n(M - 1) when the tail's last slot is at
    least r, the number of the rest below n(0): row r for r = 0..8."""
    heads, _, tails, _, starts = _split(m)
    k = min(m, _TABLE_POSITIONS)
    last = tails[:, None, :, -1]  # (C, 1, t!), broadcast over the heads
    if m == k:
        tables, rows = (heads[:, :, None, 0] < last)[None], np.zeros(1, dtype=np.intp)
    else:
        tables = (last >= np.arange(k + 1)[:, None, None, None]).repeat(heads.shape[1], axis=2)
        rows = np.add.reduce(starts[:, m - k :] < starts[:, :1], axis=1)
    tables = tables.reshape(len(tables), -1)
    tables.setflags(write=False)
    return tables, rows


def _split_mirror(m: int, block: np.ndarray) -> np.ndarray:
    """Which rows of ``block`` (one of :func:`_split_blocks`) hold a numbering n
    with n(0) < n(M - 1), M >= 2: one of each pair {n, n reversed}, as a
    read-only row of :func:`_mirror_tables`."""
    tables, rows = _mirror_tables(m)
    return tables[rows[block[0] // tables.shape[1]]]


def _split_blocks(m: int, skip: int | None = None):
    """The blocks of :func:`_split`'s flat indices, one per prefix, less those
    whose prefix starts with label ``skip`` (none up to M = 8: no prefix)."""
    starts = _split(m)[4]
    size = math.factorial(min(m, _TABLE_POSITIONS))
    kept = range(len(starts))
    if skip is not None and m > _TABLE_POSITIONS:
        kept = (starts[:, 0] != skip).nonzero()[0]
    return (np.arange(i * size, (i + 1) * size) for i in kept)


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

    def screen(block, running):
        left, right = _split_sums(products, block)
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

    Above that the candidates are :func:`_sorted_matchings`, one sorted
    matching per cell of the arrangement of the K = M(M - 1)/2 circles,
    about K^2 of them, found in time and memory that grow as K^2: a solve
    peaks near 3.4 MB under tracemalloc at M = 14 and 21 MB at M = 20.
    Those screened within the window of the top are closed under swaps
    (:func:`_closure`) and evaluated with the exact formula.  Both Grams are
    PSD, so their traces are their nuclear norms and bound |objective|; the
    screen and the exact formula each err by far less than a quarter of the
    window.  When the closure would screen more rows than M!, :func:`_split_max`
    scores every numbering instead, at any M, one block per prefix of the first
    M - 8 positions.  The closure hands over holding more than M! / K keys of W
    int64 words, above the sweep's 8 M M! / 8! bytes of prefixes for M <= 96.

    Soundness.  |w|^2 is convex, so its maximum over the convex hull P of
    the w(n) is at a vertex.  The vertex maximizing r . w is w of the sorted
    matching of g against (r . v_i) for any r inside one cell of the
    arrangement of the circles (v_i - v_j) . r = 0, and every numbering
    mapped to that vertex is such a matching; they differ by swaps of equal
    costs or identical Bloch vectors, which leave w unchanged.  Every cell
    has an edge, an arc of circle a between two crossings.  A point stepped
    off the arc's midpoint p along n_a by less than p's distance to every
    other circle b lies inside one of the two cells beside the arc (with a
    single circle, a hemisphere).  With p at angle t on circle a and b
    crossing it at angle t_b, p . n_b = |n_a x n_b| sin(t_b - t); t_b lies
    outside the open arc of length gap, so t_b - t is at least gap / 2 from
    every multiple of pi, and that distance is at least |n_a x n_b| sin(gap
    / 2).  Half its smallest value over b is a step that stays inside.
    Where that step would move some r . (v_i - v_j) less than _RESOLVED
    from 0, so that rounding could pick the side, the arc's exact distances
    set the step.  So the candidates reach every vertex of P.  Rounding
    decides among exactly tied numberings.  Numberings within rounding of
    the maximum that no candidate reaches (nearly equal costs or states,
    thin cells between circles closer than _PARALLEL, and cells whose every
    edge is shorter than _PARALLEL, from which no step is taken) differ from
    a candidate by swaps that each stay within the window.  For thin cells:
    if n* is the maximum, w* = w(n*), and swapping its states i, j at
    positions s, t moves w by D = (g_s - g_t)(v_j - v_i), then
    |w* + D|^2 <= |w*|^2 puts r = w*/|w*| at least
    |g_s - g_t| |v_i - v_j| / (2 |w*|) in angle from the circle of (i, j).
    So a cell narrower than _PARALLEL holds the maximum only if a swap has
    |D| < 2 _PARALLEL |w*|, which moves the value by about _PARALLEL^2
    |w*|^2, and |w*|^2 <= Tr(cost_gram) Tr(bloch_gram) keeps that far inside
    the window.  A cell whose every edge is shorter than _PARALLEL, such as
    the one rounding opens where three circles meet, lies on one side of
    each circle, so it has at most K edges and lies within K _PARALLEL / 2
    of each of its circles: the same argument holds at that width, still far
    inside the window.  So the closure holds every numbering whose computed
    value can be the largest.  The floating-point part is argued, not
    proved; the tests compare the solver with the exhaustive sweep on
    degenerate layouts, and count the candidates of layouts in general
    position against the cells of their arrangement.
    """
    g, bloch, scale = _checked(c, bloch)
    cost, gram = g[:, None] * g, bloch @ bloch.T
    m = len(g)
    window = SCREEN_MARGIN * float(cost.trace()) * float(gram.trace())
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


@functools.lru_cache(maxsize=None)
def _diagonal_heads(m: int) -> np.ndarray:
    """The read-only index pair that sends each entry of an M x M matrix to the
    head of its diagonal: [0, k] above the diagonal, [k, 0] below."""
    offset = np.subtract.outer(np.arange(m), np.arange(m))
    pair = np.stack([np.maximum(offset, 0), np.maximum(-offset, 0)])
    pair.setflags(write=False)
    return pair


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

    symmetric = float(np.maximum.reduce(np.abs(mat - mat.T), axis=None)) <= tol
    heads = mat[tuple(_diagonal_heads(m))]
    toeplitz = float(np.maximum.reduce(np.abs(mat - heads), axis=None)) <= tol

    column = mat[:, 0]
    half = m // 2
    drops = (column[2 : half + 1] < column[1:half] - tol).nonzero()[0] + 1
    crossings = (column[::-1][:half] < column[1 : half + 1] - tol).nonzero()[0] + 1
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
    position = np.arange(1, m + 1)
    inverse = np.where(position <= (m + 1) // 2, 2 * position - 1, 2 * (m + 1 - position))
    return tuple((inverse.argsort() + 1).tolist())


def _conjugate(a: np.ndarray, sigma: Numbering) -> np.ndarray:
    idx = np.asarray(sigma, dtype=np.intp) - 1
    return a[idx[:, None], idx]


def _cyclic_search(mat: np.ndarray, labels: list[int], tol: float) -> Numbering | None:
    """The first rotation (``labels`` first) or reflection of the cycle ``labels`` that makes
    ``mat`` benevolent, or None; these cover every vertex-transitive family of that cycle."""
    m = len(labels)
    for step, shift in itertools.product((1, -1), range(m)):
        sigma = tuple(labels[(shift + step * i) % m] for i in range(m))
        if is_benevolent(_conjugate(mat, sigma), tol).is_benevolent:
            return sigma
    return None


def _azimuthal_order(gram: np.ndarray) -> list[int]:
    """The labels sorted by the angle of their two leading principal coordinates in ``gram``."""
    v = np.linalg.eigh(gram)[1]
    return [int(i) + 1 for i in np.arctan2(v[:, -2], v[:, -1]).argsort(kind="stable")]


def find_benevolent_permutation(a, tol: float = BENEVOLENCE_TOL) -> Numbering | None:
    """Find sigma such that A[sigma(i), sigma(j)] is benevolent, or None.

    A is judged divided by 2^k, the smallest power of two above max |A|
    (``costs._exponent``), so ``tol`` is relative.  The rotations and reflections of
    three orders are tried, at every M: the given labels; the labels sorted by the
    angle of their two leading principal coordinates (eigenvectors of -A); and, only
    if those fail, that order on the doubly centred -A.  For A the negated Gram of
    vectors v_i, as every caller passes, a Toeplitz relabeling makes v_k -> v_(k+1)
    an isometry: the layout is one orbit of an orthogonal map, Property 1 keeps its
    turn within one revolution, and its centred principal angles order it
    cyclically.  The argument is exact and the search decides within ``tol``; it
    fails for other matrices (scrambled integer Toeplitz ones can be missed).
    """
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    mat = np.ldexp(mat, -_exponent(mat))
    sigma = _cyclic_search(mat, list(range(1, mat.shape[0] + 1)), tol)
    # Conjugation cannot repair asymmetry (or NaN), so a relabeling is hopeless.
    if sigma is not None or not float(np.maximum.reduce(np.abs(mat - mat.T), axis=None)) <= tol:
        return sigma
    sigma = _cyclic_search(mat, _azimuthal_order(-mat), tol)
    if sigma is None:  # the centred Gram J (-A) J, J = I - 1 1^T / M
        means = np.add.reduce(mat, axis=0) / len(mat)
        centred = means + means[:, None] - _mean(means) - mat
        sigma = _cyclic_search(mat, _azimuthal_order(centred), tol)
    return sigma


def benevolent_solve(c: CostFunction, bloch: np.ndarray) -> tuple[Numbering, float] | None:
    """Closed-form maximum of |w(n)|^2 for benevolent instances.

    ``bloch`` stacks the Bloch vectors v_i, as in :func:`arrangement_solve`.
    Returns the optimal numbering sigma_2 o zigzag o sigma_1^-1 and its
    objective, or None when :func:`find_benevolent_permutation` finds no
    relabeling sigma_2 making -bloch_gram benevolent within BENEVOLENCE_TOL
    of its scale.
    Requires a balanced cost.  The objective is taken at unit scale, as in
    :func:`arrangement_solve`, and is inf beyond the doubles.
    """
    _require_balanced(c)
    g, v, scale = _checked(c, bloch)
    n_star = _benevolent_numbering(c, bloch)
    if n_star is None:
        return None
    rows = np.asarray([n_star], dtype=np.intp) - 1
    with np.errstate(over="ignore"):
        return n_star, float(np.ldexp(_objective(g[:, None] * g, v @ v.T, rows)[0], scale))


def _benevolent_numbering(c: CostFunction, bloch) -> Numbering | None:
    """The numbering of :func:`benevolent_solve`, without its objective."""
    bloch = np.asarray(bloch, dtype=float)
    sigma2 = find_benevolent_permutation(-(bloch @ bloch.T))
    if sigma2 is None:
        return None
    return compose(sigma2, compose(zigzag_numbering(c.size), invert(c.sorting_permutation)))
