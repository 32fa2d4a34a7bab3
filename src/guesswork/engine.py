"""The guesswork engine.

Minimum guesswork of an ensemble under a balanced cost: effective operators,
the optimal two-outcome measurement built from their spectral projectors, the
sufficient optimality condition, the uniform-prior qubit solver (maximizing
|w(n)|^2 over the Bloch vectors), and a Monte Carlo simulator of the
single-measurement strategy.

The central object is the effective operator

    E(n) = 2 * sum_t (gamma(t) - mean) * rho(n(t))

for a numbering n.  For a balanced cost, E(n o sigma) = -E(n) with sigma the
balancing permutation, and the measurement supported on {n*, n* o sigma} with
elements built from the negative and null projectors of E attains guesswork
mean - ||E(n*)||_1 / 2 whenever |E(n*)| >= E(n) for every numbering n.
:func:`solve` works on the coordinates the states use, so an embedded qubit
ensemble is solved as a qubit ensemble.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .costs import (
    CostFunction,
    Numbering,
    _exponent,
    compose,
    invert,
    require_numbering,
)
from .ensembles import Ensemble, is_uniform_prior, validate
from .errors import NumericalCheckError
from .operators import (
    EIGEN_TOL,
    _hermitian_parts,
    abs_operator,
    pauli_vector,
    require_hermitian,
    spectral_parts,
    trace_norm,
)
from .qap import (
    DEFAULT_FACTORIAL_CAP,
    SCREEN_MARGIN,
    _TABLE_POSITIONS,
    _screened_max,
    _split_blocks,
    _split_rows,
    _split_sums,
    arrangement_solve,
    benevolent_solve,
    zigzag_numbering,
)

ALGEBRAIC_TOL = 1e-12
VALUE_TOL = 1e-10


@dataclass(frozen=True)
class NumberingMeasurement:
    """A measurement whose outcomes are numberings; only nonzero elements stored."""

    dim: int
    elements: dict[Numbering, np.ndarray]

    def validated(self) -> "NumberingMeasurement":
        """Raise unless the elements are PSD and sum to the identity, within EIGEN_TOL.

        Each check runs once over the stacked elements.  An error names the
        first failing element and its first failing check (Hermitian,
        dimension, numbering, PSD); the sum comes last.
        """
        if not self.elements:
            raise ValueError("measurement has no elements")
        numberings, elements = list(self.elements), list(self.elements.values())
        hermitian = _hermitian_parts(elements, self.dim)
        count = len(hermitian)
        low = np.linalg.eigvalsh(hermitian)[:, 0]
        negative = np.flatnonzero(low < -EIGEN_TOL)
        first = int(negative[0]) if len(negative) else count
        size = len(numberings[0])
        for numbering in numberings[:first]:
            require_numbering(numbering, size=size)
        if first < len(elements):
            name = f"element {numberings[first]}"
            if first == count:  # require_hermitian raises unless the dimension is wrong
                other = require_hermitian(elements[first], name=name).shape[0]
                raise ValueError(f"{name} has dim {other}, expected {self.dim}")
            require_numbering(numberings[first], size=size)
            raise ValueError(f"{name} is not PSD (min eigenvalue {low[first]:.3e})")
        with np.errstate(over="ignore"):  # an infinite sum gives a NaN gap below
            total = hermitian.sum(axis=0)
        gap = float(np.max(np.abs(np.linalg.eigvalsh(total - np.eye(self.dim)))))
        if not gap <= EIGEN_TOL:
            raise ValueError(f"elements do not sum to the identity (gap {gap:.3e})")
        return self


@dataclass(frozen=True)
class GuessworkReport:
    """Solver output: the minimum value and its certificate.

    ``measurement`` is None exactly when ``value`` is only an unverified upper
    bound.  ``condition_verified`` says that a measurement is proved optimal:
    by the exact maximum of |w(n)|^2 for uniform-prior qubits up to the cap
    (see :func:`min_guesswork_qubit`), by :func:`condition_check` elsewhere;
    the closed form of a benevolent qubit ensemble above the cap is not.
    """

    value: float
    optimal_numbering: Numbering
    measurement: NumberingMeasurement | None
    method: str  # brute_force | benevolent | condition_check_only | zigzag
    mean_cost: float
    trace_norm_term: float

    @property
    def condition_verified(self) -> bool:
        return self.measurement is not None and self.method != "benevolent"


def _require_balanced(c: CostFunction) -> None:
    if not c.is_balanced:
        raise ValueError("cost function is not balanced: no certificate permutation exists")


def _require_same_size(e: Ensemble, c: CostFunction) -> None:
    if c.size != e.size:
        raise ValueError(f"cost has {c.size} values but the ensemble has {e.size} states")


def _require_measurement_of(e: Ensemble, m: NumberingMeasurement) -> None:
    """Validate ``m`` and refuse it unless it measures ``e``: its dimension, and
    numberings of length M."""
    m.validated()
    if m.dim != e.dim:
        raise ValueError(f"measurement has dim {m.dim} but the ensemble has dim {e.dim}")
    for numbering in m.elements:
        require_numbering(numbering, size=e.size)


def effective_operator(e: Ensemble, c: CostFunction, n) -> np.ndarray:
    """E(n) = 2 sum_t (gamma(t) - mean) rho(n(t)), as one row of
    :func:`_effective_operator_batch`."""
    numbering = require_numbering(n, size=e.size)
    _require_same_size(e, c)
    return _effective_operator_batch(e, c, np.asarray([numbering]) - 1)[0]


def guesswork_value(e: Ensemble, c: CostFunction, m: NumberingMeasurement) -> float:
    """Expected cost of the guessing strategy induced by measurement ``m``.

    Computed directly as sum_t gamma(t) sum_n Tr[pi(n) rho(n(t))] and
    cross-checked against the equivalent form
    mean + (1/2) sum_n Tr[pi(n) E(n)], within VALUE_TOL times the smallest
    power of two above max |gamma|.
    """
    _require_measurement_of(e, m)
    _require_same_size(e, c)
    direct = 0.0
    shifted = c.mean
    for numbering, element in m.elements.items():
        for t, label in enumerate(numbering, start=1):
            direct += c.values[t - 1] * float(np.trace(element @ e.states[label - 1]).real)
        shifted += 0.5 * float(
            np.trace(element @ effective_operator(e, c, numbering)).real
        )
    if abs(direct - shifted) > math.ldexp(VALUE_TOL, _exponent(c.values)):
        raise NumericalCheckError(
            f"guesswork evaluations disagree: direct {direct!r} vs shifted {shifted!r}"
        )
    return direct


def optimal_two_outcome_measurement(
    e: Ensemble, c: CostFunction, n_star
) -> NumberingMeasurement:
    """Measurement on {n*, n* o sigma} from the spectral parts of E(n*).

    The n* element is the negative projector plus half the null projector of
    E(n*); the partner element is the mirror image (positive plus half null).
    When sigma is the identity (constant cost) the two outcomes coincide and
    the measurement degenerates to the identity on n*.  The null space is
    that of E(n*) / 2^j within EIGEN_TOL, 2^j the smallest power of two above
    E(n*)'s largest entry, so short Bloch vectors or small costs still split
    E(n*) by sign.  With 2^k the smallest power of two above
    max |gamma - mean|, the antisymmetry gap is allowed ALGEBRAIC_TOL 2^k,
    and the validation takes EIGEN_TOL.
    """
    if not c.is_balanced:
        raise ValueError("the two-outcome construction requires a balanced cost")
    n_star = require_numbering(n_star, size=e.size)
    partner = compose(n_star, c.balancing_permutation)
    if partner == n_star:
        return NumberingMeasurement(
            dim=e.dim, elements={n_star: np.eye(e.dim, dtype=complex)}
        ).validated()
    e_star = effective_operator(e, c, n_star)
    e_partner = effective_operator(e, c, partner)
    antisymmetry = float(np.max(np.abs(e_star + e_partner)))
    # E(n) + E(n o sigma) = 2 sum_t (g(t) + g(sigma^-1(t))) rho(n(t)), g = gamma - mean:
    # a cost balanced only within BALANCE_TOL leaves a gap of up to twice its
    # residual sum_t |g(t) + g(sigma(t))| times the largest prior, which bounds
    # every entry of a PSD state
    g = np.asarray(c.values) - c.mean
    k = _exponent(g)
    residual = float(np.abs(g + g[np.asarray(c.balancing_permutation) - 1]).sum())
    if antisymmetry > math.ldexp(ALGEBRAIC_TOL, k) + 2 * residual * float(e.prior.max()):
        raise NumericalCheckError(
            f"effective operators are not antisymmetric under the balancing "
            f"permutation (gap {antisymmetry:.3e}); is the cost certificate valid?"
        )
    parts = spectral_parts(e_star * math.ldexp(1.0, -_exponent(e_star)))
    elements = {
        n_star: parts.negative_projector + parts.null_projector / 2,
        partner: parts.positive_projector + parts.null_projector / 2,
    }
    measurement = NumberingMeasurement(dim=e.dim, elements=elements)
    try:
        return measurement.validated()
    except ValueError as exc:  # construction guarantees validity; failure is numerical
        raise NumericalCheckError(f"constructed measurement failed validation: {exc}") from exc


def _effective_operator_batch(
    e: Ensemble, c: CostFunction, block: np.ndarray
) -> np.ndarray:
    """Exact E(n) for each row of 0-based numberings, from the gathered states."""
    coefficients = np.asarray(c.values) - c.mean
    return 2 * np.einsum("t,ktij->kij", coefficients, e.states[block])


def _screen_error(e: Ensemble, c: CostFunction) -> float:
    """How far a screened eigenvalue, or sum of |eigenvalues|, of E(n) or
    |E(n*)| - E(n) can lie from the exact batch's: SCREEN_MARGIN / 2 of d
    times a bound on ||E(n)||_F, plus _UNDERFLOW.  :func:`_spectra` hands a
    row to eigvalsh when its closed form's error bound exceeds a quarter of it
    (nearly repeated eigenvalues), so a sum of 3 screened eigenvalues stays
    inside; :func:`_sweep_columns` keeps a d = 2 screen within a quarter, and
    so do the head and tail sums of :func:`tracenorm_argmax`."""
    largest = max(float(np.linalg.norm(s)) for s in e.states)
    bound = 2 * float(np.abs(np.asarray(c.values) - c.mean).sum()) * largest
    return SCREEN_MARGIN / 2 * e.dim * bound + _UNDERFLOW


# c eps in the closed form's error bound: against 40-digit spectra of random,
# shifted, scaled and nearly degenerate 3x3 matrices, no row erred by more than
# a tenth of the bound.
_ROUNDING = 64 * np.finfo(float).eps
# Halves and squares below the normal range keep fewer bits: each may be off
# by 2^-1075, which moves r by about 2^-1073 / p^2 through the terms of p^2.
_UNDERFLOW = 2.0**-1070


def _spectra(batch: np.ndarray, budget: float) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix of an (N, d, d) batch,
    each within ``budget`` of ``eigvalsh``'s; like it, read from the lower triangle.

    d = 3: the trigonometric form (Smith, Commun. ACM 4:168, 1961):
    q = tr / 3, p^2 = ||A - qI||_F^2 / 6, r = det((A - qI) / p) / 2 clipped
    to [-1, 1] and lambda_k = q + 2p cos(acos(r) / 3 + 2 pi k / 3).
    Rounding moves r by at most dr = c eps (1 + |q| / p), so a row's values
    lie within 2p dr / (3 sqrt(1 - r^2)) + c eps (|q| + p) of the exact ones
    (Kopp, Int. J. Mod. Phys. C 19:523, 2008).  Rows whose bound exceeds
    ``budget`` (nearly repeated eigenvalues), rows with non-finite values
    (p = 0) and every batch of another d go to ``eigvalsh``.  The sweeps
    screen d = 2 from Pauli coordinates instead: the trace-norm sweep from
    its head and tail sums, the condition sweep from :func:`_sweep_columns`.
    """
    size, d, _ = batch.shape
    if d != 3:
        return np.linalg.eigvalsh(batch)
    parts = batch.reshape(size, d * d).view(float)  # (re, im) of each entry
    values = np.empty((size, d))
    with np.errstate(all="ignore"):  # p = 0 and overflow leave non-finite rows
        q = (parts[:, 0] + parts[:, 8] + parts[:, 16]) / 3
        s0, s1, s2 = parts[:, 0] - q, parts[:, 8] - q, parts[:, 16] - q
        # real and imaginary parts of A10, A20, A21
        xr, xi, yr, yi, zr, zi = (parts[:, k] for k in (6, 7, 12, 13, 14, 15))
        xx, yy, zz = xr * xr + xi * xi, yr * yr + yi * yi, zr * zr + zi * zi
        p2 = (s0 * s0 + s1 * s1 + s2 * s2 + 2 * (xx + yy + zz)) / 6
        p = np.sqrt(p2)
        # det((A - qI) / p), from entries of order 1 whatever the scale
        s0, s1, s2, xr, xi, yr, yi, zr, zi = (v / p for v in (s0, s1, s2, xr, xi, yr, yi, zr, zi))
        det = (
            s0 * s1 * s2
            - (s0 * zz + s1 * yy + s2 * xx) / p2
            + 2 * (yr * (xr * zr - xi * zi) + yi * (xr * zi + xi * zr))
        )
        r = np.clip(det / 2, -1.0, 1.0)
        # phi in [0, pi / 3]: 2 cos(phi + 2 pi / 3) = -cos - sin and
        # 2 cos(phi + 4 pi / 3) = -cos + sin, with sin = sqrt(3) sin(phi)
        cos = np.cos(np.arccos(r) / 3)
        sin = np.sqrt(3 * (1 - cos * cos))
        values[:, 0] = q - p * (cos + sin)
        values[:, 1] = q - p * (cos - sin)
        values[:, 2] = q + 2 * p * cos
        dr = _ROUNDING * (1 + np.abs(q) / p) + _UNDERFLOW / p2
        bound = 2 * p * dr / (3 * np.sqrt(1 - r * r)) + _ROUNDING * (np.abs(q) + p)
        redo = ~(bound <= budget) | ~np.isfinite(values).all(axis=1)
    if redo.any():
        values[redo] = np.linalg.eigvalsh(batch[redo])
    return values


# Rows per screened batch: the temporaries of the product and of the screens
# stay in cache, and their allocations are reused instead of paged in.
_CHUNK = 4096


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


def _numbering_blocks(m: int):
    """Every permutation of range(m), in ``itertools.permutations`` order, in blocks.

    Each block is an integer array with one permutation per row: those that
    share their first m - 8 entries.  When m <= 8 the one block is a cached
    read-only table.
    """
    tail = min(m, _TABLE_POSITIONS)
    table = _permutation_table(tail)
    if m == tail:
        yield table
        return
    for prefix in itertools.permutations(range(m), m - tail):
        rest = np.array([x for x in range(m) if x not in prefix])
        block = np.empty((len(table), m), dtype=np.intp)
        block[:, : m - tail] = prefix
        block[:, m - tail :] = rest[table]
        yield block


def _chunks(weights: np.ndarray, inverses: np.ndarray, values: np.ndarray):
    """Each run of at most _CHUNK rows of 0-based inverse numberings, with the
    product W @ values, row k of W holding weights[r(i)] at column i for its row r."""
    for start in range(0, len(inverses), _CHUNK):
        rows = inverses[start : start + _CHUNK]
        # an intp index gathers faster than the cached int8 tables
        yield rows, weights[rows.astype(np.intp, copy=False)] @ values


def _sweep_columns(e: Ensemble, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The weights of the condition sweep's :func:`_chunks` products, the
    columns they multiply, and k.  At d != 2: w, the states' (re, im) parts
    and k = 0; a product row viewed as complex is E(n).  At d = 2: w 2^-k,
    2^k from ``costs._exponent(sum |w|)``, and (Tr rho_i, v(rho_i)); a row is
    (A, W) 2^-k and E(n) = (A I + W . sigma) / 2.  With S = sum |w| max Tr
    rho_i, entries lie below 2 (no square overflows; those that underflow move
    |W| by far less than eps S), M products and sums err by M eps S, |W| and
    a difference with |E(n*)|'s coordinates (within S) by 5 eps S more, and
    scaling back by 2^-1075: for M <= 16 far inside error / 4 >= SCREEN_MARGIN
    S / (4 sqrt 2) + _UNDERFLOW / 4 (:func:`_screen_error`, as ||rho||_F >=
    Tr rho / sqrt 2)."""
    if e.dim != 2:
        return weights, e.states.reshape(e.size, -1).view(float), 0
    k = _exponent(np.abs(weights).sum())
    return np.ldexp(weights, -k), np.column_stack([e.prior, e.bloch]), k


def _refuted(
    e: Ensemble, c: CostFunction, e_star: np.ndarray, magnitude: np.ndarray, tol: float
) -> bool:
    """True when ascent over psi finds an n with |E(n*)| - E(n) below -tol.

    For a fixed psi, max_n <psi|E(n)|psi> is the sorted matching of
    gamma - mean against p_i = <psi|rho_i|psi> (rearrangement inequality).
    Starting from each eigenvector of E(n*), that n is tested with the exact
    batch of E(n); if it holds, psi moves to the lowest eigenvector of
    |E(n*)| - E(n), for at most four steps.
    """
    positions = np.asarray(c.sorting_permutation) - 1
    numbering = np.empty((1, e.size), dtype=np.intp)
    for psi in np.linalg.eigh(e_star)[1].T:
        for _ in range(4):
            overlaps = np.einsum("i,kij,j->k", psi.conj(), e.states, psi).real
            numbering[0, positions] = np.argsort(overlaps, kind="stable")
            difference = magnitude - _effective_operator_batch(e, c, numbering)
            if np.linalg.eigvalsh(difference)[0, 0] < -tol:
                return True
            psi = np.linalg.eigh(difference[0])[1][:, 0]
    return False


def condition_check(e: Ensemble, c: CostFunction, n_star, tol: float = EIGEN_TOL) -> bool:
    """True iff |E(n*)| - E(n) is PSD within tol for every numbering n.

    Sweeps all M! numberings at any M (only :func:`solve`'s routes keep M to
    the enumeration cap), so a True result certifies that the two-outcome
    measurement at n* attains the minimum.
    A few steps of ascent over pure states first look for a violating
    numbering (:func:`_refuted`); it fails the check only on a numbering whose
    exact test the sweep also fails.  Otherwise each numbering's smallest
    eigenvalue is screened from one product of the weights 2 (gamma - mean):
    at d = 2 exactly up to rounding, ((alpha - A) - |beta - W|) / 2 with
    |E(n*)| = (alpha I + beta . sigma) / 2 and E(n) = (A I + W . sigma) / 2
    (:func:`_sweep_columns`); at d >= 3 by the spectra of :func:`_spectra` (the
    closed form for d = 3, eigvalsh for larger d and for rows whose error
    bound exceeds a quarter of the screen's error).  One screened below -tol
    by more than the screen's error fails the check, and those within that
    error of -tol are recomputed from the exact batch of E(n).  The result
    equals the exact sweep over all numberings.
    """
    n_star = require_numbering(n_star, size=e.size)
    e_star = effective_operator(e, c, n_star)
    magnitude = abs_operator(e_star)
    if _refuted(e, c, e_star, magnitude, tol):
        return False
    error = _screen_error(e, c)
    weights, columns, k = _sweep_columns(e, 2 * (np.asarray(c.values) - c.mean))
    low, high = np.ldexp(-tol - error, -k), np.ldexp(-tol + error, -k)
    if e.dim == 2:  # (alpha, beta) from the lower triangle, as eigvalsh reads it
        m00, m11, m10 = magnitude[0, 0].real, magnitude[1, 1].real, magnitude[1, 0]
        centre = np.ldexp([m00 + m11, 2 * m10.real, 2 * m10.imag, m00 - m11], -k)

    def lowest(product):
        if e.dim == 2:
            gap = centre - product
            return (gap[:, 0] - np.sqrt(np.einsum("kx,kx->k", gap[:, 1:], gap[:, 1:]))) / 2
        operators = product.view(complex).reshape(-1, e.dim, e.dim)
        return _spectra(magnitude - operators, error / 4)[:, 0]

    for inverses in _numbering_blocks(e.size):  # every numbering once, as n^-1
        for rows, product in _chunks(weights, inverses, columns):
            screened = lowest(product)
            if float(screened.min()) < low:
                return False
            near = np.argsort(rows[screened <= high], axis=1)
            if not len(near):
                continue
            difference = magnitude[None, :, :] - _effective_operator_batch(e, c, near)
            if float(np.linalg.eigvalsh(difference)[:, 0].min()) < -tol:
                return False
    return True


# Rows per block whose eigvalsh norms set the pruning threshold of the
# trace-norm sweep at d >= 3: those of the largest bounds among the row of
# largest q of each subset.
_LEADS = 16


def _norm_cutoff(threshold: float, nu: int, error: float, pad: float) -> float:
    """The q below which a row screens below ``threshold``: ||E||_1 <=
    sqrt(nu ||E||_F^2) <= sqrt(nu (q + pad)), and a screened norm lies
    within ``error`` of ||E||_1.  -inf when no q is that small."""
    reach = (threshold - error) * (1 - 2.0**-40)
    return reach * reach / nu - pad if reach > 0 else -math.inf


def _norm_bound(
    q: np.ndarray, tau: np.ndarray, d: int, error: float, pads: tuple[float, float]
) -> np.ndarray:
    """Upper bounds on the norms that :func:`_spectra` screens, within
    error / 4 per eigenvalue, of Hermitian d x d matrices E with ||E||_F^2
    within pads[0] of q and Tr E within pads[1] of tau.

    The eigenvalues of E are tau / d + mu_k, sum mu_k = 0 and sum mu_k^2 =
    F^2 - tau^2 / d.  The p positive mu_k and the r negative ones each sum to
    some P in magnitude, and Cauchy-Schwarz gives P^2 / p + P^2 / r <= sum
    mu_k^2.  pr / (p + r) is largest at the even split of d, so ||E||_1 <=
    |tau| + 2P <= |tau| + c_d sqrt(F^2 - tau^2 / d) with c_d = 2
    sqrt(floor(d/2) ceil(d/2) / d), an equality at the spectra (a, -a),
    (a, a, -2a) and (a, a, -a, -a).  The pads enter each term on its upper
    side; the bound is raised by 2^-40 of itself, which covers its rounding
    and eigvalsh's, and by ``error``, which covers the screened spectra.
    """
    pad_q, pad_tau = pads
    low = np.maximum(np.abs(tau) - pad_tau, 0.0)
    spread = np.sqrt(np.maximum(q + pad_q - low * low / d, 0.0))
    bound = np.abs(tau) + pad_tau + 2 * math.sqrt((d // 2) * ((d + 1) // 2) / d) * spread
    return bound * (1 + 2.0**-40) + error


def _first_half(m: int, flat: np.ndarray) -> np.ndarray:
    """Which flat indices of ``qap._split``'s blocks hold a numbering n with
    n(0) < n(M - 1): one of each pair {n, n reversed}, none when M = 1."""
    rows = _split_rows(m, flat)
    return rows[:, 0] < rows[:, -1]


def _split_parts(left: np.ndarray, right: np.ndarray, flat: np.ndarray, columns: int) -> np.ndarray:
    """a + b, the first ``columns`` of the head and tail sums of each row at
    flat indices of a block's (C, h!, t!) product, from the rows (2a, |2a|^2,
    1) and (b, 1/4, |b|^2) of ``qap._split_sums``."""
    s, i, j = np.unravel_index(flat, (len(left), left.shape[1], right.shape[1]))
    return left[s, i, :columns] / 2 + right[s, j, :columns]


def tracenorm_argmax(e: Ensemble, c: CostFunction) -> tuple[Numbering, float]:
    """Numbering maximizing ||E(n)||_1, by exhaustive enumeration of all M!
    numberings at any M (only :func:`solve`'s routes keep M to the cap).

    The positions are numbered by increasing cost, with w = 2 (gamma - mean)
    in that order, so that E of a row's mirror, the reversed row n o sigma,
    lies within delta = sum_k |w_k + w_(M-1-k)| max_i ||rho_i||_1 of -E(n);
    for a balanced cost delta is its balance residual.  Every numbering is
    scored from the split sums of ``qap._split_sums``: with D columns per
    state, a over the prefix and head of its positions and b over the tail,
    one batched product per subset gives q = |a + b|^2, and the traces of a
    and b give tau.  At d = 2 the columns are (Tr rho, v(rho)), so a + b =
    (A, W) with E(n) = (A I + W . sigma) / 2 and ||E(n)||_1 = max(|A|, |W|)
    <= sqrt(q); at d >= 3 they are the states' (re, im) parts, so q =
    ||E(n)||_F^2, tau = Tr E(n) and ||E(n)||_1 <= sqrt(d q).

    The rows with n(0) < n(M - 1), one of each mirror pair
    (:func:`_first_half`), are screened: at d = 2 exactly up to rounding,
    max(|A|, |W|), at d >= 3 by the spectra of E(n) = a + b (:func:`_spectra`);
    the other rows score -inf, and above M = 8 the blocks whose prefix
    starts with label M - 1, which hold none, are skipped.  Rows screened
    within window = 2 error + 2 delta of the running maximum, error the
    screen's (:func:`_screen_error`), are recomputed from the exact batch of
    E(n) with their mirrors, so the result equals the exact sweep over all
    numberings: the largest computed norm, the lexicographically smallest
    numbering among equal computed norms.  Numberings that tie in exact
    arithmetic, such as a row and its mirror, are usually separated by
    rounding, not by that order.

    Most rows get no E(n).  A block's threshold is T = max(running, lead) -
    window, the lead the largest eigvalsh norm less error of its leads: the
    row of largest q of each subset, if screened, and at d >= 3 only the
    _LEADS of those with the largest bounds.  The lead is at most a screened
    norm of the block, so a row that cannot reach T may score -inf
    (:func:`_screened_max`), and the rows recomputed are those of the screen
    without bounds.  Stage 1 is one comparison of every row's q with
    :func:`_norm_cutoff`; at d >= 3 stage 2 keeps the survivors whose
    :func:`_norm_bound` of q and tau reaches T.

    Rounding.  The sweep runs on w 2^-k, 2^k from ``costs._exponent(sum
    |w|)``, so no square overflows, and scores in units of 2^k.  With S =
    sum_t |w_t| 2^-k max_i |column_i|, about sqrt 2 at most, |a| + |b| <= S.
    q adds D + 2 products of (2a, |2a|^2, 1) and (b, 1/4, |b|^2) after norms
    of D terms, so it lies within gamma_(2D + 2) S^2 of |a + b|^2 (u = 2^-53,
    gamma_n = n u / (1 - n u)), and rounding a + b moves its square by 3 u
    S^2 more; tau adds d + 1 diagonal entries of a and b, within
    gamma_(d + 2) sqrt(d) S of the trace of a + b.  So q and tau are padded
    by (2D + 8) eps S^2 and (d + 4) sqrt(d) eps S, eps = 2u, and by
    _UNDERFLOW per column for squares and sums below the normal range.
    Screened norms of a + b lie within error of the exact batch's, as
    :func:`_screen_error` argues for M products and sums.
    """
    m, d = e.size, e.dim
    if m == 1:  # gamma - mean = 0, so E = 0
        return (1,), 0.0
    error = _screen_error(e, c)
    order = np.asarray(c.sorting_permutation) - 1
    weights = 2 * (np.asarray(c.values)[order] - c.mean)
    largest = float(np.abs(np.linalg.eigvalsh(e.states)).sum(axis=1).max())
    delta = float(np.abs(weights + weights[::-1]).sum()) * largest
    k = _exponent(np.abs(weights).sum())
    error, window = np.ldexp(error, -k), np.ldexp(2 * error + 2 * delta, -k)
    if d == 2:
        columns, nu, diagonal = np.column_stack([e.prior, e.bloch]), 1, [0]
    else:  # the parts of entry (i, i) start at 2 i (d + 1)
        columns, nu, diagonal = e.states.reshape(m, -1).view(float), d, 2 * (d + 1) * np.arange(d)
    weights = np.ldexp(weights, -k)
    products = weights[:, None, None] * columns[None, :, :]
    size = float(np.abs(weights).sum()) * float(np.linalg.norm(columns, axis=1).max())
    width, eps = columns.shape[1], np.finfo(float).eps
    pads = (
        (2 * width + 8) * eps * size * size + width * _UNDERFLOW,
        (d + 4) * math.sqrt(d) * eps * size + width * _UNDERFLOW,
    )
    block_size = math.factorial(min(m, _TABLE_POSITIONS))
    squares = None  # the product of each block, reused as its scores

    def screen(block, running):
        nonlocal squares
        left, right = _split_sums(products, block[0] // block_size)
        squares = np.matmul(left, right.transpose(0, 2, 1), out=squares)
        scores = squares.reshape(-1)
        traces = left[:, :, diagonal].sum(axis=2) / 2, right[:, :, diagonal].sum(axis=2)

        def first_half(flat):
            return flat[_first_half(m, block[flat])]

        def bounds(flat):
            s, i, j = np.unravel_index(flat, squares.shape)
            return _norm_bound(scores[flat], traces[0][s, i] + traces[1][s, j], d, error, pads)

        def norms(flat, spectra):
            parts = _split_parts(left, right, flat, width)
            if d == 2:  # (A, W)
                length = np.sqrt(np.einsum("kx,kx->k", parts[:, 1:], parts[:, 1:]))
                return np.maximum(np.abs(parts[:, 0]), length)
            return np.abs(spectra(parts.view(complex).reshape(-1, d, d))).sum(axis=1)

        # the row of largest q of each subset
        leads = first_half(squares.reshape(len(squares), -1).argmax(axis=1)
                           + np.arange(len(squares)) * squares[0].size)
        if d != 2:
            leads = leads[np.argsort(bounds(leads), kind="stable")[-_LEADS:]]
        lead = float(norms(leads, np.linalg.eigvalsh).max()) - error if len(leads) else -math.inf
        threshold = max(running, lead) - window
        kept = np.flatnonzero(scores >= _norm_cutoff(threshold, nu, error, pads[0]))
        if d != 2:
            kept = kept[bounds(kept) >= threshold]
        kept = first_half(kept)
        screened = norms(kept, lambda batch: _spectra(batch, error / 4))
        scores.fill(-math.inf)
        scores[kept] = screened
        return scores

    def rechecked(flat):
        # each kept row, then its mirror, in the positions of increasing cost
        rows = _split_rows(m, flat)
        numberings = np.empty((2 * len(rows), m), dtype=np.intp)
        numberings[: len(rows), order] = rows
        numberings[len(rows) :, order] = rows[:, ::-1]
        norms = np.abs(np.linalg.eigvalsh(_effective_operator_batch(e, c, numberings))).sum(axis=1)
        return numberings, norms

    blocks = _split_blocks(m)
    if m > _TABLE_POSITIONS:  # the last M-th, whose prefixes start at label M - 1, screens no row
        blocks = itertools.islice(blocks, (m - 1) * math.factorial(m - 1) // block_size)
    return _screened_max(blocks, screen, rechecked, window)


def min_guesswork_qubit(
    e: Ensemble, c: CostFunction, cap: int = DEFAULT_FACTORIAL_CAP
) -> GuessworkReport:
    """Minimum guesswork of a uniform-prior qubit ensemble under a balanced cost.

    Maximizes |w(n)|^2, w(n) = sum_t (gamma(t) - mean) v(rho(n(t))), over
    numberings n, and returns mean - |w(n*)| together with the optimal
    two-outcome measurement.  Up to the cap :func:`arrangement_solve` alone
    decides ("brute_force"): E(n) = w(n) . sigma, so the smallest eigenvalue
    of |E(n*)| - E(n) is |w(n*)| - |w(n)| and ``condition_verified`` is True
    with no sweep.  Above the cap the closed form :func:`benevolent_solve` is
    reported unverified ("benevolent"), or, when it finds no benevolent
    structure, the zig-zag bound of :func:`_zigzag_report` ("zigzag").
    ``cap`` only picks the route; neither solver reads it.

    The uniform prior is detected within TRACE_TOL, benevolence within
    BENEVOLENCE_TOL and the measurement's null space within EIGEN_TOL.
    """
    if e.dim != 2:
        raise ValueError(f"qubit solver requires dim = 2, got {e.dim}")
    if not is_uniform_prior(e):
        raise ValueError("qubit solver requires a uniform prior")
    _require_balanced(c)
    _require_same_size(e, c)

    if e.size <= cap:  # both solvers work at unit scale, so any cost_function is accepted
        n_star, method = arrangement_solve(c, e.bloch)[0], "brute_force"
    else:
        fast = benevolent_solve(c, e.bloch)
        if fast is None:
            return _zigzag_report(e, c)
        n_star, method = fast[0], "benevolent"

    e_star = effective_operator(e, c, n_star)
    w = pauli_vector(e_star)  # |w| at unit scale: a tiny cost's squares would underflow
    k = _exponent(w)
    return GuessworkReport(
        value=c.mean - math.ldexp(float(np.linalg.norm(np.ldexp(w, -k))), k) / 2,
        optimal_numbering=n_star,
        measurement=optimal_two_outcome_measurement(e, c, n_star),
        method=method,
        mean_cost=c.mean,
        trace_norm_term=trace_norm(e_star) / 2,
    )


def _condition_report(
    c: CostFunction, candidate: Numbering, norm_value: float, measurement=None
) -> GuessworkReport:
    """A condition_check_only report; without a measurement it is an unverified bound."""
    return GuessworkReport(
        value=c.mean - norm_value / 2,
        optimal_numbering=candidate,
        measurement=measurement,
        method="condition_check_only",
        mean_cost=c.mean,
        trace_norm_term=norm_value / 2,
    )


def _zigzag_report(e: Ensemble, c: CostFunction) -> GuessworkReport:
    """The unverified bound of both solvers above the cap: the closed form's
    zig-zag numbering, composed with the cost's sorting permutation, without its
    benevolence certificate.  It needs no enumeration, and mean - ||E(n)||_1 / 2
    is achievable but not certified optimal."""
    n = compose(zigzag_numbering(e.size), invert(c.sorting_permutation))
    report = _condition_report(c, n, trace_norm(effective_operator(e, c, n)))
    return replace(report, method="zigzag")


def min_guesswork_general(
    e: Ensemble,
    c: CostFunction,
    tol: float = EIGEN_TOL,
    cap: int = DEFAULT_FACTORIAL_CAP,
) -> GuessworkReport:
    """Minimum guesswork in arbitrary dimension, or an unverified upper bound.

    One :func:`tracenorm_argmax` sweep gives n*; :func:`condition_check` tests
    |E(n*)| >= E(n) for every n.  If it holds, the report carries the optimal
    two-outcome measurement at n*; if not, ``measurement`` is None and the
    value mean - ||E(n*)||_1 / 2 is achievable but not proved minimal (the
    condition is sufficient, not necessary).  Above the cap no sweep runs
    and the zig-zag bound of :func:`_zigzag_report` is returned; ``cap`` only
    picks that route, as neither sweep reads it.  The condition is
    checked within ``tol`` times 2^k, the smallest power of two above
    max |gamma - mean|, so the verdict does not depend on the cost's units.
    """
    _require_balanced(c)
    _require_same_size(e, c)
    if e.size > cap:
        return _zigzag_report(e, c)
    candidate, norm_value = tracenorm_argmax(e, c)
    measurement = None
    with np.errstate(over="ignore"):  # a tol beyond the doubles passes every numbering
        scaled = float(np.ldexp(tol, _exponent(np.asarray(c.values) - c.mean)))
    if condition_check(e, c, candidate, tol=scaled):
        measurement = optimal_two_outcome_measurement(e, c, candidate)
    return _condition_report(c, candidate, norm_value, measurement)


def solve(
    e: Ensemble,
    c: CostFunction,
    tol: float = EIGEN_TOL,
    cap: int = DEFAULT_FACTORIAL_CAP,
) -> GuessworkReport:
    """Minimum guesswork, or an unverified upper bound when nothing certifies one.

    When the states use at least two but not all of the d coordinates (some
    state has a nonzero entry, compared exactly, in the coordinate's row or
    column), the sub-ensemble on the used ones is solved and :func:`_lift`
    pads its answer: every E(n) is zero on the unused coordinates, so the
    answer is exact, and an embedded qubit ensemble takes the qubit solvers.
    Otherwise a uniform-prior qubit ensemble goes to
    :func:`min_guesswork_qubit`, anything else to
    :func:`min_guesswork_general`, the only one that reads ``tol``; the prior
    is detected within TRACE_TOL.  Above the cap both solvers return the
    zig-zag bound themselves when they know nothing better.
    A bound has ``measurement`` None: its value is achievable, not proved minimal.
    """
    _require_same_size(e, c)
    _require_balanced(c)
    nonzero = (e.states != 0).any(axis=0)
    used = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    if 2 <= len(used) < e.dim:
        sub = validate(e.states[:, used][:, :, used])
        return _lift(solve(sub, c, tol=tol, cap=cap), used, e.dim)
    if e.dim == 2 and is_uniform_prior(e):
        return min_guesswork_qubit(e, c, cap=cap)
    return min_guesswork_general(e, c, tol=tol, cap=cap)


def _lift(report: GuessworkReport, used: np.ndarray, dim: int) -> GuessworkReport:
    """The report of the sub-ensemble on coordinates ``used``, in ``dim``
    dimensions: each of the K elements is padded with zeros plus P / K, P the
    projector onto the unused coordinates (two outcomes split P as they split
    the null space).  The rest of the report does not depend on the dimension.
    """
    if report.measurement is None:
        return report
    elements = report.measurement.elements
    share = np.eye(dim, dtype=complex) / len(elements)
    share[used, used] = 0
    lifted = {}
    for numbering, element in elements.items():
        lifted[numbering] = share.copy()
        lifted[numbering][np.ix_(used, used)] = element
    return replace(report, measurement=NumberingMeasurement(dim, lifted).validated())


def simulate(
    e: Ensemble, c: CostFunction, m: NumberingMeasurement, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the guesswork of measurement ``m``.

    Each round draws a state label from the prior, then an outcome n with
    probability Tr[pi(n) rho] / Tr[rho], and pays gamma(n^-1(label)).  A
    round's cost depends only on its cell (n, label), so one multinomial draw
    of the cell counts gives estimates with exactly the distribution of
    round-by-round sampling (but not its estimate at a given seed), in
    O(M x outcomes) time and memory.  ``samples`` must lie in [1, 2**53],
    where every count is exact in a double.

    Returns (sample mean, standard error); the standard error is NaN for a
    single sample; both are taken on the costs over 2^k (``costs._exponent``)
    and scaled back, inf beyond the doubles.  Fully deterministic for a fixed
    seed, whatever the order of ``m``'s elements.  A measurement of another
    dimension, or with numberings of another length than M, is refused.
    """
    _require_measurement_of(e, m)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > 2**53:
        raise ValueError(f"samples must be <= 2**53, got {samples}")
    _require_same_size(e, c)
    rng = np.random.default_rng(seed)

    prior = np.clip(e.prior, 0.0, None)
    prior = prior / prior.sum()
    outcomes = sorted(m.elements)
    # joint[j, label] = Tr[pi_j rho(label)]; tiny negatives are numerical noise
    elements = np.stack([m.elements[numbering] for numbering in outcomes])
    joint = np.clip(np.einsum("jab,lba->jl", elements, e.states).real, 0.0, None)
    # a zero column belongs to a zero-trace state, which is never drawn
    column_totals = joint.sum(axis=0, keepdims=True)
    cells = prior * (joint / np.where(column_totals > 0, column_totals, 1.0))
    # cost_table[j, label] = gamma(n_j^-1(label))
    inverses = np.array([invert(numbering) for numbering in outcomes]) - 1
    cost_table = np.asarray(c.values)[inverses]
    k = _exponent(cost_table)

    # numpy gives the last cell whatever mass rounding leaves over, so only
    # cells that can occur take part in the draw
    support = np.flatnonzero(cells)
    weights = cells.ravel()[support]
    counts = rng.multinomial(samples, weights / weights.sum()).astype(float)
    costs = np.ldexp(cost_table.ravel()[support], -k)
    estimate = float(counts @ costs / samples)
    if samples < 2:
        return float(np.ldexp(estimate, k)), math.nan
    variance = float(counts @ (costs - estimate) ** 2) / (samples - 1)
    with np.errstate(over="ignore"):
        return float(np.ldexp(estimate, k)), float(np.ldexp(math.sqrt(variance / samples), k))
