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
import math
from dataclasses import dataclass, replace

import numpy as np

from .costs import (
    _EPS,
    CostFunction,
    Numbering,
    _exponent,
    _require_balanced,
    compose,
    invert,
    require_numbering,
)
from .ensembles import Ensemble, is_uniform_prior, validate
from .errors import NumericalCheckError
from .operators import (
    EIGEN_TOL,
    _hermitian_parts,
    _magnitude,
    _pauli,
    _spectral_parts,
    _trace_norm,
    require_hermitian,
    trace_norm,
)
from .qap import (
    DEFAULT_FACTORIAL_CAP,
    SCREEN_MARGIN,
    _benevolent_numbering,
    _screened_max,
    _split_blocks,
    _split_mirror,
    _split_rows,
    _split_sums,
    arrangement_solve,
    zigzag_numbering,
)

ALGEBRAIC_TOL = 1e-12
VALUE_TOL = 1e-10


@functools.lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """np.eye(dim, dtype=complex), cached read-only: it runs as Python code, dear on a cold call."""
    identity = np.eye(dim, dtype=complex)
    identity.setflags(write=False)
    return identity


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
        negative = (low < -EIGEN_TOL).nonzero()[0]
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
            total = np.add.reduce(hermitian, axis=0)
        gap = float(np.maximum.reduce(np.abs(np.linalg.eigvalsh(total - _identity(self.dim)))))
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
            direct += c.values[t - 1] * float((element @ e.states[label - 1]).trace().real)
        shifted += 0.5 * float((element @ effective_operator(e, c, numbering)).trace().real)
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
    _require_balanced(c)
    return _two_outcome(e, c, require_numbering(n_star, size=e.size))[1]


def _two_outcome(e: Ensemble, c: CostFunction, n_star) -> tuple[np.ndarray, NumberingMeasurement]:
    """E(n*), checked Hermitian, and :func:`optimal_two_outcome_measurement`
    at n*, with E(n*) and E(n* o sigma) formed as one batch."""
    partner = compose(n_star, c.balancing_permutation)
    rows = [n_star] if partner == n_star else [n_star, partner]
    batch = _effective_operator_batch(e, c, np.asarray(rows) - 1)
    e_star = require_hermitian(batch[0])
    if partner == n_star:
        identity = NumberingMeasurement(dim=e.dim, elements={n_star: _identity(e.dim).copy()})
        return e_star, identity.validated()
    antisymmetry = float(np.maximum.reduce(np.abs(batch[0] + batch[1]), axis=None))
    # E(n) + E(n o sigma) = 2 sum_t (g(t) + g(sigma^-1(t))) rho(n(t)), g = gamma - mean:
    # a cost balanced only within BALANCE_TOL leaves a gap of up to twice its
    # residual sum_t |g(t) + g(sigma(t))| times the largest prior, which bounds
    # every entry of a PSD state
    g = np.asarray(c.values) - c.mean
    k = _exponent(g)
    residual = float(np.add.reduce(np.abs(g + g[np.asarray(c.balancing_permutation) - 1])))
    largest = float(np.maximum.reduce(e.prior))
    if antisymmetry > math.ldexp(ALGEBRAIC_TOL, k) + 2 * residual * largest:
        raise NumericalCheckError(
            f"effective operators are not antisymmetric under the balancing "
            f"permutation (gap {antisymmetry:.3e}); is the cost certificate valid?"
        )
    parts = _spectral_parts(e_star * math.ldexp(1.0, -_exponent(e_star)))
    elements = {
        n_star: parts.negative_projector + parts.null_projector / 2,
        partner: parts.positive_projector + parts.null_projector / 2,
    }
    measurement = NumberingMeasurement(dim=e.dim, elements=elements)
    try:
        return e_star, measurement.validated()
    except ValueError as exc:  # construction guarantees validity; failure is numerical
        raise NumericalCheckError(f"constructed measurement failed validation: {exc}") from exc


def _effective_operator_batch(
    e: Ensemble, c: CostFunction, block: np.ndarray
) -> np.ndarray:
    """Exact E(n) for each row of 0-based numberings, from the gathered states."""
    coefficients = np.asarray(c.values) - c.mean
    return 2 * np.einsum("t,ktij->kij", coefficients, e.states[block])


def _screen_error(e: Ensemble, c: CostFunction) -> float:
    """How far a screened eigenvalue, or sum of |eigenvalues|, of E(n) or |E(n*)| - E(n)
    can lie from the exact batch's: SCREEN_MARGIN / 2 of d times a bound on ||E(n)||_F
    (up to rounding: the stacked norms may differ from each state's own in the last bit),
    plus _UNDERFLOW.  :func:`_spectra` hands a row to eigvalsh when its closed form's error
    bound exceeds a quarter of it (nearly repeated eigenvalues), so a sum of 3 screened
    eigenvalues stays inside; the head and tail sums of :func:`_split_products` keep a
    d = 2 screen of either sweep within a quarter."""
    # np.linalg.norm(e.states, axis=(1, 2)), by numpy's own formula
    norms = np.sqrt(np.add.reduce((e.states.conj() * e.states).real, axis=(1, 2)))
    spread = float(np.add.reduce(np.abs(np.asarray(c.values) - c.mean)))
    bound = 2 * spread * float(np.maximum.reduce(norms))
    return SCREEN_MARGIN / 2 * e.dim * bound + _UNDERFLOW


# c eps in the closed form's error bound: against 40-digit spectra of random,
# shifted, scaled and nearly degenerate 3x3 matrices, no row erred by more than
# a tenth of the bound.
_ROUNDING = 64 * _EPS
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
    screen d = 2 from the Pauli coordinates of their head and tail sums
    (:func:`_split_products`) instead.
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
        r = np.minimum(np.maximum(det / 2, -1.0), 1.0)  # np.clip's bits
        # phi in [0, pi / 3]: 2 cos(phi + 2 pi / 3) = -cos - sin and
        # 2 cos(phi + 4 pi / 3) = -cos + sin, with sin = sqrt(3) sin(phi)
        cos = np.cos(np.arccos(r) / 3)
        sin = np.sqrt(3 * (1 - cos * cos))
        values[:, 0] = q - p * (cos + sin)
        values[:, 1] = q - p * (cos - sin)
        values[:, 2] = q + 2 * p * cos
        dr = _ROUNDING * (1 + np.abs(q) / p) + _UNDERFLOW / p2
        bound = 2 * p * dr / (3 * np.sqrt(1 - r * r)) + _ROUNDING * (np.abs(q) + p)
        redo = ~(bound <= budget) | ~np.logical_and.reduce(np.isfinite(values), axis=1)
    if np.logical_or.reduce(redo):
        values[redo] = np.linalg.eigvalsh(batch[redo])
    return values


# Rows per slice of the condition sweep, in whole subsets of a split block
# (7 subsets of 4! x 4! rows at M >= 8): the differences and the screens'
# temporaries stay in cache, and their allocations are reused instead of
# paged in.  At d = 3 a whole 8! block at once took nearly twice as long.
_CHUNK = 4096


def _split_products(e: Ensemble, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The products w_t 2^-k column_i at [t, i] that ``qap._split_sums`` adds
    up into the sums a over the prefix and head of a numbering's positions
    and b over its tail, the D columns, and k, 2^k from
    ``costs._exponent(sum |w|)``.  At d = 2 the columns are (Tr rho_i,
    v(rho_i)), so a + b = (A, W) 2^-k with E(n) = (A I + W . sigma) / 2; at
    d >= 3 they are the (re, im) parts of rho_i, so a + b viewed as complex
    is E(n) 2^-k.

    Rounding, for both sweeps.  With S = sum_t |w_t| 2^-k max_i |column_i|,
    about sqrt 2 at most, |a| + |b| <= S, so no square overflows.  a and b
    each add at most M products (the head's doubling is exact), so a + b, or
    c - a - b for coordinates c within S such as those of |E(n*)|, lies
    within (M + 2) eps S of its exact value (eps = 2^-52); the norm and
    difference of a d = 2 screen add less than 10 eps S, and entries below
    the normal range far less.  For M <= 16 that is far inside a quarter of
    the screen's error in these units, at least SCREEN_MARGIN S / (4 sqrt
    2) (:func:`_screen_error`, as |column_i| <= sqrt 2 ||rho_i||_F), and so
    are the rounding of the exact batch of E(n) and the scaling back by 2^k.
    """
    k = _exponent(np.add.reduce(np.abs(weights)))
    if e.dim == 2:
        columns = np.concatenate([e.prior[:, None], e.bloch], axis=1)
    else:
        columns = e.states.reshape(e.size, -1).view(float)
    return np.ldexp(weights, -k)[:, None, None] * columns[None, :, :], columns, k


def _refuted(
    e: Ensemble, c: CostFunction, starts: np.ndarray, magnitude: np.ndarray, tol: float
) -> bool:
    """True when ascent over psi finds an n with |E(n*)| - E(n) below -tol.

    For a fixed psi, max_n <psi|E(n)|psi> is the sorted matching of
    gamma - mean against p_i = <psi|rho_i|psi> (rearrangement inequality).
    Each column of ``starts``, the eigenvectors of E(n*), starts an ascent:
    its n is tested with the exact batch of E(n), one numbering at a time,
    and if it holds, psi moves to the lowest eigenvector of |E(n*)| - E(n),
    for at most four steps.  The ascents go breadth first: step s of every
    start before any start's step s + 1, so a start that refutes at once is
    not kept behind one that holds for four steps.  When nothing refutes,
    the tests are those of the ascents taken one after another.
    """
    positions = np.asarray(c.sorting_permutation) - 1
    numbering = np.empty((1, e.size), dtype=np.intp)
    psis = list(starts.T)
    for _ in range(4):
        for index, psi in enumerate(psis):
            overlaps = np.einsum("i,kij,j->k", psi.conj(), e.states, psi).real
            numbering[0, positions] = overlaps.argsort(kind="stable")
            difference = magnitude - _effective_operator_batch(e, c, numbering)
            if np.linalg.eigvalsh(difference)[0, 0] < -tol:
                return True
            psis[index] = np.linalg.eigh(difference[0])[1][:, 0]
    return False


def condition_check(e: Ensemble, c: CostFunction, n_star, tol: float = EIGEN_TOL) -> bool:
    """True iff |E(n*)| - E(n) is PSD within tol for every numbering n.

    Sweeps all M! numberings at any M (only :func:`solve`'s routes keep M to
    the enumeration cap), so a True result certifies that the two-outcome
    measurement at n* attains the minimum.
    One ``eigh`` of E(n*), checked Hermitian, gives both |E(n*)| (the bits
    of ``abs_operator``) and the eigenvectors from which a few steps of
    ascent over pure states, breadth first, look for a violating numbering
    (:func:`_refuted`); it fails the check only on a numbering whose exact
    test the sweep also fails, and at M = 1 it has tested the one
    numbering.  Otherwise every numbering comes from the blocks of
    ``qap._split``, positions in their natural order, and w = 2 (gamma -
    mean).  With c the coordinates of |E(n*)| 2^-k and a and b the head and
    tail sums of :func:`_split_products`, each head gives c - a once, and
    each row c - a - b = (|E(n*)| - E(n)) 2^-k by one subtraction, a slice
    of whole subsets at a time (_CHUNK).  The smallest eigenvalue of each is
    screened: at d = 2 exactly up to rounding, ((alpha - A) - |beta - W|) /
    2 with |E(n*)| = (alpha I + beta . sigma) / 2; at d >= 3 by the spectra
    of :func:`_spectra` (the closed form for d = 3, eigvalsh for larger d
    and for rows whose error bound exceeds a quarter of the screen's
    error).  c - a - b is rounded twice more than a + b, which the argument
    of :func:`_split_products` covers.  One screened below -tol by more than
    the screen's error fails the check, and those within that error of -tol
    are decoded (``qap._split_rows``) and recomputed from the exact batch of
    E(n).  The result equals the exact sweep over all numberings.
    """
    n_star = require_numbering(n_star, size=e.size)
    eigenvalues, vectors = np.linalg.eigh(require_hermitian(effective_operator(e, c, n_star)))
    magnitude = _magnitude(eigenvalues, vectors)
    if _refuted(e, c, vectors, magnitude, tol):
        return False
    m, d = e.size, e.dim
    if m == 1:
        return True
    error = _screen_error(e, c)
    products, _, k = _split_products(e, 2 * (np.asarray(c.values) - c.mean))
    low, high = np.ldexp(-tol - error, -k), np.ldexp(-tol + error, -k)
    if d == 2:  # (alpha, beta) from the lower triangle, as eigvalsh reads it
        m00, m11, m10 = magnitude[0, 0].real, magnitude[1, 1].real, magnitude[1, 0]
        centre = np.ldexp([m00 + m11, 2 * m10.real, 2 * m10.imag, m00 - m11], -k)
    else:
        centre = np.ldexp(magnitude.reshape(-1).view(float), -k)
    width, budget = len(centre), np.ldexp(error, -k) / 4

    def lowest(gaps):
        if d == 2:
            return (gaps[:, 0] - np.sqrt(np.einsum("kx,kx->k", gaps[:, 1:], gaps[:, 1:]))) / 2
        return _spectra(gaps.view(complex).reshape(-1, d, d), budget)[:, 0]

    for block in _split_blocks(m):
        left, right = _split_sums(products, block)
        heads = centre - left[:, :, :width] / 2
        tails = right[:, None, :, :width]
        per_subset = left.shape[1] * right.shape[1]
        step = max(1, _CHUNK // per_subset)
        for start in range(0, len(left), step):
            gaps = heads[start : start + step, :, None] - tails[start : start + step]
            screened = lowest(gaps.reshape(-1, width))
            if float(np.minimum.reduce(screened)) < low:
                return False
            near = block[start * per_subset + (screened <= high).nonzero()[0]]
            if not len(near):
                continue
            difference = magnitude[None, :, :] - _effective_operator_batch(e, c, _split_rows(m, near))
            if float(np.minimum.reduce(np.linalg.eigvalsh(difference)[:, 0])) < -tol:
                return False
    return True


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
    scored from the head and tail sums a and b of :func:`_split_products`,
    in units of 2^k: one batched product per subset gives q = |a + b|^2,
    and the traces of a and b give tau.  At d = 2, a + b = (A, W) and
    ||E(n)||_1 = max(|A|, |W|) <= sqrt(q); at d >= 3 q = ||E(n)||_F^2, tau
    = Tr E(n) and ||E(n)||_1 <= sqrt(d q).

    The rows with n(0) < n(M - 1), one of each mirror pair, read from the
    block's cached mirror table (``qap._split_mirror``), are screened: at d
    = 2 exactly up to rounding, max(|A|, |W|), at d >= 3 by the spectra of
    E(n) = a + b (:func:`_spectra`); the other rows score -inf, and above M
    = 8 the blocks whose prefix starts with label M - 1, which hold none,
    are skipped.  Rows screened
    within window = 2 error + 2 delta of the running maximum, error the
    screen's (:func:`_screen_error`), are recomputed from the exact batch of
    E(n) with their mirrors, so the result equals the exact sweep over all
    numberings: the largest computed norm, the lexicographically smallest
    numbering among equal computed norms.  Numberings that tie in exact
    arithmetic, such as a row and its mirror, are usually separated by
    rounding, not by that order.

    Most rows get no E(n).  A block's threshold is T = max(running, lead) -
    window, the lead the largest eigvalsh norm less error of its leads: the
    row of largest q of each subset, if screened, so one batch of at most
    C(8, 4) = 70 rows per block.  The lead is at most a screened
    norm of the block, so a row that cannot reach T may score -inf
    (:func:`_screened_max`), and the rows recomputed are those of the screen
    without bounds.  Stage 1 is one comparison of every row's q with
    :func:`_norm_cutoff`, joined with the mirror table; at d >= 3 stage 2
    keeps the survivors whose :func:`_norm_bound` of q and tau reaches T.

    Rounding.  With S and the D columns of :func:`_split_products`, q adds
    D + 2 products of (2a, |2a|^2, 1) and (b, 1/4, |b|^2) after norms
    of D terms, so it lies within gamma_(2D + 2) S^2 of |a + b|^2 (u = 2^-53,
    gamma_n = n u / (1 - n u)), and rounding a + b moves its square by 3 u
    S^2 more; tau adds d + 1 diagonal entries of a and b, within
    gamma_(d + 2) sqrt(d) S of the trace of a + b.  So q and tau are padded
    by (2D + 8) eps S^2 and (d + 4) sqrt(d) eps S, eps = 2u, and by
    _UNDERFLOW per column for squares and sums below the normal range.
    Screened norms of a + b lie within error of the exact batch's
    (:func:`_split_products`).
    """
    m, d = e.size, e.dim
    if m == 1:  # gamma - mean = 0, so E = 0
        return (1,), 0.0
    error = _screen_error(e, c)
    order = np.asarray(c.sorting_permutation) - 1
    weights = 2 * (np.asarray(c.values)[order] - c.mean)
    largest = float(np.maximum.reduce(np.add.reduce(np.abs(np.linalg.eigvalsh(e.states)), axis=1)))
    delta = float(np.add.reduce(np.abs(weights + weights[::-1]))) * largest
    products, columns, k = _split_products(e, weights)
    error, window = np.ldexp(error, -k), np.ldexp(2 * error + 2 * delta, -k)
    # the parts of entry (i, i) start at 2 i (d + 1)
    nu, diagonal = (1, [0]) if d == 2 else (d, 2 * (d + 1) * np.arange(d))
    # np.linalg.norm(columns, axis=1), by numpy's own formula
    lengths = np.sqrt(np.add.reduce(columns * columns, axis=1))
    size = math.ldexp(float(np.add.reduce(np.abs(weights))), -k) * float(np.maximum.reduce(lengths))
    width = columns.shape[1]
    pads = (
        (2 * width + 8) * _EPS * size * size + width * _UNDERFLOW,
        (d + 4) * math.sqrt(d) * _EPS * size + width * _UNDERFLOW,
    )

    def screen(block, running):
        left, right = _split_sums(products, block)
        mirror = _split_mirror(m, block)
        squares = left @ right.transpose(0, 2, 1)
        scores = squares.reshape(-1)
        traces = (np.add.reduce(left[:, :, diagonal], axis=2) / 2,
                  np.add.reduce(right[:, :, diagonal], axis=2))

        def bounds(flat):
            s, i, j = np.unravel_index(flat, squares.shape)
            return _norm_bound(scores[flat], traces[0][s, i] + traces[1][s, j], d, error, pads)

        def norms(flat, spectra):
            parts = _split_parts(left, right, flat, width)
            if d == 2:  # (A, W)
                length = np.sqrt(np.einsum("kx,kx->k", parts[:, 1:], parts[:, 1:]))
                return np.maximum(np.abs(parts[:, 0]), length)
            return np.add.reduce(np.abs(spectra(parts.view(complex).reshape(-1, d, d))), axis=1)

        # the row of largest q of each subset
        leads = (squares.reshape(len(squares), -1).argmax(axis=1)
                 + np.arange(len(squares)) * squares[0].size)
        leads = leads[mirror[leads]]
        lead = -math.inf
        if len(leads):
            lead = float(np.maximum.reduce(norms(leads, np.linalg.eigvalsh))) - error
        threshold = max(running, lead) - window
        kept = ((scores >= _norm_cutoff(threshold, nu, error, pads[0])) & mirror).nonzero()[0]
        if d != 2:
            kept = kept[bounds(kept) >= threshold]
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
        spectra = np.linalg.eigvalsh(_effective_operator_batch(e, c, numberings))
        norms = np.add.reduce(np.abs(spectra), axis=1)
        return numberings, norms

    return _screened_max(_split_blocks(m, skip=m - 1), screen, rechecked, window)


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
    BENEVOLENCE_TOL of the Bloch Gram's scale and the null space within EIGEN_TOL.
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
        n_star, method = _benevolent_numbering(c, e.bloch), "benevolent"
        if n_star is None:
            return _zigzag_report(e, c)

    e_star, measurement = _two_outcome(e, c, n_star)
    w = _pauli(e_star)  # |w| at unit scale: a tiny cost's squares would underflow
    k = _exponent(w)
    w = np.ldexp(w, -k)
    norm = math.ldexp(math.sqrt(w.dot(w)), k)
    return _report(c, n_star, method, norm, measurement, _trace_norm(e_star))


def _report(
    c: CostFunction, n: Numbering, method: str, norm: float, measurement=None, term_norm=None
) -> GuessworkReport:
    """The report of every solve path: value mean - ``norm`` / 2 at n, an unverified
    bound without a measurement, and trace-norm term ``term_norm`` / 2, ``norm`` / 2
    unless given (a qubit's norm is |w(n*)| from the Pauli vector, its ``term_norm``
    ||E(n*)||_1 from eigvalsh)."""
    return GuessworkReport(
        value=c.mean - norm / 2, optimal_numbering=n, measurement=measurement, method=method,
        mean_cost=c.mean, trace_norm_term=(norm if term_norm is None else term_norm) / 2,
    )


def _zigzag_report(e: Ensemble, c: CostFunction) -> GuessworkReport:
    """The unverified bound of both solvers above the cap: the closed form's
    zig-zag numbering, composed with the cost's sorting permutation, without its
    benevolence certificate.  It needs no enumeration, and mean - ||E(n)||_1 / 2
    is achievable but not certified optimal."""
    n = compose(zigzag_numbering(e.size), invert(c.sorting_permutation))
    return _report(c, n, "zigzag", trace_norm(effective_operator(e, c, n)))


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
    return _report(c, candidate, "condition_check_only", norm_value, measurement)


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
    nonzero = np.logical_or.reduce(e.states != 0, axis=0)
    used = np.logical_or.reduce(nonzero, axis=0) | np.logical_or.reduce(nonzero, axis=1)
    used = used.nonzero()[0]
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
    share = _identity(dim) / len(elements)
    share[used, used] = 0
    lifted = {}
    for numbering, element in elements.items():
        lifted[numbering] = share.copy()
        lifted[numbering][used[:, None], used] = element
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

    prior = np.maximum(e.prior, 0.0)  # np.clip's bits
    prior = prior / np.add.reduce(prior)
    outcomes = sorted(m.elements)
    # joint[j, label] = Tr[pi_j rho(label)]; tiny negatives are numerical noise
    elements = np.array([m.elements[numbering] for numbering in outcomes])
    joint = np.maximum(np.einsum("jab,lba->jl", elements, e.states).real, 0.0)
    # a zero column belongs to a zero-trace state, which is never drawn
    column_totals = np.add.reduce(joint, axis=0, keepdims=True)
    cells = prior * (joint / np.where(column_totals > 0, column_totals, 1.0))
    # cost_table[j, label] = gamma(n_j^-1(label))
    inverses = np.array([invert(numbering) for numbering in outcomes]) - 1
    cost_table = np.asarray(c.values)[inverses]
    k = _exponent(cost_table)

    # numpy gives the last cell whatever mass rounding leaves over, so only
    # cells that can occur take part in the draw
    support = cells.ravel().nonzero()[0]
    weights = cells.ravel()[support]
    counts = rng.multinomial(samples, weights / np.add.reduce(weights)).astype(float)
    costs = np.ldexp(cost_table.ravel()[support], -k)
    estimate = float(counts @ costs / samples)
    if samples < 2:
        return float(np.ldexp(estimate, k)), math.nan
    variance = float(counts @ (costs - estimate) ** 2) / (samples - 1)
    with np.errstate(over="ignore"):
        return float(np.ldexp(estimate, k)), float(np.ldexp(math.sqrt(variance / samples), k))
