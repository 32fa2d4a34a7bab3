"""Cost functions over guess positions, and permutation (numbering) utilities.

A numbering is a bijection of {1..M} stored as a tuple ``n`` with
``n[t - 1] = n(t)``.  The same representation serves as a guessing order, a
permutation acting on ensembles or costs, and an assignment of states to
guess positions.

A cost function gamma over positions {1..M} is *balanced* when some
permutation sigma pairs every value gamma(t) with a partner 2*mean - gamma(t);
the identity cost (1, 2, ..., M) is balanced by the reversal.  Balancedness is
what allows the optimal measurement to use only two outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

BALANCE_TOL = 1e-10
_EPS = np.finfo(float).eps

Numbering = tuple[int, ...]


def require_numbering(n, size: int | None = None) -> Numbering:
    """Validate a 1-based bijection of {1..M} and return it as a tuple.

    Entries may be ints, numpy integers or integral floats; any other entry
    is refused, never truncated.
    """
    entries = tuple(n)
    try:
        mapping = tuple(map(int, entries))
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


def compose(a, b) -> Numbering:
    """Composition (a o b)(t) = a(b(t))."""
    left = require_numbering(a)
    right = require_numbering(b, size=len(left))
    return tuple(map(((0,) + left).__getitem__, right))


def invert(n) -> Numbering:
    return tuple((np.asarray(require_numbering(n)).argsort() + 1).tolist())


@dataclass(frozen=True)
class CostFunction:
    """A real cost vector over guess positions {1..M}, and what derives from it.

    ``mean`` and the permutations are computed from ``values`` on first use.
    ``balancing_permutation`` is a certificate sigma with
    gamma(sigma^-1(t)) = 2*mean - gamma(t) for every t, or None when gamma is
    not balanced.  ``sorting_permutation`` is a stable sigma_1 such that
    gamma o sigma_1 is non-decreasing.
    """

    values: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.values)

    @cached_property
    def mean(self) -> float:
        return _mean(np.asarray(self.values, dtype=float))

    @cached_property
    def balancing_permutation(self) -> Numbering | None:
        return _balance_certificate(self.values)

    @cached_property
    def sorting_permutation(self) -> Numbering:
        return tuple((np.asarray(self.values).argsort(kind="stable") + 1).tolist())

    @property
    def is_balanced(self) -> bool:
        return self.balancing_permutation is not None


def _exponent(values) -> int:
    """k such that 2^k is the smallest power of two above max |values|: 0 when
    every value is 0, and at least -1000, so that 2^-k is a finite double.
    Tolerances taken at 2^k scale with the cost, as the guesswork does."""
    return max(math.frexp(float(np.maximum.reduce(np.abs(values), axis=None)))[1], -1000)


def _mean(values: np.ndarray) -> float:
    """The mean of a float array, by numpy's own formula without its Python code."""
    return float(np.add.reduce(values, axis=None) / values.size)


def _balance_certificate(values) -> Numbering | None:
    """Find sigma with gamma(sigma^-1(t)) = 2*mean - gamma(t), or None.

    Exists iff the multiset of gamma equals the multiset of its reflection
    about the mean.  Deterministic construction: both sequences are matched
    in sorted order (stable on ties), then the pairing is verified pointwise
    within BALANCE_TOL 2^k, 2^k the smallest power of two above max |gamma - mean|,
    plus M eps max |gamma| for the rounding of 2*mean - gamma.
    """
    gamma = np.asarray(values, dtype=float)
    m = gamma.size
    if m < 1:
        raise ValueError("cost function must have at least one value")
    mean = _mean(gamma)
    target = 2 * mean - gamma
    gamma_order = gamma.argsort(kind="stable")
    target_order = target.argsort(kind="stable")
    # sigma_inverse sends t to the 0-based position holding the reflected value of t
    sigma_inverse = np.empty(m, dtype=np.intp)
    sigma_inverse[target_order] = gamma_order
    tol = math.ldexp(BALANCE_TOL, _exponent(gamma - mean))
    tol += m * _EPS * float(np.maximum.reduce(np.abs(gamma)))
    if np.logical_or.reduce(np.abs(gamma[sigma_inverse] - target) > tol):
        return None
    return tuple((sigma_inverse.argsort() + 1).tolist())


def _require_balanced(c: CostFunction) -> None:
    """Refuse a cost that no balancing permutation certifies."""
    if not c.is_balanced:
        raise ValueError("cost function is not balanced: no certificate permutation exists")


def cost_function(values) -> CostFunction:
    """Build a cost function from finite values whose mean and sum of
    |2 (gamma - mean)| are finite, so that every entry of E(n) is bounded."""
    gamma = tuple(map(float, values))
    if len(gamma) < 1:
        raise ValueError("cost function must have at least one value")
    arr = np.asarray(gamma)
    if not np.logical_and.reduce(np.isfinite(arr)):
        raise ValueError(f"cost values must be finite, got {gamma}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _mean(arr)
        spread = np.add.reduce(np.abs(2 * (arr - mean)))
    if not (np.isfinite(mean) and np.isfinite(spread)):
        raise ValueError(
            "cost values overflow: their mean or the sum of |2 (gamma - mean)| "
            "is not a finite double"
        )
    return CostFunction(values=gamma)


def identity_cost(m: int) -> CostFunction:
    """The cost gamma(t) = t, balanced by the reversal permutation."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return cost_function(range(1, m + 1))
