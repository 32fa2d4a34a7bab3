"""Ensembles of subnormalized quantum states, and generators for standard families.

An ensemble is a list of PSD operators rho(1..M) whose traces form the prior
distribution (they sum to 1).  For qubits the polygon / anti-prism family
places Bloch vectors at

    v(rho(m)) = lambda * (cos(2 pi (m-1) / M), sin(2 pi (m-1) / M), (-1)^(m-1) h)

so h = 0 is a regular polygon in the equatorial plane and even M with h > 0 is
an anti-prism.  The qubit SIC (tetrahedron, M = 4) and MUB (octahedron, M = 6)
ensembles are the pure anti-prisms with h = 1/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import EIGEN_TOL, _hermitian_parts, from_bloch, pauli_vector, require_hermitian

TRACE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Validated ensemble with cached prior and Bloch vectors.

    ``states`` is a read-only (M, d, d) array; ``prior[m-1] = Tr[rho(m)]``;
    ``bloch`` stacks the Pauli vectors of the states and is present only for
    dim = 2.  Ensembles compare and hash by identity.
    """

    dim: int
    states: np.ndarray
    prior: np.ndarray
    bloch: np.ndarray | None

    @property
    def size(self) -> int:
        return len(self.states)


def validate(raw_states) -> Ensemble:
    """Check PSD and total-trace invariants and build the cached Ensemble.

    Each check runs once over the stacked states.  An error names the first
    failing state and its first failing check (shape, finite, Hermitian,
    dimension, PSD); the total-trace check comes last.
    """
    if len(raw_states) == 0:
        raise ValueError("ensemble must contain at least one state")
    dim = require_hermitian(raw_states[0], name="state 0").shape[0]  # state 0 fixes the shape
    states = _hermitian_parts(raw_states, dim)
    count = len(states)
    low = np.linalg.eigvalsh(states)[:, 0]
    index = int(np.argmax(low < -EIGEN_TOL))
    if low[index] < -EIGEN_TOL:
        raise ValueError(f"state {index} is not PSD (min eigenvalue {low[index]:.3e})")
    if count < len(raw_states):  # the first state that is not a valid dim x dim matrix
        other = require_hermitian(raw_states[count], name=f"state {count}").shape[0]
        raise ValueError(f"mixed dimensions: state {count} is {other}x{other}, expected {dim}")
    states.setflags(write=False)
    prior = np.ascontiguousarray(np.trace(states, axis1=1, axis2=2).real)
    total = float(prior.sum())
    if abs(total - 1.0) > TRACE_TOL:
        raise ValueError(f"total trace is {total!r}, must be 1 within {TRACE_TOL:.1e}")
    prior.setflags(write=False)
    bloch = None
    if dim == 2:
        a01, a10, a00, a11 = states[:, 0, 1], states[:, 1, 0], states[:, 0, 0], states[:, 1, 1]
        bloch = np.stack([(a01 + a10).real, (a10 - a01).imag, (a00 - a11).real], axis=1)
        bloch.setflags(write=False)
    return Ensemble(dim=dim, states=states, prior=prior, bloch=bloch)


def antiprism_h_bound(m: int) -> float:
    """Largest anti-prism height (Bloch units) admitting the zig-zag solution.

    0 for odd M; sqrt((1 - cos(2 pi / M)) / 2) when M/2 is even;
    sqrt((cos(2 pi / M) - cos(4 pi / M)) / 2) when M/2 is odd.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if m == 2:
        # the two vertices are antipodal whatever the height, and the
        # monotonicity constraint is vacuous at M = 2
        return math.inf
    if m % 2 == 1:
        return 0.0
    if (m // 2) % 2 == 0:
        return math.sqrt((1.0 - math.cos(2 * math.pi / m)) / 2.0)
    return math.sqrt((math.cos(2 * math.pi / m) - math.cos(4 * math.pi / m)) / 2.0)


def generate_polygon_antiprism(m: int, h: float = 0.0, lam: float | str = "pure") -> Ensemble:
    """Uniform-prior qubit ensemble on a regular polygon (h = 0) or anti-prism.

    ``lam`` is the Bloch radius scale; the sentinel "pure" selects
    lambda = 1 / (M sqrt(1 + h^2)), making every state pure.  States have
    trace 1/M, so PSD requires lambda * sqrt(1 + h^2) <= 1/M.

    Odd M is rejected for h > 0: the alternating z-sign wraps inconsistently
    around an odd cycle, the vertex sum no longer vanishes, and the height
    bound for odd M is 0.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not math.isfinite(h):
        raise ValueError(f"h must be finite, got {h}")
    if h < 0:
        raise ValueError("h must be >= 0")
    if m % 2 == 1 and h > 0:
        raise ValueError(
            f"h = {h} not allowed for odd M = {m}: the anti-prism height bound is 0 for odd M"
        )
    slant = math.sqrt(1.0 + h * h) if h <= 2.0**53 else h  # the same where h * h is finite
    if lam == "pure":
        scale = 1.0 / (m * slant)
    else:
        scale = float(lam)
        if not scale > 0:  # NaN included
            raise ValueError("lambda must be positive or the string 'pure'")
        if scale * slant > 1.0 / m + 1e-12:
            raise ValueError(
                f"lambda = {scale} violates PSD: lambda*sqrt(1+h^2) = {scale * slant:.6g} "
                f"exceeds 1/M = {1.0 / m:.6g}"
            )
    states = []
    for index in range(m):
        angle = 2 * math.pi * index / m
        v = scale * np.array([math.cos(angle), math.sin(angle), (-1.0) ** index * h])
        states.append(from_bloch(1.0 / m, v))
    return validate(states)


def generate_sic() -> Ensemble:
    """Qubit SIC ensemble: the pure M = 4 anti-prism at h = 1/sqrt(2) (tetrahedron)."""
    return generate_polygon_antiprism(4, h=antiprism_h_bound(4), lam="pure")


def generate_mub() -> Ensemble:
    """Qubit MUB ensemble: the pure M = 6 anti-prism at h = 1/sqrt(2) (octahedron)."""
    return generate_polygon_antiprism(6, h=antiprism_h_bound(6), lam="pure")


def generate_random_uniform_prior(m: int, dim: int, seed: int) -> Ensemble:
    """Reproducible random ensemble of M states, each PSD with trace exactly 1/M.

    dim = 2: uniform Bloch directions with radius uniform in [0, 1/M].
    dim > 2: normalized Ginibre states (G G^dag scaled to trace 1/M).
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(m):
        if dim == 2:
            direction = rng.normal(size=3)
            norm = float(np.linalg.norm(direction))
            while norm < 1e-12:
                direction = rng.normal(size=3)
                norm = float(np.linalg.norm(direction))
            radius = rng.uniform(0.0, 1.0 / m)
            states.append(from_bloch(1.0 / m, radius * direction / norm))
        else:
            ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            wishart = ginibre @ ginibre.conj().T
            states.append(wishart / (m * float(np.trace(wishart).real)))
    return validate(states)


def is_uniform_prior(e: Ensemble, tol: float = TRACE_TOL) -> bool:
    """True iff every prior weight is within tol of 1/M."""
    return bool(np.max(np.abs(e.prior - 1.0 / e.size)) <= tol)


def constant_overlap_check(e: Ensemble, tol: float = TRACE_TOL) -> bool:
    """True iff v(average state) . v(rho(m)) is constant over m (dim = 2 only)."""
    if e.dim != 2:
        raise ValueError(f"constant_overlap_check requires dim = 2, got {e.dim}")
    center = pauli_vector(sum(e.states) / e.size)
    dots = e.bloch @ center
    return bool(np.max(np.abs(dots - dots.mean())) <= tol)
