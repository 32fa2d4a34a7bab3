"""Dense Hermitian linear algebra on small matrices.

Eigendecompositions, trace norm, spectral projectors, and the Pauli (Bloch)
vector map for qubit operators.  Everything is a pure function of numpy
arrays; matrices are small (d <= 16 design envelope), so plain ``eigh`` is
always the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hermiticity is validated tighter than spectral classification: double
# precision leaves plenty of headroom on d <= 16 matrices.
HERMITICITY_TOL = 1e-12
EIGEN_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Standard (unnormalized) Paulis, Tr[s_j s_k] = 2 delta_jk.  This choice makes
# trace_norm(A) == |pauli_vector(A)|_2 hold exactly for traceless A, which the
# qubit solver relies on.
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

PAULI_X.setflags(write=False)
PAULI_Y.setflags(write=False)
PAULI_Z.setflags(write=False)


def require_hermitian(a, name: str = "operator") -> np.ndarray:
    """Validate a square Hermitian matrix and return its exact Hermitian part."""
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    if mat.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        deviation = float(np.abs(mat - mat.conj().T).max())
        hermitian = (mat + mat.conj().T) / 2
    if not np.isfinite(hermitian).all():  # NaN would pass the comparison below
        raise ValueError(f"{name} has non-finite entries or entries too large to symmetrize")
    if deviation > HERMITICITY_TOL:
        raise ValueError(
            f"{name} is not Hermitian: max |A - A^dag| = {deviation:.3e} "
            f"exceeds {HERMITICITY_TOL:.1e}"
        )
    return hermitian


def _hermitian_parts(raw, dim: int) -> np.ndarray:
    """The exact Hermitian parts of the longest leading run of ``raw`` whose
    matrices are dim x dim, finite and Hermitian within HERMITICITY_TOL, as
    one stack; :func:`require_hermitian` can name what is wrong with the next."""
    mats = []
    for a in raw:  # the run ends at a matrix that fails to convert or has another shape
        try:
            mat = np.asarray(a, dtype=complex)
        except (ArithmeticError, TypeError, ValueError):
            break
        if mat.shape != (dim, dim) or dim < 1:
            break
        mats.append(mat)
    stack = np.stack(mats) if mats else np.zeros((0, 1, 1), dtype=complex)
    adjoint = stack.conj().transpose(0, 2, 1)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite or huge entries
        valid = np.abs(stack - adjoint).max(axis=(1, 2)) <= HERMITICITY_TOL
        hermitian = (stack + adjoint) / 2
    valid &= np.isfinite(hermitian).all(axis=(1, 2))
    return hermitian[: int(valid.argmin()) if not valid.all() else len(mats)]


@dataclass(frozen=True)
class SpectralParts:
    """Spectral projectors of a Hermitian operator, split by eigenvalue sign."""

    negative_projector: np.ndarray
    null_projector: np.ndarray
    positive_projector: np.ndarray


def pauli_vector(a) -> np.ndarray:
    """Pauli coordinates (Tr[A s_x], Tr[A s_y], Tr[A s_z]) of a 2x2 Hermitian A."""
    mat = require_hermitian(a)
    if mat.shape[0] != 2:
        raise ValueError(f"pauli_vector requires a 2x2 operator, got dim {mat.shape[0]}")
    return np.array([float(np.trace(mat @ s).real) for s in PAULIS])


def from_bloch(trace: float, v) -> np.ndarray:
    """Inverse Pauli map: the operator (trace*I + v . sigma) / 2."""
    vec = np.asarray(v, dtype=float)
    if vec.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got shape {vec.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # validation refuses non-finite entries
        mat = trace * np.eye(2, dtype=complex)
        for component, pauli in zip(vec, PAULIS):
            mat = mat + component * pauli
        return mat / 2


def spectral_parts(a) -> SpectralParts:
    """Split a Hermitian operator into negative / null / positive eigenspaces.

    Eigenvalues with |lambda| <= EIGEN_TOL are classified as null.  Only
    projectors are exposed, so degenerate eigenvalues are harmless.
    """
    mat = require_hermitian(a)
    dim = mat.shape[0]
    eigenvalues, vectors = np.linalg.eigh(mat)

    def projector(mask: np.ndarray) -> np.ndarray:
        if not mask.any():
            return np.zeros((dim, dim), dtype=complex)
        sub = vectors[:, mask]
        return sub @ sub.conj().T

    null_mask = np.abs(eigenvalues) <= EIGEN_TOL
    negative_mask = (eigenvalues < -EIGEN_TOL) & ~null_mask
    positive_mask = (eigenvalues > EIGEN_TOL) & ~null_mask
    return SpectralParts(
        negative_projector=projector(negative_mask),
        null_projector=projector(null_mask),
        positive_projector=projector(positive_mask),
    )


def trace_norm(a) -> float:
    """Sum of absolute eigenvalues of a Hermitian operator."""
    mat = require_hermitian(a)
    return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))


def abs_operator(a) -> np.ndarray:
    """Operator absolute value |A| = A_+ - A_- via eigendecomposition."""
    mat = require_hermitian(a)
    eigenvalues, vectors = np.linalg.eigh(mat)
    return (vectors * np.abs(eigenvalues)) @ vectors.conj().T
