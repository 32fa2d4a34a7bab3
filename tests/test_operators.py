import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from guesswork.operators import (
    EIGEN_TOL,
    _pauli,
    abs_operator,
    from_bloch,
    pauli_vector,
    require_hermitian,
    spectral_parts,
    trace_norm,
)

finite = st.floats(-10, 10, allow_nan=False)


def test_pauli_vector_identity_is_zero():
    assert pauli_vector(np.eye(2)) == pytest.approx([0.0, 0.0, 0.0])


def test_pauli_vector_half_sigma_z():
    assert pauli_vector(np.diag([0.5, -0.5])) == pytest.approx([0.0, 0.0, 1.0])


def test_pauli_vector_rejects_wrong_dim():
    with pytest.raises(ValueError):
        pauli_vector(np.eye(3))


def test_require_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_require_hermitian_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match="operator must have dimension >= 1"):
        require_hermitian(np.zeros((0, 0)))


def test_traceless_trace_norm_equals_bloch_norm():
    a = np.diag([-0.5, 0.5])
    assert trace_norm(a) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(pauli_vector(a)) == pytest.approx(trace_norm(a), abs=1e-10)


@given(st.lists(finite, min_size=3, max_size=3))
def test_traceless_norm_identity(v):
    # the equality trace_norm = |pauli_vector|_2 on traceless operators is what
    # lets the qubit solver work in Bloch coordinates
    a = from_bloch(0.0, v)
    assert trace_norm(a) == pytest.approx(np.linalg.norm(v), abs=1e-10)


def test_from_bloch_maximally_mixed():
    np.testing.assert_allclose(from_bloch(1.0, [0, 0, 0]), np.eye(2) / 2)


def test_from_bloch_rejects_a_vector_of_two_components():
    with pytest.raises(ValueError, match=r"must have 3 components, got shape \(2,\)"):
        from_bloch(0.5, [0.1, 0.2])


def test_from_bloch_pure_is_rank_one():
    mat = from_bloch(1 / 3, [1 / 3, 0, 0])
    eig = np.linalg.eigvalsh(mat)
    assert eig == pytest.approx([0.0, 1 / 3], abs=1e-12)


@given(st.floats(-5, 5, allow_nan=False), st.lists(finite, min_size=3, max_size=3))
def test_from_bloch_round_trip(trace, v):
    mat = from_bloch(trace, v)
    assert pauli_vector(mat) == pytest.approx(v, abs=1e-12)
    assert float(np.trace(mat).real) == pytest.approx(trace, abs=1e-12)


def test_round_trip_random_hermitian():
    rng = np.random.default_rng(11)
    for _ in range(100):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = (raw + raw.conj().T) / 2
        rebuilt = from_bloch(float(np.trace(a).real), pauli_vector(a))
        np.testing.assert_allclose(rebuilt, a, atol=1e-12)


def test_spectral_parts_diagonal():
    parts = spectral_parts(np.diag([-0.5, 0.5]))
    np.testing.assert_allclose(parts.negative_projector, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(parts.null_projector, np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(parts.positive_projector, np.diag([0.0, 1.0]), atol=1e-12)


def test_spectral_parts_zero_operator():
    parts = spectral_parts(np.zeros((2, 2)))
    np.testing.assert_allclose(parts.null_projector, np.eye(2), atol=1e-12)


def test_spectral_parts_ranks():
    parts = spectral_parts(np.diag([3.0, -1.0, 0.0]))
    ranks = tuple(
        int(round(np.trace(p).real))
        for p in (parts.negative_projector, parts.null_projector, parts.positive_projector)
    )
    assert ranks == (1, 1, 1)


def test_spectral_parts_properties_random():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        for _ in range(20):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = (raw + raw.conj().T) / 2
            parts = spectral_parts(a)
            projectors = (
                parts.negative_projector,
                parts.null_projector,
                parts.positive_projector,
            )
            total = sum(projectors)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)
            for p in projectors:
                np.testing.assert_allclose(p @ p, p, atol=1e-10)
                assert np.linalg.eigvalsh(p)[0] >= -EIGEN_TOL
            for i, p in enumerate(projectors):
                for q in projectors[i + 1 :]:
                    np.testing.assert_allclose(p @ q, np.zeros((dim, dim)), atol=1e-10)
            # the sign projectors block-diagonalize A back to itself
            rebuilt = sum(p @ a @ p for p in projectors)
            np.testing.assert_allclose(rebuilt, a, atol=1e-10)
            # reconstruction through abs_operator: |A| uses the same eigenspaces
            np.testing.assert_allclose(
                abs_operator(a),
                parts.positive_projector @ a - parts.negative_projector @ a,
                atol=1e-9,
            )


def test_spectral_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(20):
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = (raw + raw.conj().T) / 2
        w, u = np.linalg.eigh(a)
        rebuilt = (u * w) @ u.conj().T
        np.testing.assert_allclose(rebuilt, a, atol=1e-10)


def test_trace_norm_values():
    assert trace_norm(np.diag([-0.5, 0.5])) == pytest.approx(1.0)
    assert trace_norm(np.eye(2)) == pytest.approx(2.0)


def test_trace_norm_dominates_trace():
    rng = np.random.default_rng(5)
    for _ in range(50):
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = (raw + raw.conj().T) / 2
        assert trace_norm(a) >= abs(float(np.trace(a).real)) - 1e-12


# entries of either sign from 1e-150 to 1e150, and zeros: sums stay finite
ENTRIES = st.one_of(st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pauli_gives_the_bits_of_the_stacked_coordinates(data):
    shape = data.draw(st.sampled_from([(2, 2), (1, 2, 2), (7, 2, 2), (3, 4, 2, 2)]))
    parts = [data.draw(hnp.arrays(np.float64, shape, elements=ENTRIES)) for _ in range(2)]
    mats = parts[0] + 1j * parts[1]
    a01, a10, gap = mats[..., 0, 1], mats[..., 1, 0], mats[..., 0, 0] - mats[..., 1, 1]
    want = np.stack([(a01 + a10).real, (a10 - a01).imag, gap.real], axis=-1)
    got = _pauli(mats)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
