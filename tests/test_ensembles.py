import math
import warnings

import numpy as np
import pytest
from conftest import reference_validate
from hypothesis import given, settings, strategies as st

from guesswork.ensembles import (
    antiprism_h_bound,
    constant_overlap_check,
    generate_mub,
    generate_polygon_antiprism,
    generate_random_uniform_prior,
    generate_sic,
    is_uniform_prior,
    validate,
)
from guesswork.operators import from_bloch, pauli_vector


def test_validate_orthogonal_pair():
    e = validate([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])])
    assert e.prior == pytest.approx([0.5, 0.5])
    assert e.dim == 2 and e.size == 2


def test_ensembles_compare_and_hash_by_identity():
    e, twin = generate_sic(), generate_sic()
    assert e == e and e != twin
    assert hash(e) == hash(e)
    assert len({e, twin, e}) == 2


def test_validate_rejects_bad_total_trace():
    with pytest.raises(ValueError, match="total trace"):
        validate([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def test_validate_rejects_non_psd():
    with pytest.raises(ValueError, match="state 0 is not PSD"):
        validate([np.diag([0.6, -0.1]), np.diag([0.25, 0.25])])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validate_rejects_non_finite_entries(bad):
    # NaN compares False in the Hermiticity and trace checks, so it needs its own
    with pytest.raises(ValueError, match="state 1 has non-finite entries"):
        validate([np.diag([0.5, 0.0]), np.diag([0.0, bad])])


def test_validate_rejects_mixed_dims():
    with pytest.raises(ValueError, match="mixed dimensions"):
        validate([np.diag([0.5, 0.0]), np.diag([0.25, 0.15, 0.1])])


def test_validate_rejects_empty():
    with pytest.raises(ValueError):
        validate([])


def test_validate_defers_a_late_conversion_error():
    # a state that cannot be converted does not hide an earlier fault
    with pytest.raises(ValueError, match="state 0 is not PSD"):
        validate([np.diag([0.6, -0.1]), "not a matrix"])
    with pytest.raises(ValueError, match="malformed string"):
        validate([np.diag([0.5, 0.5]), "not a matrix"])


# --- the batched validation against the per-state loop ----------------------------


def _outcome(check, raw_states):
    """Every field of the Ensemble as bytes, or the exception's type and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = check(raw_states)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = [*e.states, e.prior] + ([] if e.bloch is None else [e.bloch])
    return e.dim, e.bloch is None, [
        (a.dtype, a.shape, a.tobytes(), a.flags.writeable) for a in arrays
    ]


@st.composite
def valid_states(draw):
    """M = 1..8 PSD states of dimension 1..4 whose traces sum to 1, as arrays
    or nested lists; qubits are often built from Bloch vectors with exact and
    signed zeros, and some states are rank-deficient."""
    dim, m = draw(st.integers(1, 4), label="dim"), draw(st.integers(1, 8), label="M")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    prior = rng.dirichlet(np.ones(m))
    states = []
    for weight in prior:
        if dim == 2 and draw(st.booleans(), label="from Bloch"):
            parts = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 0.1])
            v = np.array([draw(parts) for _ in range(3)])
            states.append(from_bloch(weight, weight * v / max(1.0, float(np.linalg.norm(v)))))
            continue
        rank = draw(st.integers(1, dim), label="rank")
        g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        w = g @ g.conj().T
        states.append(weight * w / np.trace(w).real)
    if draw(st.booleans(), label="as lists"):
        return [s.tolist() for s in states]
    return states


@settings(max_examples=300, deadline=None)
@given(valid_states())
def test_validate_matches_the_per_state_loop_on_valid_ensembles(raw_states):
    want = _outcome(reference_validate, raw_states)
    assert not isinstance(want[0], type), want
    assert _outcome(validate, raw_states) == want


FAULTS = ["non-square", "vector", "mixed", "mixed non-finite", "nan", "inf",
          "non-Hermitian", "non-PSD"]


def _corrupt(draw, state, fault):
    """The valid state ``state`` with one fault."""
    dim = state.shape[0]
    state = state.copy()
    if fault == "non-square":
        return np.zeros((dim, dim + 1))
    if fault == "vector":
        return np.zeros(dim)
    if fault == "mixed":
        return np.eye(dim + 1) * np.trace(state).real / (dim + 1)
    if fault == "mixed non-finite":
        state = np.eye(dim + 1)
        state[0, 0] = math.nan
        return state
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    if fault in ("nan", "inf"):
        state[i, j] = complex(math.nan if fault == "nan" else -math.inf, 0.0)
    elif fault == "non-Hermitian":
        # around HERMITICITY_TOL = 1e-12 as well as far beyond it
        step = draw(st.sampled_from([5e-13, 9e-13, 1e-12, 1.1e-12, 1e-6]))
        state[i, j] += step * 1j if i == j else step
    else:
        # around EIGEN_TOL = 1e-10 as well as far beyond it
        state -= draw(st.sampled_from([5e-11, 1e-10, 2e-10, 0.3])) * np.eye(dim)
    return state


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_validate_matches_the_per_state_loop_on_corrupted_ensembles(data):
    states = [np.array(s, dtype=complex) for s in data.draw(valid_states())]
    if data.draw(st.booleans(), label="bad total trace"):
        scale = data.draw(st.sampled_from([1 + 5e-11, 1 + 2e-10, 2.0, 0.0]))
        states = [s * scale for s in states]
    positions = st.lists(st.integers(0, len(states) - 1), min_size=1, max_size=3, unique=True)
    for index in data.draw(positions, label="positions"):
        fault = data.draw(st.sampled_from(FAULTS), label=f"fault at {index}")
        states[index] = _corrupt(data.draw, states[index], fault)
    assert _outcome(validate, states) == _outcome(reference_validate, states)


def test_trine_geometry():
    e = generate_polygon_antiprism(3)
    radii = np.linalg.norm(e.bloch, axis=1)
    assert radii == pytest.approx([1 / 3] * 3, abs=1e-12)
    assert np.abs(e.bloch[:, 2]).max() == pytest.approx(0.0, abs=1e-15)
    unit = e.bloch / radii[:, None]
    for i in range(3):
        for j in range(i + 1, 3):
            assert unit[i] @ unit[j] == pytest.approx(math.cos(2 * math.pi / 3), abs=1e-12)


def test_sic_is_tetrahedron():
    e = generate_sic()
    assert e.size == 4
    assert is_uniform_prior(e)
    assert e.prior == pytest.approx([0.25] * 4, abs=1e-12)
    unit = e.bloch / np.linalg.norm(e.bloch, axis=1)[:, None]
    for i in range(4):
        for j in range(i + 1, 4):
            assert unit[i] @ unit[j] == pytest.approx(-1 / 3, abs=1e-10)


def test_mub_is_octahedron():
    e = generate_mub()
    assert e.size == 6
    assert e.prior == pytest.approx([1 / 6] * 6, abs=1e-12)
    unit = e.bloch / np.linalg.norm(e.bloch, axis=1)[:, None]
    gram = unit @ unit.T
    # three antipodal pairs, orthogonal across pairs
    for i in range(6):
        partner = (i + 3) % 6
        for j in range(6):
            if j == i:
                assert gram[i, j] == pytest.approx(1.0, abs=1e-10)
            elif j == partner:
                assert gram[i, j] == pytest.approx(-1.0, abs=1e-10)
            else:
                assert gram[i, j] == pytest.approx(0.0, abs=1e-10)


def test_presets_saturate_h_bound():
    assert antiprism_h_bound(4) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert antiprism_h_bound(6) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert antiprism_h_bound(5) == 0.0
    assert antiprism_h_bound(8) == pytest.approx(math.sqrt((1 - math.cos(math.pi / 4)) / 2))


def test_pure_states_on_sphere():
    for m, h in [(3, 0.0), (4, antiprism_h_bound(4)), (6, 0.2), (8, antiprism_h_bound(8))]:
        e = generate_polygon_antiprism(m, h=h, lam="pure")
        for state in e.states:
            eig = np.linalg.eigvalsh(state)
            assert eig[0] == pytest.approx(0.0, abs=1e-12)  # rank one


def test_generated_families_pass_validate_and_are_centered():
    for m in range(2, 9):
        h = antiprism_h_bound(m)
        e = generate_polygon_antiprism(m, h=h if math.isfinite(h) else 1.0)
        assert is_uniform_prior(e)
        average = sum(e.states) / e.size
        assert np.linalg.norm(pauli_vector(average)) < 1e-12
        assert float(np.trace(average).real) == pytest.approx(1 / m, abs=1e-10)


def test_h_bound_infinite_for_antipodal_pair():
    assert antiprism_h_bound(2) == math.inf


def test_h_bound_rejects_a_single_state():
    with pytest.raises(ValueError, match="m must be >= 2"):
        antiprism_h_bound(1)


def test_polygon_rejects_a_negative_height():
    with pytest.raises(ValueError, match="h must be >= 0"):
        generate_polygon_antiprism(4, h=-0.1)


def test_polygon_rejects_odd_m_with_height():
    with pytest.raises(ValueError, match="bound is 0 for odd M"):
        generate_polygon_antiprism(5, h=0.1)


@pytest.mark.parametrize("h", [math.inf, math.nan, -math.inf])
def test_polygon_rejects_a_height_that_is_not_finite(h):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="h must be finite"):
            generate_polygon_antiprism(4, h=h)


def test_polygon_rejects_nan_lambda():
    with pytest.raises(ValueError, match="lambda must be positive"):
        generate_polygon_antiprism(4, lam=math.nan)


def test_polygon_rejects_oversized_lambda():
    with pytest.raises(ValueError, match="violates PSD"):
        generate_polygon_antiprism(4, h=0.0, lam=0.3)


def test_explicit_lambda_scales_bloch():
    e = generate_polygon_antiprism(4, h=0.0, lam=0.1)
    assert np.linalg.norm(e.bloch, axis=1) == pytest.approx([0.1] * 4, abs=1e-12)


def test_antiprism_states_are_pure_at_every_height():
    # h * h overflows above 1e154, which made sqrt(1 + h^2) infinite and the
    # "pure" states maximally mixed; below 2^53 the states keep their bits
    for m in range(4, 65):
        for h in (antiprism_h_bound(m), antiprism_h_bound(m) / 2):
            scale = 1.0 / (m * math.sqrt(1.0 + h * h))
            angles = [2 * math.pi * i / m for i in range(m)]
            vectors = [[math.cos(a), math.sin(a), (-1.0) ** i * h] for i, a in enumerate(angles)]
            expected = validate([from_bloch(1.0 / m, scale * np.array(v)) for v in vectors])
            np.testing.assert_array_equal(generate_polygon_antiprism(m, h).states, expected.states)
    e = generate_polygon_antiprism(4, h=1e200)
    np.testing.assert_allclose(np.linalg.norm(e.bloch, axis=1), 0.25, rtol=1e-12)
    purities = np.einsum("kij,kji->k", e.states, e.states).real
    np.testing.assert_allclose(purities, 1 / 16, rtol=1e-12)


def test_random_ensemble_deterministic():
    a = generate_random_uniform_prior(3, 2, seed=7)
    b = generate_random_uniform_prior(3, 2, seed=7)
    for x, y in zip(a.states, b.states):
        np.testing.assert_array_equal(x, y)
    c = generate_random_uniform_prior(3, 2, seed=8)
    assert any(not np.allclose(x, y) for x, y in zip(a.states, c.states))


@pytest.mark.parametrize("dim", [2, 3])
def test_random_ensemble_valid_uniform(dim):
    e = generate_random_uniform_prior(4, dim, seed=1)
    assert e.dim == dim
    assert is_uniform_prior(e)
    revalidated = validate(e.states)
    assert revalidated.size == 4


def test_is_uniform_prior():
    assert is_uniform_prior(generate_sic())
    assert is_uniform_prior(generate_polygon_antiprism(5))
    skew = validate([np.diag([0.6, 0.0]), np.diag([0.0, 0.4])])
    assert not is_uniform_prior(skew, tol=1e-10)


def test_constant_overlap_polygons_and_sic():
    assert constant_overlap_check(generate_polygon_antiprism(4, h=0.3))
    assert constant_overlap_check(generate_sic())


def test_constant_overlap_fails_off_center():
    e = validate([from_bloch(0.5, [0, 0, 0.4]), from_bloch(0.5, [0, 0, -0.1])])
    # v(average) = (0,0,0.15); dots 0.06 vs -0.015
    assert not constant_overlap_check(e, tol=1e-10)


def test_constant_overlap_requires_qubits():
    e = generate_random_uniform_prior(3, 3, seed=0)
    with pytest.raises(ValueError):
        constant_overlap_check(e)
