import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BETA, family_state
from entredist.qcore import (
    DensityMatrix,
    PureState,
    basis_index,
    basis_state,
    eig_hermitian,
    fidelity_pure,
    haar_state,
    kron,
    numerical_rank,
    partial_trace,
    purity,
    state_from_json,
    state_to_json,
)

SY = np.array([[0, -1j], [1j, 0]])
BELL = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_projectors():
    p0 = np.array([[1, 0], [0, 0]])
    p1 = np.array([[0, 0], [0, 1]])
    out = kron(p0, p1)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.array_equal(out, expected)


def test_kron_sigma_y_pair_is_antidiagonal():
    # expanded by hand: anti-diagonal (-1, 1, 1, -1)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[3, 0] = -1.0
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.abs(kron(SY, SY) - expected).max() < 1e-15


def test_partial_trace_bell_marginal_is_maximally_mixed():
    reduced = partial_trace(BELL, (0,))
    assert np.abs(reduced.entries - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_product_state():
    reduced = partial_trace(basis_state("01"), (1,))
    assert np.abs(reduced.entries - np.diag([0.0, 1.0])).max() < 1e-12


def test_partial_trace_family_pair_marginal_is_rank_two():
    rho = partial_trace(family_state(0.5), ("S1", "E1"))
    w = rho.eigenvalues()
    assert w[2] < 1e-9
    assert numerical_rank(rho, 1e-7) == 2


def test_partial_trace_rejects_bad_labels():
    with pytest.raises(ValueError):
        partial_trace(BELL, ())
    with pytest.raises(ValueError):
        partial_trace(BELL, (0, 5))


def test_eig_hermitian_identity_and_sigma_z():
    w, _ = eig_hermitian(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    w, v = eig_hermitian(np.diag([1.0, -1.0]))
    assert np.allclose(w, [1.0, -1.0])
    assert abs(abs(v[0, 0]) - 1.0) < 1e-12 and abs(abs(v[1, 1]) - 1.0) < 1e-12


def test_eig_hermitian_initial_system_marginal_is_pure():
    rho = partial_trace(family_state(0.0), ("S1", "S2"))
    w, _ = eig_hermitian(rho)
    assert abs(w[0] - 1.0) < 1e-12


def test_density_matrix_spectrum_is_decomposed_once_and_read_only():
    rho = family_state(0.3).density()
    w, v = eig_hermitian(rho)
    assert eig_hermitian(rho) is rho.spectrum
    fresh_w, fresh_v = eig_hermitian(rho.entries)
    assert np.array_equal(w, fresh_w) and np.array_equal(v, fresh_v)
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        v[0, 0] = 0.0


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_purity_cases():
    assert purity(BELL.density()) == pytest.approx(1.0, abs=1e-12)
    assert purity(DensityMatrix(np.eye(4) / 4)) == pytest.approx(0.25, abs=1e-12)


def test_fidelity_pure_cases():
    psi = family_state(0.3)
    assert fidelity_pure(psi.density(), psi) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_pure(basis_state("00").density(), basis_state("11")) == 0.0
    with pytest.raises(ValueError, match="dimension"):
        fidelity_pure(np.eye(4) / 4, basis_state("000"))


def test_numerical_rank_cases():
    assert numerical_rank(BELL.density(), 1e-7) == 1
    assert numerical_rank(DensityMatrix(np.eye(2) / 2), 1e-7) == 2
    for p in (0.2, 0.5, 0.8):
        rho = partial_trace(family_state(p), ("S2", "E2"))
        assert numerical_rank(rho, 1e-7) == 2
    with pytest.raises(ValueError):
        numerical_rank(BELL.density(), 0.0)


def test_basis_index_convention():
    # slot 0 (S1) is the most significant bit
    assert basis_index("1100") == 12
    psi = family_state(0.3)
    assert psi.amplitude("1100") == pytest.approx(BETA * 0.7, abs=1e-12)


def test_state_validation_errors():
    with pytest.raises(ValueError, match="norm"):
        PureState(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]))


# -- invariants ------------------------------------------------------------

@given(seed=st.integers(0, 2**32 - 1))
def test_partial_trace_composes(seed):
    psi = haar_state(4, np.random.default_rng(seed))
    rho = psi.density()
    via_two_steps = partial_trace(partial_trace(rho, (0, 1, 2)), (0, 1))
    direct = partial_trace(rho, (0, 1))
    assert np.abs(via_two_steps.entries - direct.entries).max() < 1e-10


@given(seed=st.integers(0, 2**32 - 1))
def test_eig_hermitian_reconstructs(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = 0.5 * (m + m.conj().T)
    w, v = eig_hermitian(m)
    assert np.abs((v * w) @ v.conj().T - m).max() < 1e-8
    assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-9
    assert np.all(np.diff(w) <= 1e-12)


@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 3))
def test_purity_symmetric_across_complementary_marginals(seed, size):
    psi = haar_state(4, np.random.default_rng(seed))
    side = tuple(range(size))
    other = tuple(q for q in range(4) if q not in side)
    assert purity(partial_trace(psi, side)) == pytest.approx(
        purity(partial_trace(psi, other)), abs=1e-9
    )


# -- serialization ----------------------------------------------------------

def test_json_roundtrip_is_bit_exact(rng):
    psi = haar_state(3, rng)
    back = state_from_json(json.loads(json.dumps(state_to_json(psi))))
    assert isinstance(back, PureState)
    assert np.array_equal(back.amplitudes, psi.amplitudes)

    rho = partial_trace(haar_state(4, rng), (0, 2))
    back = state_from_json(json.loads(json.dumps(state_to_json(rho))))
    assert isinstance(back, DensityMatrix)
    assert np.array_equal(back.entries, rho.entries)


def test_json_rejects_odd_lengths():
    with pytest.raises(ValueError):
        state_from_json({"n_qubits": 2, "re": [1.0] * 5, "im": [0.0] * 5})


@pytest.mark.parametrize("payload, match", [
    ({"n_qubits": "2", "re": ["1", False, False, False], "im": [False] * 4}, "n_qubits"),
    ({"n_qubits": "2", "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0] * 4}, "n_qubits"),
    ({"n_qubits": True, "re": [1.0, 0.0], "im": [0.0, 0.0]}, "n_qubits"),
    ({"n_qubits": 2.5, "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0] * 4}, "n_qubits"),
    ({"n_qubits": 2, "re": ["1", 0.0, 0.0, 0.0], "im": [0.0] * 4}, "re entry"),
    ({"n_qubits": 2, "re": [True, 0.0, 0.0, 0.0], "im": [0.0] * 4}, "re entry"),
    ({"n_qubits": 2, "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0, False, 0.0, 0.0]}, "im entry"),
    ({"n_qubits": 2, "re": "1000", "im": [0.0] * 4}, "re must be a list"),
], ids=["issue-payload", "string-n", "bool-n", "fractional-n", "string-entry", "bool-entry",
        "bool-im-entry", "string-re"])
def test_json_rejects_non_number_fields(payload, match):
    # booleans and numeric strings would otherwise convert silently (the first is |00>)
    with pytest.raises(ValueError, match=match):
        state_from_json(payload)
