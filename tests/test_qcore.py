import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ALPHA, BETA, family_state
from entredist.channels import InitialSpec, evolve, initial_state, mixed_system_with_purity
from entredist.measures import tangle_pure
from entredist.qcore import (
    DensityMatrix,
    PureState,
    basis_index,
    basis_state,
    eig_hermitian,
    fidelity_pure,
    haar_state,
    numerical_rank,
    partial_trace,
    purity,
    resolve_slots,
    state_from_json,
    state_to_json,
)

BELL = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_partial_trace_bell_marginal_is_maximally_mixed():
    reduced = partial_trace(BELL, (0,))
    assert np.abs(reduced.entries - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_product_state():
    reduced = partial_trace(basis_state("01"), (1,))
    assert np.abs(reduced.entries - np.diag([0.0, 1.0])).max() < 1e-12


def test_partial_trace_family_pair_marginal_is_rank_two():
    rho = partial_trace(family_state(0.5), ("S1", "E1"))
    w = rho.spectrum[0]
    assert w[2] < 1e-9
    assert numerical_rank(rho, 1e-7) == 2


@pytest.mark.parametrize("keep", [(0, 1, 2, 3), ("E2", "E1", "S2", "S1"), ("S2", 3, "S1", "E1")],
                         ids=["slot-order", "reversed-names", "mixed-labels"])
def test_partial_trace_of_the_whole_register_is_the_state(keep):
    # keeping every slot takes the same marginal route as any other selection
    pure_stack = family_state(np.linspace(0.0, 1.0, 5))
    mixed = evolve(initial_state(InitialSpec(mixed_system=mixed_system_with_purity(ALPHA, BETA, 0.82))),
                   0.3, 0.6)
    for state, entries in [(pure_stack, pure_stack.density().entries), (mixed, mixed.entries)]:
        whole = partial_trace(state, keep)
        assert isinstance(whole, DensityMatrix) and whole is not state
        assert np.array_equal(whole.entries, entries)


def test_partial_trace_rejects_bad_labels():
    with pytest.raises(ValueError):
        partial_trace(BELL, ())
    with pytest.raises(ValueError):
        partial_trace(BELL, (0, 5))


@pytest.mark.parametrize("read", ["resolve_slots", "tangle_pure"])
@pytest.mark.parametrize("labels, n_qubits", [
    (1.7, 4), ((1.7,), 4), (True, 4), ((np.bool_(True),), 4), (None, 4), ("s1", 4), ((0, 5), 2),
], ids=["float", "float-in-tuple", "bool", "numpy-bool", "None", "lowercase-name", "outside-register"])
def test_a_label_is_a_name_or_an_integer_slot(read, labels, n_qubits):
    state = BELL if n_qubits == 2 else family_state(0.3)
    with pytest.raises(ValueError, match=rf"unknown subsystem .* for {n_qubits} qubits"):
        resolve_slots(labels, n_qubits) if read == "resolve_slots" else tangle_pure(state, labels)


@pytest.mark.parametrize("labels, slots", [
    (np.int64(2), (2,)), (("E1",), (2,)), ("E1", (2,)), ((np.int32(3), "S1"), (0, 3)),
], ids=["numpy-int", "name-in-tuple", "bare-name", "mixed"])
def test_names_and_integer_slots_resolve_alike(labels, slots):
    assert resolve_slots(labels, 4) == slots
    psi = family_state(0.3)
    assert tangle_pure(psi, labels) == tangle_pure(psi, slots)


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
    # NaN fails every comparison, so a bare ``eps <= 0`` would pass it on to a rank of 0
    for eps in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            numerical_rank(np.eye(4) / 4, eps)


def test_numerical_rank_of_a_density_matrix_reads_its_spectrum(monkeypatch):
    stack = partial_trace(family_state(np.linspace(0.0, 1.0, 41)), ("S1", "E1"))
    raw = numerical_rank(stack.entries, 1e-7)

    def no_second_decomposition(*args, **kwargs):
        raise AssertionError("eigvalsh called on a DensityMatrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_second_decomposition)
    assert np.array_equal(numerical_rank(stack, 1e-7), raw) and raw.max() == 2
    with pytest.raises(AssertionError, match="eigvalsh called"):
        numerical_rank(stack.entries, 1e-7)  # a raw array keeps eigvalsh


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


@pytest.mark.parametrize("make", [lambda: PureState(np.zeros(0)),
                                  lambda: DensityMatrix(np.zeros((0, 0)))],
                         ids=["PureState", "DensityMatrix"])
def test_empty_states_are_not_qubit_states(make):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="is not a 1..4 qubit state"):
            make()


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
    ([2, [1.0, 0.0, 0.0, 0.0], [0.0] * 4], "must be a JSON object, got a list"),
    ({"re": [1.0, 0.0], "im": [0.0, 0.0]}, r"missing \['n_qubits'\]"),
    ({"n_qubits": 1, "im": [0.0, 0.0]}, r"missing \['re'\]"),
    ({"n_qubits": 1, "re": [1.0, 0.0]}, r"missing \['im'\]"),
], ids=["issue-payload", "string-n", "bool-n", "fractional-n", "string-entry", "bool-entry",
        "bool-im-entry", "string-re", "list", "no-n_qubits", "no-re", "no-im"])
def test_json_rejects_non_number_fields(payload, match):
    # booleans and numeric strings would otherwise convert silently (the first is |00>);
    # a list or a missing key would raise TypeError or KeyError from the lookup
    with pytest.raises(ValueError, match=match):
        state_from_json(payload)
