import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ALPHA, BETA, INITIAL_TANGLE, family_state
from entredist.channels import (
    InitialSpec,
    ad_unitary,
    evolve,
    initial_state,
    mixed_system_with_purity,
    random_family_state,
    theta_to_p,
)
from entredist.measures import PAIR_CUT, tangle_pure
from entredist.qcore import (
    DensityMatrix,
    PureState,
    numerical_rank,
    partial_trace,
    purity,
    state_to_json,
)


def test_theta_to_p_values():
    assert theta_to_p(0.0) == 0.0
    assert theta_to_p(math.pi / 4) == pytest.approx(1.0, abs=1e-15)
    assert theta_to_p(math.pi / 8) == pytest.approx(0.5, abs=1e-15)


def test_initial_state_trivial():
    psi = initial_state(InitialSpec(alpha=1.0, beta=0.0))
    assert psi.amplitude("0000") == 1.0
    assert np.abs(psi.amplitudes[1:]).max() == 0.0


def test_initial_state_canonical_amplitudes():
    psi = initial_state(InitialSpec(alpha=ALPHA, beta=BETA))
    assert psi.amplitudes[0] == pytest.approx(1 / np.sqrt(7), abs=1e-12)
    assert psi.amplitudes[12] == pytest.approx(np.sqrt(6 / 7), abs=1e-12)
    assert np.count_nonzero(psi.amplitudes) == 2


def test_initial_state_mixed_preserves_purity():
    system = mixed_system_with_purity(ALPHA, BETA, 0.82)
    rho = initial_state(InitialSpec(mixed_system=system))
    assert isinstance(rho, DensityMatrix)
    assert purity(rho) == pytest.approx(purity(system), abs=1e-12)
    assert purity(rho) == pytest.approx(0.82, abs=1e-9)


def test_initial_spec_rejects_unnormalized():
    with pytest.raises(ValueError, match="deviates from 1"):
        InitialSpec(alpha=0.9, beta=0.9)
    with pytest.raises(ValueError, match="not both"):
        InitialSpec(alpha=1.0, beta=0.0,
                    mixed_system=DensityMatrix(np.eye(4) / 4))


def test_ad_unitary_endpoints():
    assert np.abs(ad_unitary(0.0) - np.eye(4)).max() == 0.0
    u1 = ad_unitary(1.0)
    # full damping swaps |10> and |01> up to the completion phase
    assert abs(u1[1, 2]) == pytest.approx(1.0, abs=1e-15)
    assert abs(u1[2, 1]) == pytest.approx(1.0, abs=1e-15)
    assert u1[0, 0] == 1.0 and u1[3, 3] == 1.0


def test_ad_unitary_matches_damping_map():
    p = 0.37
    u = ad_unitary(p)
    # |00> fixed; |10> -> sqrt(1-p)|10> + sqrt(p)|01>
    assert np.allclose(u[:, 0], [1, 0, 0, 0])
    assert u[2, 2] == pytest.approx(math.sqrt(1 - p), abs=1e-15)
    assert u[1, 2] == pytest.approx(math.sqrt(p), abs=1e-15)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_ad_unitary_rejects_out_of_range():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            ad_unitary(bad)


@given(p=st.floats(0.0, 1.0, allow_nan=False))
def test_ad_unitary_is_unitary(p):
    u = ad_unitary(p)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_evolve_identity_at_zero():
    psi = initial_state(InitialSpec(alpha=ALPHA, beta=BETA))
    out = evolve(psi, 0.0, 0.0)
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_evolve_matches_closed_form_amplitudes():
    p = 0.37
    psi = family_state(p)
    expected = np.zeros(16, dtype=complex)
    expected[0b0000] = ALPHA
    expected[0b1100] = BETA * (1 - p)
    expected[0b0011] = BETA * p
    expected[0b1001] = BETA * math.sqrt(p * (1 - p))
    expected[0b0110] = BETA * math.sqrt(p * (1 - p))
    assert np.abs(psi.amplitudes - expected).max() < 1e-12


def test_evolve_keeps_global_purity():
    system = mixed_system_with_purity(ALPHA, BETA, 0.82)
    rho = initial_state(InitialSpec(mixed_system=system))
    out = evolve(rho, 0.3, 0.8)
    assert purity(out) == pytest.approx(purity(rho), abs=1e-11)


@given(p=st.floats(0.0, 1.0, allow_nan=False))
def test_evolve_conserves_pair_cut_tangle(p):
    assert tangle_pure(family_state(p), PAIR_CUT) == pytest.approx(
        INITIAL_TANGLE, abs=1e-9
    )


@given(p=st.floats(0.0, 1.0, allow_nan=False))
def test_family_pair_marginals_stay_rank_two(p):
    rho = partial_trace(family_state(p), ("S1", "E1"))
    assert numerical_rank(rho, 1e-7) <= 2


@pytest.mark.filterwarnings("ignore:environment")
@given(p1=st.floats(0.0, 1.0, allow_nan=False), p2=st.floats(0.0, 1.0, allow_nan=False))
def test_disjoint_dilations_commute(p1, p2):
    base = initial_state(InitialSpec(alpha=ALPHA, beta=BETA))
    one_then_two = evolve(evolve(base, p1, 0.0), 0.0, p2)
    two_then_one = evolve(evolve(base, 0.0, p2), p1, 0.0)
    assert np.abs(one_then_two.amplitudes - two_then_one.amplitudes).max() < 1e-12


def test_evolve_warns_on_populated_environment():
    final = family_state(0.6)
    with pytest.warns(UserWarning, match="environment"):
        evolve(final, 0.1, 0.1)


def test_evolve_counts_both_environments_excited_once():
    # |0011> excites E1 and E2 at once: its 0.6e-9 weight is below the 1e-9 warning threshold
    weight = 0.6e-9
    amplitudes = np.zeros(16, dtype=complex)
    amplitudes[0b0000], amplitudes[0b0011] = math.sqrt(1.0 - weight), math.sqrt(weight)
    pure = PureState(amplitudes)
    for state in (pure, pure.density()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evolve(state, 0.3, 0.3)


def test_random_family_state_rank_condition(rng):
    for _ in range(10):
        psi = random_family_state(rng)
        assert isinstance(psi, PureState)
        assert numerical_rank(partial_trace(psi, ("S2", "E2")), 1e-7) <= 2


def test_initial_spec_from_json(tmp_path):
    spec = InitialSpec.from_json({"alpha_re": float(ALPHA), "beta_re": float(BETA)})
    assert spec.alpha == pytest.approx(ALPHA)
    system = mixed_system_with_purity(ALPHA, BETA, 0.82)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(state_to_json(system)))
    spec = InitialSpec.from_json({"mixed_system_file": "system.json"}, base_dir=tmp_path)
    assert np.abs(spec.mixed_system.entries - system.entries).max() == 0.0


def test_initial_spec_from_json_rejects_pure_fixture(tmp_path):
    bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
    (tmp_path / "system.json").write_text(json.dumps(state_to_json(bell)))
    with pytest.raises(ValueError, match="pure state"):
        InitialSpec.from_json({"mixed_system_file": "system.json"}, base_dir=tmp_path)


def test_initial_spec_rejects_a_pure_mixed_system():
    # the constructor holds the same check as the file route
    bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
    with pytest.raises(ValueError, match="pure state"):
        InitialSpec(mixed_system=bell)
    with pytest.raises(ValueError, match="2-qubit density matrix"):
        InitialSpec(mixed_system=np.eye(4) / 4)


def test_ad_unitary_takes_an_array_of_strengths():
    ps = np.array([[0.0, 0.3], [0.7, 1.0]])
    stack = ad_unitary(ps)
    assert stack.shape == (2, 2, 4, 4)
    for p, u in zip(ps.ravel(), stack.reshape(-1, 4, 4)):
        assert np.array_equal(u, ad_unitary(p))
    with pytest.raises(ValueError, match="outside"):
        ad_unitary(np.array([0.5, np.nan]))
