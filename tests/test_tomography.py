import numpy as np
import pytest

from conftest import ALPHA, BETA, family_state
from entredist.channels import InitialSpec, initial_state, mixed_system_with_purity
from entredist.measures import concurrence
from entredist.qcore import (
    DensityMatrix,
    basis_state,
    fidelity_pure,
    partial_trace,
    purity,
)
from entredist.tomography import (
    SETTINGS,
    CountRecord,
    _ket,
    _probabilities,
    linear_inversion,
    load_counts,
    mle_reconstruct,
    project_physical,
    save_counts,
    save_settings_manifest,
    setting_projectors,
    simulate_counts,
)


def exact_records(rho, shots=10**9):
    probs = (setting_projectors().reshape(256, -1) @ rho.entries.T.reshape(-1)).real
    return [CountRecord(i, shots, int(round(p * shots))) for i, p in enumerate(probs)]


def test_enumerate_settings_basics():
    assert len(SETTINGS) == 256 == len(set(SETTINGS))
    assert SETTINGS[0] == ("Z", "Z", "Z", "Z")
    projector_0 = basis_state("0000").density().entries
    assert np.abs(setting_projectors()[0] - projector_0).max() == 0.0


def test_setting_id_encoding_round_trips():
    assert SETTINGS[0b01_10_11_00] == ("Z'", "X", "Y", "Z")
    assert SETTINGS.index(("Z'", "X", "Y", "Z")) == 108


def test_projector_family_is_informationally_complete():
    flat = setting_projectors().reshape(256, -1)
    gram = flat @ flat.conj().T
    assert np.linalg.matrix_rank(gram, tol=1e-10) == 256


def test_setting_projectors_built_once_and_read_only():
    first = setting_projectors()
    assert setting_projectors() is first
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0, 0] = 0.0


def test_born_probability_cases():
    probs = _probabilities(basis_state("0000").density().entries, setting_projectors())
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    # the all-|1> projector is orthogonal to |0000>
    assert probs[SETTINGS.index(("Z'",) * 4)] == pytest.approx(0.0, abs=1e-12)
    probs = _probabilities(np.eye(16) / 16, setting_projectors())
    for sid in range(0, 256, 37):
        assert probs[sid] == pytest.approx(1 / 16, abs=1e-12)


def test_simulate_counts_deterministic_and_saturating():
    rho = basis_state("0000").density()
    a = simulate_counts(rho, 1000, seed=11)
    b = simulate_counts(rho, 1000, seed=11)
    assert a == b
    assert a[0].count == 1000  # probability-one setting
    c = simulate_counts(rho, 1000, seed=12)
    assert a != c


def test_simulate_counts_law_of_large_numbers():
    rho = family_state(0.5).density()
    shots = 10**6
    records = simulate_counts(rho, shots, seed=3)
    probs = (setting_projectors().reshape(256, -1) @ rho.entries.T.reshape(-1)).real
    for record, p in zip(records, probs):
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(record.count / shots - p) < max(3 * sigma, 5e-6)


def test_count_record_validation():
    with pytest.raises(ValueError):
        CountRecord(0, 0, 0)
    with pytest.raises(ValueError):
        CountRecord(0, 10, 11)


def test_linear_inversion_noiseless_round_trip():
    rho = family_state(0.5).density()
    recovered = linear_inversion(exact_records(rho))
    assert np.abs(recovered - rho.entries).max() < 1e-8


def test_linear_inversion_requires_all_settings():
    rho = family_state(0.2).density()
    records = exact_records(rho)[: 250]
    with pytest.raises(ValueError, match=r"missing settings: \[250, 251"):
        linear_inversion(records)


def test_linear_inversion_rejects_counts_without_trace():
    # no counts in the 16 all-Z/Z' settings, whose frequencies sum to the raw trace
    z_basis = [sid for sid, sel in enumerate(SETTINGS) if set(sel) <= {"Z", "Z'"}]
    assert len(z_basis) == 16
    records = [CountRecord(sid, 10, 0 if sid in z_basis else 3) for sid in range(256)]
    with pytest.raises(ValueError, match="zero trace"):
        linear_inversion(records)


def test_linear_inversion_mixed_recovery_with_noise():
    rho = DensityMatrix(np.eye(16) / 16)
    records = simulate_counts(rho, 10**5, seed=9)
    recovered = linear_inversion(records)
    assert np.abs(recovered - np.eye(16) / 16).max() < 0.02
    assert abs(np.trace(recovered).real - 1.0) < 1e-12
    assert np.abs(recovered - recovered.conj().T).max() < 1e-12


def test_linear_inversion_non_psd_output_is_projectable():
    # noisy counts from a pure target push eigenvalues negative
    records = simulate_counts(family_state(0.5).density(), 2000, seed=17)
    recovered = linear_inversion(records)
    w = np.linalg.eigvalsh(recovered)
    assert w.min() < 0.0  # the documented non-physical possibility
    physical = project_physical(recovered)
    assert np.linalg.eigvalsh(physical.entries).min() >= -1e-12


def test_project_physical_cases():
    rho = family_state(0.3).density()
    assert np.abs(project_physical(rho.entries).entries - rho.entries).max() < 1e-12
    clipped = project_physical(np.diag([1.1, -0.1]).astype(complex))
    assert np.allclose(np.sort(np.diag(clipped.entries).real), [0.0, 1.0], atol=1e-12)
    w = np.linalg.eigvalsh(clipped.entries)
    assert w.min() >= -1e-15 and abs(np.trace(clipped.entries).real - 1) < 1e-12


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
def test_mle_moderate_shots_round_trip():
    psi = family_state(0.5)
    records = simulate_counts(psi.density(), 20_000, seed=21)
    result = mle_reconstruct(records, max_iter=20_000, tol=1e-6)
    assert fidelity_pure(result.rho, psi) > 0.99
    assert result.iterations <= 20_000
    w = np.linalg.eigvalsh(result.rho.entries)
    assert w.min() >= -1e-10
    assert abs(np.trace(result.rho.entries).real - 1.0) < 1e-10


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
def test_mle_log_likelihood_reported_and_warns_on_iteration_cap():
    psi = family_state(0.5)
    records = simulate_counts(psi.density(), 5000, seed=4)
    with pytest.warns(UserWarning, match="did not converge"):
        capped = mle_reconstruct(records, max_iter=10, tol=1e-12)
    assert not capped.converged
    longer = mle_reconstruct(records, max_iter=500, tol=1e-12)
    assert longer.log_likelihood >= capped.log_likelihood  # monotone ascent


def log_likelihood(rho, records):
    probs = np.clip((setting_projectors().reshape(256, -1) @ rho.T.reshape(-1)).real,
                    1e-12, 1.0 - 1e-12)
    counts = np.array([r.count for r in records], dtype=float)
    shots = np.array([r.shots for r in records], dtype=float)
    return float(np.sum(counts * np.log(probs) + (shots - counts) * np.log1p(-probs)))


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
@pytest.mark.parametrize("shots, seed", [(100_000, 5), (10**6, 2026)], ids=["1e5", "criterion12"])
def test_mle_gap_bound_certifies_the_fit(shots, seed):
    psi = family_state(0.5)
    records = simulate_counts(psi.density(), shots, seed=seed)
    result = mle_reconstruct(records)
    fit = result.rho.entries
    assert result.converged == (result.gap_bound <= 1.0)
    assert result.log_likelihood == pytest.approx(log_likelihood(fit, records), abs=1e-6)
    rng = np.random.default_rng(seed)
    sigmas = [psi.density().entries, mle_reconstruct(records, tol=1e-3).rho.entries]
    for _ in range(20):  # random states, from far off to within 1e-6 of the fit
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        weight = 10.0 ** rng.uniform(-6.0, 0.0)
        sigmas.append((1.0 - weight) * fit + weight * (g @ g.conj().T) / np.trace(g @ g.conj().T))
    for sigma in sigmas:
        assert log_likelihood(sigma, records) <= result.log_likelihood + result.gap_bound

    capped = mle_reconstruct(records, max_iter=5)
    assert not capped.converged and capped.gap_bound > 1.0


def test_mle_default_fit_converges_on_criterion_12_counts():
    records = simulate_counts(family_state(0.5).density(), 10**6, seed=2026)
    result = mle_reconstruct(records)
    assert result.converged and result.gap_bound <= 1.0
    assert result.iterations <= 1000


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
def test_mle_runs_on_experimental_like_mixed_state():
    system = mixed_system_with_purity(ALPHA, BETA, 0.82)
    rho = initial_state(InitialSpec(mixed_system=system))
    records = simulate_counts(rho, 50_000, seed=6)
    result = mle_reconstruct(records, max_iter=20_000, tol=1e-6)
    assert purity(result.rho) == pytest.approx(0.82, abs=0.02)
    c_true = concurrence(partial_trace(rho, ("S1", "S2")).entries)
    c_fit = concurrence(partial_trace(result.rho, ("S1", "S2")).entries)
    assert c_fit == pytest.approx(c_true, abs=0.02)


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
def test_reconstruction_equivariant_under_local_rotations(rng):
    psi = family_state(0.35)
    rho = psi.density()
    us = [np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
          for _ in range(4)]
    full = np.array([[1.0]], dtype=complex)
    for u in us:
        full = np.kron(full, u)
    rho_rot = DensityMatrix(full @ rho.entries @ full.conj().T)
    projectors = setting_projectors()
    projectors_rot = np.einsum("ab,sbc,dc->sad", full, projectors, full.conj())

    # the rotated pair (rho', Pi') has bitwise-identical Born probabilities
    probs = np.einsum("sij,ji->s", projectors, rho.entries).real
    probs_rot = np.einsum("sij,ji->s", projectors_rot, rho_rot.entries).real
    assert np.abs(probs - probs_rot).max() < 1e-12

    # reconstructing the same counts against the rotated projector set must
    # give the conjugated state
    records = simulate_counts(rho, 30_000, seed=13)

    lin = linear_inversion(records)
    lin_rot = linear_inversion(records, projectors=projectors_rot)
    assert np.abs(lin_rot - full @ lin @ full.conj().T).max() < 1e-6

    mle = mle_reconstruct(records, max_iter=3000, tol=1e-6).rho.entries
    mle_rot = mle_reconstruct(records, max_iter=3000, tol=1e-6,
                              projectors=projectors_rot).rho.entries
    assert np.abs(mle_rot - full @ mle @ full.conj().T).max() < 1e-6


def test_counts_csv_round_trip(tmp_path):
    records = simulate_counts(family_state(0.4).density(), 1000, seed=8)
    path = tmp_path / "counts.csv"
    save_counts(records, path)
    assert path.read_text().splitlines()[0] == "setting_id,shots,count"
    assert load_counts(path) == records


def test_settings_manifest(tmp_path):
    import json

    path = tmp_path / "settings.json"
    save_settings_manifest(path)
    payload = json.loads(path.read_text())
    assert len(payload) == 256
    assert payload[0]["selectors"] == ["Z", "Z", "Z", "Z"]
    k = np.asarray(payload[255]["ket_re"]) + 1j * np.asarray(payload[255]["ket_im"])
    assert payload[255]["selectors"] == list(SETTINGS[255])
    assert np.abs(k - _ket(SETTINGS[255])).max() < 1e-15
