import hashlib
import itertools
import json

import numpy as np
import pytest

from conftest import ALPHA, BETA, family_state
from oracles import (
    dense_born_adjoint,
    dense_born_probabilities,
    kron_setting_kets,
    lstsq_born_solution,
)
from entredist.channels import InitialSpec, initial_state, mixed_system_with_purity
from entredist.measures import concurrence
from entredist.qcore import (
    DensityMatrix,
    basis_state,
    fidelity_pure,
    partial_trace,
    purity,
)
from entredist import tomography
from entredist.tomography import (
    KETS,
    SELECTORS,
    SETTINGS,
    Counts,
    _HALF,
    _HALF_INV,
    _Z_BASIS,
    _born,
    _born_adjoint,
    _by_half,
    _project_eigenvalues,
    linear_inversion,
    load_counts,
    mle_reconstruct,
    project_physical,
    save_counts,
    save_settings_manifest,
    setting_projectors,
    simulate_counts,
)


def exact_counts(rho, shots=10**9):
    probs = dense_born_probabilities(rho.entries)
    return np.round(probs * shots).astype(int), shots


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


def test_ket_table_equals_the_kron_built_kets():
    assert KETS.shape == (256, 16)
    assert np.array_equal(KETS, kron_setting_kets())
    with pytest.raises(ValueError, match="read-only"):
        KETS[0, 0] = 0.0


def test_setting_projectors_built_once_and_read_only():
    first = setting_projectors()
    assert setting_projectors() is first
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0, 0] = 0.0


def test_factored_born_map_matches_the_dense_frame(rng):
    assert np.abs(_HALF @ _HALF_INV - np.eye(16)).max() < 1e-13
    assert np.linalg.cond(_HALF) == pytest.approx(10.4, abs=0.05)
    g = rng.standard_normal((10, 16, 16)) + 1j * rng.standard_normal((10, 16, 16))
    stack = g + g.conj().swapaxes(-1, -2)  # random Hermitian matrices
    weights = rng.standard_normal((10, 256))
    assert np.array_equal(_by_half(_by_half(stack)), stack)  # an involution
    # one call on the stack, and one per item, both against the dense frame
    for x, w, probs, adjoint in zip(stack, weights, _born(stack), _born_adjoint(weights)):
        for p in (probs, _born(x)):
            assert np.abs(p - dense_born_probabilities(x)).max() <= 1e-14
        for a in (adjoint, _born_adjoint(w)):
            assert np.abs(a - dense_born_adjoint(w)).max() <= 1e-12


def test_born_probability_cases():
    probs = _born(basis_state("0000").density().entries)
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    # the all-|1> projector is orthogonal to |0000>
    assert probs[SETTINGS.index(("Z'",) * 4)] == pytest.approx(0.0, abs=1e-12)
    probs = _born(np.eye(16) / 16)
    for sid in range(0, 256, 37):
        assert probs[sid] == pytest.approx(1 / 16, abs=1e-12)


def test_simulate_counts_deterministic_and_saturating():
    rho = basis_state("0000").density()
    a = simulate_counts(rho, 1000, seed=11)
    b = simulate_counts(rho, 1000, seed=11)
    assert np.array_equal(a.counts, b.counts) and a.shots == b.shots
    assert a.counts[0] == 1000  # probability-one setting
    c = simulate_counts(rho, 1000, seed=12)
    assert not np.array_equal(a.counts, c.counts)


@pytest.mark.parametrize("shots", [2 ** 63, -5, 0, True, 2.5], ids=str)
def test_simulate_counts_checks_shots_before_drawing(monkeypatch, shots):
    # the package's message, not numpy's OverflowError or "n < 0" from the draw
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew counts"))
    with pytest.raises(ValueError, match="shots must be positive and at most 9223372036854775807"):
        simulate_counts(family_state(0.5).density(), shots, seed=1)


def test_simulate_counts_law_of_large_numbers():
    rho = family_state(0.5).density()
    shots = 10**6
    counts = simulate_counts(rho, shots, seed=3)
    probs = dense_born_probabilities(rho.entries)
    for count, p in zip(counts.counts, probs):
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(count / shots - p) < max(3 * sigma, 5e-6)


def test_counts_validation():
    cases = [
        (np.zeros(256, dtype=int), 0, "shots"),
        (np.full(256, 10), 10.0, "shots"),
        (np.ones(256, dtype=int), True, "shots"),
        (np.zeros(250, dtype=int), 10, "256 counts"),  # missing settings
        (np.zeros((16, 16), dtype=int), 10, "256 counts"),
        (np.r_[11, np.zeros(255, dtype=int)], 10, r"count 11 outside \[0, shots=10\]"),
        (np.r_[-1, np.zeros(255, dtype=int)], 10, "count -1 outside"),
        (np.r_[2.5, np.zeros(255)], 10, "integers"),
        (np.r_[np.nan, np.zeros(255)], 10, "integers"),
        (np.r_[np.inf, np.zeros(255)], 10, "integers"),
        (np.full(256, "3"), 10, "integers"),
    ]
    for counts, shots, match in cases:
        with pytest.raises(ValueError, match=match):
            Counts(counts, shots)


def test_counts_are_a_read_only_integer_array():
    source = np.full(256, 3.0)
    counts = Counts(source, 10)
    assert counts.counts.dtype == np.int64 and counts.shots == 10
    with pytest.raises(ValueError, match="read-only"):
        counts.counts[0] = 4
    source[0] = 5.0  # the count set holds its own copy
    assert counts.counts[0] == 3


def test_linear_inversion_noiseless_round_trip():
    rho = family_state(0.5).density()
    recovered = linear_inversion(Counts(*exact_counts(rho)))
    assert np.abs(recovered - rho.entries).max() < 1e-8


def test_linear_inversion_requires_all_settings():
    rho = family_state(0.2).density()
    counts, shots = exact_counts(rho)
    with pytest.raises(ValueError, match="expected 256 counts in setting-id order, got shape"):
        linear_inversion(Counts(counts[:250], shots))


def test_linear_inversion_rejects_counts_without_trace():
    # no counts in the 16 all-Z/Z' settings, whose frequencies sum to the raw trace
    assert [sid for sid, sel in enumerate(SETTINGS) if set(sel) <= {"Z", "Z'"}] == list(_Z_BASIS)
    assert len(_Z_BASIS) == 16
    assert np.abs(setting_projectors()[_Z_BASIS].sum(axis=0) - np.eye(16)).max() < 1e-15
    counts = Counts([0 if sid in _Z_BASIS else 3 for sid in range(256)], 10)
    with pytest.raises(ValueError, match="zero trace"):
        linear_inversion(counts)


@pytest.mark.parametrize("shots", [1000, 100_000], ids=["1e3", "1e5"])
def test_linear_inversion_matches_the_least_squares_oracle(shots):
    counts = simulate_counts(family_state(0.35).density(), shots, seed=13)
    expected = lstsq_born_solution(counts.counts / counts.shots, setting_projectors())
    expected /= np.trace(expected).real
    assert np.abs(linear_inversion(counts) - expected).max() < 1e-12


def test_linear_inversion_mixed_recovery_with_noise():
    rho = DensityMatrix(np.eye(16) / 16)
    counts = simulate_counts(rho, 10**5, seed=9)
    recovered = linear_inversion(counts)
    assert np.abs(recovered - np.eye(16) / 16).max() < 0.02
    assert abs(np.trace(recovered).real - 1.0) < 1e-12
    assert np.abs(recovered - recovered.conj().T).max() < 1e-12


def test_linear_inversion_non_psd_output_is_projectable():
    # noisy counts from a pure target push eigenvalues negative
    counts = simulate_counts(family_state(0.5).density(), 2000, seed=17)
    recovered = linear_inversion(counts)
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
    counts = simulate_counts(psi.density(), 20_000, seed=21)
    result = mle_reconstruct(counts, max_iter=20_000, tol=1e-6)
    assert fidelity_pure(result.rho, psi) > 0.99
    assert result.iterations <= 20_000
    w = np.linalg.eigvalsh(result.rho.entries)
    assert w.min() >= -1e-10
    assert abs(np.trace(result.rho.entries).real - 1.0) < 1e-10


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
def test_mle_log_likelihood_reported_and_warns_on_iteration_cap():
    psi = family_state(0.5)
    counts = simulate_counts(psi.density(), 5000, seed=4)
    with pytest.warns(UserWarning, match="did not converge"):
        capped = mle_reconstruct(counts, max_iter=10, tol=1e-12)
    assert not capped.converged
    longer = mle_reconstruct(counts, max_iter=500, tol=1e-12)
    assert longer.log_likelihood >= capped.log_likelihood  # monotone ascent


def log_likelihood(rho, count_set):
    probs = np.clip(dense_born_probabilities(rho), 1e-12, 1.0 - 1e-12)
    counts = count_set.counts.astype(float)
    shots = np.full(256, float(count_set.shots))
    return float(np.sum(counts * np.log(probs) + (shots - counts) * np.log1p(-probs)))


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
@pytest.mark.parametrize("shots, seed", [(100_000, 5), (10**6, 2026)], ids=["1e5", "criterion12"])
def test_mle_gap_bound_certifies_the_fit(shots, seed):
    psi = family_state(0.5)
    counts = simulate_counts(psi.density(), shots, seed=seed)
    result = mle_reconstruct(counts)
    fit = result.rho.entries
    assert result.converged == (result.gap_bound <= 1.0)
    assert result.log_likelihood == pytest.approx(log_likelihood(fit, counts), abs=1e-6)
    rng = np.random.default_rng(seed)
    sigmas = [psi.density().entries, mle_reconstruct(counts, tol=1e-3).rho.entries]
    for _ in range(20):  # random states, from far off to within 1e-6 of the fit
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        weight = 10.0 ** rng.uniform(-6.0, 0.0)
        sigmas.append((1.0 - weight) * fit + weight * (g @ g.conj().T) / np.trace(g @ g.conj().T))
    for sigma in sigmas:
        assert log_likelihood(sigma, counts) <= result.log_likelihood + result.gap_bound

    capped = mle_reconstruct(counts, max_iter=5)
    assert not capped.converged and capped.gap_bound > 1.0


def test_mle_default_fit_converges_on_criterion_12_counts():
    counts = simulate_counts(family_state(0.5).density(), 10**6, seed=2026)
    result = mle_reconstruct(counts)
    assert result.converged and result.gap_bound <= 1.0
    assert result.iterations <= 45  # 55 from I/16: the inverted start wins here


@pytest.fixture(scope="module")
def guard_count_sets():
    """Criterion 12 plus five count sets each at (p 0.25, 1e5 shots) and (p 0.75,
    1e6 shots); the step rule was chosen on other seeds."""
    draws = ([(0.5, 10**6, 2026)] + [(0.25, 10**5, seed) for seed in range(1100, 1105)]
             + [(0.75, 10**6, seed) for seed in range(1500, 1505)])
    return [simulate_counts(family_state(p).density(), shots, seed=seed) for p, shots, seed in draws]


def test_mle_makes_few_projections_per_iteration(monkeypatch, guard_count_sets):
    # each Armijo trial costs one projection; growing the step by 1.25 after an
    # accepted iteration, not doubling it, rejects a trial only every third
    # iteration or so (doubling made about 2.05 projections per iteration).
    # With the polish off every iteration is a projected-gradient one (about 1.34
    # projections each); polish steps would count too and dilute the ratio
    monkeypatch.setattr(tomography, "_POLISH_GAP", 0.0)
    calls = []
    monkeypatch.setattr(tomography, "_project_eigenvalues",
                        lambda mat: calls.append(1) or _project_eigenvalues(mat))
    ratios = []
    for counts in guard_count_sets:
        calls.clear()
        result = mle_reconstruct(counts)
        assert result.converged
        ratios.append(len(calls) / result.iterations)  # the start's projection included
    assert np.median(ratios) <= 1.5


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
def test_mle_precision_floor(guard_count_sets):
    # asked for 1e-5 nats, a fit stops where a plain step no longer raises the
    # likelihood at working precision; leaner arithmetic must not raise that floor
    results = [mle_reconstruct(counts, tol=1e-5) for counts in guard_count_sets]
    assert all(result.iterations < 2_000 for result in results)
    # criterion 12 certifies even at 1e-5 nats; without FISTA momentum it stops at 7e-5
    assert results[0].converged
    assert np.median([result.gap_bound for result in results]) <= 0.05


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
def test_mle_starts_from_the_inverted_state_when_it_is_likelier():
    counts = simulate_counts(family_state(0.5).density(), 10**6, seed=2026)
    start = mle_reconstruct(counts, max_iter=0)
    assert start.iterations == 0 and np.isfinite(start.gap_bound) and start.gap_bound > 1.0
    raw = lstsq_born_solution(counts.counts / counts.shots, setting_projectors())
    inverted = 0.99 * _project_eigenvalues(raw) + 0.01 * np.eye(16) / 16
    assert np.abs(start.rho.entries - inverted).max() < 1e-12
    assert start.log_likelihood > log_likelihood(np.eye(16) / 16, counts)


def test_mle_keeps_the_maximally_mixed_start_without_all_z_counts():
    # one shot per setting at p = 0: no all-Z/Z' setting fired, so the raw
    # inversion has zero trace and I/16 is the likelier start
    counts = simulate_counts(family_state(0.0).density(), 1, seed=0)
    assert not counts.counts[_Z_BASIS].any()
    with pytest.raises(ValueError, match="zero trace"):
        linear_inversion(counts)
    with pytest.warns(UserWarning, match="did not converge in 0 iterations"):
        start = mle_reconstruct(counts, max_iter=0)
    assert np.array_equal(start.rho.entries, np.eye(16) / 16) and np.isfinite(start.gap_bound)
    fit = mle_reconstruct(counts).rho.entries  # so the fit is the one from I/16
    assert np.isfinite(fit).all() and abs(np.trace(fit).real - 1.0) < 1e-12


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
def test_mle_runs_on_experimental_like_mixed_state():
    system = mixed_system_with_purity(ALPHA, BETA, 0.82)
    rho = initial_state(InitialSpec(mixed_system=system))
    counts = simulate_counts(rho, 50_000, seed=6)
    result = mle_reconstruct(counts, max_iter=20_000, tol=1e-6)
    assert purity(result.rho) == pytest.approx(0.82, abs=0.02)
    c_true = concurrence(partial_trace(rho, ("S1", "S2")).entries)
    c_fit = concurrence(partial_trace(result.rho, ("S1", "S2")).entries)
    assert c_fit == pytest.approx(c_true, abs=0.02)


@pytest.mark.parametrize("mle_arguments, match", [
    ({"tol": float("nan")}, "tol"),
    ({"tol": float("inf")}, "tol"),
    ({"tol": -1.0}, "tol"),
    ({"max_iter": -3}, "max_iter must be non-negative"),
    ({"max_iter": float("nan")}, "max_iter must be an integer"),
    ({"max_iter": 2.5}, "max_iter must be an integer"),
    ({"max_iter": True}, "max_iter must be an integer"),
], ids=["tol-nan", "tol-inf", "tol-negative", "max-iter-negative", "max-iter-nan",
        "max-iter-fraction", "max-iter-boolean"])
def test_mle_refuses_arguments_that_cannot_certify(mle_arguments, match):
    counts = simulate_counts(family_state(0.5).density(), 1000, seed=3)
    with pytest.raises(ValueError, match=match):
        mle_reconstruct(counts, **mle_arguments)


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
def test_mle_accepts_zero_tolerance_and_zero_iterations():
    counts = simulate_counts(family_state(0.5).density(), 1000, seed=3)
    assert mle_reconstruct(counts, max_iter=0, tol=0.0).iterations == 0
    assert mle_reconstruct(counts, max_iter=3, tol=0.0).iterations <= 3


def test_mle_iterations_stay_low_over_the_guard_sets(guard_count_sets):
    # projected gradient alone took a median of 72 iterations here; the polish
    # replaces its slow tail with a few Newton steps, which count as iterations
    assert np.median([mle_reconstruct(counts).iterations for counts in guard_count_sets]) <= 36


def test_mle_certifies_the_count_set_where_projected_gradient_stalls():
    # 3071: projected gradient alone stops after 239 iterations at a gap of 1.076 nats;
    # 3062: the polish stops at 1.22 nats unless it grows the support (0.074 nats with it)
    for seed in (3071, 3062):
        counts = simulate_counts(family_state(0.75).density(), 10**6, seed=seed)
        result = mle_reconstruct(counts)
        assert result.converged and result.gap_bound <= 1.0, seed


def test_mle_leaves_a_gap_within_ten_tol_to_projected_gradient(monkeypatch):
    # the benchmark's warm-up fit (p 0, one shot, count seed 0) certifies in 9
    # projected-gradient iterations; polishing within 10 tol made 2 Newton steps
    calls = []
    solve = tomography._newton_step
    monkeypatch.setattr(tomography, "_newton_step",
                        lambda neg_hessian, grad: calls.append(1) or solve(neg_hessian, grad))
    result = mle_reconstruct(simulate_counts(family_state(0.0).density(), 1, seed=0))
    assert result.converged and not calls


def test_mle_polishes_few_low_shot_fits(monkeypatch):
    # low-shot iterates mostly have more than _POLISH_RANK nonzero eigenvalues and
    # stay with projected gradient: 9 Newton systems over these 60 fits, 61 without the gate
    calls = []
    derivatives = tomography._factor_derivatives
    monkeypatch.setattr(tomography, "_factor_derivatives",
                        lambda *args: calls.append(1) or derivatives(*args))
    for shots, p, seed in itertools.product([1, 10], [0.25, 0.5, 0.75], range(10)):
        assert mle_reconstruct(simulate_counts(family_state(p).density(), shots, seed=seed)).converged
    assert len(calls) <= 15


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p, shots, seed", [(0.1, 1000, 13), (0.9, 1000, 10), (0.25, 30, 4)])
def test_mle_never_evaluates_log_l_outside_its_domain(p, shots, seed):
    # on these count sets a trial state gives a hit setting p <= 0 or a missed one
    # p >= 1; the likelihood must refuse it instead of taking the log
    result = mle_reconstruct(simulate_counts(family_state(p).density(), shots, seed=seed))
    assert result.converged


@pytest.mark.parametrize("seed", [3006, 3028])
def test_mle_polish_grows_the_support(monkeypatch, seed):
    # the polish starts on two eigenvalues and stalls until a third joins
    sizes = []
    derivatives = tomography._factor_derivatives
    monkeypatch.setattr(tomography, "_factor_derivatives",
                        lambda u, s, *rest: sizes.append(s.size) or derivatives(u, s, *rest))
    result = mle_reconstruct(simulate_counts(family_state(0.75).density(), 10**6, seed=seed))
    assert result.converged and result.gap_bound <= 1.0
    assert sizes[0] == 2 and sizes[-1] == 3


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
@pytest.mark.parametrize("newton_steps", [0, 2], ids=["at-the-switch", "after-two-steps"])
def test_mle_resumes_projected_gradient_from_the_polished_state(monkeypatch, newton_steps):
    counts = simulate_counts(family_state(0.75).density(), 10**6, seed=3011)
    calls = []
    solve = tomography._newton_step

    def failing(neg_hessian, grad):
        calls.append(1)
        if len(calls) > newton_steps:
            raise np.linalg.LinAlgError("not positive definite")
        return solve(neg_hessian, grad)

    monkeypatch.setattr(tomography, "_newton_step", failing)
    # the state the polish reached before its solve failed: the projected-gradient
    # iterate at the switch, plus the Newton steps taken from it
    switch = next(n for n in range(100) if mle_reconstruct(counts, max_iter=n).gap_bound
                  <= tomography._POLISH_GAP)
    calls.clear()
    reached = mle_reconstruct(counts, max_iter=switch + newton_steps)
    assert len(calls) == newton_steps and reached.iterations == switch + newton_steps
    calls.clear()
    result = mle_reconstruct(counts)
    assert calls and result.converged
    assert result.log_likelihood >= reached.log_likelihood


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
def test_mle_counts_newton_steps_against_max_iter(monkeypatch):
    counts = simulate_counts(family_state(0.25).density(), 1000, seed=0)
    calls = []
    solve = tomography._newton_step
    monkeypatch.setattr(tomography, "_newton_step",
                        lambda neg_hessian, grad: calls.append(1) or solve(neg_hessian, grad))
    result = mle_reconstruct(counts, max_iter=3, tol=0.0)
    assert len(calls) == 1 and result.iterations == 3  # the third is a Newton step


def test_factor_derivatives_match_finite_differences(rng):
    # the polish's gradient J^T g and Hessian -J^T D J + curvature, on a random
    # rank-3 factor, against central differences of log L along its parameters
    counts = simulate_counts(family_state(0.3).density(), 10**5, seed=7)
    hits = counts.counts.astype(float)
    misses = counts.shots - hits
    u = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))[0]
    s = np.array([0.9, 0.4, 0.2]) / np.linalg.norm([0.9, 0.4, 0.2])
    hermitian = tomography._hermitian_basis(s)
    jac, g, d = tomography._factor_derivatives(u, s, hermitian, hits, misses)
    factor = u[:, :3] * s
    shifted = u.conj().T @ _born_adjoint(g) @ u - (g @ _born(factor @ factor.conj().T)) * np.eye(16)
    hessian = -(jac.T * d) @ jac + tomography._factor_curvature(shifted, hermitian)
    # no parameter moves along a gauge or scale direction, which would leave every probability fixed
    assert jac.shape == (256, 32 * 3 - 9 - 1) and np.linalg.matrix_rank(jac) == jac.shape[1]

    def log_l(theta):
        a = factor + u @ tomography._factor_move(theta, hermitian)
        probs = _born(a @ a.conj().T / np.vdot(a, a).real)
        return hits @ np.log(probs) + misses @ np.log1p(-probs)

    steps = np.eye(jac.shape[1])[[0, 40, 77, 79, 85]]  # off the support, off-diagonal, diagonal
    h = 1e-4
    for e in steps:
        slope = (log_l(h * e) - log_l(-h * e)) / (2 * h)
        assert slope == pytest.approx(jac.T @ g @ e, rel=1e-6)
        for f in steps:
            second = (log_l(h * (e + f)) - log_l(h * (e - f))
                      - log_l(h * (f - e)) + log_l(-h * (e + f))) / (4 * h * h)
            assert second == pytest.approx(e @ hessian @ f, abs=1e-5 * np.abs(hessian).max())


def permute_qubits(order):
    """Setting ids and a 16x16 matrix mapped to their images when new qubit k is
    old qubit ``order[k]`` (qubit 0 = S1, the most significant digit or bit)."""
    digits = np.array([[SELECTORS.index(sel) for sel in selectors] for selectors in SETTINGS])
    ids = digits[:, list(order)] @ (4 ** np.arange(3, -1, -1))

    def state(mat):
        return mat.reshape((2,) * 8).transpose(list(order) + [4 + q for q in order]).reshape(16, 16)

    return ids, state


@pytest.mark.filterwarnings("ignore:maximum-likelihood")
@pytest.mark.parametrize("order", [(2, 1, 0, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 0, 2, 1)],
                         ids=["S1-E1", "within-halves", "halves-swapped", "cycle"])
def test_reconstruction_equivariant_under_qubit_permutations(order):
    # relabelling the qubits of the state and of every setting leaves each Born
    # probability in place; S1<->E1 moves entries across the (S1,S2)|(E1,E2) split
    rho = family_state(0.35).density().entries
    ids, permute = permute_qubits(order)
    assert sorted(ids) == list(range(256))
    assert np.abs(_born(permute(rho))[ids] - _born(rho)).max() < 1e-15

    counts = simulate_counts(DensityMatrix(rho), 30_000, seed=13)
    permuted = np.empty(256, dtype=np.int64)
    permuted[ids] = counts.counts
    permuted = Counts(permuted, counts.shots)

    lin = linear_inversion(counts)
    assert np.abs(linear_inversion(permuted) - permute(lin)).max() < 1e-12

    mle = mle_reconstruct(counts, max_iter=3000, tol=1e-6).rho.entries
    mle_permuted = mle_reconstruct(permuted, max_iter=3000, tol=1e-6).rho.entries
    assert np.abs(mle_permuted - permute(mle)).max() < 1e-6


# sha256 of the int64 little-endian counts of the three benchmark round trips at
# fixed count seeds: a change to the Born map that flips one binomial draw fails here
PINNED_COUNTS_SHA256 = {
    (0.25, 100_000, 1401): "c55a508780eb873ecbe54338a08149b8bbb30050a1a2394449f33c2f1cb3a32f",
    (0.75, 1_000_000, 1402): "7c40e1f4709a04c66cf57c6636f3cdf36640f99e17dce1f6aafa1f2b48b75724",
    (0.5, 1_000_000, 2026): "efb2dcde839f063a89eb9092126e20475e774c156d298e3b678c80de85a32ca6",
}


@pytest.mark.parametrize("p, shots, seed", list(PINNED_COUNTS_SHA256),
                         ids=["p0.25-1e5", "p0.75-1e6", "criterion12"])
def test_simulated_counts_are_pinned(p, shots, seed):
    counts = simulate_counts(family_state(p).density(), shots, seed).counts
    digest = hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()
    assert digest == PINNED_COUNTS_SHA256[(p, shots, seed)]


def test_counts_csv_round_trip(tmp_path):
    counts = simulate_counts(family_state(0.4).density(), 1000, seed=8)
    path = tmp_path / "counts.csv"
    save_counts(counts, path)
    assert path.read_text().splitlines()[0] == "setting_id,shots,count"
    loaded = load_counts(path)
    assert np.array_equal(loaded.counts, counts.counts) and loaded.shots == counts.shots


def _write_counts(path, rows):
    path.write_text("setting_id,shots,count\n" + "".join(f"{s},{n},{c}\n" for s, n, c in rows))


@pytest.mark.parametrize("rows, match", [
    ([(sid, 10, 1) for sid in range(250)], "setting ids"),
    ([(sid, 10, 1) for sid in (1, 0, *range(2, 256))], "setting ids"),
    ([(sid, 10, 1) for sid in (*range(256), 0)], "setting ids"),
    ([(sid, 10 if sid else 20, 1) for sid in range(256)], r"one shot number expected, got \[10, 20\]"),
    ([(sid, 10, 11) for sid in range(256)], "outside"),
], ids=["missing", "out-of-order", "repeated", "two-shot-numbers", "count-above-shots"])
def test_load_counts_refuses_incomplete_files(tmp_path, rows, match):
    path = tmp_path / "counts.csv"
    _write_counts(path, rows)
    with pytest.raises(ValueError, match=match):
        load_counts(path)


@pytest.mark.parametrize("text, match", [
    ("setting_id,count\n0,1\n", "no 'shots' column"),
    ("setting_id,shots,count\n0,10,1\n1,10\n", "line 3: a cell is missing or not an integer"),
    ("setting_id,shots,count\n0,10,1\n1,ten,1\n", "line 3: a cell is missing or not an integer"),
], ids=["missing-column", "short-row", "non-integer-cell"])
def test_load_counts_names_the_file_of_a_malformed_table(tmp_path, text, match):
    path = tmp_path / "counts.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match) as info:
        load_counts(path)
    assert str(info.value).startswith(str(path))


# sha256 of the settings.json every tomography round trip writes; no benchmark reads it
SETTINGS_JSON_SHA256 = "73f0be0ea62c0d14e036e9fd5ed928713781b0427dadc8d1e8eae16ab76c1695"


def test_settings_manifest(tmp_path):
    path = tmp_path / "settings.json"
    save_settings_manifest(path)
    payload = json.loads(path.read_text())
    assert len(payload) == 256
    assert payload[0]["selectors"] == ["Z", "Z", "Z", "Z"]
    k = np.asarray(payload[255]["ket_re"]) + 1j * np.asarray(payload[255]["ket_im"])
    assert payload[255]["selectors"] == list(SETTINGS[255])
    assert np.abs(k - kron_setting_kets()[255]).max() < 1e-15
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SETTINGS_JSON_SHA256
