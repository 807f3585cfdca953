import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ALPHA, BETA, INITIAL_TANGLE, P_ESB, P_ESD, family_state
from oracles import (
    antisym_overlap_direct,
    convex_roof_tangle,
    matmul_concurrence_signed,
    permuted_matrix_marginal,
    werner_concurrence,
    xstate_concurrence,
)
from entredist.measures import (
    CLAMP_ATOL,
    PAIR_CUT,
    _antisym_overlap_matrix,
    DecompositionError,
    RankConditionError,
    compress_pair_to_qubit,
    compute_report,
    concurrence,
    concurrence_signed,
    decompose_pair_residual,
    dicke_state,
    dicke_witness,
    effective_three_tangle,
    monogamy_slacks,
    tangle_lower_bound,
    tangle_pure,
    tangle_quasipure,
    three_tangle,
)
from entredist.channels import (
    InitialSpec,
    evolve,
    initial_state,
    mixed_system_with_purity,
    random_family_state,
)
from entredist.qcore import (
    SUBSYSTEMS,
    DensityMatrix,
    PureState,
    basis_state,
    eig_hermitian,
    fidelity_pure,
    haar_state,
    matrix_marginal,
    numerical_rank,
    partial_trace,
    purity,
    vector_marginal,
)

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
GHZ3 = PureState(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
W3 = PureState(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3))
GHZ4 = PureState(np.array([1.0] + [0.0] * 14 + [1.0]) / np.sqrt(2))


def bell_pair_product():
    """|Phi+> on (S1,E1) times |Phi+> on (S2,E2) in register order."""
    b = BELL.reshape(2, 2)
    amps = np.einsum("ac,bd->abcd", b, b).reshape(-1)
    return PureState(amps)


def haar_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def local_rotation(psi, rng):
    us = [haar_unitary(2, rng) for _ in range(psi.n_qubits)]
    full = np.array([[1.0]], dtype=complex)
    for u in us:
        full = np.kron(full, u)
    return PureState(full @ psi.amplitudes)


# -- concurrence -------------------------------------------------------------

def test_concurrence_signed_bell():
    assert concurrence_signed(np.outer(BELL, BELL.conj())) == pytest.approx(1.0, abs=1e-10)


def _density_matrices_with_zeros(rng, count):
    """Random complex 4x4 density matrices, most with exact zero entries: a block-diagonal
    factor over a random split of the basis, or a zeroed basis vector (rank deficient)."""
    mats = []
    for k in range(count):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        if k % 3 == 1:
            side = rng.random(4) < 0.5
            a[side[:, None] != side[None, :]] = 0.0
        elif k % 3 == 2:
            a[rng.integers(4)] = 0.0
        rho = a @ a.conj().T
        mats.append(rho / np.trace(rho).real)
    return np.array(mats)


def test_spin_flip_matches_the_matrix_product_bit_for_bit(rng):
    mats = _density_matrices_with_zeros(rng, 200)
    assert (mats == 0.0).any()
    family = family_state(np.linspace(0.0, 1.0, 101)).amplitudes
    for stack in (mats, *(vector_marginal(family, ab) for ab in itertools.combinations(range(4), 2))):
        got = concurrence_signed(stack)
        assert got.tobytes() == matmul_concurrence_signed(stack).tobytes()
        assert got.tobytes() == np.array([concurrence_signed(m) for m in stack]).tobytes()


def test_concurrence_signed_product_and_maximally_mixed():
    assert concurrence_signed(basis_state("00").density()) == pytest.approx(0.0, abs=1e-12)
    assert concurrence_signed(np.eye(4) / 4) == pytest.approx(-0.5, abs=1e-12)


def test_gamma_environment_crosses_zero_at_birth():
    # the signed value stays negative before the birth threshold (~0.59)
    def gamma_env(p):
        return concurrence_signed(vector_marginal(family_state(p).amplitudes, (2, 3)))

    assert gamma_env(0.55) < 0.0
    assert gamma_env(0.58) < 0.0
    assert gamma_env(0.60) > 0.0
    assert gamma_env(P_ESB - 1e-4) < 0.0 < gamma_env(P_ESB + 1e-4)


def test_concurrence_bell_and_products():
    assert concurrence(np.outer(BELL, BELL.conj())) == pytest.approx(1.0, abs=1e-10)
    assert concurrence(basis_state("01").density()) == 0.0
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    prod = np.kron(plus, np.array([0, 1], dtype=complex))
    assert concurrence(np.outer(prod, prod.conj())) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("v", [0.0, 0.2, 1.0 / 3.0, 0.5, 1.0])
def test_concurrence_werner_closed_form(v):
    rho = v * np.outer(BELL, BELL.conj()) + (1 - v) * np.eye(4) / 4
    assert concurrence(rho) == pytest.approx(werner_concurrence(v), abs=1e-9)


def test_concurrence_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="2-qubit"):
        concurrence(np.eye(8) / 8)


RAW_KERNELS = {
    "tangle_lower_bound": (lambda m: tangle_lower_bound(m, PAIR_CUT), 16),
    "tangle_quasipure": (lambda m: tangle_quasipure(m, PAIR_CUT), 16),
    "purity": (purity, 16),
    "fidelity_pure": (lambda m: fidelity_pure(m, dicke_state()), 16),
    "concurrence": (concurrence, 4),
    "numerical_rank": (lambda m: numerical_rank(m, 1e-6), 16),
    "eig_hermitian": (eig_hermitian, 16),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kernel", RAW_KERNELS)
def test_raw_array_kernels_reject_non_finite_entries(kernel, bad):
    fn, dim = RAW_KERNELS[kernel]
    mat = np.eye(dim, dtype=complex) / dim
    mat[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        fn(mat)


@pytest.mark.parametrize("mat", [np.zeros((0, 0)), np.eye(6) / 6, np.ones((2, 4)) / 4,
                                 np.ones(4) / 2], ids=["0x0", "6x6", "2x4", "vector"])
@pytest.mark.parametrize("kernel", RAW_KERNELS)
def test_raw_array_kernels_reject_non_register_dimensions(kernel, mat):
    fn, _ = RAW_KERNELS[kernel]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="is not a 1..4 qubit state"):
            fn(mat)


@pytest.mark.parametrize("kernel", [tangle_lower_bound, tangle_quasipure],
                         ids=["lb", "qp"])
def test_mixed_tangle_kernels_take_a_zero_matrix_and_an_empty_stack(kernel):
    # no eigenvalue is kept: both estimators read no entanglement, and an empty stack
    # gives an empty stack of tangles
    assert kernel(np.zeros((16, 16)), ("S1",)) == 0.0
    empty = kernel(np.zeros((0, 16, 16)), ("S1",))
    assert empty.shape == (0,)


PURE_ONLY = {
    "compress_pair_to_qubit": lambda rho: compress_pair_to_qubit(rho, ("S1", "E1")),
    "effective_three_tangle": lambda rho: effective_three_tangle(rho, ("S1", "E1")),
    "three_tangle": lambda rho: three_tangle(partial_trace(rho, ("S1", "S2", "E1"))),
    "decompose_pair_residual": decompose_pair_residual,
    "tangle_pure": lambda rho: tangle_pure(rho, ("S1",)),
}


@pytest.mark.parametrize("kernel", PURE_ONLY)
def test_pure_only_kernels_reject_a_density_matrix(kernel):
    rho = evolve(initial_state(InitialSpec(mixed_system=mixed_system_with_purity(ALPHA, BETA, 0.82))),
                 0.3, 0.3)
    assert isinstance(rho, DensityMatrix)
    with pytest.raises(TypeError, match="needs a PureState, got DensityMatrix"):
        PURE_ONLY[kernel](rho)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_marginal_equals_the_permutation_oracle_bit_for_bit(n):
    dim, rng = 2 ** n, np.random.default_rng(n)
    for lead in ((), (1,), (7,)):
        mat = rng.standard_normal(lead + (dim, dim)) + 1j * rng.standard_normal(lead + (dim, dim))
        for size in range(1, n + 1):
            for keep in itertools.combinations(range(n), size):
                got = matrix_marginal(mat, keep)
                want = permuted_matrix_marginal(mat, n, keep)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (lead, keep)


@given(seed=st.integers(0, 2**32 - 1))
def test_concurrence_equals_sqrt_tangle_on_pure_pairs(seed):
    psi = haar_state(2, np.random.default_rng(seed))
    c = concurrence(psi.density())
    assert c == pytest.approx(np.sqrt(tangle_pure(psi, (0,))), abs=1e-8)


# -- tangles -----------------------------------------------------------------

def test_tangle_pure_cases():
    prod = basis_state("0101")
    assert tangle_pure(prod, PAIR_CUT) == pytest.approx(0.0, abs=1e-12)
    bell_on_cut = bell_pair_product()
    # one Bell pair crosses the (S1,S2)|(E1,E2) cut twice -> tangle 2, but a
    # single Bell pair across a 1:1 cut carries tangle 1
    assert tangle_pure(PureState(BELL), (0,)) == pytest.approx(1.0, abs=1e-12)
    assert tangle_pure(bell_on_cut, PAIR_CUT) == pytest.approx(0.0, abs=1e-12)
    for p in (0.0, 0.3, 0.5, 0.9):
        assert tangle_pure(family_state(p), PAIR_CUT) == pytest.approx(
            INITIAL_TANGLE, abs=1e-9
        )


def test_tangle_pure_rejects_bad_partition():
    psi = family_state(0.5)
    with pytest.raises(ValueError):
        tangle_pure(psi, (0, 1, 2, 3))
    with pytest.raises(ValueError, match="empty"):
        tangle_pure(psi, ())
    with pytest.raises(ValueError, match="duplicate"):
        tangle_pure(psi, ("S1", "S1"))
    with pytest.raises(ValueError, match="unknown"):
        tangle_pure(psi, ("S1", "E3"))


def test_tangle_lower_bound_pure_matches_exact():
    psi = family_state(0.31)
    assert tangle_lower_bound(psi.density(), PAIR_CUT) == pytest.approx(
        tangle_pure(psi, PAIR_CUT), abs=1e-10
    )


def test_tangle_lower_bound_clamps_mixed_two_qubit():
    assert tangle_lower_bound(DensityMatrix(np.eye(4) / 4), (0,)) == 0.0


def test_tangle_lower_bound_below_convex_roof_oracle(rng):
    for _ in range(20):
        weights = rng.dirichlet([1.0, 1.0, 1.0])
        rho = sum(
            w * np.outer(v.amplitudes, v.amplitudes.conj())
            for w, v in zip(weights, (haar_state(4, rng) for _ in range(3)))
        )
        rho = DensityMatrix(rho)
        lb = tangle_lower_bound(rho, (0, 2))
        oracle = convex_roof_tangle(rho, (0, 2), n_samples=300, rng=rng)
        assert lb <= oracle + 1e-9


def test_tangle_quasipure_exact_on_pure(rng):
    psi = family_state(0.42)
    assert tangle_quasipure(psi.density(), (0,)) == pytest.approx(
        2.0 * (1.0 - purity(partial_trace(psi, (0,)))), abs=1e-8
    )
    for _ in range(5):
        psi = haar_state(4, rng)
        assert tangle_quasipure(psi.density(), (0, 2)) == pytest.approx(
            tangle_pure(psi, (0, 2)), abs=1e-8
        )


def test_tangle_quasipure_zero_on_maximally_mixed():
    assert tangle_quasipure(DensityMatrix(np.eye(4) / 4), (0,)) == 0.0


def test_tangle_quasipure_below_oracle_on_noisy_bell(rng):
    rho = DensityMatrix(0.9 * np.outer(BELL, BELL.conj()) + 0.1 * np.eye(4) / 4)
    qp = tangle_quasipure(rho, (0,))
    oracle = convex_roof_tangle(rho, (0,), n_samples=500, rng=rng)
    assert qp <= oracle + 1e-6


def test_tangle_quasipure_matches_wootters_on_two_qubits(rng):
    # the doubled antisymmetric projector is rank one for a pair of qubits,
    # so the quasi-pure expansion is exact there
    for _ in range(10):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = m @ m.conj().T
        rho = DensityMatrix(rho / np.trace(rho).real)
        assert tangle_quasipure(rho, (0,)) == pytest.approx(
            concurrence(rho) ** 2, abs=1e-10
        )


@pytest.mark.parametrize("k", [1, 2, 4, 16])
@pytest.mark.parametrize("d_a, d_b", [(2, 8), (4, 4), (8, 2)])
def test_antisym_overlap_matrix_matches_four_index_contraction(d_a, d_b, k):
    rng = np.random.default_rng(100 * d_a + k)
    f = rng.standard_normal((5, k, d_a * d_b)) + 1j * rng.standard_normal((5, k, d_a * d_b))
    direct = antisym_overlap_direct(f, d_a, d_b)
    assert np.abs(_antisym_overlap_matrix(f, d_a) - direct).max() <= 1e-12 * np.abs(direct).max()


def test_pair_cut_quasipure_tangle_is_the_initial_wootters_tangle():
    # The dilation is local to the (S1,E1)|(S2,E2) cut, so on rho_S (x) |00><00| the
    # pair-cut convex roof stays C(rho_S)^2 at every p (Osborne, PRA 72, 022309 (2005)),
    # and the quasi-pure estimate is exact on a locally embedded pair of qubits.
    rng = np.random.default_rng(4021)
    systems = [mixed_system_with_purity(ALPHA, BETA, 0.82)]
    for _ in range(3):
        psi = haar_state(2, rng).amplitudes
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        noise = g @ g.conj().T
        weight = rng.uniform(0.5, 0.9)
        systems.append(DensityMatrix(weight * np.outer(psi, psi.conj())
                                     + (1.0 - weight) * noise / np.trace(noise).real))
    grid = np.linspace(0.0, 1.0, 21)
    for rho_s in systems:
        expected = concurrence(rho_s) ** 2
        assert expected > 0.0
        stack = evolve(initial_state(InitialSpec(mixed_system=rho_s)), grid, grid)
        assert np.abs(tangle_quasipure(stack, PAIR_CUT) - expected).max() <= 1e-12


# -- three-tangle and compression --------------------------------------------

def test_three_tangle_ghz_and_w():
    assert three_tangle(GHZ3) == pytest.approx(1.0, abs=1e-10)
    assert three_tangle(W3) == pytest.approx(0.0, abs=1e-10)


def test_three_tangle_product_times_bell():
    amps = np.kron(np.array([1, 0], dtype=complex), BELL)
    assert three_tangle(PureState(amps)) == pytest.approx(0.0, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
def test_three_tangle_permutation_invariant(seed):
    psi = haar_state(3, np.random.default_rng(seed))
    amps = psi.amplitudes.reshape(2, 2, 2)
    values = [three_tangle(PureState(amps.transpose(axes).reshape(-1)))
              for axes in itertools.permutations(range(3))]
    assert max(values) - min(values) < 1e-8


@given(seed=st.integers(0, 2**32 - 1))
def test_measures_invariant_under_local_unitaries(seed):
    rng = np.random.default_rng(seed)
    psi = haar_state(3, rng)
    rotated = local_rotation(psi, rng)
    assert three_tangle(rotated) == pytest.approx(three_tangle(psi), abs=1e-8)
    pair = haar_state(2, rng)
    rotated_pair = local_rotation(pair, rng)
    assert concurrence(rotated_pair.density()) == pytest.approx(
        concurrence(pair.density()), abs=1e-8
    )


def test_compress_recovers_embedded_three_qubit_state():
    phi = np.zeros(8, dtype=complex)
    phi[0b000], phi[0b111] = np.sqrt(0.7), np.sqrt(0.3)
    psi = PureState(np.kron(phi, np.array([1, 0], dtype=complex)))
    out = compress_pair_to_qubit(psi, ("E1", "E2"))
    assert np.abs(out.amplitudes - phi).max() < 1e-10


def test_compress_preserves_cut_entropy():
    psi = family_state(0.37)
    rho_before = partial_trace(psi, ("S1", "E1"))
    out = compress_pair_to_qubit(psi, ("S2", "E2"))
    rho_after = partial_trace(out, (0, 1))
    assert purity(rho_after) == pytest.approx(purity(rho_before), abs=1e-9)


def test_compress_rejects_rank_three_pairs(rng):
    with pytest.raises(RankConditionError, match="third eigenvalue"):
        compress_pair_to_qubit(haar_state(4, rng), ("S2", "E2"))


def test_effective_three_tangle_vanishes_on_family():
    for p in np.linspace(0.0, 1.0, 21):
        psi = family_state(p)
        for pair in (("S2", "E2"), ("S1", "E1")):
            assert effective_three_tangle(psi, pair) < 1e-6


def test_effective_three_tangle_agrees_with_frozen_environment_route():
    # with the second dilation switched off, (S1,S2,E1) stays pure and the
    # compression route must reproduce its plain three-tangle
    p = 0.41
    half = evolve(initial_state(InitialSpec(alpha=ALPHA, beta=BETA)), p, 0.0)
    direct = three_tangle(compress_pair_to_qubit(half, ("S2", "E2")))
    full = effective_three_tangle(family_state(p), ("S2", "E2"))
    assert full == pytest.approx(direct, abs=1e-9)


def test_effective_three_tangle_ghz4_and_bell_pairs():
    assert effective_three_tangle(GHZ4, ("E1", "E2")) == pytest.approx(1.0, abs=1e-9)
    assert effective_three_tangle(bell_pair_product(), ("S2", "E2")) == pytest.approx(
        0.0, abs=1e-9
    )
    with pytest.raises(ValueError, match="duplicate"):
        effective_three_tangle(GHZ4, ("E1", "E1"))


# -- residuals ----------------------------------------------------------------

def test_pair_cut_slack_family_endpoints():
    assert monogamy_slacks(family_state(0.0)).pair_cut == pytest.approx(0.0, abs=1e-9)
    assert monogamy_slacks(family_state(0.5)).pair_cut == pytest.approx(
        INITIAL_TANGLE, abs=1e-9
    )


def test_pair_cut_slack_mixed_fixture_peaks_inside_window():
    system = mixed_system_with_purity(ALPHA, BETA, 0.82)
    base = initial_state(InitialSpec(mixed_system=system))
    values = {p: monogamy_slacks(evolve(base, p, p)).pair_cut for p in np.linspace(0.05, 0.95, 19)}
    assert all(v > 0.0 for p, v in values.items() if P_ESD <= p <= P_ESB)
    peak = max(values, key=values.get)
    assert P_ESD - 0.1 < peak < P_ESB + 0.1


def test_report_residual_pair_warns_on_high_rank(rng):
    # a pure Haar state's effective tangles raise instead, so it is reported as a matrix
    with pytest.warns(UserWarning, match="rank above two"):
        compute_report(haar_state(4, rng).density(), 0.0)


def test_residual_single_qubit_cases():
    # a qubit's residual is its one-vs-rest monogamy slack
    assert monogamy_slacks(basis_state("0101")).one_vs_rest["S1"] == pytest.approx(0.0, abs=1e-12)
    for name in SUBSYSTEMS:
        assert monogamy_slacks(GHZ4).one_vs_rest[name] == pytest.approx(1.0, abs=1e-9)


def test_residual_single_equals_reduced_when_effective_vanishes():
    report = compute_report(family_state(0.5), 0.5)
    assert report.tau_u_s1_s2e2 == pytest.approx(report.residual_s1, abs=1e-7)


def test_reduced_three_tangle_zero_initially():
    assert compute_report(family_state(0.0), 0.0).tau_u_s1_s2e2 == 0.0


def test_reduced_three_tangle_symmetry_pairs():
    for p in np.linspace(0.0, 1.0, 21):
        r = compute_report(family_state(p), p)
        assert abs(r.tau_u_s1_s2e2 - r.tau_u_s2_s1e1) < 1e-6
        assert abs(r.tau_u_e1_s2e2 - r.tau_u_e2_s1e1) < 1e-6


def test_reduced_three_tangle_peak_locations():
    # dense-grid evaluation puts the maxima at p ~ 0.2745 and ~ 0.7255,
    # i.e. before death and after birth of the respective pairwise terms
    grid = np.linspace(0.0, 1.0, 401)
    reports = [compute_report(family_state(p), p) for p in grid]
    s_vals = [r.tau_u_s1_s2e2 for r in reports]
    e_vals = [r.tau_u_e1_s2e2 for r in reports]
    p_s, p_e = grid[int(np.argmax(s_vals))], grid[int(np.argmax(e_vals))]
    assert p_s == pytest.approx(0.2745, abs=0.005)
    assert p_e == pytest.approx(0.7255, abs=0.005)
    assert p_s + p_e == pytest.approx(1.0, abs=0.005)
    assert p_s < P_ESD < P_ESB < p_e
    assert max(s_vals) == pytest.approx(0.327676, abs=1e-4)


def test_decompose_pair_residual_family_and_special_states(rng):
    out = decompose_pair_residual(family_state(0.5))
    assert out.discrepancy < 1e-6
    assert out.residual == pytest.approx(INITIAL_TANGLE, abs=1e-9)
    assert all(v < 1e-6 for v in out.effective.values())

    out = decompose_pair_residual(GHZ4)
    assert out.discrepancy < 1e-6
    assert out.residual == pytest.approx(1.0, abs=1e-9)
    assert out.effective["tau_eff_s1e1"] == pytest.approx(1.0, abs=1e-8)

    out = decompose_pair_residual(bell_pair_product())
    assert out.residual == pytest.approx(0.0, abs=1e-9)
    assert all(abs(v) < 1e-9 for v in out.reduced.values())
    assert all(abs(v) < 1e-9 for v in out.effective.values())


def test_decompose_pair_residual_identity_on_arbitrary_rank_two_states():
    # not of the damped family: the second Schmidt vector on (S2,E2) is a
    # Bell-like superposition rather than a rotated |10>
    a0 = np.array([1, 0, 0, 0], dtype=complex)
    a1 = np.array([0, 0, 0, 1], dtype=complex)
    b0 = np.array([1, 0, 0, 0], dtype=complex)
    b1 = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    amps = np.sqrt(0.7) * np.outer(a0, b0) + np.sqrt(0.3) * np.outer(a1, b1)
    t = amps.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)  # (s1,e1,s2,e2)->(s1,s2,e1,e2)
    out = decompose_pair_residual(PureState(t.reshape(-1)))
    assert out.discrepancy < 1e-12


def test_decompose_pair_residual_reports_both_sides(monkeypatch):
    import entredist.measures as measures

    monkeypatch.setattr(
        measures, "_residual_pair", lambda tangle, rank, c2: 123.0
    )
    with pytest.raises(DecompositionError, match="half-sum"):
        decompose_pair_residual(family_state(0.3))


def test_decompose_pair_residual_refuses_a_stack():
    _, stack, _ = stacked_family(InitialSpec(alpha=ALPHA, beta=BETA), 3)
    with pytest.raises(ValueError, match="decompose_pair_residual takes one state, got a stack of 3"):
        decompose_pair_residual(stack)


def test_decomposition_terms_are_the_report_fields(rng):
    # one route per number: the split and the sweep row agree bit for bit
    for _ in range(25):
        psi = random_family_state(rng)
        out = decompose_pair_residual(psi)
        report = compute_report(psi, 0.0)
        for column, value in {**out.reduced, **out.effective}.items():
            assert value == getattr(report, column), column
        assert out.residual == report.residual_pair


def test_monogamy_slacks_cases(rng):
    report = monogamy_slacks(GHZ4)
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in report.one_vs_rest.values())
    assert report.pair_cut == pytest.approx(1.0, abs=1e-9)

    report = monogamy_slacks(basis_state("0101"))
    assert all(abs(v) < 1e-9 for v in report.one_vs_rest.values())
    assert abs(report.pair_cut) < 1e-9

    for _ in range(25):
        report = monogamy_slacks(haar_state(4, rng))
        assert min(report.one_vs_rest.values()) >= -1e-6
        assert report.pair_cut is None and "rank" in report.pair_cut_note


def test_monogamy_slacks_refuses_a_stack():
    for spec in (InitialSpec(alpha=ALPHA, beta=BETA),
                 InitialSpec(mixed_system=mixed_system_with_purity(ALPHA, BETA, 0.82))):
        _, stack, _ = stacked_family(spec, 3)
        with pytest.raises(ValueError, match="monogamy_slacks takes one state, got a stack of 3"):
            monogamy_slacks(stack)


# -- Dicke witness ------------------------------------------------------------

def test_dicke_state_normalized_and_self_fidelity():
    d = dicke_state()
    assert np.linalg.norm(d.amplitudes) == pytest.approx(1.0, abs=1e-12)
    fid, genuine = dicke_witness(d.density())
    assert fid == pytest.approx(1.0, abs=1e-12) and genuine


def test_dicke_witness_product_state():
    fid, genuine = dicke_witness(basis_state("0000").density())
    assert fid == pytest.approx(1.0 / 6.0, abs=1e-12) and not genuine


def test_dicke_overlap_amplitude_at_half():
    amp = dicke_state().amplitudes.conj() @ family_state(0.5).amplitudes
    assert abs(amp) == pytest.approx((ALPHA + 2 * BETA) / np.sqrt(6.0), abs=1e-12)
    assert abs(amp) == pytest.approx(0.9102, abs=1e-4)


def test_dicke_witness_interval_on_family():
    grid = np.linspace(0.0, 1.0, 101)
    genuine = np.array([dicke_witness(family_state(p))[1] for p in grid])
    inside = grid[genuine]
    assert inside.min() == pytest.approx(0.18, abs=0.011)  # first grid point past 0.1704
    assert inside.max() == pytest.approx(0.82, abs=0.011)
    assert inside.min() < 0.27 and inside.max() > 0.73  # brackets the lab interval
    assert not genuine[0] and not genuine[-1]


# -- cross-pair concurrences: closed form -------------------------------------

def test_pairwise_concurrences_match_xstate_closed_forms():
    for p in np.linspace(0.0, 1.0, 51):
        v = family_state(p).amplitudes
        c_ss = concurrence(vector_marginal(v, (0, 1)))
        c_ee = concurrence(vector_marginal(v, (2, 3)))
        assert c_ss == pytest.approx(
            2 * BETA * (1 - p) * max(0.0, ALPHA - BETA * p), abs=1e-8
        )
        assert c_ee == pytest.approx(
            2 * BETA * p * max(0.0, ALPHA - BETA * (1 - p)), abs=1e-8
        )


def test_cross_pair_concurrences_small_and_zero_inside_window():
    """S1-E2 and S2-E1 stay below ~0.072 everywhere and vanish mid-sweep.

    The X-state closed form 2*beta*sqrt(p(1-p))*max(0, alpha-beta*sqrt(p(1-p)))
    caps them at alpha^2/2; they are exactly zero wherever p(1-p) >
    (alpha/beta)^2, a window that contains the whole dead zone.
    """
    cap = ALPHA ** 2 / 2.0
    for p in np.linspace(0.0, 1.0, 101):
        v = family_state(p).amplitudes
        rho = vector_marginal(v, (0, 3))
        c_se = concurrence(rho)
        closed = 2 * BETA * np.sqrt(p * (1 - p)) * max(
            0.0, ALPHA - BETA * np.sqrt(p * (1 - p))
        )
        assert c_se == pytest.approx(closed, abs=1e-8)
        assert c_se == pytest.approx(xstate_concurrence(rho), abs=1e-8)
        assert c_se <= cap + 1e-9
        assert c_se == pytest.approx(
            concurrence(vector_marginal(v, (1, 2))), abs=1e-8
        )
        if P_ESD <= p <= P_ESB:
            assert c_se == 0.0


# -- report -------------------------------------------------------------------

def test_compute_report_pure_row():
    report = compute_report(family_state(0.5), 0.5)
    assert report.c2_s1s2 == 0.0 and report.c2_e1e2 == 0.0
    assert report.gamma_s1s2 < 0.0 and report.gamma_e1e2 < 0.0
    assert report.residual_pair == pytest.approx(INITIAL_TANGLE, abs=1e-9)
    assert report.c2_pair_lb == pytest.approx(INITIAL_TANGLE, abs=1e-9)
    assert report.genuine4
    assert all(v < 1e-6 for v in (report.tau_eff_s1e1, report.tau_eff_s2e2))
    assert report.tau_u_s1_s2e2 == pytest.approx(report.residual_s1, abs=1e-6)


@pytest.mark.parametrize("case, limit", [("pure", 10), ("mixed", 6), ("decompose", 10)],
                         ids=["pure", "mixed", "decompose"])
def test_compute_report_evaluates_each_concurrence_once(monkeypatch, case, limit):
    # six pair marginals, plus two per effective three-tangle on pure rows;
    # decompose_pair_residual needs the same ten as a pure report
    import entredist.measures as measures

    spec = (InitialSpec(mixed_system=mixed_system_with_purity(ALPHA, BETA, 0.82))
            if case == "mixed" else InitialSpec(alpha=ALPHA, beta=BETA))
    state = evolve(initial_state(spec), 0.3, 0.3)
    calls = {"concurrence_signed": 0, "tangle_lower_bound": 0}

    def counting(name):
        real = getattr(measures, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(measures, name, counting(name))
    if case == "decompose":
        decompose_pair_residual(state)
    else:
        compute_report(state, 0.3)
    assert calls["concurrence_signed"] <= limit
    assert calls["tangle_lower_bound"] <= 1  # c2_pair_lb, on mixed input only


def test_compute_report_decomposes_a_mixed_stack_once(monkeypatch):
    # building the stack validates it with the same 16 x 16 eigendecomposition
    # that the five quasi-pure cuts then share
    spec = InitialSpec(mixed_system=mixed_system_with_purity(ALPHA, BETA, 0.82))
    grid = np.linspace(0.0, 1.0, 5)
    base = initial_state(spec)
    dims = []

    def counting(real):
        def counted(a, *args, **kwargs):
            dims.append(np.shape(a)[-1])
            return real(a, *args, **kwargs)
        return counted

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    stack = evolve(base, grid, grid)
    compute_report(stack, grid)
    assert 4 in dims  # the pair concurrences' square roots are counted too
    assert dims.count(16) <= 1


def test_compute_report_mixed_uses_estimators():
    # p = 0.45 sits inside the dead window, so all pairwise terms vanish; the state is
    # pure, so both the purity-gap bound and the quasi-pure tangle are exact
    report = compute_report(family_state(0.45).density(), 0.45)
    assert report.c2_pair_lb == pytest.approx(INITIAL_TANGLE, abs=1e-6)
    assert report.residual_pair == pytest.approx(INITIAL_TANGLE, abs=1e-12)
    assert (report.tau_eff_s1e1, report.tau_eff_s2e2) == (0.0, 0.0)


# -- stacked engine ------------------------------------------------------------

def stacked_family(spec, steps):
    """The damped family of ``spec`` on a grid: one stacked evolve and the per-state list."""
    base = initial_state(spec)
    grid = np.linspace(0.0, 1.0, steps)
    return grid, evolve(base, grid, grid), [evolve(base, p, p) for p in grid]


def mixed_rank_stack():
    """Random system states of ranks 1 to 4, each evolved, and a full-rank 16 x 16 state, in
    one stack that is decomposed afresh, as a tomography sweep stacks its fits; the per-state
    list holds each matrix decomposed alone."""
    rng = np.random.default_rng(5)
    ps, mats = np.array([0.2, 0.4, 0.6, 0.8, 0.0]), []
    for rank, p in zip(range(1, 5), ps):
        kets = np.array([haar_state(2, rng).amplitudes for _ in range(rank)])
        weights = rng.dirichlet(np.ones(rank))
        system = DensityMatrix(np.einsum("k,ki,kj->ij", weights, kets, kets.conj()))
        mats.append(evolve(initial_state(InitialSpec(mixed_system=system)), p, 1 - p).entries)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    mats.append(m @ m.conj().T / np.trace(m @ m.conj().T).real)
    stack = DensityMatrix(np.array(mats))
    # tangle_quasipure groups a stack by the number of eigenvalues it keeps
    assert (eig_hermitian(stack)[0] > 1e-13).sum(axis=1).tolist() == [1, 2, 3, 4, 16]
    return ps, stack, [DensityMatrix(m) for m in mats]


STACKED_CASES = {
    "pure-1/7": lambda: stacked_family(InitialSpec(alpha=ALPHA, beta=BETA), 201),
    "pure-complex": lambda: stacked_family(InitialSpec(alpha=np.sqrt(0.2) * np.exp(1.1j),
                                                       beta=np.sqrt(0.8) * np.exp(-0.4j)), 101),
    "mixed-0.82": lambda: stacked_family(
        InitialSpec(mixed_system=mixed_system_with_purity(ALPHA, BETA, 0.82)), 51),
    "mixed-0.9": lambda: stacked_family(
        InitialSpec(mixed_system=mixed_system_with_purity(ALPHA, BETA, 0.9)), 51),
    "mixed-ranks": mixed_rank_stack,
}


@pytest.mark.parametrize("case", STACKED_CASES)
@pytest.mark.filterwarnings("ignore:.*(rank above two|negative beyond noise)")
def test_stacked_engine_equals_per_state_calls(case):
    # the per-state calls are the reference: a stack must reproduce them bit for bit
    grid, stack, states = STACKED_CASES[case]()
    steps = len(grid)
    pure = isinstance(stack, PureState)
    entries = stack.amplitudes if pure else stack.entries
    assert np.array_equal(entries, [s.amplitudes if pure else s.entries for s in states])

    reports = compute_report(stack, grid)
    assert len(reports) == steps
    for p, state, report in zip(grid, states, reports):
        single = compute_report(state, p)
        for name, value in single._asdict().items():
            assert getattr(report, name) == value, (p, name)

    for ab in ((0, 1), (2, 3), (0, 3)):
        if pure:
            stacked = concurrence_signed(vector_marginal(entries, ab))
            single = [concurrence_signed(vector_marginal(s.amplitudes, ab)) for s in states]
        else:
            stacked = concurrence_signed(matrix_marginal(entries, ab))
            single = [concurrence_signed(matrix_marginal(s.entries, ab)) for s in states]
        assert stacked.tolist() == single, ab
    if pure:
        for pair in (("S2", "E2"), ("S1", "E1")):
            stacked = effective_three_tangle(stack, pair)
            assert stacked.tolist() == [effective_three_tangle(s, pair) for s in states], pair


def test_stacked_report_warns_once_per_state(rng):
    mats = []
    for _ in range(3):
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = m @ m.conj().T
        mats.append(rho / np.trace(rho).real)

    def messages(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        return sorted(str(w.message) for w in caught)

    stacked = messages(lambda: compute_report(DensityMatrix(np.array(mats)), np.zeros(3)))
    single = messages(lambda: [compute_report(DensityMatrix(m), 0.0) for m in mats])
    assert sum("rank above two" in text for text in stacked) == 3
    assert stacked == single


def test_stacked_clamp_zeroes_noise_and_warns_per_state():
    # The W state mixed with a little of a rephased W: each quasi-pure single-qubit
    # tangle falls below its pairwise terms, inside the noise band at weight 1e-3 and
    # beyond it at 3e-3 and 0.1.  On mixed rows an anchored tangle is its residual,
    # clamped.
    w = np.zeros(16, dtype=complex)
    w[[1, 2, 4, 8]] = 0.5
    v = np.zeros(16, dtype=complex)
    v[[1, 2, 4, 8]] = np.array([1, 1j, 1, -1j]) / 2
    mats = [(1 - eps) * np.outer(w, w.conj()) + eps * np.outer(v, v.conj())
            for eps in (1e-3, 3e-3, 0.1)]

    def recorded(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = call()
        return result, sorted(str(c.message) for c in caught if "reduced" in str(c.message))

    stacked, stacked_messages = recorded(
        lambda: compute_report(DensityMatrix(np.array(mats)), np.zeros(3)))
    single, single_messages = recorded(lambda: [compute_report(DensityMatrix(m), 0.0) for m in mats])
    assert stacked == single and stacked_messages == single_messages

    anchored = (("tau_u_s1_s2e2", "S1"), ("tau_u_s2_s1e1", "S2"),
                ("tau_u_e1_s2e2", "E1"), ("tau_u_e2_s1e1", "E2"))
    expected, in_band = [], 0
    for report in stacked:
        for column, ref in anchored:
            raw, tau = getattr(report, f"residual_{ref.lower()}"), getattr(report, column)
            assert raw < 0.0
            if raw < -CLAMP_ATOL:
                assert tau == raw
                expected.append(f"reduced three-tangle at {ref} = {raw:.3e} is negative beyond noise")
            else:
                assert tau == 0.0
                in_band += 1
    assert in_band == 4 and len(expected) == 8
    assert stacked_messages == sorted(expected)


def test_pure_pair_cut_bound_is_the_exact_tangle():
    # tr rho^2 = 1 on a pure state, so the purity-gap bound is the tangle itself
    rng = np.random.default_rng(5)
    for _ in range(10):
        psi = random_family_state(rng)
        assert compute_report(psi, 0.0).c2_pair_lb == tangle_pure(psi, PAIR_CUT)


def test_compute_report_rejects_mismatched_p():
    _, stack, _ = stacked_family(InitialSpec(alpha=ALPHA, beta=BETA), 3)
    with pytest.raises(ValueError, match="values of p"):
        compute_report(stack, 0.5)
