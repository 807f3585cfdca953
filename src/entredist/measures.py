"""Entanglement quantifiers for the four-qubit system+environment register.

Covers the two-qubit concurrence and its signed precursor, pure-state and
estimated mixed-state tangles across arbitrary bipartitions, the
three-tangle and its extension to rank-two pair groupings treated as
effective qubits, the residual (monogamy-slack) quantities, their six-term
decomposition, and the Dicke-state witness of genuine four-partite
entanglement.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .qcore import (
    Partition,
    PureState,
    Subsystem,
    ALL_SUBSYSTEMS,
    as_matrix,
    eig_hermitian,
    fidelity_pure,
    hermitize,
    matrix_marginal,
    numerical_rank,
    psd_sqrt,
    purity,
    resolve_slots,
    subsystem,
    vector_marginal,
)

__all__ = [
    "EstimatorWarning",
    "RankConditionError",
    "DecompositionError",
    "Grouping",
    "concurrence_signed",
    "concurrence",
    "tangle_pure",
    "tangle_lower_bound",
    "tangle_quasipure",
    "three_tangle",
    "compress_pair_to_qubit",
    "effective_three_tangle",
    "residual_pair_cut",
    "residual_single_qubit",
    "reduced_three_tangle",
    "decompose_pair_residual",
    "ResidualDecomposition",
    "monogamy_slacks",
    "MonogamyReport",
    "dicke_state",
    "dicke_witness",
    "TangleReport",
    "compute_report",
    "PAIR_CUT",
]

PAIR_CUT = Partition.split("S1E1", "S2E2")

# Sub-1e-6 negatives are floating noise from the estimators; anything more
# negative is surfaced as a warning instead of silently clamped.
CLAMP_ATOL = 1e-6

_SY_SY = np.array(
    [[0, 0, 0, -1],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [-1, 0, 0, 0]],
    dtype=complex,
)


class EstimatorWarning(UserWarning):
    """An estimated tangle came out more negative than numerical noise allows."""


class RankConditionError(ValueError):
    """A pair marginal that must be rank-two has a third eigenvalue."""


class DecompositionError(RuntimeError):
    """The six-term residual decomposition failed its consistency check."""


@dataclass(frozen=True)
class Grouping:
    """Reference qubit i, spectator j and the pair (k,l) treated as one qubit."""

    i: Subsystem
    j: Subsystem
    pair_kl: tuple[Subsystem, Subsystem]

    def __post_init__(self):
        labels = {self.i, self.j, *self.pair_kl}
        if len(labels) != 4 or labels != set(ALL_SUBSYSTEMS):
            raise ValueError(f"grouping must cover all four subsystems once, got {self}")

    @classmethod
    def anchored_at(cls, i) -> "Grouping":
        """Canonical grouping for reference qubit i: j is its local partner."""
        i = subsystem(i)
        j = i.partner
        return cls(i, j, tuple(sorted(set(ALL_SUBSYSTEMS) - {i, j})))


def _clamp_small_negative(value: float, atol: float, context: str) -> float:
    if -atol <= value < 0.0:
        return 0.0
    if value < -atol:
        warnings.warn(f"{context} = {value:.3e} is negative beyond noise", EstimatorWarning)
    return value


# ---------------------------------------------------------------------------
# Two-qubit concurrence
# ---------------------------------------------------------------------------

def _spin_flipped(mat: np.ndarray) -> np.ndarray:
    return _SY_SY @ mat.conj() @ _SY_SY


def _wootters_roots(mat: np.ndarray) -> np.ndarray:
    """Descending sqrt-eigenvalues of rho * rho_tilde via the Hermitian surrogate."""
    root = psd_sqrt(mat)
    m = hermitize(root @ _spin_flipped(mat) @ root)
    w = np.linalg.eigvalsh(m)[::-1]
    if w[-1] < -1e-9:
        raise ValueError(f"spin-flipped product has eigenvalue {w[-1]} below -1e-9")
    # eigenvalues below 1e-9 are floating noise whose square roots (~1e-8 for
    # a pure input) would otherwise dominate the subtracted terms
    return np.sqrt(np.where(w < 1e-9, 0.0, w))


def concurrence_signed(rho2) -> float:
    """Signed precursor of the two-qubit concurrence (may be negative).

    The sign carries information the clamped concurrence discards: how far
    inside the separable set a state sits before pairwise entanglement dies
    or after it is born.
    """
    mat = as_matrix(rho2)
    if mat.shape != (4, 4):
        raise ValueError(f"concurrence needs a 2-qubit state, got dimension {mat.shape[0]}")
    lam = _wootters_roots(mat)
    return float(lam[0] - lam[1] - lam[2] - lam[3])


def concurrence(rho2) -> float:
    """Wootters two-qubit concurrence, in [0, 1]."""
    return max(0.0, concurrence_signed(rho2))


# ---------------------------------------------------------------------------
# Tangles across bipartitions
# ---------------------------------------------------------------------------

def _side_a_slots(part, n_qubits: int) -> tuple[int, ...]:
    if isinstance(part, Partition):
        labels = part.labels()
        if len(labels) != n_qubits:
            raise ValueError(f"partition covers {len(labels)} labels but state has {n_qubits} qubits")
        return tuple(sorted(int(x) for x in part.side_a))
    slots = resolve_slots(part, n_qubits)
    if len(slots) >= n_qubits:
        raise ValueError(f"side A must be a proper non-empty subset of the {n_qubits} slots")
    return slots


def tangle_pure(psi: PureState, part) -> float:
    """Tangle 2(1 - tr rho_A^2) of a pure state across the given bipartition."""
    slots = _side_a_slots(part, psi.n_qubits)
    rho_a = vector_marginal(psi.amplitudes, psi.n_qubits, slots)
    return 2.0 * (1.0 - purity(rho_a))


def tangle_lower_bound(rho, part) -> float:
    """Purity-gap lower bound max(0, 2[tr rho^2 - tr rho_A^2]) on the tangle."""
    mat = as_matrix(rho)
    n = int(np.log2(mat.shape[0]))
    slots = _side_a_slots(part, n)
    rho_a = matrix_marginal(mat, n, slots)
    return max(0.0, 2.0 * (purity(mat) - purity(rho_a)))


def _antisym_overlap_matrix(subnormed: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Overlaps <f1 f1|A|fm fn> of the doubled antisymmetric projector.

    ``subnormed`` holds sqrt(mu_i) * eigenvector rows; A is the operator whose
    pure-state expectation is the squared concurrence across the (A|B) cut.
    """
    f = subnormed.reshape(-1, d_a, d_b)
    f1c = f[0].conj()
    v = np.einsum("ab,mab->m", f1c, f)
    swap_a = np.einsum("ab,cd,mcb,nad->mn", f1c, f1c, f, f)
    swap_b = np.einsum("ab,cd,mad,ncb->mn", f1c, f1c, f, f)
    return np.outer(v, v) + np.outer(v, v).T - swap_a - swap_b


def tangle_quasipure(rho, part) -> float:
    """Quasi-pure estimate of the mixed-state tangle across a bipartition.

    Expands the squared-concurrence form around the dominant eigenvector of
    rho, which reduces the convex-roof minimization to the same
    singular-value expression that solves the two-qubit case.  Exact on pure
    states; on the mixed states of interest it sits below the convex roof.
    """
    mat = as_matrix(rho)
    n = int(np.log2(mat.shape[0]))
    slots = _side_a_slots(part, n)
    d_a = 2 ** len(slots)
    d_b = mat.shape[0] // d_a

    w, v = eig_hermitian(mat)
    keep = w > 1e-13
    w, v = w[keep], v[:, keep]
    # Reorder amplitudes so side A is the leading tensor factor.
    rest = [q for q in range(n) if q not in slots]
    perm = list(slots) + rest
    vecs = v.T.reshape(-1, *([2] * n)).transpose([0] + [1 + q for q in perm]).reshape(-1, d_a * d_b)
    subnormed = np.sqrt(w)[:, None] * vecs

    a11 = _antisym_overlap_matrix(subnormed[:1], d_a, d_b)[0, 0].real
    if a11 <= 1e-14:
        return 0.0
    t = _antisym_overlap_matrix(subnormed, d_a, d_b) / np.sqrt(a11)
    sigma = np.linalg.svd(t, compute_uv=False)
    c = max(0.0, float(sigma[0] - sigma[1:].sum()))
    return c * c


# ---------------------------------------------------------------------------
# Three-tangle and effective-qubit compression
# ---------------------------------------------------------------------------

def three_tangle(psi3: PureState, ref: int = 0) -> float:
    """Tripartite tangle of a pure 3-qubit state (independent of ``ref``)."""
    if psi3.n_qubits != 3:
        raise ValueError(f"three_tangle needs a 3-qubit state, got {psi3.n_qubits}")
    ref = int(ref)
    others = [q for q in range(3) if q != ref]
    vec = psi3.amplitudes
    rho_i = vector_marginal(vec, 3, (ref,))
    one_to_rest = 4.0 * float(np.real(np.linalg.det(rho_i)))
    c_ij = concurrence(vector_marginal(vec, 3, tuple(sorted((ref, others[0])))))
    c_ik = concurrence(vector_marginal(vec, 3, tuple(sorted((ref, others[1])))))
    return _clamp_small_negative(one_to_rest - c_ij ** 2 - c_ik ** 2, 1e-7, "three-tangle")


def compress_pair_to_qubit(psi: PureState, pair) -> PureState:
    """Map a rank-two pair of qubits onto one effective qubit.

    The two eigenvectors of the pair marginal (descending eigenvalue, each
    phased so its largest-magnitude component is real positive) become the
    effective |0> and |1>.  The returned 3-qubit state keeps the remaining
    slots in register order and appends the effective qubit last.
    """
    if psi.n_qubits != 4:
        raise ValueError("compression expects a 4-qubit state")
    pair_slots = resolve_slots(pair, 4)
    if len(pair_slots) != 2:
        raise ValueError(f"pair must name two distinct subsystems, got {pair!r}")
    rho_pair = vector_marginal(psi.amplitudes, 4, pair_slots)
    w, v = eig_hermitian(rho_pair)
    if w[2] > 1e-6 * w[0]:
        raise RankConditionError(
            f"pair marginal over slots {pair_slots} is not rank-two: "
            f"third eigenvalue {w[2]:.3e} (largest {w[0]:.3e})"
        )
    basis = []
    for k in range(2):
        col = v[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        basis.append(col * (pivot.conjugate() / abs(pivot)) if abs(pivot) > 0 else col)
    iso = np.column_stack(basis)  # 4 x 2, columns = effective |0>, |1>

    kept = [q for q in range(4) if q not in pair_slots]
    t = psi.amplitudes.reshape([2] * 4).transpose(kept + list(pair_slots)).reshape(4, 4)
    out = t @ iso.conj()  # (kept, effective)
    norm = float(np.linalg.norm(out))
    return PureState(out.reshape(-1) / norm)


def effective_three_tangle(psi: PureState, grouping: Grouping) -> float:
    """Three-tangle of (i, j, effective qubit) after compressing grouping.pair_kl."""
    compressed = compress_pair_to_qubit(psi, grouping.pair_kl)
    kept = sorted(q for q in range(4) if q not in {int(s) for s in grouping.pair_kl})
    return three_tangle(compressed, kept.index(int(grouping.i)))


# ---------------------------------------------------------------------------
# Residual (monogamy-slack) quantities
# ---------------------------------------------------------------------------

# The six pairs of register slots, in the order their table is built.
_PAIRS = tuple((a, b) for a in range(4) for b in range(a + 1, 4))

# Pairwise terms the (S1,E1)|(S2,E2) cut tangle loses to, in summation order.
_PAIR_CUT_TERMS = ((1, 2), (0, 3), (0, 1), (2, 3))

# Effective-qubit three-tangle columns and the qubit their grouping is anchored at.
_EFFECTIVE = {"tau_eff_s1e1": Subsystem.S1, "tau_eff_s2e2": Subsystem.S2}

# Anchored three-tangle columns, their reference qubit and the effective-tangle
# column of the pair their grouping compresses.
_ANCHORED = (
    ("tau_u_s1_s2e2", Subsystem.S1, "tau_eff_s1e1"),
    ("tau_u_s2_s1e1", Subsystem.S2, "tau_eff_s2e2"),
    ("tau_u_e1_s2e2", Subsystem.E1, "tau_eff_s1e1"),
    ("tau_u_e2_s1e1", Subsystem.E2, "tau_eff_s2e2"),
)


def _pair_table(state):
    """The six pair marginals, their signed and their squared concurrences, by slot pair."""
    if isinstance(state, PureState):
        marginals = {ab: vector_marginal(state.amplitudes, 4, ab) for ab in _PAIRS}
    else:
        mat = as_matrix(state)
        marginals = {ab: matrix_marginal(mat, 4, ab) for ab in _PAIRS}
    gamma = {ab: concurrence_signed(m) for ab, m in marginals.items()}
    c2 = {ab: max(0.0, g) ** 2 for ab, g in gamma.items()}
    return marginals, gamma, c2


def _pair_cut_rank(marginals) -> int:
    return numerical_rank(marginals[(0, 2)], 1e-6)


def _residual_pair(state, estimator: str, marginals, c2, lower_bound=None) -> float:
    """Pair-cut tangle, by the requested estimator on mixed input, less the pairwise terms.

    ``lower_bound`` is the pair-cut ``tangle_lower_bound`` when the caller has it already.
    """
    if _pair_cut_rank(marginals) > 2:
        warnings.warn("(S1,E1) marginal has rank above two; residual is not certified")
    if isinstance(state, PureState):
        big = tangle_pure(state, PAIR_CUT)
    elif estimator == "lb":
        big = tangle_lower_bound(state, PAIR_CUT) if lower_bound is None else lower_bound
    elif estimator == "qp":
        big = tangle_quasipure(state, PAIR_CUT)
    else:
        raise ValueError(f"unknown pair-cut estimator {estimator!r}")
    return big - sum(c2[ab] for ab in _PAIR_CUT_TERMS)


def _residual_single(state, i: Subsystem, c2) -> float:
    if isinstance(state, PureState):
        big = tangle_pure(state, (int(i),))
    else:
        big = tangle_quasipure(state, (int(i),))
    return big - sum(c2[tuple(sorted((i, j)))] for j in ALL_SUBSYSTEMS if j != i)


def residual_pair_cut(state, estimator: str = "lb") -> float:
    """Residual entanglement of the (S1,E1)|(S2,E2) cut beyond all pairwise terms.

    Pure states use the exact tangle; mixed states the purity-gap bound (or
    the quasi-pure estimate when ``estimator="qp"``).  A pair marginal of
    rank above two voids the monogamy guarantee, so it only warns.
    """
    marginals, _, c2 = _pair_table(state)
    return _residual_pair(state, estimator, marginals, c2)


def residual_single_qubit(state, i) -> float:
    """Residual entanglement of qubit i versus the rest beyond pairwise terms."""
    return _residual_single(state, subsystem(i), _pair_table(state)[2])


def _anchored_tangle(residual: float, tau_eff: float, i: Subsystem) -> tuple[float, float]:
    """Residual of i less its grouping's effective three-tangle, raw and noise-clamped."""
    raw = residual - tau_eff
    return raw, _clamp_small_negative(raw, CLAMP_ATOL, f"reduced three-tangle at {i.name}")


def _effective_tangles(psi: PureState) -> dict[str, float]:
    return {col: effective_three_tangle(psi, Grouping.anchored_at(i))
            for col, i in _EFFECTIVE.items()}


def _anchored_tangles(residuals: dict, effective: dict) -> dict[str, tuple[float, float]]:
    """Every anchored three-tangle column from the four residuals and two effective tangles."""
    return {col: _anchored_tangle(residuals[i], effective[eff], i) for col, i, eff in _ANCHORED}


def reduced_three_tangle(psi: PureState, grouping: Grouping) -> float:
    """Tripartite entanglement of the mixed (i, k, l) reduction, anchored at i.

    Subtracts the effective-qubit three-tangle from the single-qubit residual;
    unlike the pure three-tangle this is not permutation invariant in i.
    """
    residual = residual_single_qubit(psi, grouping.i)
    return _anchored_tangle(residual, effective_three_tangle(psi, grouping), grouping.i)[1]


@dataclass(frozen=True)
class ResidualDecomposition:
    """Six-term split of the pair-cut residual, plus its consistency check.

    ``reduced`` is keyed by the ``tau_u_*`` and ``effective`` by the
    ``tau_eff_*`` sweep CSV columns.
    """

    reduced: dict[str, float]
    effective: dict[str, float]
    half_sum: float
    residual: float
    discrepancy: float


def decompose_pair_residual(psi: PureState, atol: float = 1e-6) -> ResidualDecomposition:
    """Split the pair-cut residual into four anchored and two effective tangles.

    The half-sum of the six terms must reproduce the residual itself; a
    discrepancy beyond ``atol`` raises with both sides reported.
    """
    c2 = _pair_table(psi)[2]
    effective = _effective_tangles(psi)
    residuals = {i: _residual_single(psi, i, c2) for i in ALL_SUBSYSTEMS}
    anchored = _anchored_tangles(residuals, effective)
    half_sum = 0.5 * (sum(raw for raw, _ in anchored.values()) + sum(effective.values()))
    residual = residual_pair_cut(psi)
    discrepancy = abs(half_sum - residual)
    if discrepancy > atol:
        raise DecompositionError(
            f"residual decomposition mismatch: half-sum {half_sum!r} vs residual {residual!r} "
            f"(|diff| = {discrepancy:.3e} > {atol})"
        )
    reduced = {column: tau for column, (_, tau) in anchored.items()}
    return ResidualDecomposition(reduced, effective, half_sum, residual, discrepancy)


@dataclass(frozen=True)
class MonogamyReport:
    """Left-minus-right slack of the monogamy inequalities."""

    one_vs_rest: dict[str, float]
    pair_cut: float | None
    pair_cut_note: str | None = None


def monogamy_slacks(state) -> MonogamyReport:
    """Monogamy slacks for each single qubit and for the (S1,E1)|(S2,E2) cut.

    The pair-cut inequality is only valid when the (S1,E1) marginal is
    rank-two; otherwise that check is skipped with a notice.  On pure input
    all slacks are exact; on mixed input they inherit the estimators and may
    dip below zero.
    """
    marginals, _, c2 = _pair_table(state)
    one_vs_rest = {i.name: _residual_single(state, i, c2) for i in ALL_SUBSYSTEMS}
    rank = _pair_cut_rank(marginals)
    if rank > 2:
        return MonogamyReport(one_vs_rest, None,
                              f"(S1,E1) marginal rank {rank} > 2; pair-cut check skipped")
    return MonogamyReport(one_vs_rest, _residual_pair(state, "lb", marginals, c2))


# ---------------------------------------------------------------------------
# Dicke witness
# ---------------------------------------------------------------------------

def dicke_state() -> PureState:
    """Six-term symmetric four-qubit state (a Dicke state up to local flips)."""
    vec = np.zeros(16, dtype=complex)
    for bits in ("0000", "1111", "0011", "1100", "0110", "1001"):
        vec[int(bits, 2)] = 1.0
    return PureState(vec / np.sqrt(6.0))


def dicke_witness(state) -> tuple[float, bool]:
    """Fidelity with the Dicke-type state and whether it certifies 4-partite entanglement.

    Fidelity strictly above 2/3 witnesses genuine four-partite entanglement.
    """
    fid = fidelity_pure(state, dicke_state())
    return fid, fid > 2.0 / 3.0


# ---------------------------------------------------------------------------
# One-stop report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangleReport:
    """Every measure of one state along the damping sweep.

    The fields are the numeric columns of ``sweep.csv``, in the same order.
    """

    p: float
    c2_s1s2: float
    c2_e1e2: float
    c2_s1e2: float
    c2_s2e1: float
    gamma_s1s2: float
    gamma_e1e2: float
    c2_pair_lb: float
    residual_pair: float
    residual_s1: float
    residual_s2: float
    residual_e1: float
    residual_e2: float
    tau_u_s1_s2e2: float
    tau_u_s2_s1e1: float
    tau_u_e1_s2e2: float
    tau_u_e2_s1e1: float
    tau_eff_s1e1: float
    tau_eff_s2e2: float
    dicke_fidelity: float
    genuine4: bool


def compute_report(state, p: float, estimator_pair: str = "lb") -> TangleReport:
    """Evaluate the full measure hierarchy for one four-qubit state.

    ``estimator_pair`` selects the mixed-state stand-in for the pair-cut
    tangle inside the residual ("lb" purity-gap bound or "qp" quasi-pure).
    For mixed input the effective-qubit tangles are reported as zero: they
    vanish identically on the damped family this pipeline sweeps, and the
    compression they need is only defined for pure global states.
    """
    marginals, gamma, c2 = _pair_table(state)
    c2_pair_lb = tangle_lower_bound(state, PAIR_CUT)
    residuals = {i: _residual_single(state, i, c2) for i in ALL_SUBSYSTEMS}
    if isinstance(state, PureState):
        effective = _effective_tangles(state)
    else:
        effective = dict.fromkeys(_EFFECTIVE, 0.0)
    fid, genuine = dicke_witness(state)
    return TangleReport(
        p=float(p), c2_s1s2=c2[0, 1], c2_e1e2=c2[2, 3], c2_s1e2=c2[0, 3], c2_s2e1=c2[1, 2],
        gamma_s1s2=gamma[0, 1], gamma_e1e2=gamma[2, 3],
        c2_pair_lb=c2_pair_lb,
        residual_pair=_residual_pair(state, estimator_pair, marginals, c2, c2_pair_lb),
        **{f"residual_{i.name.lower()}": value for i, value in residuals.items()},
        **{col: tau for col, (_, tau) in _anchored_tangles(residuals, effective).items()},
        **effective,
        dicke_fidelity=fid, genuine4=genuine,
    )
