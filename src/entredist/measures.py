"""Entanglement quantifiers for the four-qubit system+environment register.

Covers the two-qubit concurrence and its signed precursor, pure-state and
estimated mixed-state tangles across arbitrary bipartitions, the
three-tangle and its extension to rank-two pairs treated as effective
qubits, the residual (monogamy-slack) quantities, their six-term
decomposition, and the Dicke-state witness of genuine four-partite
entanglement.

The kernels behind :func:`compute_report` take a leading batch axis: given
a stack of states they return one value per state.  A single state takes
the same stacked numpy operations as a stack, with no per-item loop, so each
value of a stack equals the value of its state alone.
The quasi-pure tangles of a :class:`DensityMatrix` share one cached
eigendecomposition, and each cut costs a factored overlap contraction.  Every
marginal comes from ``qcore``, and one function, :func:`_cut_tangle`, gives the
tangle of every cut: exact if pure, else the quasi-pure value.
:func:`compute_report` is the one evaluator of the residual split, and
:func:`decompose_pair_residual` reads its six terms and its residual from it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qcore import (
    SUBSYSTEMS,
    PureState,
    as_matrix,
    cut_register,
    eig_hermitian,
    fidelity_pure,
    hermitize,
    native,
    numerical_rank,
    psd_sqrt,
    purity,
    qubit_count,
    resolve_slots,
    state_marginal,
)

__all__ = [
    "EstimatorWarning",
    "RankConditionError",
    "DecompositionError",
    "concurrence_signed",
    "concurrence",
    "tangle_pure",
    "tangle_lower_bound",
    "tangle_quasipure",
    "three_tangle",
    "compress_pair_to_qubit",
    "effective_three_tangle",
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

# The conserved (S1,E1)|(S2,E2) cut, named by its side A.
PAIR_CUT = ("S1", "E1")

# Sub-1e-6 negatives are floating noise from the estimators; anything more
# negative is surfaced as a warning instead of silently clamped.
CLAMP_ATOL = 1e-6

# (sy x sy) M (sy x sy) reverses both axes of M and multiplies entry (i, j) by
# s_i s_j with s = (-1, 1, 1, -1): each entry of the product has one non-zero
# term, so this gives the matrix product's bits without a matmul.
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])


class EstimatorWarning(UserWarning):
    """An estimated tangle came out more negative than numerical noise allows."""


class RankConditionError(ValueError):
    """A pair marginal that must be rank-two has a third eigenvalue."""


class DecompositionError(RuntimeError):
    """The six-term residual decomposition failed its consistency check."""


def _clamp_small_negative(values, context: str):
    """``values`` with those in [-CLAMP_ATOL, 0) set to 0.0; each one below warns once."""
    values = np.asarray(values)
    for value in values[values < -CLAMP_ATOL].tolist():
        warnings.warn(f"{context} = {value:.3e} is negative beyond noise", EstimatorWarning)
    return native(np.where((values < 0.0) & (values >= -CLAMP_ATOL), 0.0, values))


def _positive(values):
    """Python's max(0.0, x) for each item: x where x > 0, else 0.0 (so NaN and -0.0 give 0.0)."""
    return native(np.where(values > 0.0, values, 0.0))


# ---------------------------------------------------------------------------
# Two-qubit concurrence
# ---------------------------------------------------------------------------

def _wootters_roots(mat: np.ndarray) -> np.ndarray:
    """Descending sqrt-eigenvalues of rho * rho_tilde via the Hermitian surrogate."""
    root = psd_sqrt(mat)
    flipped = mat.conj()[..., ::-1, ::-1] * _FLIP_SIGNS  # (sy x sy) rho* (sy x sy)
    m = hermitize(root @ flipped @ root)
    w = np.linalg.eigvalsh(m)[..., ::-1]
    if (w[..., -1] < -1e-9).any():
        raise ValueError(f"spin-flipped product has eigenvalue {w[..., -1].min()} below -1e-9")
    # eigenvalues below 1e-9 are floating noise whose square roots (~1e-8 for
    # a pure input) would otherwise dominate the subtracted terms
    return np.sqrt(np.where(w < 1e-9, 0.0, w))


def concurrence_signed(rho2):
    """Signed precursor of the two-qubit concurrence (may be negative).

    The sign carries information the clamped concurrence discards: how far
    inside the separable set a state sits before pairwise entanglement dies
    or after it is born.
    """
    mat = as_matrix(rho2)
    if mat.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence needs a 2-qubit state, got dimension {mat.shape[-1]}")
    lam = _wootters_roots(mat)
    return native(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def concurrence(rho2):
    """Wootters two-qubit concurrence, in [0, 1]."""
    return _positive(concurrence_signed(rho2))


# ---------------------------------------------------------------------------
# Tangles across bipartitions
# ---------------------------------------------------------------------------

def _side_a_slots(part, n_qubits: int) -> tuple[int, ...]:
    slots = resolve_slots(part, n_qubits)
    if len(slots) >= n_qubits:
        raise ValueError(f"side A must be a proper non-empty subset of the {n_qubits} slots")
    return slots


def tangle_pure(psi: PureState, part):
    """Tangle 2(1 - tr rho_A^2) of a pure state across the given bipartition."""
    slots = _side_a_slots(part, _pure(psi, "tangle_pure").n_qubits)
    return 2.0 * (1.0 - purity(state_marginal(psi, slots)))


def tangle_lower_bound(rho, part):
    """Purity-gap lower bound max(0, 2[tr rho^2 - tr rho_A^2]) on the tangle (exact if pure)."""
    mat = as_matrix(rho)
    rho_a = state_marginal(mat, _side_a_slots(part, qubit_count(mat.shape[-1])))
    return _positive(2.0 * (purity(mat) - purity(rho_a)))


def _antisym_overlap_matrix(subnormed: np.ndarray, d_a: int) -> np.ndarray:
    """Overlaps <f1 f1|A|fm fn> of the doubled antisymmetric projector, per stacked item.

    ``subnormed`` holds k rows sqrt(mu_i) * eigenvector, side A leading; A is the
    operator whose pure-state expectation is the squared concurrence across the
    (A|B) cut.  With X[m,c,a] = sum_b f_m[c,b] conj(f_1[a,b]) (one matmul) and
    v_m = <f1|fm>, the swap term S[m,n] = sum_(a,c) X[m,c,a] X[n,a,c] is symmetric,
    so the other one, its transpose, is S again: the matrix is 2 (v v^T - S), at
    k d_A^2 d_B + k^2 d_A^2 per item, not the k^2 d_A^2 d_B^2 of the four-index form.
    """
    lead, k = subnormed.shape[:-2], subnormed.shape[-2]
    f1_dagger = subnormed[..., 0, :].reshape(lead + (d_a, -1)).conj().swapaxes(-1, -2)
    x = (subnormed.reshape(lead + (k * d_a, -1)) @ f1_dagger).reshape(lead + (k, d_a, d_a))
    v = np.einsum("...maa->...m", x)
    s = x.reshape(lead + (k, -1)) @ x.swapaxes(-1, -2).reshape(lead + (k, -1)).swapaxes(-1, -2)
    return 2.0 * (v[..., :, None] * v[..., None, :] - s)


def tangle_quasipure(rho, part):
    """Quasi-pure estimate of the mixed-state tangle across a bipartition.

    Expands the squared-concurrence form around the dominant eigenvector of
    rho, which reduces the convex-roof minimization to the same
    singular-value expression that solves the two-qubit case.  Exact on pure
    states, and on the pair cut of a damped two-qubit state rho_S, where it is
    C(rho_S)^2 (the dilations act locally on (S1,E1) and (S2,E2)); on other
    mixed states it may sit below the convex roof.
    A :class:`DensityMatrix` is decomposed once for all its cuts; the rank-k
    overlap matrix then costs k d_A^2 d_B + k^2 d_A^2 per state.
    """
    w, v = eig_hermitian(rho)
    lead, dim = w.shape[:-1], w.shape[-1]
    slots = _side_a_slots(part, qubit_count(dim))
    w, v = w.reshape(-1, dim), v.reshape(-1, dim, dim)
    keep = w > 1e-13  # a prefix of each row, as w descends
    kept = keep.sum(axis=1)
    top = kept.max(initial=0)  # no state needs the eigenvectors past the most any keeps
    # Eigenvectors as rows, amplitudes reordered so side A is the leading tensor factor.
    vecs = cut_register(v[:, :, :top].swapaxes(1, 2), slots).reshape(len(w), top, dim)
    subnormed = np.sqrt(np.where(keep, w, 0.0)[:, :top])[:, :, None] * vecs

    tangles = np.zeros(len(w))
    for k in np.unique(kept[kept > 0]):  # one stack per number of kept eigenvectors
        rows = np.flatnonzero(kept == k)
        a = _antisym_overlap_matrix(subnormed[rows, :k], 2 ** len(slots))
        live = a[:, 0, 0].real > 1e-14
        sigma = np.linalg.svd(a[live] / np.sqrt(a[live, :1, :1].real), compute_uv=False)
        c = np.zeros(len(rows))
        c[live] = _positive(sigma[:, 0] - sigma[:, 1:].sum(axis=1))
        tangles[rows] = c * c
    return native(tangles.reshape(lead))


# ---------------------------------------------------------------------------
# Three-tangle and effective-qubit compression
# ---------------------------------------------------------------------------

def _pure(psi, caller: str) -> PureState:
    """``psi`` itself; any other kind raises, as ``caller`` reads amplitudes."""
    if not isinstance(psi, PureState):
        raise TypeError(f"{caller} needs a PureState, got {type(psi).__name__}")
    return psi


def three_tangle(psi3: PureState):
    """Tripartite tangle 4 det rho_0 - C_01^2 - C_02^2 of a pure 3-qubit state.

    The Coffman-Kundu-Wootters three-tangle is invariant under permutations
    of the qubits, so slot 0 serves as the reference.
    """
    if _pure(psi3, "three_tangle").n_qubits != 3:
        raise ValueError(f"three_tangle needs a 3-qubit state, got {psi3.n_qubits}")
    one_to_rest = 4.0 * np.linalg.det(state_marginal(psi3, (0,))).real
    c_ij = concurrence(state_marginal(psi3, (0, 1)))
    c_ik = concurrence(state_marginal(psi3, (0, 2)))
    return _clamp_small_negative(one_to_rest - np.square(c_ij) - np.square(c_ik), "three-tangle")


def compress_pair_to_qubit(psi: PureState, pair) -> PureState:
    """Map a rank-two pair of qubits onto one effective qubit.

    The two eigenvectors of the pair marginal (descending eigenvalue, each
    phased so its largest-magnitude component is real positive) become the
    effective |0> and |1>.  The returned 3-qubit state keeps the remaining
    slots in register order and appends the effective qubit last.
    """
    if _pure(psi, "compress_pair_to_qubit").n_qubits != 4:
        raise ValueError("compression expects a 4-qubit state")
    pair_slots = resolve_slots(pair, 4)
    if len(pair_slots) != 2:
        raise ValueError(f"pair must name two distinct subsystems, got {pair!r}")
    amps = psi.amplitudes
    rho_pair = state_marginal(psi, pair_slots)
    w, v = eig_hermitian(rho_pair)
    high = w[..., 2] > 1e-6 * w[..., 0]
    if high.any():
        w_bad = w.reshape(-1, 4)[int(np.argmax(high))]
        raise RankConditionError(
            f"pair marginal over slots {pair_slots} is not rank-two: "
            f"third eigenvalue {w_bad[2]:.3e} (largest {w_bad[0]:.3e})"
        )
    cols = v[..., :2].swapaxes(-1, -2)  # effective |0>, |1> as rows
    # a unit vector's largest-magnitude component is never zero
    pivot = np.take_along_axis(cols, np.abs(cols).argmax(axis=-1)[..., None], axis=-1)
    iso = (cols * (pivot.conj() / np.abs(pivot))).swapaxes(-1, -2)  # 4 x 2 per state

    kept = [q for q in range(4) if q not in pair_slots]
    out = cut_register(amps, kept) @ iso.conj()  # (kept, effective)
    # np.linalg.norm of one item is sqrt(re.re + im.im) with BLAS dots; a stacked
    # (1, 8) @ (8, 1) matmul runs the same dot per item, so the norms are
    # bit-equal (norm(axis=...) sums in another order)
    flat = out.reshape(amps.shape[:-1] + (8,))
    re, im = flat.real[..., None, :], flat.imag[..., None, :]
    norm = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))
    return PureState(flat / norm[..., 0])


def effective_three_tangle(psi: PureState, pair):
    """Three-tangle of the two other qubits and the effective qubit ``pair`` compresses to."""
    return three_tangle(compress_pair_to_qubit(psi, pair))


# ---------------------------------------------------------------------------
# Residual (monogamy-slack) quantities
# ---------------------------------------------------------------------------

# The six pairs of register slots, in the order their table is built.
_PAIRS = tuple((a, b) for a in range(4) for b in range(a + 1, 4))

# Pairwise terms the (S1,E1)|(S2,E2) cut tangle loses to, in summation order.
_PAIR_CUT_TERMS = ((1, 2), (0, 3), (0, 1), (2, 3))

# Effective-qubit three-tangle columns and the pair each compresses to one qubit.
_EFFECTIVE = {"tau_eff_s1e1": ("S2", "E2"), "tau_eff_s2e2": ("S1", "E1")}

# Anchored three-tangle columns, the slot of their reference qubit and the
# effective-tangle column that compresses the same pair.
_ANCHORED = (
    ("tau_u_s1_s2e2", 0, "tau_eff_s1e1"),
    ("tau_u_s2_s1e1", 1, "tau_eff_s2e2"),
    ("tau_u_e1_s2e2", 2, "tau_eff_s1e1"),
    ("tau_u_e2_s1e1", 3, "tau_eff_s2e2"),
)


def _pair_table(state):
    """The signed and the squared concurrences of the six pair marginals, by slot pair,
    and the rank of the (S1,E1) marginal."""
    marginals = {ab: state_marginal(state, ab) for ab in _PAIRS}
    gamma = {ab: concurrence_signed(m) for ab, m in marginals.items()}
    c2 = {ab: native(np.square(_positive(g))) for ab, g in gamma.items()}
    return gamma, c2, numerical_rank(marginals[0, 2], 1e-6)


def _stack_shape(state) -> tuple:
    return state.amplitudes.shape[:-1] if isinstance(state, PureState) else as_matrix(state).shape[:-2]


def _one_state(state, caller: str):
    """``state`` itself; a stack raises, as ``caller`` reports on one state."""
    if _stack_shape(state):
        raise ValueError(f"{caller} takes one state, got a stack of {_stack_shape(state)[0]}")
    return state


def _cut_tangle(state, part):
    """Tangle across ``part``: exact on a pure state, quasi-pure on a mixed one."""
    return (tangle_pure if isinstance(state, PureState) else tangle_quasipure)(state, part)


def _residual_pair(tangle, rank, c2):
    """The pair-cut ``tangle`` less the pairwise terms; a ``rank`` above two warns per state."""
    for _ in range(np.count_nonzero(rank > 2)):  # one per state
        warnings.warn("(S1,E1) marginal has rank above two; residual is not certified")
    return tangle - sum(c2[ab] for ab in _PAIR_CUT_TERMS)


def _residual_single(state, i: int, c2):
    return _cut_tangle(state, (i,)) - sum(c2[min(i, j), max(i, j)] for j in range(4) if j != i)


def _anchored_tangles(residuals: list, effective: dict) -> dict:
    """Every anchored three-tangle column, noise-clamped: the residual of its reference
    qubit (``residuals`` by slot) less its grouping's effective three-tangle."""
    return {col: _clamp_small_negative(residuals[i] - effective[eff],
                                       f"reduced three-tangle at {SUBSYSTEMS[i]}")
            for col, i, eff in _ANCHORED}


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


def decompose_pair_residual(psi: PureState) -> ResidualDecomposition:
    """Split the pair-cut residual into four anchored and two effective tangles.

    The terms and the residual are ``psi``'s :func:`compute_report` fields, an
    anchored term unclamped: its reference qubit's ``residual_*`` less its ``tau_eff_*``.
    Their half-sum must reproduce the residual; a discrepancy beyond 1e-6 raises
    with both sides reported.
    """
    report = compute_report(_pure(_one_state(psi, "decompose_pair_residual"),
                                  "decompose_pair_residual"), 0.0)
    effective = {col: getattr(report, col) for col in _EFFECTIVE}
    raw = [getattr(report, f"residual_{SUBSYSTEMS[i].lower()}") - effective[eff]
           for _, i, eff in _ANCHORED]
    half_sum = 0.5 * (sum(raw) + sum(effective.values()))
    residual = report.residual_pair
    discrepancy = abs(half_sum - residual)
    if discrepancy > 1e-6:
        raise DecompositionError(
            f"residual decomposition mismatch: half-sum {half_sum!r} vs residual {residual!r} "
            f"(|diff| = {discrepancy:.3e} > 1e-6)"
        )
    reduced = {col: getattr(report, col) for col, _, _ in _ANCHORED}
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
    all slacks are exact; on mixed input every tangle is the quasi-pure one,
    so a slack may dip below zero.
    """
    _, c2, rank = _pair_table(_one_state(state, "monogamy_slacks"))
    one_vs_rest = {name: _residual_single(state, i, c2) for i, name in enumerate(SUBSYSTEMS)}
    if rank > 2:
        return MonogamyReport(one_vs_rest, None,
                              f"(S1,E1) marginal rank {rank} > 2; pair-cut check skipped")
    return MonogamyReport(one_vs_rest, _residual_pair(_cut_tangle(state, PAIR_CUT), rank, c2))


# ---------------------------------------------------------------------------
# Dicke witness
# ---------------------------------------------------------------------------

def dicke_state() -> PureState:
    """Six-term symmetric four-qubit state (a Dicke state up to local flips)."""
    vec = np.zeros(16, dtype=complex)
    for bits in ("0000", "1111", "0011", "1100", "0110", "1001"):
        vec[int(bits, 2)] = 1.0
    return PureState(vec / np.sqrt(6.0))


def dicke_witness(state) -> tuple:
    """Fidelity with the Dicke-type state and whether it certifies 4-partite entanglement.

    Fidelity strictly above 2/3 witnesses genuine four-partite entanglement.
    """
    fid = fidelity_pure(state, dicke_state())
    return fid, fid > 2.0 / 3.0


# ---------------------------------------------------------------------------
# One-stop report
# ---------------------------------------------------------------------------

class TangleReport(NamedTuple):
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


def compute_report(state, p):
    """Evaluate the full measure hierarchy for one four-qubit state, or for a stack.

    A single state and its ``p`` give one :class:`TangleReport`; a stack of
    N states and N values of ``p`` give the list of N reports, each equal to
    the report of its state alone.  The pair-cut tangle of ``residual_pair`` is
    exact on pure input, where it is also ``c2_pair_lb``, and quasi-pure on mixed
    input, where ``c2_pair_lb`` is the purity-gap bound.  For mixed input the
    effective-qubit tangles are reported as zero: they vanish identically on the
    damped family this pipeline sweeps, and the compression they need is only
    defined for pure global states.
    """
    p = np.asarray(p, dtype=float)
    lead = _stack_shape(state)
    if p.shape != lead:
        raise ValueError(f"{p.size} values of p for a stack of shape {lead}")
    gamma, c2, rank = _pair_table(state)
    pair_cut = _cut_tangle(state, PAIR_CUT)
    if isinstance(state, PureState):
        c2_pair_lb = pair_cut
        effective = {col: effective_three_tangle(state, pair) for col, pair in _EFFECTIVE.items()}
    else:
        c2_pair_lb, effective = tangle_lower_bound(state, PAIR_CUT), dict.fromkeys(_EFFECTIVE, 0.0)
    residuals = [_residual_single(state, i, c2) for i in range(4)]
    fid, genuine = dicke_witness(state)
    columns = dict(
        p=p, c2_s1s2=c2[0, 1], c2_e1e2=c2[2, 3], c2_s1e2=c2[0, 3], c2_s2e1=c2[1, 2],
        gamma_s1s2=gamma[0, 1], gamma_e1e2=gamma[2, 3],
        c2_pair_lb=c2_pair_lb,
        residual_pair=_residual_pair(pair_cut, rank, c2),
        **{f"residual_{name.lower()}": value for name, value in zip(SUBSYSTEMS, residuals)},
        **_anchored_tangles(residuals, effective),
        **effective,
        dicke_fidelity=fid, genuine4=genuine,
    )
    # Python scalars, so that a report reads and serializes the same from either route
    values = [np.broadcast_to(columns[name], lead).tolist() for name in TangleReport._fields]
    if not lead:
        return TangleReport._make(values)
    return list(map(TangleReport._make, zip(*values)))
