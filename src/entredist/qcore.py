"""Dense complex linear algebra and state primitives for small qubit registers.

Everything works on explicit numpy arrays of dimension at most 16 (four
qubits).  The register layout is fixed once and for all: the two system
qubits S1, S2 come first, then their path environments E1, E2.  Slot 0
carries the most significant bit of the basis index, so the ket |1100>
lives at vector index 12.  A subsystem is its slot, named in :data:`SUBSYSTEMS`,
and :func:`resolve_slots` alone reads a label (a name or a slot) into a slot.

States and kernels take an optional leading batch axis: a stack of N states
is one state object whose arrays have shape ``(N, ...)``, and a kernel
returns a Python scalar for one state and an array for a stack.  Registers are
sized by :func:`qubit_count` alone, slots permuted by :func:`cut_register` alone,
and :func:`state_marginal` gives the marginal of either kind of state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "SUBSYSTEMS",
    "resolve_slots",
    "PureState",
    "DensityMatrix",
    "qubit_count",
    "basis_state",
    "basis_index",
    "haar_state",
    "kron",
    "hermitize",
    "psd_sqrt",
    "partial_trace",
    "eig_hermitian",
    "purity",
    "fidelity_pure",
    "numerical_rank",
    "state_to_json",
    "state_from_json",
    "save_state",
]

# Validation tolerances shared by the whole package.
NORM_ATOL = 1e-9
HERMITIAN_ATOL = 1e-9
TRACE_ATOL = 1e-9
EIGENVALUE_ATOL = 1e-9


# The name of each register slot, in slot order; slot 0 is the most significant bit.
SUBSYSTEMS = ("S1", "S2", "E1", "E2")


def resolve_slots(labels, n_qubits: int) -> tuple[int, ...]:
    """Labels as a sorted tuple of register slots: the one rule that reads a label.

    A label is a name in :data:`SUBSYSTEMS` or an integer slot index (Python or
    numpy, not a boolean), and a lone label may be given bare.  Any other label, a
    slot outside the register, an empty or a repeated selection raises ``ValueError``.
    """
    if isinstance(labels, str) or not np.iterable(labels):
        labels = (labels,)
    slots = []
    for lab in labels:
        named = isinstance(lab, str) and lab in SUBSYSTEMS
        integral = isinstance(lab, (int, np.integer)) and not isinstance(lab, bool)
        slot = SUBSYSTEMS.index(lab) if named else int(lab) if integral else -1
        if not 0 <= slot < n_qubits:
            raise ValueError(f"unknown subsystem {lab!r} for {n_qubits} qubits")
        slots.append(slot)
    if not slots:
        raise ValueError("empty subsystem selection")
    if len(set(slots)) != len(slots):
        raise ValueError(f"duplicate subsystem in selection {labels!r}")
    return tuple(sorted(slots))


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def qubit_count(dim: int) -> int:
    """The n of a register of dimension ``dim`` = 2**n; n must lie in 1..4."""
    n = dim.bit_length() - 1
    if not 1 <= n <= 4 or 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a 1..4 qubit state")
    return n


def native(values):
    """A single state's value as a Python scalar; a stack's values stay an array."""
    return values.item() if np.ndim(values) == 0 else values


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over 1..4 qubits, slot 0 most significant.

    ``amplitudes`` of shape ``(N, 2**n)`` hold a stack of N states.
    """

    amplitudes: np.ndarray
    n_qubits: int = field(init=False)

    def __post_init__(self):
        amps = _readonly(self.amplitudes)
        if amps.ndim not in (1, 2):
            raise ValueError(f"amplitude array of shape {amps.shape} is not a 1..4 qubit state")
        n = qubit_count(amps.shape[-1])
        if not np.isfinite(amps).all():
            raise ValueError("state vector has non-finite amplitudes")
        norm = np.linalg.norm(amps, axis=-1)
        worst = float(norm.flat[np.abs(norm - 1.0).argmax()])
        if abs(worst - 1.0) > NORM_ATOL:
            raise ValueError(f"state vector norm {worst} deviates from 1 beyond {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "n_qubits", n)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(as_matrix(self))

    def amplitude(self, bits: str) -> complex:
        """Amplitude of the basis ket given as a bit string, e.g. "1100"."""
        return complex(self.amplitudes[basis_index(bits)])


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on 1..4 qubits.

    ``entries`` of shape ``(N, d, d)`` hold a stack of N states.
    """

    entries: np.ndarray
    n_qubits: int = field(init=False)

    def __post_init__(self):
        mat = _readonly(self.entries)
        if mat.ndim not in (2, 3) or mat.shape[-2] != mat.shape[-1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        n = qubit_count(mat.shape[-1])
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has non-finite entries")
        dev = float(np.abs(mat - _dagger(mat)).max())
        if dev > HERMITIAN_ATOL:
            raise ValueError(f"matrix deviates from Hermitian by {dev} (> {HERMITIAN_ATOL})")
        tr = np.trace(mat, axis1=-2, axis2=-1)
        tr = complex(tr.flat[np.abs(tr - 1.0).argmax()])
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "n_qubits", n)
        lo = float(self.spectrum[0][..., -1].min())  # decomposed once; later reads reuse it
        if lo < -EIGENVALUE_ATOL:
            raise ValueError(f"negative eigenvalue {lo} below -{EIGENVALUE_ATOL}")

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Descending eigenvalues and eigenvector columns, read-only.

        :func:`eig_hermitian` of the entries, computed on first use; a state made
        by conjugating another with a unitary U (``evolve``) carries that state's
        eigenvalues and ``U @ V`` instead, so it is never decomposed again.
        """
        w, v = eig_hermitian(self.entries)
        w.flags.writeable = v.flags.writeable = False
        return w, v


def _conjugated(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """``u rho u†`` for a unitary (stack) ``u``, with rho's eigenvalues and ``u @ V`` as
    its spectrum; construction still checks the entries and the carried eigenvalues."""
    w, v = rho.spectrum
    v = u @ v
    v.flags.writeable = False
    out = object.__new__(DensityMatrix)
    # where the cached property keeps its value, so __post_init__ reads it and decomposes nothing
    out.__dict__["spectrum"] = (np.broadcast_to(w, v.shape[:-1]), v)
    object.__setattr__(out, "entries", u @ rho.entries @ _dagger(u))
    out.__post_init__()
    return out


def basis_index(bits: str) -> int:
    """Vector index of a basis ket bit string (slot 0 = most significant)."""
    if set(bits) - {"0", "1"}:
        raise ValueError(f"invalid bit string {bits!r}")
    return int(bits, 2)


def basis_state(bits: str) -> PureState:
    """Computational basis ket |bits>, e.g. basis_state("1100")."""
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[basis_index(bits)] = 1.0
    return PureState(vec)


def haar_state(n_qubits: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state on n_qubits."""
    dim = 2 ** n_qubits
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(vec / np.linalg.norm(vec))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product as a complex array."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def hermitize(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2; guards eigendecompositions against asymmetric round-off."""
    m = np.asarray(m)
    return 0.5 * (m + _dagger(m))


def as_matrix(state) -> np.ndarray:
    """Density-matrix entries of either kind of state object (or a raw array).

    A raw array must hold square 1..4-qubit matrices with finite entries, else ``ValueError``,
    so no kernel hands NaN or inf on to LAPACK or turns it into a value.
    """
    if isinstance(state, DensityMatrix):
        return state.entries
    if isinstance(state, PureState):
        amps = state.amplitudes
        return amps[..., :, None] * amps.conj()[..., None, :]
    mat = np.asarray(state, dtype=complex)
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise ValueError(f"array of shape {mat.shape} is not a 1..4 qubit state matrix")
    qubit_count(mat.shape[-1])
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    return mat


def cut_register(vec: np.ndarray, keep) -> np.ndarray:
    """Vectors over a register of 2**n (the last axis) as ``(2**len(keep), 2**rest)`` matrices:
    the kept slots, in the order given, index the rows and the rest, in slot order, the columns."""
    lead, n = vec.shape[:-1], vec.shape[-1].bit_length() - 1
    rest = [q for q in range(n) if q not in keep]
    axes = [*range(len(lead)), *(len(lead) + q for q in [*keep, *rest])]
    m = vec.reshape(lead + (2,) * n).transpose(axes)
    return m.reshape(lead + (2 ** len(keep), 2 ** len(rest)))


def vector_marginal(vec: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix of a pure state over the kept slots (slot order kept)."""
    m = cut_register(vec, keep)
    return m @ _dagger(m)


def matrix_marginal(mat: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace of a density matrix, keeping the given slots in slot order: the flat
    matrix is a register of row then column slots, cut at the kept ones of each."""
    lead, dim, d_keep = mat.shape[:-2], mat.shape[-1], 2 ** len(keep)
    n = dim.bit_length() - 1
    m = cut_register(mat.reshape(lead + (dim * dim,)), [*keep, *(n + q for q in keep)])
    return np.einsum("...acbb->...ac", m.reshape(lead + (d_keep, d_keep) + (dim // d_keep,) * 2))


def state_marginal(state, keep: tuple[int, ...]) -> np.ndarray:
    """Raw reduced density matrix over the kept slots of either kind of state or a raw matrix."""
    if isinstance(state, PureState):
        return vector_marginal(state.amplitudes, keep)
    return matrix_marginal(as_matrix(state), keep)


def partial_trace(rho, keep) -> DensityMatrix:
    """Reduced density matrix over ``keep`` (subsystem labels or slot indices).

    Accepts a :class:`DensityMatrix` or a :class:`PureState`; the kept slots
    retain their register order and the result has unit trace.
    """
    if not isinstance(rho, (PureState, DensityMatrix)):
        raise TypeError(f"expected a state object, got {type(rho).__name__}")
    slots = resolve_slots(keep, rho.n_qubits)
    if len(slots) < rho.n_qubits:
        return DensityMatrix(state_marginal(rho, slots))
    return rho if isinstance(rho, DensityMatrix) else rho.density()


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of a Hermitian matrix.

    A :class:`DensityMatrix` is decomposed once, into its cached read-only ``spectrum``.
    """
    if isinstance(m, DensityMatrix):
        return m.spectrum
    mat = as_matrix(m)
    dev = float(np.abs(mat - _dagger(mat)).max())
    if dev > HERMITIAN_ATOL:
        raise ValueError(f"matrix deviates from Hermitian by {dev} (> {HERMITIAN_ATOL})")
    w, v = np.linalg.eigh(hermitize(mat))
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix, tiny negative eigenvalues clamped."""
    w, v = np.linalg.eigh(hermitize(mat))
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w[..., None, :]) @ _dagger(v)


def _unit_clamp(values: np.ndarray) -> np.ndarray:
    """min(max(x, 0), 1) for each item, NaN kept."""
    values = np.where(values < 0.0, 0.0, values)
    return np.where(values > 1.0, 1.0, values)


def purity(rho):
    """tr(rho^2), clamped to [0, 1]."""
    mat = as_matrix(rho)
    return native(_unit_clamp(np.einsum("...ij,...ji->...", mat, mat).real))


def fidelity_pure(rho, psi: PureState):
    """<psi|rho|psi>, real and clamped to [0, 1]."""
    mat = as_matrix(rho)
    vec = psi.amplitudes
    if mat.shape[-1] != vec.size:
        raise ValueError(f"dimension mismatch: matrix {mat.shape[-1]} vs state {vec.size}")
    bra = vec.conj() @ mat
    # a stacked (1, d) @ (d, 1) product runs the BLAS dot of a single 1-D
    # product for each item, so a stack's values equal its states' alone
    value = (bra[..., None, :] @ vec[:, None])[..., 0, 0]
    if (np.abs(value.imag) > 1e-9).any():
        worst = value.imag.flat[np.abs(value.imag).argmax()]
        raise ValueError(f"fidelity has imaginary part {worst}; input not Hermitian?")
    return native(_unit_clamp(value.real))


def numerical_rank(rho, eps: float):
    """Number of eigenvalues above eps times the largest eigenvalue."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    w = np.linalg.eigvalsh(hermitize(as_matrix(rho)))
    return native(np.sum(w > eps * w.max(axis=-1, keepdims=True), axis=-1))


def state_to_json(state) -> dict:
    """JSON payload {"n_qubits": n, "re": [...], "im": [...]}; matrices row-major.

    The one serializer of both state kinds: :func:`state_from_json` reads the
    payload back and :func:`save_state` writes it to a file.  Floats serialize
    through ``repr`` and therefore round-trip bit-exactly.
    """
    if isinstance(state, PureState):
        data = state.amplitudes
    elif isinstance(state, DensityMatrix):
        data = state.entries.reshape(-1)
    else:
        raise TypeError(f"expected a state object, got {type(state).__name__}")
    return {
        "n_qubits": state.n_qubits,
        "re": [float(x) for x in data.real],
        "im": [float(x) for x in data.imag],
    }


def _json_float(value, name: str) -> float:
    """``value`` as a float if it is a JSON number: an int or a float, not a boolean
    or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _json_int(value, name: str) -> int:
    """``value`` as an int if it is a JSON integer: a number, not a boolean, with no
    fractional part."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _json_floats(values, name: str) -> np.ndarray:
    """``values`` as a float array if it is a JSON list of numbers."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list of numbers, got {type(values).__name__}")
    return np.array([_json_float(v, f"{name} entry") for v in values], dtype=float)


def state_from_json(payload: dict):
    """Inverse of :func:`state_to_json`; the array length selects the kind.

    ``n_qubits`` must be a JSON integer and every ``re``/``im`` entry a JSON
    number: booleans and numeric strings raise ``ValueError``.
    """
    n = _json_int(payload["n_qubits"], "n_qubits")
    data = _json_floats(payload["re"], "re") + 1j * _json_floats(payload["im"], "im")
    dim = 2 ** n
    if data.size == dim:
        return PureState(data)
    if data.size == dim * dim:
        return DensityMatrix(data.reshape(dim, dim))
    raise ValueError(f"array length {data.size} matches neither a vector nor a matrix on {n} qubits")


def save_state(state, path) -> None:
    """Write :func:`state_to_json` of ``state`` to ``path``."""
    Path(path).write_text(json.dumps(state_to_json(state)))
