"""Simulated four-qubit state tomography with 256 product-projector settings.

Each setting projects every qubit onto one of |0>, |1>, |+> = (|0>+|1>)/sqrt(2)
or |+i> = (|0>+i|1>)/sqrt(2); the 256 resulting rank-one product projectors
are informationally complete.  Counts are drawn binomially per setting, and
states are reconstructed either by linear inversion or by a certified
accelerated projected-gradient maximum-likelihood fit.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .qcore import DensityMatrix, as_matrix, hermitize

__all__ = [
    "SELECTORS",
    "SETTINGS",
    "CountRecord",
    "setting_projectors",
    "simulate_counts",
    "linear_inversion",
    "project_physical",
    "mle_reconstruct",
    "MleResult",
    "save_counts",
    "load_counts",
    "save_settings_manifest",
]

SELECTORS = ("Z", "Z'", "X", "Y")

_KETS = {
    "Z": np.array([1.0, 0.0], dtype=complex),
    "Z'": np.array([0.0, 1.0], dtype=complex),
    "X": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "Y": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
}

N_QUBITS = 4

# Setting id -> one selector per qubit (S1, S2, E1, E2).  The id is the index:
# the selectors' positions in SELECTORS are its base-4 digits, S1 most
# significant, so id 0 is the all-|0> projector.
SETTINGS = tuple(itertools.product(SELECTORS, repeat=N_QUBITS))
N_SETTINGS = len(SETTINGS)


def _ket(selectors) -> np.ndarray:
    """The 16-component product ket one setting projects onto."""
    out = np.array([1.0], dtype=complex)
    for s in selectors:
        out = np.kron(out, _KETS[s])
    return out


@dataclass(frozen=True)
class CountRecord:
    """Coincidence count for one setting: ``count`` successes out of ``shots``."""

    setting_id: int
    shots: int
    count: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if not 0 <= self.count <= self.shots:
            raise ValueError(f"count {self.count} outside [0, shots={self.shots}]")


@lru_cache(maxsize=1)
def setting_projectors() -> np.ndarray:
    """Read-only array (256, 16, 16) of the canonical projectors, id order; built once."""
    kets = np.stack([_ket(selectors) for selectors in SETTINGS])
    stack = np.einsum("si,sj->sij", kets, kets.conj())
    stack.flags.writeable = False
    return stack


def _probabilities(rho_mat: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    probs = np.einsum("sij,ji->s", projectors, rho_mat).real
    return np.clip(probs, 0.0, 1.0)


def simulate_counts(rho, shots: int, seed: int, projectors: np.ndarray | None = None) -> list[CountRecord]:
    """Binomial counts for every setting; reproducible for a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    mat = as_matrix(rho)
    projectors = setting_projectors() if projectors is None else projectors
    probs = _probabilities(mat, projectors)
    rng = np.random.default_rng(seed)
    counts = rng.binomial(shots, probs)
    return [CountRecord(sid, shots, int(c)) for sid, c in enumerate(counts)]


def _complete_records(records) -> dict[int, CountRecord]:
    by_id = {r.setting_id: r for r in records}
    missing = sorted(set(range(N_SETTINGS)) - set(by_id))
    if missing:
        raise ValueError(f"missing settings: {missing}")
    return by_id


def linear_inversion(records, projectors: np.ndarray | None = None) -> np.ndarray:
    """Least-squares solve of the Born system; Hermitian and unit trace.

    The output is a plain array because finite counts can push eigenvalues
    negative; feed it through :func:`project_physical` to obtain a state.
    """
    by_id = _complete_records(records)
    freqs = np.array([by_id[sid].count / by_id[sid].shots for sid in range(N_SETTINGS)])
    # the raw trace is the summed frequency of the 16 all-Z/Z' settings
    if not freqs[[sid for sid, sel in enumerate(SETTINGS) if set(sel) <= {"Z", "Z'"}]].any():
        raise ValueError("no counts in the 16 all-Z/Z' settings: the estimate has zero trace")
    projectors = setting_projectors() if projectors is None else projectors
    a = projectors.conj().reshape(N_SETTINGS, -1)
    sol, *_ = np.linalg.lstsq(a, freqs.astype(complex), rcond=None)
    rho = hermitize(sol.reshape(16, 16))
    return rho / np.trace(rho).real


def _project_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) PSD unit-trace matrix to the Hermitian ``mat``: the
    eigenvalues are projected onto the probability simplex, the eigenvectors kept."""
    w, v = np.linalg.eigh(mat)
    desc = w[::-1]
    shift = (np.cumsum(desc) - 1.0) / np.arange(1, w.size + 1)
    theta = shift[np.nonzero(desc > shift)[0][-1]]
    return (v * np.clip(w - theta, 0.0, None)) @ v.conj().T


def project_physical(m: np.ndarray) -> DensityMatrix:
    """Nearest (Frobenius) PSD unit-trace matrix to a unit-trace Hermitian one."""
    mat = hermitize(np.asarray(m, dtype=complex))
    tr = float(np.trace(mat).real)
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"expected unit trace, got {tr}")
    return DensityMatrix(_project_eigenvalues(mat))


@dataclass(frozen=True)
class MleResult:
    """Maximum-likelihood reconstruction plus its optimality certificate.

    No state has a log-likelihood above ``log_likelihood + gap_bound`` (nats);
    ``converged`` is ``gap_bound <= tol``.
    """

    rho: DensityMatrix
    iterations: int
    log_likelihood: float
    converged: bool
    gap_bound: float


def _log_likelihood(probs: np.ndarray, counts: np.ndarray, shots: np.ndarray) -> float:
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    return float(np.sum(counts * np.log(p) + (shots - counts) * np.log1p(-p)))


def mle_reconstruct(
    records,
    max_iter: int = 2_000,
    tol: float = 1.0,
    projectors: np.ndarray | None = None,
) -> MleResult:
    """Accelerated projected-gradient maximum-likelihood fit of the binomial counts.

    Maximises log L / N over density matrices, N the total shot count, from
    I/16: FISTA momentum, an Armijo backtracking step, and a restart whenever
    the likelihood falls, so accepted iterates never lose likelihood.
    Momentum is dropped where the extrapolated point leaves the likelihood's
    domain.  By concavity every iterate x certifies
    log L(sigma) <= log L(x) + N (lambda_max(R) - 1) for every state sigma,
    with R = grad log L(x) / N shifted by a multiple of the identity so that
    tr(R x) = 1.  The fit stops once the lowest such bound lies within ``tol``
    nats of the current state, or when a plain step no longer raises the
    likelihood at working precision; it warns and flags the result if the
    bound still exceeds ``tol``.
    """
    by_id = _complete_records(records)
    counts = np.array([by_id[sid].count for sid in range(N_SETTINGS)], dtype=float)
    shots = np.array([by_id[sid].shots for sid in range(N_SETTINGS)], dtype=float)
    misses = shots - counts
    projectors = setting_projectors() if projectors is None else projectors
    flat = np.ascontiguousarray(projectors.reshape(N_SETTINGS, -1))
    dim = projectors.shape[1]
    total = float(shots.sum())
    freqs, hit, miss = counts / shots, counts > 0, misses > 0

    def evaluate(mat):
        """(log L less its value at the frequencies, grad log L / N), or None where
        log L diverges; the offset keeps line-search differences accurate to ~1e-10 nats."""
        probs = (flat @ mat.T.reshape(-1)).real
        if np.any(probs[hit] < 1e-12) or np.any(probs[miss] > 1.0 - 1e-12):
            return None
        rel = (counts[hit] @ np.log(probs[hit] / freqs[hit])
               + misses[miss] @ np.log((1.0 - probs[miss]) / (1.0 - freqs[miss])))
        probs = np.clip(probs, 1e-12, 1.0 - 1e-12)  # only zero-count terms get clipped
        w_hit, w_miss = counts / probs, misses / (1.0 - probs)
        return rel, ((w_hit - w_miss) @ flat).reshape(dim, dim) / total

    def ascend(y, ll_y, grad_y, step):
        """Armijo-backtracked projected step from ``y``: (x, log L, grad, step), or None."""
        while step > 1e-12:
            x_new = _project_eigenvalues(y + step * grad_y)
            d = x_new - y
            at_new = evaluate(x_new)
            if at_new is not None and at_new[0] >= ll_y + total * (
                    np.vdot(grad_y, d).real - np.vdot(d, d).real / (2.0 * step)):
                return (x_new, *at_new, step)
            step *= 0.5
        return None

    def certified(x, ll, grad):  # an upper bound on max log L, by concavity
        return ll + total * (np.linalg.eigvalsh(grad)[-1] - np.vdot(grad, x).real)

    x = x_prev = np.eye(dim, dtype=complex) / dim
    ll, grad = evaluate(x)
    bound, t, step, iterations = certified(x, ll, grad), 1.0, 1.0, 0
    while bound - ll > tol and iterations < max_iter:
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        at_y = evaluate(y) if t > 1.0 else None
        found = ascend(y, *at_y, step) if at_y is not None else None
        if found is None or found[1] < ll:  # a plain step from x, restarting the momentum
            t_next = t_next if t == 1.0 else 1.0
            found = ascend(x, ll, grad, step)
        if found is None or found[1] <= ll:
            break  # no ascent left at working precision
        x_prev, (x, ll, grad, step), t = x, found, t_next
        bound, iterations, step = min(bound, certified(x, ll, grad)), iterations + 1, 2.0 * step
    gap = max(0.0, float(bound - ll))
    if gap > tol:
        warnings.warn(f"maximum-likelihood fit did not converge in {iterations} iterations "
                      f"(gap bound {gap:.3g} nats > tol {tol:g})")
    rho = DensityMatrix(hermitize(x))
    ll = _log_likelihood(_probabilities(rho.entries, projectors), counts, shots)
    return MleResult(rho, iterations, ll, gap <= tol, gap)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_counts(records, path) -> None:
    """CSV with header setting_id,shots,count, ordered by setting id."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting_id", "shots", "count"])
        for r in sorted(records, key=lambda r: r.setting_id):
            writer.writerow([r.setting_id, r.shots, r.count])


def load_counts(path) -> list[CountRecord]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [CountRecord(int(row["setting_id"]), int(row["shots"]), int(row["count"]))
                for row in reader]


def save_settings_manifest(path) -> None:
    """Companion JSON describing the projector of every setting."""
    payload = []
    for sid, selectors in enumerate(SETTINGS):
        ket = _ket(selectors)
        payload.append({
            "setting_id": sid,
            "selectors": list(selectors),
            "ket_re": [float(x) for x in ket.real],
            "ket_im": [float(x) for x in ket.imag],
        })
    Path(path).write_text(json.dumps(payload, indent=1))
