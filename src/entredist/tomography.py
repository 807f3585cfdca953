"""Simulated four-qubit state tomography with 256 product-projector settings.

Each setting projects every qubit onto one of |0>, |1>, |+> = (|0>+|1>)/sqrt(2)
or |+i> = (|0>+i|1>)/sqrt(2); the 256 resulting rank-one product projectors
are informationally complete.  ``SETTINGS`` and ``KETS`` hold the selectors and
the product ket of every setting, indexed by setting id.  A count set
(:class:`Counts`) is one integer array of binomial counts in setting-id order
with a common shot number, validated once; states are reconstructed from it
either by linear inversion or by a certified accelerated projected-gradient
maximum-likelihood fit.  Both go through the factored Born map: the settings
are products over the (S1,S2)|(E1,E2) halves, so every probability, gradient
and exact inversion is a pair of 16x16 products with a two-qubit half map.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .qcore import DensityMatrix, as_matrix, hermitize

__all__ = [
    "SELECTORS",
    "SETTINGS",
    "KETS",
    "Counts",
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

N_QUBITS = 4

# Setting id -> one selector per qubit (S1, S2, E1, E2).  The id is the index:
# the selectors' positions in SELECTORS are its base-4 digits, S1 most
# significant, so id 0 is the all-|0> projector.
SETTINGS = tuple(itertools.product(SELECTORS, repeat=N_QUBITS))
N_SETTINGS = len(SETTINGS)

# Ids of the 16 all-Z/Z' settings: their projectors sum to the identity, so
# their summed frequency is the trace of the Born-system solution.
_Z_BASIS = np.array([sid for sid, sel in enumerate(SETTINGS) if set(sel) <= {"Z", "Z'"}])


# |0>, |1>, |+>, |+i>: the single-qubit kets in SELECTORS order
_SINGLE_KETS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0j]], dtype=complex)
_SINGLE_KETS[2:] /= np.sqrt(2.0)


def _product_kets(n_qubits: int) -> np.ndarray:
    """Read-only (4**n, 2**n) array: row ``id`` is the product ket of the selectors
    whose positions are the base-4 digits of ``id``, most significant first.

    Each pass appends one qubit as the least significant factor of both the
    setting id and the ket index, multiplying left to right as ``np.kron`` does.
    """
    kets = np.ones((1, 1), dtype=complex)
    for _ in range(n_qubits):
        kets = (kets[:, None, :, None] * _SINGLE_KETS[None, :, None, :]).reshape(4 * len(kets), -1)
    kets.flags.writeable = False
    return kets


KETS = _product_kets(N_QUBITS)

# The settings are products over the (S1,S2)|(E1,E2) halves: setting id 16u + v
# measures half setting u on S1,S2 and v on E1,E2, and ket index 4a + c splits
# the same way.  With the half map M[u, 4a + b] = conj(k_u[a]) k_u[b] over the
# 16 two-qubit kets k_u, tr(P_{16u+v} X) = (M Y M^T)[u, v] for Y = _by_half(X).
# M is invertible (condition number 10.4), so the Born map and its inverse are
# two 16x16 products each.
_HALF = np.einsum("ua,ub->uab", _product_kets(2).conj(), _product_kets(2)).reshape(16, 16)
_HALF_CONJ = _HALF.conj()
_HALF_INV = np.linalg.inv(_HALF)


@dataclass(frozen=True, eq=False)
class Counts:
    """One count set: ``counts[id]`` successes out of ``shots`` for every setting id.

    ``counts`` becomes a read-only integer array of shape (256,) in setting-id
    order; ``shots`` is an integer of at least 1, not a boolean.
    """

    counts: np.ndarray
    shots: int

    def __post_init__(self):
        if isinstance(self.shots, bool) or not isinstance(self.shots, (int, np.integer)) \
                or self.shots < 1:
            raise ValueError(f"shots must be an integer of at least 1, got {self.shots!r}")
        raw = np.asarray(self.counts)
        if raw.shape != (N_SETTINGS,):
            raise ValueError(f"expected {N_SETTINGS} counts in setting-id order, got shape {raw.shape}")
        if raw.dtype.kind not in "iuf" or not np.isfinite(raw).all() or (raw % 1).any():
            raise ValueError("counts must be finite integers")
        counts = raw.astype(np.int64)
        bad = counts[(counts < 0) | (counts > self.shots)]
        if bad.size:
            raise ValueError(f"count {bad[0]} outside [0, shots={self.shots}]")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", int(self.shots))


@lru_cache(maxsize=1)
def setting_projectors() -> np.ndarray:
    """Read-only array (256, 16, 16) of the canonical projectors, id order; built once.

    The reconstructions do not read it: they use the factored Born map.
    """
    stack = np.einsum("si,sj->sij", KETS, KETS.conj())
    stack.flags.writeable = False
    return stack


def _by_half(x: np.ndarray) -> np.ndarray:
    """``x`` (16x16, or a stack of them) with entry [4a + c, 4b + d] moved to
    [4a + b, 4c + d]: rows grouped by the S1,S2 half, columns by the E1,E2 half.
    An involution."""
    return x.reshape(x.shape[:-2] + (4, 4, 4, 4)).swapaxes(-3, -2).reshape(x.shape)


def _born(mat: np.ndarray) -> np.ndarray:
    """Re tr(P_s mat) for every setting s, shape (..., 256) in id order."""
    return (_HALF @ _by_half(mat) @ _HALF.T).real.reshape(mat.shape[:-2] + (N_SETTINGS,))


def _born_adjoint(weights: np.ndarray) -> np.ndarray:
    """sum_s weights[s] P_s for weights of shape (..., 256) in id order."""
    grid = weights.reshape(weights.shape[:-1] + (16, 16))
    return _by_half(_HALF_CONJ.T @ grid @ _HALF_CONJ)


def simulate_counts(rho, shots: int, seed: int) -> Counts:
    """Binomial counts for every setting; reproducible for a fixed seed."""
    probs = np.clip(_born(as_matrix(rho)), 0.0, 1.0)
    return Counts(np.random.default_rng(seed).binomial(shots, probs), shots)


def _born_solution(freqs: np.ndarray) -> np.ndarray:
    """The Hermitian X with tr(P_s X) = freqs[s] for every setting s, not trace-normalised.

    The 256 projectors span the 16x16 matrices, so the solution is exact and
    unique: X = _by_half(M^-1 F M^-T) with F the frequencies as a 16x16 array
    over the two halves' setting ids.
    """
    return hermitize(_by_half(_HALF_INV @ freqs.reshape(16, 16) @ _HALF_INV.T))


def linear_inversion(count_set: Counts) -> np.ndarray:
    """Exact solution of the Born system, scaled to unit trace; Hermitian.

    The 256 projectors span the 16x16 matrices, so the system has one exact
    solution, two 16x16 products with the inverse half map (no least-squares
    fit).  The output is a plain array because finite counts can push
    eigenvalues negative; feed it through :func:`project_physical` to obtain
    a state.
    """
    freqs = count_set.counts / count_set.shots
    if not freqs[_Z_BASIS].any():
        raise ValueError("no counts in the 16 all-Z/Z' settings: the estimate has zero trace")
    rho = _born_solution(freqs)
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

    ``log_likelihood`` is log L of the fitted state (nats), and
    ``log_likelihood + gap_bound`` is the bound the fit certified: no state
    has a log-likelihood above it.  ``converged`` is ``gap_bound <= tol``.
    """

    rho: DensityMatrix
    iterations: int
    log_likelihood: float
    converged: bool
    gap_bound: float


# Growth of the trial step after each accepted iteration.  The accepted step
# settles near a fixed scale and each rejected trial halves it, so growing by
# 1.25 costs one rejected trial (one extra projection) about every third
# iteration, where doubling would cost one nearly every iteration.
_STEP_GROWTH = 1.25


def mle_reconstruct(
    count_set: Counts,
    max_iter: int = 2_000,
    tol: float = 1.0,
) -> MleResult:
    """Accelerated projected-gradient maximum-likelihood fit of the binomial counts.

    Maximises log L / N over density matrices, N the total shot count.  The
    fit starts from the likelier of I/16 and the inverted start
    0.99 * X+ + 0.01 * I/16 (I/16 on a tie), where X+ is the exact solution
    of the Born system (as in :func:`linear_inversion`, before trace
    normalisation) with its eigenvalues projected onto the simplex.  The I/16
    share keeps every probability inside (0, 1), so any count set has a valid
    start.  Then FISTA momentum, an Armijo backtracking step (halved per
    rejected trial, grown by ``_STEP_GROWTH`` = 1.25 after each accepted
    iteration), and a restart whenever the likelihood falls, so accepted iterates never lose
    likelihood.  Momentum is dropped where the extrapolated point leaves the
    likelihood's domain.  By concavity every iterate x certifies
    log L(sigma) <= log L(x) + N (lambda_max(R) - 1) for every state sigma,
    with R = grad log L(x) / N shifted by a multiple of the identity so that
    tr(R x) = 1.  The fit stops once the lowest such bound lies within ``tol``
    nats of the current state, or when a plain step no longer raises the
    likelihood at working precision; it warns and flags the result if the
    bound still exceeds ``tol``.  ``max_iter=0`` returns the start; a
    negative ``max_iter`` or a negative or non-finite ``tol`` raises
    ``ValueError``.
    """
    if not math.isfinite(tol) or tol < 0.0:
        raise ValueError(f"tol must be a finite non-negative number of nats, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter!r}")
    counts, shots = count_set.counts.astype(float), float(count_set.shots)
    dim = KETS.shape[1]
    total = N_SETTINGS * shots
    freqs = counts / shots
    # only settings with hits (misses) carry a log p (log(1 - p)) term: gather
    # their ids, counts and frequencies, and the gradient's weights of log L / N
    hit, miss = np.flatnonzero(counts > 0), np.flatnonzero(counts < shots)
    n_hit, n_miss = counts[hit], shots - counts[miss]
    f_hit, f_miss = freqs[hit], 1.0 - freqs[miss]
    w_hit, w_miss = n_hit / total, n_miss / total

    def likelihood(mat):
        """(log L less its value at the frequencies, (p, 1 - p) at the hit and
        miss settings), or None where log L diverges; the offset keeps
        line-search differences accurate to ~1e-10 nats."""
        probs = _born(mat)
        p_hit, p_miss = probs[hit], probs[miss]
        if p_hit.min(initial=1.0) < 1e-12 or p_miss.max(initial=0.0) > 1.0 - 1e-12:
            return None
        q_miss = 1.0 - p_miss
        return n_hit @ np.log(p_hit / f_hit) + n_miss @ np.log(q_miss / f_miss), (p_hit, q_miss)

    def gradient(probs):
        """grad log L / N at the state with gathered probabilities ``probs``."""
        p_hit, q_miss = probs
        weights = np.zeros(N_SETTINGS)
        weights[hit] = w_hit / p_hit
        weights[miss] -= w_miss / q_miss
        return _born_adjoint(weights)

    def ascend(y, ll_y, grad_y, step):
        """Armijo-backtracked projected step from ``y``: (x, log L, grad, step), or None."""
        while step > 1e-12:
            x_new = _project_eigenvalues(y + step * grad_y)
            d = x_new - y
            at_new = likelihood(x_new)
            if at_new is not None and at_new[0] >= ll_y + total * (
                    np.vdot(grad_y, d).real - np.vdot(d, d).real / (2.0 * step)):
                return x_new, at_new[0], gradient(at_new[1]), step
            step *= 0.5
        return None

    def certified(x, ll, grad):  # an upper bound on max log L, by concavity
        return ll + total * (np.linalg.eigvalsh(grad)[-1] - np.vdot(grad, x).real)

    x = x_prev = np.eye(dim, dtype=complex) / dim
    ll, probs = likelihood(x)
    inverted = 0.99 * _project_eigenvalues(_born_solution(freqs)) + 0.01 * x
    ll_inverted, probs_inverted = likelihood(inverted)
    if ll_inverted > ll:
        x = x_prev = inverted
        ll, probs = ll_inverted, probs_inverted
    grad = gradient(probs)
    bound, t, step, iterations = certified(x, ll, grad), 1.0, 1.0, 0
    while bound - ll > tol and iterations < max_iter:
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        at_y = likelihood(y) if t > 1.0 else None
        found = ascend(y, at_y[0], gradient(at_y[1]), step) if at_y is not None else None
        if found is None or found[1] < ll:  # a plain step from x, restarting the momentum
            t_next = t_next if t == 1.0 else 1.0
            found = ascend(x, ll, grad, step)
        if found is None or found[1] <= ll:
            break  # no ascent left at working precision
        x_prev, (x, ll, grad, step), t = x, found, t_next
        bound, iterations, step = min(bound, certified(x, ll, grad)), iterations + 1, _STEP_GROWTH * step
    gap = max(0.0, float(bound - ll))
    if gap > tol:
        warnings.warn(f"maximum-likelihood fit did not converge in {iterations} iterations "
                      f"(gap bound {gap:.3g} nats > tol {tol:g})")
    # the likelihood at the frequencies turns the fit's offset log L back into log L
    ll += n_hit @ np.log(f_hit) + n_miss @ np.log(f_miss)
    return MleResult(DensityMatrix(hermitize(x)), iterations, float(ll), gap <= tol, gap)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_counts(count_set: Counts, path) -> None:
    """CSV with header setting_id,shots,count, one row per setting in id order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting_id", "shots", "count"])
        writer.writerows((sid, count_set.shots, c) for sid, c in enumerate(count_set.counts.tolist()))


def load_counts(path) -> Counts:
    """The count set :func:`save_counts` wrote: every setting id once, in order, one shot number."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(row["setting_id"]) for row in rows] != list(range(N_SETTINGS)):
        raise ValueError(f"{path}: expected setting ids 0..{N_SETTINGS - 1} once each, in order")
    shots = {int(row["shots"]) for row in rows}
    if len(shots) != 1:
        raise ValueError(f"{path}: one shot number expected, got {sorted(shots)}")
    return Counts(np.array([int(row["count"]) for row in rows]), shots.pop())


@lru_cache(maxsize=1)
def _settings_manifest_text() -> str:
    """The settings manifest as JSON text: a constant, encoded once per process."""
    payload = [
        {"setting_id": sid, "selectors": list(selectors),
         "ket_re": ket.real.tolist(), "ket_im": ket.imag.tolist()}
        for sid, (selectors, ket) in enumerate(zip(SETTINGS, KETS))
    ]
    return json.dumps(payload, indent=1)


def save_settings_manifest(path) -> None:
    """Companion JSON describing the projector of every setting."""
    Path(path).write_text(_settings_manifest_text())
