"""Initial states and the local amplitude-damping dilations that drive them.

Each system qubit S_i couples to its own environment qubit E_i through a
two-qubit unitary that transfers the excitation |1>_S into |1>_E with
probability ``p``.  Tracing out the environment afterwards realizes the
amplitude-damping channel; keeping it gives the full four-qubit dynamics.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .qcore import (
    NORM_ATOL,
    DensityMatrix,
    PureState,
    _conjugated,
    kron,
)

__all__ = [
    "theta_to_p",
    "InitialSpec",
    "initial_state",
    "ad_unitary",
    "evolve",
    "random_family_state",
    "mixed_system_with_purity",
]


def theta_to_p(theta: float) -> float:
    """Damping strength sin^2(2*theta) set by the half-wave-plate angle (radians)."""
    s = math.sin(2.0 * theta)
    return s * s


@dataclass(frozen=True)
class InitialSpec:
    """Initial (S1,S2) system: either amplitudes alpha,beta or a mixed 2-qubit state.

    The pure form describes alpha|00> + beta|11> on (S1,S2); the mixed form
    tensors an arbitrary two-qubit density matrix with the |00> environment.
    """

    alpha: complex | None = None
    beta: complex | None = None
    mixed_system: DensityMatrix | None = None

    def __post_init__(self):
        if self.mixed_system is not None:
            if self.alpha is not None or self.beta is not None:
                raise ValueError("give either (alpha, beta) or mixed_system, not both")
            if isinstance(self.mixed_system, PureState):
                raise ValueError("mixed_system describes a pure state, not a density matrix")
            if not isinstance(self.mixed_system, DensityMatrix) or self.mixed_system.n_qubits != 2:
                raise ValueError("mixed_system must be a 2-qubit density matrix")
            return
        if self.alpha is None or self.beta is None:
            raise ValueError("pure spec needs both alpha and beta")
        a, b = complex(self.alpha), complex(self.beta)
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            raise ValueError(f"alpha={a} and beta={b} must be finite")
        norm2 = abs(a) ** 2 + abs(b) ** 2
        if abs(norm2 - 1.0) > NORM_ATOL:
            raise ValueError(f"|alpha|^2+|beta|^2 = {norm2} deviates from 1 beyond {NORM_ATOL}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)


def initial_state(spec: InitialSpec):
    """Four-qubit initial state with both environments in |0>.

    Returns a :class:`PureState` for the amplitude form and a
    :class:`DensityMatrix` (system tensor |00><00|) for the mixed form.
    """
    if spec.mixed_system is None:
        vec = np.zeros(16, dtype=complex)
        vec[0b0000] = spec.alpha   # |0000>
        vec[0b1100] = spec.beta    # |1100>
        return PureState(vec)
    env = np.zeros((4, 4), dtype=complex)
    env[0, 0] = 1.0
    # Register order is (S1,S2,E1,E2), so system (x) environment is a plain kron.
    return DensityMatrix(kron(spec.mixed_system.entries, env))


def ad_unitary(p) -> np.ndarray:
    """4x4 dilation unitary on one (S_i, E_i) pair, basis order |se> = 00,01,10,11.

    |00> is fixed, |10> -> sqrt(1-p)|10> + sqrt(p)|01>, and the unpopulated
    sector is completed as the rotation |01> -> sqrt(1-p)|01> - sqrt(p)|10>,
    |11> -> |11>, which keeps the matrix real orthogonal.  An array of
    strengths gives a stack of unitaries of shape ``p.shape + (4, 4)``.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((0.0 <= p) & (p <= 1.0)):  # also false for NaN
        bad = p.flat[np.argmin((0.0 <= p) & (p <= 1.0))]
        raise ValueError(f"damping strength p={bad} outside [0, 1]")
    c, s = np.sqrt(1.0 - p), np.sqrt(p)
    u = np.zeros(p.shape + (4, 4), dtype=complex)
    u[..., 0, 0] = u[..., 3, 3] = 1.0
    u[..., 1, 1] = u[..., 2, 2] = c
    u[..., 1, 2] = s
    u[..., 2, 1] = -s
    return u


def full_unitary(p1, p2) -> np.ndarray:
    """16x16 unitary applying the (S1,E1) dilation at p1 and (S2,E2) at p2.

    Arrays of strengths give a stack of unitaries, one per pair (p1[k], p2[k]).
    """
    a, b = ad_unitary(p1), ad_unitary(p2)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    # The Kronecker product with its axes already in register order: a's slots
    # (S1, E1; S1', E1') and b's (S2, E2; S2', E2') interleave.
    a = a.reshape(a.shape[:-2] + (2,) * 4)[..., :, None, :, None, :, None, :, None]
    b = b.reshape(b.shape[:-2] + (2,) * 4)[..., None, :, None, :, None, :, None, :]
    return (a * b).reshape(lead + (16, 16))


# Basis states |S1 S2 E1 E2> with either environment excited: E1, E2 are the low two bits.
_ENV_EXCITED = (np.arange(16) & 0b11) != 0


def _environment_population(state) -> np.ndarray:
    """Total probability mass with either environment excited, per state."""
    if isinstance(state, PureState):
        probs = np.abs(state.amplitudes) ** 2
    else:
        probs = np.diagonal(state.entries, axis1=-2, axis2=-1).real
    return probs[..., _ENV_EXCITED].sum(axis=-1)


def evolve(state, p1, p2):
    """Apply the local dilations at strengths (p1, p2) to a four-qubit state.

    Pure states are mapped through the unitary, density matrices are
    conjugated by it and keep the input's eigenvalues, with the eigenvectors
    mapped through it, as their ``spectrum``: they are not decomposed again.
    Arrays of strengths, or a stack of states, give the stack of evolved
    states in one call.  The map expects both environments in |0>; each
    state with a populated environment only raises a warning.
    """
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"expected a 4-qubit state object, got {type(state).__name__}")
    for _ in range(int(np.count_nonzero(_environment_population(state) > 1e-9))):
        warnings.warn("environment qubits are not in |0>; applying the dilation anyway")
    u = full_unitary(p1, p2)
    if isinstance(state, PureState):
        return PureState((u @ state.amplitudes[..., None])[..., 0])
    return _conjugated(state, u)


def random_family_state(rng: np.random.Generator) -> PureState:
    """Random member of the damped family: random alpha,beta phases and strengths.

    Every state produced this way has rank-two (S1,E1) and (S2,E2) marginals,
    which several of the decomposition identities rely on.
    """
    t = rng.uniform(0.05, math.pi / 2 - 0.05)
    alpha = math.cos(t) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    beta = math.sin(t) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    p1, p2 = rng.uniform(), rng.uniform()
    return evolve(initial_state(InitialSpec(alpha=alpha, beta=beta)), p1, p2)


def mixed_system_with_purity(alpha: complex, beta: complex, target_purity: float) -> DensityMatrix:
    """Two-qubit alpha|00>+beta|11> mixed with white noise to a given purity.

    Solves v^2 + (1 - v^2)/4 = target_purity for the mixing weight v; with
    target 0.82 this reproduces the fidelity ~0.9 quoted for the lab states.
    """
    if not 0.25 < target_purity <= 1.0:
        raise ValueError("two-qubit purity must lie in (1/4, 1]")
    v = math.sqrt((4.0 * target_purity - 1.0) / 3.0)
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = alpha, beta
    rho = v * np.outer(psi, psi.conj()) + (1.0 - v) * np.eye(4) / 4.0
    return DensityMatrix(rho)
