"""Independent oracles the tests check the library against.

Nothing here shares code with the implementation paths it verifies: the
X-state concurrence is the textbook closed form, and the convex-roof value
is estimated by brute-force minimization over randomly sampled ensemble
decompositions.
"""

import numpy as np

from entredist.qcore import eig_hermitian


def xstate_concurrence(rho: np.ndarray) -> float:
    """Closed-form concurrence of an X-shaped two-qubit density matrix."""
    r = np.asarray(rho)
    off = {(0, 1), (0, 2), (1, 3), (2, 3)}
    assert all(abs(r[i, j]) < 1e-12 for i, j in off), "matrix is not X-shaped"
    return 2.0 * max(
        0.0,
        abs(r[0, 3]) - np.sqrt(abs(r[1, 1] * r[2, 2])),
        abs(r[1, 2]) - np.sqrt(abs(r[0, 0] * r[3, 3])),
    )


def werner_concurrence(v: float) -> float:
    return max(0.0, (3.0 * v - 1.0) / 2.0)


def convex_roof_tangle(rho, side_a, n_samples=2000, rng=None, max_size=8):
    """Upper-bound estimate of the tangle across (side_a | rest).

    Minimum of the ensemble-averaged pure tangle over ``n_samples`` random
    unitary mixings (sizes up to ``max_size``) of the spectral decomposition.
    Always an upper bound on the convex-roof infimum.
    """
    mat = rho.entries if hasattr(rho, "entries") else np.asarray(rho, dtype=complex)
    n = int(np.log2(mat.shape[0]))
    side_a = tuple(sorted(int(s) for s in side_a))
    w, v = eig_hermitian(mat)
    keep = w > 1e-12
    w, v = w[keep], v[:, keep]
    rank = w.size
    rest = [q for q in range(n) if q not in side_a]
    d_a = 2 ** len(side_a)
    vecs = (
        v.T.reshape(-1, *([2] * n))
        .transpose([0] + [1 + q for q in list(side_a) + rest])
        .reshape(rank, -1)
    )
    subnormed = np.sqrt(w)[:, None] * vecs

    def average_tangle(u):
        b = (u @ subnormed).reshape(-1, d_a, subnormed.shape[1] // d_a)
        weights = np.einsum("lab,lab->l", b, b.conj()).real
        gram = np.einsum("lab,lcb->lac", b, b.conj())
        tr2 = np.einsum("lac,lca->l", gram, gram).real
        mask = weights > 1e-14
        return float(np.sum(2.0 * (weights[mask] - tr2[mask] / weights[mask])))

    best = average_tangle(np.eye(rank))
    for _ in range(n_samples):
        size = int(rng.integers(rank, max_size + 1))
        z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        q, _ = np.linalg.qr(z)
        best = min(best, average_tangle(q[:, :rank]))
    return best


def random_rank2_mixed(rng, n_qubits=4):
    """Mixture of two Haar-random pure states with a random weight."""
    dim = 2 ** n_qubits
    vs = []
    for _ in range(2):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vs.append(z / np.linalg.norm(z))
    q = rng.uniform(0.1, 0.9)
    return q * np.outer(vs[0], vs[0].conj()) + (1 - q) * np.outer(vs[1], vs[1].conj())


def antisym_overlap_direct(subnormed, d_a, d_b):
    """<f1 f1|A|fm fn> of the doubled antisymmetric projector as the four-index contraction.

    ``subnormed`` is a stack of k rows over side A (major) times side B; this is
    the textbook expansion, one einsum per swap term, with no factoring.
    """
    f = subnormed.reshape(subnormed.shape[:-1] + (d_a, d_b))
    f1c = f[..., 0, :, :].conj()
    v = np.einsum("...ab,...mab->...m", f1c, f)
    swap_a = np.einsum("...ab,...cd,...mcb,...nad->...mn", f1c, f1c, f, f)
    swap_b = np.einsum("...ab,...cd,...mad,...ncb->...mn", f1c, f1c, f, f)
    outer = v[..., :, None] * v[..., None, :]
    return outer + outer.swapaxes(-1, -2) - swap_a - swap_b
