"""Independent oracles the tests check the library against.

Nothing here shares code with the implementation paths it verifies: the
X-state concurrence is the textbook closed form, the convex-roof value
is estimated by brute-force minimization over randomly sampled ensemble
decompositions, the tomography setting kets are built one ``np.kron`` at a
time, the Born map goes through the dense frame of the 256 projectors built
from them, the Born system is solved by least squares, a sweep row's record
is a dict built from its fields, sweep records are encoded by ``json.dumps``
with its own indentation and sweep CSVs by ``csv.writer``, the Wootters spin flip
is the matrix product with sigma_y x sigma_y, and a partial trace permutes the
matrix's own tensor axes.
"""

import csv
import io
import itertools
import json
import math
from functools import lru_cache

import numpy as np

from entredist.measures import TangleReport
from entredist.qcore import eig_hermitian


def damped_family_row(alpha, beta, p1, p2) -> dict:
    """Every numeric ``TangleReport`` column but ``p`` of alpha|0000> + beta|1100> damped
    at p1 on (S1,E1) and p2 on (S2,E2), from the closed forms for real alpha, beta.

    With c_i = sqrt(1 - p_i) and s_i = sqrt(p_i): the signed concurrences
    2 beta c1 c2 (alpha - beta s1 s2) and 2 beta s1 s2 (alpha - beta c1 c2), the
    cross pairs 2 beta c_i s_j max(0, alpha - beta s_i c_j), the local pairs
    C_SiEi = 2 beta^2 c_i s_i, the one-qubit tangles 4 x (1 - x) at x = beta^2 c_i^2
    (S_i) or beta^2 s_i^2 (E_i), the conserved pair cut 4 alpha^2 beta^2, vanishing
    effective tangles and the Dicke fidelity (alpha + beta (c1 + s1)(c2 + s2))^2 / 6.
    The residuals, and the anchored tangles equal to them, follow by subtraction.
    """
    c1, c2, s1, s2 = np.sqrt(1.0 - p1), np.sqrt(1.0 - p2), np.sqrt(p1), np.sqrt(p2)
    gamma_ss = 2 * beta * c1 * c2 * (alpha - beta * s1 * s2)
    gamma_ee = 2 * beta * s1 * s2 * (alpha - beta * c1 * c2)
    c2_pairs = {  # squared concurrence of every slot pair, S1 S2 E1 E2 = 0 1 2 3
        (0, 1): max(0.0, gamma_ss) ** 2,
        (2, 3): max(0.0, gamma_ee) ** 2,
        (0, 3): (2 * beta * c1 * s2 * max(0.0, alpha - beta * s1 * c2)) ** 2,
        (1, 2): (2 * beta * c2 * s1 * max(0.0, alpha - beta * s2 * c1)) ** 2,
        (0, 2): (2 * beta ** 2 * c1 * s1) ** 2,
        (1, 3): (2 * beta ** 2 * c2 * s2) ** 2,
    }
    one_qubit = [(beta * c1) ** 2, (beta * c2) ** 2, (beta * s1) ** 2, (beta * s2) ** 2]
    residual = [4 * x * (1 - x) - sum(v for ab, v in c2_pairs.items() if q in ab)
                for q, x in enumerate(one_qubit)]
    pair_cut = 4 * (alpha * beta) ** 2
    return {
        "c2_s1s2": c2_pairs[0, 1], "c2_e1e2": c2_pairs[2, 3],
        "c2_s1e2": c2_pairs[0, 3], "c2_s2e1": c2_pairs[1, 2],
        "gamma_s1s2": gamma_ss, "gamma_e1e2": gamma_ee,
        "c2_pair_lb": pair_cut,
        "residual_pair": pair_cut - sum(v for ab, v in c2_pairs.items() if ab not in ((0, 2), (1, 3))),
        "residual_s1": residual[0], "residual_s2": residual[1],
        "residual_e1": residual[2], "residual_e2": residual[3],
        "tau_u_s1_s2e2": residual[0], "tau_u_s2_s1e1": residual[1],
        "tau_u_e1_s2e2": residual[2], "tau_u_e2_s1e1": residual[3],
        "tau_eff_s1e1": 0.0, "tau_eff_s2e2": 0.0,
        "dicke_fidelity": (alpha + beta * (c1 + s1) * (c2 + s2)) ** 2 / 6.0,
    }


def mixed_fixture_row(alpha, beta, purity, p) -> dict:
    """The S1S2 and E1E2 columns of ``mixed_system_with_purity(alpha, beta, purity)`` damped
    at p on both pairs, for real alpha, beta.

    The fixture is v|psi><psi| + (1 - v) I/4 with v = sqrt((4P - 1)/3); amplitude damping
    keeps both pair marginals X-shaped, so with q = (1 - v)/4 the signed concurrences are
    2 (1 - p)(v alpha beta - q - (v beta^2 + q) p) and
    2 p (v alpha beta - q - (v beta^2 + q)(1 - p)).
    """
    v = math.sqrt((4 * purity - 1) / 3)
    q = (1 - v) / 4
    gamma_ss = 2 * (1 - p) * (v * alpha * beta - q - (v * beta ** 2 + q) * p)
    gamma_ee = 2 * p * (v * alpha * beta - q - (v * beta ** 2 + q) * (1 - p))
    return {"gamma_s1s2": gamma_ss, "gamma_e1e2": gamma_ee,
            "c2_s1s2": max(0.0, gamma_ss) ** 2, "c2_e1e2": max(0.0, gamma_ee) ** 2}


def mixed_fixture_thresholds(alpha, beta, purity) -> dict:
    """Where ``mixed_fixture_row``'s gamma_s1s2 dies and gamma_e1e2 is born:
    p_ESD = (v alpha beta - q)/(v beta^2 + q) and p_ESB = 1 - p_ESD."""
    v = math.sqrt((4 * purity - 1) / 3)
    q = (1 - v) / 4
    esd = (v * alpha * beta - q) / (v * beta ** 2 + q)
    return {"esd": esd, "esb": 1 - esd}


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


def kron_setting_kets():
    """(256, 16) product kets of the tomography settings, one ``np.kron`` per qubit.

    Setting ids run over the selectors Z, Z', X, Y (|0>, |1>, |+>, |+i>) per
    qubit as base-4 digits, S1 most significant.
    """
    single = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex),
              np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
              np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)]
    kets = []
    for digits in itertools.product(range(4), repeat=4):
        ket = np.array([1.0], dtype=complex)
        for d in digits:
            ket = np.kron(ket, single[d])
        kets.append(ket)
    return np.array(kets)


@lru_cache(maxsize=1)
def dense_frame():
    """(256, 256) frame: row s is the projector |k_s><k_s| of setting s, row-major."""
    kets = kron_setting_kets()
    frame = np.einsum("si,sj->sij", kets, kets.conj()).reshape(len(kets), -1)
    frame.flags.writeable = False
    return frame


def dense_born_probabilities(x):
    """Re tr(P_s x) for every setting s: the frame times x^T, flattened row-major."""
    return (dense_frame() @ np.asarray(x).T.reshape(-1)).real


def dense_born_adjoint(g):
    """sum_s g[s] P_s as a 16x16 matrix."""
    return (np.asarray(g) @ dense_frame()).reshape(16, 16)


def lstsq_born_solution(freqs, projectors):
    """Hermitian X with tr(P_s X) = freqs[s], by least squares on the conjugated frame.

    Not trace-normalised; the textbook fit, sum_ij conj(P_s)_ij X_ij = f_s.
    """
    dim = projectors.shape[1]
    a = projectors.conj().reshape(len(projectors), -1)
    sol, *_ = np.linalg.lstsq(a, np.asarray(freqs, dtype=complex), rcond=None)
    x = sol.reshape(dim, dim)
    return 0.5 * (x + x.conj().T)


def row_record(row) -> dict:
    """A sweep row as column name -> native value, in the sweep's column order: the report's
    fields, then the provenance; a failed row has "" in every measure cell, and "" stands
    for no seed and no error."""
    record = dict.fromkeys(TangleReport._fields, "") if row.report is None else row.report._asdict()
    record.update(p=row.p, estimator_pair=row.estimator_pair,
                  estimator_unbalanced=row.estimator_unbalanced, tomography=row.tomography,
                  seed="" if row.seed is None else row.seed, error=row.error or "")
    return record


def indented_json(records) -> str:
    """The reference ``sweep.json`` text: the standard library's indented encoder."""
    return json.dumps(records, indent=1)


def csv_text(columns, records) -> str:
    """The reference text of a sweep CSV: the standard library's excel writer over the
    records' ``columns``, floats at 12 significant digits and booleans as JSON writes them."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return "%.12g" % value if isinstance(value, float) else str(value)

    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(columns)
    writer.writerows([cell(record[name]) for name in columns] for record in records)
    return buffer.getvalue()


SY_SY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)


def matmul_concurrence_signed(rho2):
    """lambda_1 - lambda_2 - lambda_3 - lambda_4 of a (stack of) 4x4 matrices, with the
    spin flip as the product (sy x sy) rho* (sy x sy).

    The other steps are the library's, written out: the roots are the square roots of
    the eigenvalues of sqrt(rho) rho~ sqrt(rho), Hermitized, and zero below 1e-9.
    """
    mat = np.asarray(rho2, dtype=complex)

    def hermitian_part(m):
        return 0.5 * (m + m.conj().swapaxes(-1, -2))

    w, v = np.linalg.eigh(hermitian_part(mat))
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    lam = np.linalg.eigvalsh(hermitian_part(root @ (SY_SY @ mat.conj() @ SY_SY) @ root))[..., ::-1]
    lam = np.sqrt(np.where(lam < 1e-9, 0.0, lam))
    return lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]


def permuted_matrix_marginal(mat, n_qubits, keep):
    """Partial trace keeping the slots ``keep`` of a (stack of) 2**n_qubits matrices.

    The matrix's 2n tensor axes are permuted to (kept rows, traced rows, kept
    columns, traced columns) and the traced row and column indices summed together.
    """
    lead = mat.shape[:-2]
    rest = [q for q in range(n_qubits) if q not in keep]
    perm = [*keep, *rest, *(n_qubits + q for q in keep), *(n_qubits + q for q in rest)]
    d_keep, d_rest = 2 ** len(keep), 2 ** len(rest)
    t = mat.reshape(lead + (2,) * (2 * n_qubits))
    t = t.transpose([*range(len(lead)), *(len(lead) + q for q in perm)])
    return np.einsum("...abcb->...ac", t.reshape(lead + (d_keep, d_rest, d_keep, d_rest)))
