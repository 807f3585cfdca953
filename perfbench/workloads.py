"""The benchmark workloads: seeded input files, CLI invocations and output checks.

Each workload writes its config (and fixture) files from the seed, names the
``entredist`` command lines of one repeat, and checks what those commands
wrote.  The program sees only the files; the seed never reaches it directly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PURE_STEPS = 1001
MIXED_STEPS = 501
SMOKE_STEPS = 21

CONSERVATION_TOL = 1e-9   # residual_pair + four c2 terms = 4|alpha beta|^2
CLOSED_FORM_TOL = 1e-8    # pairwise concurrences against their closed forms
EIGENVALUE_FLOOR = 1e-9   # entredist.measures._wootters_roots zeroes eigenvalues below this
TOMO_CONC_TOL = 0.01      # acceptance criterion 12
TOMO_MIN_FIDELITY = 0.999  # acceptance criterion 12

# Round trips of one tomography repeat: (p, shots, count seed or None for a
# count seed drawn from the workload seed).  The last one is acceptance
# criterion 12 (p = 0.5, 1e6 shots, count seed 2026), the only trip gated on
# fidelity >= 0.999: that bound holds for one seed, not for every seed (over
# 40 other count seeds the 1e6-shot fit reached 0.99903-0.99972, converged or
# not).  The 1e6-shot fits run to or near the 50,000-iteration cap, so their
# work hardly depends on the seed; the 1e5-shot fit's iterations do.
CRITERION_12 = (0.5, 1_000_000, 2026)
TOMO_TRIPS = ((0.25, 100_000, None), (0.75, 1_000_000, None), CRITERION_12)
CRITERION_12_ALPHA2 = 1.0 / 7.0

# sweep.json fields the sweep checks read
SWEEP_FIELDS = ("p", "residual_pair", "c2_s1s2", "c2_e1e2", "c2_s1e2", "c2_s2e1",
                "gamma_s1s2", "gamma_e1e2")


@dataclass
class Checked:
    """Outcome of checking the files one invocation wrote."""

    rows: int
    failed: int = 0
    floored: int = 0  # concurrences checked with the eigenvalue-floor allowance
    problems: list[str] = field(default_factory=list)
    fits: list[dict] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=1))
    return path


def _draw_alpha_beta(rng: random.Random) -> tuple[float, float]:
    """Real amplitudes with |alpha| < |beta|, so both ESD and ESB fall inside [0, 1]."""
    a2 = rng.uniform(0.1, 0.4)
    return math.sqrt(a2), math.sqrt(1.0 - a2)


def _grid(steps: int) -> dict:
    return {"start": 0.0, "stop": 1.0, "steps": steps}


def _sweep_rows(out: Path, steps: int, checked: Checked) -> list[dict]:
    """Rows of sweep.json that set ``error`` or carry every number the checks read.

    Missing and malformed rows count as failed here.
    """
    try:
        rows = json.loads((out / "sweep.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        checked.fail(steps, f"cannot read sweep.json: {exc}")
        return []
    if len(rows) != steps:
        checked.fail(abs(steps - len(rows)), f"{len(rows)} rows written, {steps} expected")
    complete = [r for r in rows if isinstance(r, dict) and (
        r.get("error") or all(isinstance(r.get(k), (int, float)) for k in SWEEP_FIELDS))]
    if len(complete) != len(rows):
        checked.fail(len(rows) - len(complete), "rows with missing or non-numeric fields")
    return complete


class Workload:
    """Inputs drawn from ``seed`` and written under ``workdir``; ``smoke`` shrinks the grids."""

    name = ""

    def __init__(self, workdir: Path, seed: int, smoke: bool):
        self.workdir = workdir
        self.rng = random.Random(seed)

    def warmup_argv(self) -> list[str]:
        """A minimal first call of the same command, used to time set-up."""
        raise NotImplementedError

    def repeat(self, k: int) -> list[tuple[list[str], Path]]:
        """Command lines of repeat ``k`` with the directory each writes to."""
        raise NotImplementedError

    def check(self, argv: list[str], out: Path) -> Checked:
        raise NotImplementedError


class PureSweep(Workload):
    """Pure family alpha|00> + beta|11>, 1001-point grid, every artifact written."""

    name = "pure-sweep"

    def __init__(self, workdir, seed, smoke):
        super().__init__(workdir, seed, smoke)
        self.alpha, self.beta = _draw_alpha_beta(self.rng)
        self.steps = SMOKE_STEPS if smoke else PURE_STEPS
        base = {"alpha_re": self.alpha, "beta_re": self.beta, "estimator": "lb", "seed": seed}
        self.config = _write_json(workdir / "pure.json", {**base, "p_grid": _grid(self.steps)})
        self.warm = _write_json(workdir / "pure-warm.json", {**base, "p_grid": _grid(2)})

    def warmup_argv(self):
        return ["sweep", "--config", str(self.warm), "--out", str(self.workdir / "warm")]

    def repeat(self, k):
        out = self.workdir / "pure-out"
        return [(["sweep", "--config", str(self.config), "--out", str(out)], out)]

    def check(self, argv, out):
        a, b = self.alpha, self.beta
        checked = Checked(self.steps)
        conserved = 4.0 * (a * b) ** 2
        psi = np.zeros(4)
        psi[0], psi[3] = a, b
        rho_sys = np.outer(psi, psi)
        for row in _sweep_rows(out, self.steps, checked):
            if row.get("error"):
                checked.fail(1, f"p={row.get('p')}: {row['error']}")
                continue
            p = row["p"]
            total = sum(row[k] for k in ("residual_pair", "c2_s1s2", "c2_e1e2", "c2_s1e2", "c2_s2e1"))
            if abs(total - conserved) > CONSERVATION_TOL:
                checked.fail(1, f"p={p}: pair-cut sum {total!r} != 4|ab|^2 = {conserved!r}")
            else:
                # On this family the X-state formula is invariant_checks' closed form
                # 2 b (1-p) max(0, a - b p), and with p -> 1-p for the environments.
                _check_pair_concurrences(checked, rho_sys, p, max(0.0, row["gamma_s1s2"]),
                                         max(0.0, row["gamma_e1e2"]))
        # Interpolation puts each threshold within one grid step (1e-3 at 1001 points).
        step = 1.0 / (self.steps - 1)
        try:
            thresholds = json.loads((out / "thresholds.json").read_text())
            ok = (abs(thresholds["esd"] - a / b) <= step
                  and abs(thresholds["esb"] - (1 - a / b)) <= step)
        except (OSError, ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            checked.fail(1, f"thresholds off |a/b| = {a / b:.6f}")
        return checked


def _amplitude_damping(rho: np.ndarray, p: float) -> np.ndarray:
    """Independent two-qubit amplitude damping at strength p on both qubits (Kraus form)."""
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]])
    k1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]])
    out = np.zeros_like(rho)
    for a in (k0, k1):
        for b in (k0, k1):
            k = np.kron(a, b)
            out += k @ rho @ k.conj().T
    return out


def _expected_concurrence(rho: np.ndarray) -> tuple[float, float]:
    """Concurrence of a two-qubit X state, and the deviation allowed from it.

    The Wootters roots of an X state are sqrt(r00 r33) +- |r03| and
    sqrt(r11 r22) +- |r12|.  entredist.measures treats eigenvalues of
    rho * rho_tilde below EIGENVALUE_FLOOR as zero, which drops a small root
    from lambda_1 - lambda_2 - lambda_3 - lambda_4 and raises the result by
    that root (up to 3.2e-5 near p = 0 and p = 1).  Roots within a factor two
    of the floor are allowed for on top of CLOSED_FORM_TOL.
    """
    s, q = math.sqrt(rho[0, 0].real * rho[3, 3].real), abs(rho[0, 3])
    t, u = math.sqrt(rho[1, 1].real * rho[2, 2].real), abs(rho[1, 2])
    roots = sorted((s + q, abs(s - q), t + u, abs(t - u)), reverse=True)
    floored = sum(r for r in roots[1:] if r * r < 2 * EIGENVALUE_FLOOR)
    return float(max(0.0, roots[0] - sum(roots[1:]))), CLOSED_FORM_TOL + floored


def _check_pair_concurrences(checked: Checked, rho_sys: np.ndarray, p: float,
                             c_s1s2: float, c_e1e2: float) -> None:
    """Compare C_S1S2 and C_E1E2 of one row with the damped system state.

    The environments receive the complementary channel, damping at 1 - p.
    """
    for label, got, q in (("C_S1S2", c_s1s2, p), ("C_E1E2", c_e1e2, 1.0 - p)):
        want, tol = _expected_concurrence(_amplitude_damping(rho_sys, q))
        if abs(got - want) > tol:
            checked.fail(1, f"p={p}: {label} = {got!r}, X-state formula gives {want!r}")
            return
        if tol > CLOSED_FORM_TOL:
            checked.floored += 1


class MixedSweep(Workload):
    """alpha|00> + beta|11> mixed with white noise, 501 points with ``lb`` then ``qp``."""

    name = "mixed-sweep"

    def __init__(self, workdir, seed, smoke):
        super().__init__(workdir, seed, smoke)
        from entredist import mixed_system_with_purity, save_state

        alpha, beta = _draw_alpha_beta(self.rng)
        purity = self.rng.uniform(0.7, 0.95)
        fixture = mixed_system_with_purity(alpha, beta, purity)
        save_state(fixture, workdir / "mixed-system.json")
        self.rho_sys = np.array(fixture.entries)
        self.steps = SMOKE_STEPS if smoke else MIXED_STEPS
        base = {"mixed_system_file": "mixed-system.json", "estimator": "lb", "seed": seed}
        self.config = _write_json(workdir / "mixed.json", {**base, "p_grid": _grid(self.steps)})
        self.warm = _write_json(workdir / "mixed-warm.json", {**base, "p_grid": _grid(2)})

    def warmup_argv(self):
        return ["sweep", "--config", str(self.warm), "--out", str(self.workdir / "warm")]

    def repeat(self, k):
        runs = []
        for estimator in ("lb", "qp"):
            out = self.workdir / f"mixed-out-{estimator}"
            runs.append((["sweep", "--config", str(self.config), "--estimator", estimator,
                          "--out", str(out)], out))
        return runs

    def check(self, argv, out):
        checked = Checked(self.steps)
        for row in _sweep_rows(out, self.steps, checked):
            if row.get("error"):
                checked.fail(1, f"p={row.get('p')}: {row['error']}")
                continue
            _check_pair_concurrences(checked, self.rho_sys, row["p"], math.sqrt(row["c2_s1s2"]),
                                     math.sqrt(row["c2_e1e2"]))
        return checked


class TomoRoundtrip(Workload):
    """Simulated tomography of the alpha^2 = 1/7 family at 1e5 and 1e6 shots."""

    name = "tomo-roundtrip"

    def __init__(self, workdir, seed, smoke):
        super().__init__(workdir, seed, smoke)
        alpha, beta = math.sqrt(CRITERION_12_ALPHA2), math.sqrt(1.0 - CRITERION_12_ALPHA2)
        self.config = _write_json(workdir / "tomo.json",
                                  {"alpha_re": alpha, "beta_re": beta, "seed": 0})
        self._count_seeds: list[int] = []

    def warmup_argv(self):
        return ["tomo-roundtrip", "--config", str(self.config), "--out",
                str(self.workdir / "warm"), "--p", "0.0", "--shots", "1", "--seed", "0"]

    def _count_seed(self, k: int) -> int:
        while len(self._count_seeds) <= k:
            self._count_seeds.append(self.rng.randrange(2 ** 31))
        return self._count_seeds[k]

    def repeat(self, k):
        runs = []
        for i, (p, shots, seed) in enumerate(TOMO_TRIPS):
            out = self.workdir / f"tomo-out-{i}"
            seed = self._count_seed(len(TOMO_TRIPS) * k + i) if seed is None else seed
            runs.append((["tomo-roundtrip", "--config", str(self.config), "--out", str(out),
                          "--p", repr(p), "--shots", str(shots), "--seed", str(seed)], out))
        return runs

    def check(self, argv, out):
        checked = Checked(1)
        try:
            report = json.loads((out / "report.json").read_text())
            err = max(report["concurrence_error_s1s2"], report["concurrence_error_e1e2"])
            fidelity = report["fidelity_to_true"]
        except (OSError, ValueError, KeyError) as exc:
            checked.fail(1, f"cannot read report.json: {exc}")
            return checked
        checked.fits.append({"shots": report["shots"], "iterations": report["iterations"],
                             "converged": report["converged"], "fidelity": fidelity,
                             "concurrence_error": err})
        if err >= TOMO_CONC_TOL:
            checked.fail(1, f"{argv[-5:]}: concurrence error {err}")
        elif (report["p"], report["shots"], report["seed"]) == CRITERION_12 \
                and fidelity < TOMO_MIN_FIDELITY:
            checked.fail(1, f"{argv[-5:]}: fidelity {fidelity}")
        return checked


WORKLOADS = {w.name: w for w in (PureSweep, MixedSweep, TomoRoundtrip)}


def golden_argv(workdir: Path) -> tuple[list[str], Path]:
    """The configuration behind ``tests/data/golden_sweep.csv``: alpha^2 = 1/7, 101 points, lb."""
    config = _write_json(workdir / "golden.json", {
        "alpha_re": math.sqrt(1.0 / 7.0), "beta_re": math.sqrt(6.0 / 7.0),
        "p_grid": _grid(101), "estimator": "lb",
    })
    out = workdir / "golden-out"
    return ["sweep", "--config", str(config), "--out", str(out)], out
