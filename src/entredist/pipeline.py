"""Damping sweeps, threshold detection and figure-data emission.

A sweep evaluates the full measure report on a grid of damping strengths,
optionally routing every state through simulated tomography first.  The
resulting rows serialize to a fixed-column CSV, figure data and JSON whose
bytes are a pure function of the configuration and seed; this module decides
every one of those formats.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .channels import InitialSpec, evolve, initial_state, random_family_state
from .measures import (
    PAIR_CUT,
    TangleReport,
    compute_report,
    concurrence,
    decompose_pair_residual,
    dicke_state,
    effective_three_tangle,
    monogamy_slacks,
    tangle_pure,
    tangle_quasipure,
)
from .qcore import (
    DensityMatrix,
    fidelity_pure,
    haar_state,
    numerical_rank,
    partial_trace,
)
from .tomography import mle_reconstruct, simulate_counts

__all__ = [
    "SweepConfig",
    "SweepRow",
    "CSV_COLUMNS",
    "sweep",
    "find_threshold",
    "thresholds",
    "emit_csv",
    "emit_plotdata",
    "rows_to_json",
    "write_manifest",
    "write_sweep",
    "invariant_checks",
]

ZERO_TOL = 1e-9  # exact zeros exist analytically; anything above this is live

# The numeric columns are the report's fields; provenance follows them.
CSV_COLUMNS = tuple(f.name for f in fields(TangleReport)) + (
    "estimator_pair", "estimator_unbalanced", "tomography", "seed", "error")

FIGURE_COLUMNS = {
    "fig2": ("p", "c2_s1s2", "c2_e1e2", "residual_pair", "gamma_s1s2", "gamma_e1e2"),
    "fig3": ("p", "tau_u_s1_s2e2", "tau_u_s2_s1e1", "tau_u_e1_s2e2", "tau_u_e2_s1e1"),
    "fig4": ("p", "dicke_fidelity", "witness_threshold"),
}


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs: initial spec, grid, estimators, tomography."""

    initial: InitialSpec
    p_values: tuple[float, ...]
    estimator: str = "lb"
    tomography: bool = False
    shots: int = 100_000
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        ps = tuple(float(p) for p in self.p_values)
        if len(ps) < 2:
            raise ValueError("grid needs at least 2 points")
        if not all(0.0 <= p <= 1.0 for p in ps):  # also false for NaN
            raise ValueError("grid must be finite and lie within [0, 1]")
        if self.estimator not in ("lb", "qp"):
            raise ValueError(f"estimator must be 'lb' or 'qp', got {self.estimator!r}")
        if self.shots < 1:
            raise ValueError("shots must be positive")
        object.__setattr__(self, "p_values", ps)

    @classmethod
    def from_json(cls, payload: dict, base_dir=".") -> "SweepConfig":
        grid = payload.get("p_grid", {"start": 0.0, "stop": 1.0, "steps": 101})
        if isinstance(grid, dict):
            steps = int(grid.get("steps", 101))
            if steps < 2:
                raise ValueError("steps must be at least 2")
            ps = np.linspace(float(grid.get("start", 0.0)), float(grid.get("stop", 1.0)), steps)
        else:
            ps = [float(p) for p in grid]
        tomo = payload.get("tomography", {})
        if not isinstance(tomo, dict):
            raise ValueError(f"tomography must be a JSON object, got {tomo!r}")
        return cls(
            initial=InitialSpec.from_json(payload, base_dir),
            p_values=tuple(ps),
            estimator=payload.get("estimator", "lb"),
            tomography=bool(tomo.get("enabled", False)),
            shots=int(tomo.get("shots", 100_000)),
            seed=int(payload.get("seed", tomo.get("seed", 0))),
            out_dir=payload.get("out_dir"),
        )

    def canonical_json(self) -> str:
        payload = {
            "initial": ("mixed" if self.initial.mixed_system is not None else
                        [self.initial.alpha.real, self.initial.alpha.imag,
                         self.initial.beta.real, self.initial.beta.imag]),
            "p_values": list(self.p_values),
            "estimator": self.estimator,
            "tomography": self.tomography,
            "shots": self.shots,
            "seed": self.seed,
        }
        if self.initial.mixed_system is not None:
            payload["mixed_system"] = self.initial.mixed_system.to_json()
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class SweepRow:
    """One grid point: flattened report plus provenance, or a flagged failure."""

    p: float
    report: TangleReport | None
    estimator_pair: str
    estimator_unbalanced: str
    tomography: bool
    seed: int | None
    error: str | None = None

    def to_record(self) -> dict:
        """Column name -> native value, in ``CSV_COLUMNS`` order; a failed row has ""
        in every measure cell."""
        rec = dict.fromkeys(CSV_COLUMNS, "") if self.report is None else dict(vars(self.report))
        rec.update(
            p=self.p,
            estimator_pair=self.estimator_pair,
            estimator_unbalanced=self.estimator_unbalanced,
            tomography=self.tomography,
            seed="" if self.seed is None else self.seed,
            error=self.error or "",
        )
        return rec


def sweep(config: SweepConfig) -> list[SweepRow]:
    """Evolve, optionally tomograph, and report every grid point in p order.

    A failure in one row is caught, flagged on that row, and the run
    continues.
    """
    base = initial_state(config.initial)
    rows = []
    for index, p in enumerate(sorted(config.p_values)):
        estimator_unbalanced = "pure"
        seed = None
        try:
            state = evolve(base, p, p)
            if config.tomography:
                seed = config.seed + index
                records = simulate_counts(state, config.shots, seed)
                state = mle_reconstruct(records).rho
            if isinstance(state, DensityMatrix):
                estimator_unbalanced = "qp"
            report = compute_report(state, p, estimator_pair=config.estimator)
            rows.append(SweepRow(
                p=float(p),
                report=report,
                estimator_pair="pure" if estimator_unbalanced == "pure" else config.estimator,
                estimator_unbalanced=estimator_unbalanced,
                tomography=config.tomography,
                seed=seed,
            ))
        except Exception as exc:  # noqa: BLE001 - row-level containment is the contract
            rows.append(SweepRow(
                p=float(p),
                report=None,
                estimator_pair=config.estimator,
                estimator_unbalanced=estimator_unbalanced,
                tomography=config.tomography,
                seed=seed,
                error=f"{type(exc).__name__}: {exc}",
            ))
    return rows


def find_threshold(series, kind: str, zero_tol: float = ZERO_TOL) -> float | None:
    """Interpolated damping strength where a tangle dies (ESD) or is born (ESB).

    ``series`` is a sorted list of (p, value) pairs.  The death threshold is
    the last downward crossing of ``zero_tol``; the birth threshold the first
    upward one.  Returns None when the series never crosses.
    """
    kind = kind.lower()
    if kind not in ("esd", "esb"):
        raise ValueError(f"kind must be 'esd' or 'esb', got {kind!r}")
    ps = [float(p) for p, _ in series]
    vs = [float(v) for _, v in series]
    if any(b < a for a, b in zip(ps, ps[1:])):
        raise ValueError("series must be sorted by p")

    crossings = []
    for k in range(len(ps) - 1):
        lo, hi = vs[k], vs[k + 1]
        if kind == "esd" and lo > zero_tol >= hi:
            frac = (lo - zero_tol) / (lo - hi)
            crossings.append(ps[k] + frac * (ps[k + 1] - ps[k]))
        if kind == "esb" and lo <= zero_tol < hi:
            frac = (zero_tol - lo) / (hi - lo)
            crossings.append(ps[k] + frac * (ps[k + 1] - ps[k]))
    if not crossings:
        return None
    return crossings[-1] if kind == "esd" else crossings[0]


def thresholds(rows) -> dict:
    """ESD of C^2_S1S2 and ESB of C^2_E1E2 over the rows that did not fail."""
    live = [r for r in rows if r.report is not None]
    return {
        "esd": find_threshold([(r.p, r.report.c2_s1s2) for r in live], "esd"),
        "esb": find_threshold([(r.p, r.report.c2_e1e2) for r in live], "esb"),
    }


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_columns(path, columns, records, what: str) -> None:
    """CSV of the given columns of each record; wraps write failures with the path."""
    path = Path(path)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for rec in records:
                writer.writerow([_format(rec[name]) for name in columns])
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def emit_csv(rows, path) -> None:
    """Fixed-column CSV at 12 significant digits; bytes are deterministic."""
    _write_columns(path, CSV_COLUMNS, (row.to_record() for row in rows), "sweep CSV")


def emit_plotdata(rows, figure: str, path) -> None:
    """Column subset used by one of the three figures, same formatting rules."""
    if figure not in FIGURE_COLUMNS:
        raise ValueError(f"unknown figure {figure!r}; expected one of {sorted(FIGURE_COLUMNS)}")
    records = ({**row.to_record(), "witness_threshold": 2.0 / 3.0} for row in rows)
    _write_columns(path, FIGURE_COLUMNS[figure], records, f"{figure} plot data")


def rows_to_json(rows) -> list[dict]:
    """JSON mirror of the CSV rows (numbers stay numbers, booleans booleans)."""
    return [row.to_record() for row in rows]


def write_manifest(config: SweepConfig, out_dir) -> None:
    import platform

    manifest = {
        "config_sha256": hashlib.sha256(config.canonical_json().encode()).hexdigest(),
        "seed": config.seed,
        "versions": {
            "entredist": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    Path(out_dir, "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def write_sweep(rows, config: SweepConfig, out_dir) -> None:
    """Every sweep artifact in ``out_dir``: sweep.csv, fig2-4.csv, sweep.json,
    thresholds.json and manifest.json."""
    out = Path(out_dir)
    emit_csv(rows, out / "sweep.csv")
    for figure in FIGURE_COLUMNS:
        emit_plotdata(rows, figure, out / f"{figure}.csv")
    (out / "sweep.json").write_text(json.dumps(rows_to_json(rows), indent=1))
    (out / "thresholds.json").write_text(json.dumps(thresholds(rows), indent=1))
    write_manifest(config, out)


# ---------------------------------------------------------------------------
# Self-checks behind the `check-invariants` CLI subcommand
# ---------------------------------------------------------------------------

def invariant_checks(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Battery of structural identities; returns (name, passed, detail) triples."""
    rng = np.random.default_rng(seed)
    alpha, beta = math.sqrt(1 / 7), math.sqrt(6 / 7)
    base = initial_state(InitialSpec(alpha=alpha, beta=beta))
    grid = np.linspace(0.0, 1.0, 41)
    family = [evolve(base, p, p) for p in grid]
    checks = []

    def add(name, err, tol):
        checks.append((name, bool(err <= tol), f"max deviation {err:.3e} (tol {tol:.0e})"))

    from .channels import ad_unitary

    err = max(
        float(np.abs(ad_unitary(p).conj().T @ ad_unitary(p) - np.eye(4)).max())
        for p in rng.uniform(0, 1, 100)
    )
    add("damping dilation is unitary", err, 1e-12)

    import warnings

    with warnings.catch_warnings():
        # the second dilation legitimately sees a populated environment here
        warnings.simplefilter("ignore", UserWarning)
        err = max(
            float(np.abs(evolve(evolve(base, p1, 0.0), 0.0, p2).amplitudes
                         - evolve(evolve(base, 0.0, p2), p1, 0.0).amplitudes).max())
            for p1, p2 in rng.uniform(0, 1, (20, 2))
        )
    add("disjoint dilations commute", err, 1e-12)

    target = 4.0 * (alpha * beta) ** 2
    err = max(abs(tangle_pure(st, PAIR_CUT) - target) for st in family)
    add("pair-cut tangle is conserved", err, 1e-9)

    worst_rank = max(
        numerical_rank(partial_trace(st, ("S1", "E1")), 1e-7) for st in family
    )
    checks.append(("pair marginals stay rank-two", worst_rank <= 2, f"max rank {worst_rank}"))

    err = max(
        max(effective_three_tangle(st, ("S2", "E2")), effective_three_tangle(st, ("S1", "E1")))
        for st in family
    )
    add("effective-qubit tangles vanish on the family", err, 1e-6)

    err = max(decompose_pair_residual(random_family_state(rng)).discrepancy for _ in range(25))
    add("six-term residual decomposition closes", err, 1e-6)

    worst = min(
        min(monogamy_slacks(haar_state(4, rng)).one_vs_rest.values())
        for _ in range(50)
    )
    checks.append(("monogamy slack non-negative on random pure states",
                   worst >= -1e-6, f"min slack {worst:.3e}"))

    err = 0.0
    for st, p in zip(family, grid):
        c_s = concurrence(partial_trace(st, ("S1", "S2")).entries)
        c_e = concurrence(partial_trace(st, ("E1", "E2")).entries)
        err = max(err, abs(c_s - 2 * beta * (1 - p) * max(0.0, alpha - beta * p)))
        err = max(err, abs(c_e - 2 * beta * p * max(0.0, alpha - beta * (1 - p))))
    add("closed-form pairwise concurrences", err, 1e-8)

    pure_states = [haar_state(4, rng) for _ in range(10)]
    err = max(
        abs(tangle_quasipure(psi.density(), (0,)) - tangle_pure(psi, (0,)))
        for psi in pure_states
    )
    add("quasi-pure estimator exact on pure states", err, 1e-8)

    fid = fidelity_pure(evolve(base, 0.5, 0.5).density(), dicke_state())
    add("Dicke fidelity at p=1/2", abs(fid - (alpha + 2 * beta) ** 2 / 6.0), 1e-9)
    return checks
