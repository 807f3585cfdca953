"""Damping sweeps, threshold detection and figure-data emission.

A sweep evaluates the full measure report on a grid of damping strengths,
optionally routing every state through simulated tomography first.  The
resulting rows serialize to a fixed-column CSV, figure data and JSON whose
bytes are a pure function of the configuration and seed; this module decides
every one of those formats.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .channels import InitialSpec, ad_unitary, evolve, initial_state, random_family_state
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
    PureState,
    _json_float,
    _json_int,
    as_matrix,
    fidelity_pure,
    haar_state,
    numerical_rank,
    partial_trace,
    state_from_json,
    state_to_json,
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
CSV_COLUMNS = TangleReport._fields + (
    "estimator_pair", "estimator_unbalanced", "tomography", "seed", "error")

FIGURE_COLUMNS = {
    "fig2": ("p", "c2_s1s2", "c2_e1e2", "residual_pair", "gamma_s1s2", "gamma_e1e2"),
    "fig3": ("p", "tau_u_s1_s2e2", "tau_u_s2_s1e1", "tau_u_e1_s2e2", "tau_u_e2_s1e1"),
    "fig4": ("p", "dicke_fidelity", "witness_threshold"),
}


# Every key a config file may hold; the four amplitudes come first.
_CONFIG_KEYS = ("alpha_re", "alpha_im", "beta_re", "beta_im", "mixed_system_file", "p_grid",
                "estimator", "tomography", "seed", "out_dir")


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
        if not isinstance(self.initial, InitialSpec):
            raise ValueError(f"initial must be an InitialSpec, got {self.initial!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string or None, got {self.out_dir!r}")
        ps = tuple(_json_float(p, "p_values entry") for p in self.p_values)
        if len(ps) < 2:
            raise ValueError("grid needs at least 2 points")
        if not all(0.0 <= p <= 1.0 for p in ps):  # also false for NaN
            raise ValueError("grid must be finite and lie within [0, 1]")
        if self.estimator not in ("lb", "qp"):
            raise ValueError(f"estimator must be 'lb' or 'qp', got {self.estimator!r}")
        if not isinstance(self.tomography, bool):
            raise ValueError(f"tomography must be True or False, got {self.tomography!r}")
        shots, seed = _json_int(self.shots, "shots"), _json_int(self.seed, "seed")
        if shots < 1:
            raise ValueError("shots must be positive")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        for name, value in (("p_values", ps), ("shots", shots), ("seed", seed)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_json(cls, payload: dict, base_dir=".") -> "SweepConfig":
        """The one reader of the config layout (README, "Command line"); a key outside
        it raises ``ValueError``, and ``mixed_system_file`` is read relative to ``base_dir``."""
        if not isinstance(payload, dict):
            raise ValueError(f"a config must be a JSON object, got a {type(payload).__name__}")
        grid = payload.get("p_grid", {})
        tomo = payload.get("tomography", {})
        if not isinstance(tomo, dict):
            raise ValueError(f"tomography must be a JSON object, got {tomo!r}")
        for where, given, known in (("config", payload, _CONFIG_KEYS),
                                    ("p_grid", grid if isinstance(grid, dict) else {},
                                     ("start", "stop", "steps")),
                                    ("tomography", tomo, ("enabled", "shots"))):
            unknown = sorted(set(given) - set(known))
            if unknown:
                raise ValueError(f"unknown {where} keys {unknown}; known: {', '.join(known)}")
        if isinstance(grid, dict):
            steps = _json_int(grid.get("steps", 101), "p_grid.steps")
            if steps < 2:
                raise ValueError("steps must be at least 2")
            ps = np.linspace(_json_float(grid.get("start", 0.0), "p_grid.start"),
                             _json_float(grid.get("stop", 1.0), "p_grid.stop"), steps)
        elif isinstance(grid, list):
            ps = [_json_float(p, "p_grid entry") for p in grid]
        else:
            raise ValueError(f"p_grid must be a JSON object or list, got {grid!r}")
        enabled = tomo.get("enabled", False)
        if not isinstance(enabled, bool):
            raise ValueError(f"tomography.enabled must be true or false, got {enabled!r}")
        if "mixed_system_file" in payload:
            given = [k for k in _CONFIG_KEYS[:4] if k in payload]
            if given:
                raise ValueError(f"give either amplitudes or mixed_system_file, not both: {given}")
            path = Path(base_dir) / payload["mixed_system_file"]
            initial = InitialSpec(mixed_system=state_from_json(json.loads(path.read_text())))
        else:
            alpha, beta = (complex(_json_float(payload[f"{name}_re"], f"{name}_re"),
                                   _json_float(payload.get(f"{name}_im", 0.0), f"{name}_im"))
                           for name in ("alpha", "beta"))
            initial = InitialSpec(alpha=alpha, beta=beta)
        return cls(initial=initial, p_values=tuple(ps), estimator=payload.get("estimator", "lb"),
                   tomography=enabled,
                   shots=_json_int(tomo.get("shots", 100_000), "tomography.shots"),
                   seed=payload.get("seed", 0), out_dir=payload.get("out_dir"))

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
            payload["mixed_system"] = state_to_json(self.initial.mixed_system)
        return json.dumps(payload, sort_keys=True)


# A report's cells: its 20 numbers (p to dicke_fidelity) at 12 significant digits,
# then genuine4; a failed row keeps p and leaves the 20 measure cells empty.
_MEASURES = len(TangleReport._fields) - 1
_NUMBER_CELLS = ",".join(["%.12g"] * _MEASURES)
_FAILED_CELLS = "%.12g" + "," * _MEASURES
_BOOL_CELL = {False: "false", True: "true"}  # also the JSON literals


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

    @cached_property
    def cells(self) -> tuple[str, ...]:
        """The row's ``CSV_COLUMNS`` cells as written, built once; every CSV artifact is
        cut from these strings.  The report's numbers take one format per row, a failed
        row gets its empty measure cells from the same format, and the error text is
        quoted here, the one cell that can need it, as the excel CSV dialect quotes it."""
        error = self.error or ""
        if any(c in error for c in ',"\r\n'):
            error = '"' + error.replace('"', '""') + '"'
        if self.report is None:
            measures = (_FAILED_CELLS % self.p).split(",")
        else:
            measures = (_NUMBER_CELLS % self.report[:-1]).split(",")
            measures.append(_BOOL_CELL[self.report.genuine4])
        return (*measures, self.estimator_pair, self.estimator_unbalanced,
                _BOOL_CELL[self.tomography], "" if self.seed is None else str(self.seed),
                error)


# Grid points per stacked pass.  A pass holds a few (rows, 16, 16) complex
# temporaries: at 128 rows each is 0.5 MB and peak memory stays within a few MB
# of evaluating one state at a time (one pass over a 501-point mixed grid added
# 10 MB), while larger passes measured no faster.
STACK_ROWS = 128


def sweep(config: SweepConfig) -> list[SweepRow]:
    """Evolve, optionally tomograph, and report every grid point in p order.

    The grid goes through stacked passes of ``STACK_ROWS`` points.  If a pass
    raises, each of its points is evaluated again on its own, so the failure
    is flagged on its row only and the run continues.
    """
    base = initial_state(config.initial)
    grid = sorted(config.p_values)
    rows = []
    for first in range(0, len(grid), STACK_ROWS):
        batch = grid[first:first + STACK_ROWS]
        try:
            rows += _stacked_rows(config, base, batch, first)
        except Exception:  # noqa: BLE001 - the row-by-row pass flags the failing row
            rows += [_contained_row(config, base, p, first + k) for k, p in enumerate(batch)]
    return rows


def _provenance(config: SweepConfig, first: int, count: int) -> tuple[tuple, list]:
    """Provenance of ``count`` rows from sorted grid index ``first`` on, live or failed: their
    shared estimator names and tomography flag, and each one's seed (None without tomography)."""
    mixed = config.tomography or config.initial.mixed_system is not None
    return ((config.estimator if mixed else "pure", "qp" if mixed else "pure", config.tomography),
            [config.seed + first + k if config.tomography else None for k in range(count)])


def _contained_row(config: SweepConfig, base, p: float, index: int) -> SweepRow:
    """One grid point as a stack of one; a failure is caught and flagged on the row."""
    try:
        return _stacked_rows(config, base, [p], index)[0]
    except Exception as exc:  # noqa: BLE001 - row-level containment is the contract
        shared, (seed,) = _provenance(config, index, 1)
        return SweepRow(float(p), None, *shared, seed, error=f"{type(exc).__name__}: {exc}")


def _stacked_rows(config: SweepConfig, base, grid, first: int) -> list[SweepRow]:
    """Rows of consecutive grid points, the first at sorted index ``first``, from one
    stacked pass."""
    ps = np.array(grid, dtype=float)
    shared, seeds = _provenance(config, first, len(grid))
    states = evolve(base, ps, ps)
    if config.tomography:
        states = DensityMatrix(np.array([
            mle_reconstruct(simulate_counts(mat, config.shots, seed)).rho.entries
            for mat, seed in zip(as_matrix(states), seeds)
        ]))
    reports = compute_report(states, ps, estimator_pair=config.estimator)
    return [SweepRow(p, report, *shared, seed) for p, report, seed in zip(ps.tolist(), reports, seeds)]


def find_threshold(series, kind: str) -> float | None:
    """Interpolated damping strength where a tangle dies (ESD) or is born (ESB).

    ``series`` is a sorted list of (p, value) pairs.  The death threshold is
    the last downward crossing of ``ZERO_TOL``; the birth threshold the first
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
        if kind == "esd" and lo > ZERO_TOL >= hi:
            frac = (lo - ZERO_TOL) / (lo - hi)
            crossings.append(ps[k] + frac * (ps[k + 1] - ps[k]))
        if kind == "esb" and lo <= ZERO_TOL < hi:
            frac = (ZERO_TOL - lo) / (hi - lo)
            crossings.append(ps[k] + frac * (ps[k + 1] - ps[k]))
    if not crossings:
        return None
    return crossings[-1] if kind == "esd" else crossings[0]


def thresholds(rows) -> dict:
    """ESD of the S1S2 pair and ESB of the E1E2 pair over the rows that did not fail: where
    the signed concurrence ``gamma_*`` crosses zero, which it does transversally, whereas
    C^2 only touches zero there and biases the interpolation."""
    live = [r for r in rows if r.report is not None]
    return {
        "esd": find_threshold([(r.p, r.report.gamma_s1s2) for r in live], "esd"),
        "esb": find_threshold([(r.p, r.report.gamma_e1e2) for r in live], "esb"),
    }


WITNESS_CELL = "%.12g" % (2.0 / 3.0)  # fig4's witness_threshold, the same on every row
_FIGURE_CELLS = {  # picks a figure's cells from a row's cells followed by WITNESS_CELL
    figure: itemgetter(*((*CSV_COLUMNS, "witness_threshold").index(name) for name in columns))
    for figure, columns in FIGURE_COLUMNS.items()
}

# A sweep.json record as json.dumps(records, indent=1) lays it out, keys encoded once and
# a %s slot per value; a failed row's template keeps p and the 5 provenance slots, and
# has "" in its 20 measure slots.
_JSON_RECORD = " {\n" + ",\n".join(f"  {encode_basestring_ascii(name)}: %s"
                                   for name in CSV_COLUMNS) + "\n }"
_JSON_FAILED = _JSON_RECORD % ("%s", *['""'] * _MEASURES, *["%s"] * 5)


def _json_record(row: SweepRow) -> str:
    """The row's ``sweep.json`` record: the text ``json.dumps(..., indent=1)`` gives its column ->
    value dict (a failed row has "" in every measure cell).  ``str`` of a finite
    float is the ``float.__repr__`` that ``json.dumps`` writes; numbers that hold NaN or an
    infinity go through ``json.dumps`` itself, for its ``NaN``, ``Infinity`` and ``-Infinity``."""
    numbers = (row.p,) if row.report is None else row.report[:-1]
    if not math.isfinite(sum(numbers)):
        numbers = tuple(map(json.dumps, numbers))
    provenance = (encode_basestring_ascii(row.estimator_pair),
                  encode_basestring_ascii(row.estimator_unbalanced), _BOOL_CELL[row.tomography],
                  '""' if row.seed is None else row.seed, encode_basestring_ascii(row.error or ""))
    if row.report is None:
        return _JSON_FAILED % (*numbers, *provenance)
    return _JSON_RECORD % (*numbers, _BOOL_CELL[row.report.genuine4], *provenance)


def _write_columns(path, columns, cells, what: str) -> None:
    """CSV of a header and rows of written cells, CRLF-ended; wraps write failures with the path."""
    path = Path(path)
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(map(",".join, (columns, *cells))) + "\r\n")
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def emit_csv(rows, path) -> None:
    """Fixed-column CSV at 12 significant digits; bytes are deterministic."""
    _write_columns(path, CSV_COLUMNS, (row.cells for row in rows), "sweep CSV")


def emit_plotdata(rows, figure: str, path) -> None:
    """Column subset used by one of the three figures, cut from the CSV cells."""
    if figure not in FIGURE_COLUMNS:
        raise ValueError(f"unknown figure {figure!r}; expected one of {sorted(FIGURE_COLUMNS)}")
    pick = _FIGURE_CELLS[figure]
    _write_columns(path, FIGURE_COLUMNS[figure], (pick(row.cells + (WITNESS_CELL,)) for row in rows),
                   f"{figure} plot data")


def rows_to_json(rows) -> str:
    """The ``sweep.json`` text: the rows' records as ``json.dumps(records, indent=1)`` lays
    them out (numbers stay numbers, booleans booleans), ``"[]"`` for no rows."""
    return "[\n" + ",\n".join(map(_json_record, rows)) + "\n]" if rows else "[]"


def write_manifest(config: SweepConfig, out_dir) -> None:
    import platform

    manifest = {
        "config_sha256": hashlib.sha256(config.canonical_json().encode()).hexdigest(),
        "seed": config.seed,
        "versions": {"entredist": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
    }
    Path(out_dir, "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def write_sweep(rows, config: SweepConfig, out_dir) -> None:
    """Every sweep artifact in ``out_dir``: sweep.csv, fig2-4.csv, sweep.json (the text of
    ``rows_to_json(rows)``), thresholds.json and manifest.json."""
    out = Path(out_dir)
    emit_csv(rows, out / "sweep.csv")
    for figure in FIGURE_COLUMNS:
        emit_plotdata(rows, figure, out / f"{figure}.csv")
    (out / "sweep.json").write_text(rows_to_json(rows))
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
    family = evolve(base, grid, grid)  # one stack of the 41 family states
    checks = []

    def add(name, err, tol):
        checks.append((name, bool(err <= tol), f"max deviation {err:.3e} (tol {tol:.0e})"))

    u = ad_unitary(rng.uniform(0, 1, 100))
    err = float(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(4)).max())
    add("damping dilation is unitary", err, 1e-12)

    p1, p2 = rng.uniform(0, 1, (20, 2)).T
    zero = np.zeros(20)
    with warnings.catch_warnings():
        # the second dilation legitimately sees a populated environment here
        warnings.simplefilter("ignore", UserWarning)
        err = float(np.abs(evolve(evolve(base, p1, zero), zero, p2).amplitudes
                           - evolve(evolve(base, zero, p2), p1, zero).amplitudes).max())
    add("disjoint dilations commute", err, 1e-12)

    err = float(np.abs(tangle_pure(family, PAIR_CUT) - 4.0 * (alpha * beta) ** 2).max())
    add("pair-cut tangle is conserved", err, 1e-9)

    worst_rank = int(numerical_rank(partial_trace(family, ("S1", "E1")), 1e-7).max())
    checks.append(("pair marginals stay rank-two", worst_rank <= 2, f"max rank {worst_rank}"))

    err = float(np.maximum(effective_three_tangle(family, ("S2", "E2")),
                           effective_three_tangle(family, ("S1", "E1"))).max())
    add("effective-qubit tangles vanish on the family", err, 1e-6)

    err = max(decompose_pair_residual(random_family_state(rng)).discrepancy for _ in range(25))
    add("six-term residual decomposition closes", err, 1e-6)

    worst = min(
        min(monogamy_slacks(haar_state(4, rng)).one_vs_rest.values())
        for _ in range(50)
    )
    checks.append(("monogamy slack non-negative on random pure states",
                   worst >= -1e-6, f"min slack {worst:.3e}"))

    c_s = concurrence(partial_trace(family, ("S1", "S2")).entries)
    c_e = concurrence(partial_trace(family, ("E1", "E2")).entries)
    err = float(max(np.abs(c_s - 2 * beta * (1 - grid) * np.maximum(0.0, alpha - beta * grid)).max(),
                    np.abs(c_e - 2 * beta * grid * np.maximum(0.0, alpha - beta * (1 - grid))).max()))
    add("closed-form pairwise concurrences", err, 1e-8)

    haar = PureState(np.array([haar_state(4, rng).amplitudes for _ in range(10)]))
    err = float(np.abs(tangle_quasipure(haar.density(), (0,)) - tangle_pure(haar, (0,))).max())
    add("quasi-pure estimator exact on pure states", err, 1e-8)

    fid = fidelity_pure(evolve(base, 0.5, 0.5).density(), dicke_state())
    add("Dicke fidelity at p=1/2", abs(fid - (alpha + 2 * beta) ** 2 / 6.0), 1e-9)
    return checks
