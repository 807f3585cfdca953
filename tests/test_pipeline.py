import csv
import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import ALPHA, BETA, INITIAL_TANGLE, P_ESB, P_ESD
from entredist.channels import InitialSpec, evolve, initial_state, mixed_system_with_purity
from entredist.measures import compute_report
from entredist.qcore import DensityMatrix, PureState
from entredist.pipeline import (
    CSV_COLUMNS,
    FIGURE_COLUMNS,
    SweepConfig,
    emit_csv,
    emit_plotdata,
    find_threshold,
    invariant_checks,
    rows_to_json,
    sweep,
    thresholds,
    write_manifest,
    write_sweep,
)


def pure_config(steps=101, **kwargs):
    return SweepConfig(
        initial=InitialSpec(alpha=ALPHA, beta=BETA),
        p_values=tuple(np.linspace(0.0, 1.0, steps)),
        **kwargs,
    )


@pytest.fixture(scope="module")
def pure_rows():
    return sweep(pure_config())


def series(rows, column):
    return [(r.p, r.to_record()[column]) for r in rows]


def test_sweep_dynamics_shape(pure_rows):
    assert len(pure_rows) == 101
    assert all(r.error is None for r in pure_rows)
    c_ss = [r.report.c2_s1s2 for r in pure_rows]
    assert all(a >= b - 1e-12 for a, b in zip(c_ss, c_ss[1:]))  # monotone decay
    first, last = pure_rows[0].report, pure_rows[-1].report
    assert first.c2_s1s2 == pytest.approx(INITIAL_TANGLE, abs=1e-9)
    assert all(abs(v) < 1e-9 for v in (first.residual_s1, first.residual_s2,
                                       first.residual_e1, first.residual_e2))
    # at p=1 the entanglement has swapped to the environments
    assert last.c2_e1e2 == pytest.approx(INITIAL_TANGLE, abs=1e-9)
    assert last.c2_s1s2 == 0.0


def test_find_threshold_on_family(pure_rows):
    esd = find_threshold(series(pure_rows, "c2_s1s2"), "esd")
    esb = find_threshold(series(pure_rows, "c2_e1e2"), "esb")
    assert esd == pytest.approx(P_ESD, abs=0.01)
    assert esb == pytest.approx(P_ESB, abs=0.01)
    assert esd < esb
    assert esd + esb == pytest.approx(1.0, abs=0.02)


def test_find_threshold_ordering_random_families(rng):
    # closed forms: death at alpha/beta, birth at 1 - alpha/beta, so the two
    # always sum to one and death precedes birth whenever alpha/beta < 1/2
    for _ in range(5):
        ratio = rng.uniform(0.15, 0.45)
        beta = 1.0 / np.sqrt(1.0 + ratio**2)
        alpha = ratio * beta
        cfg = SweepConfig(
            initial=InitialSpec(alpha=alpha, beta=beta),
            p_values=tuple(np.linspace(0.0, 1.0, 201)),
        )
        rows = sweep(cfg)
        esd = find_threshold(series(rows, "c2_s1s2"), "esd")
        esb = find_threshold(series(rows, "c2_e1e2"), "esb")
        assert esd == pytest.approx(alpha / beta, abs=0.01)
        assert esb == pytest.approx(1.0 - alpha / beta, abs=0.01)
        assert esd < esb and esd + esb == pytest.approx(1.0, abs=0.02)


def test_find_threshold_bell_boundary_case():
    # alpha = beta never dies before p = 1; the crossing is pinned to the end
    cfg = SweepConfig(
        initial=InitialSpec(alpha=1 / np.sqrt(2), beta=1 / np.sqrt(2)),
        p_values=tuple(np.linspace(0.0, 1.0, 101)),
    )
    rows = sweep(cfg)
    esd = find_threshold(series(rows, "c2_s1s2"), "esd")
    assert esd == pytest.approx(1.0, abs=0.01)
    assert find_threshold(series(rows, "c2_e1e2"), "esb") is not None


def test_find_threshold_none_and_errors(pure_rows):
    flat = [(p, 0.0) for p in np.linspace(0, 1, 11)]
    assert find_threshold(flat, "esd") is None
    assert find_threshold(flat, "esb") is None
    with pytest.raises(ValueError, match="sorted"):
        find_threshold([(0.5, 1.0), (0.1, 1.0)], "esd")
    with pytest.raises(ValueError, match="kind"):
        find_threshold(flat, "both")


def test_dead_zone_rows(pure_rows):
    esd = find_threshold(series(pure_rows, "c2_s1s2"), "esd")
    esb = find_threshold(series(pure_rows, "c2_e1e2"), "esb")
    inside = [r.report for r in pure_rows if esd < r.p < esb]
    assert inside
    for report in inside:
        assert report.c2_s1s2 == 0.0
        assert report.c2_e1e2 == 0.0
        assert report.residual_pair > 0.1


def test_emit_csv_structure_and_determinism(tmp_path, pure_rows):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    emit_csv(pure_rows[:2], path_a)
    assert path_a.read_text().count("\n") == 3  # header + 2 rows
    emit_csv(sweep(pure_config()), path_b)
    emit_csv(sweep(pure_config()), path_a)
    assert path_a.read_bytes() == path_b.read_bytes()
    header = path_a.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_emit_csv_raises_on_unwritable_path(pure_rows, tmp_path):
    with pytest.raises(OSError, match="no/such"):
        emit_csv(pure_rows[:2], tmp_path / "no" / "such" / "dir.csv")


def test_emit_plotdata_raises_on_unwritable_path(pure_rows, tmp_path):
    with pytest.raises(OSError, match="cannot write fig3 plot data to .*no/such"):
        emit_plotdata(pure_rows[:2], "fig3", tmp_path / "no" / "such" / "fig3.csv")


def test_emit_plotdata_columns(tmp_path, pure_rows):
    for figure, expected in (
        ("fig2", "p,c2_s1s2,c2_e1e2,residual_pair,gamma_s1s2,gamma_e1e2"),
        ("fig3", "p,tau_u_s1_s2e2,tau_u_s2_s1e1,tau_u_e1_s2e2,tau_u_e2_s1e1"),
        ("fig4", "p,dicke_fidelity,witness_threshold"),
    ):
        path = tmp_path / f"{figure}.csv"
        emit_plotdata(pure_rows, figure, path)
        lines = path.read_text().splitlines()
        assert lines[0] == expected
        assert len(lines) == len(pure_rows) + 1
    with pytest.raises(ValueError, match="unknown figure"):
        emit_plotdata(pure_rows, "fig9", tmp_path / "x.csv")


def test_fig4_threshold_column_is_two_thirds(tmp_path, pure_rows):
    path = tmp_path / "fig4.csv"
    emit_plotdata(pure_rows, "fig4", path)
    rows = path.read_text().splitlines()[1:]
    thresholds = {row.split(",")[2] for row in rows}
    assert thresholds == {f"{2/3:.12g}"}


def test_golden_sweep_file(tmp_path, pure_rows):
    golden = (
        __import__("pathlib").Path(__file__).parent / "data" / "golden_sweep.csv"
    )
    path = tmp_path / "sweep.csv"
    emit_csv(pure_rows, path)
    assert path.read_bytes() == golden.read_bytes()


def test_golden_sweep_matches_the_closed_forms():
    # every measure cell of the pinned file, derived instead of pinned
    golden = Path(__file__).parent / "data" / "golden_sweep.csv"
    with open(golden, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["p"]) for row in rows] == pytest.approx(np.linspace(0.0, 1.0, 101), abs=1e-12)
    for row in rows:
        p = float(row["p"])
        for column, want in oracles.damped_family_row(ALPHA, BETA, p, p).items():
            assert float(row[column]) == pytest.approx(want, abs=1e-12), (p, column)
        assert row["genuine4"] == ("true" if float(row["dicke_fidelity"]) > 2.0 / 3.0 else "false")


def test_closed_forms_hold_off_the_diagonal(rng):
    base = initial_state(InitialSpec(alpha=ALPHA, beta=BETA))
    p1, p2 = rng.uniform(0.05, 0.95, (2, 25))
    reports = compute_report(evolve(base, p1, p2), p1)
    for a, b, report in zip(p1, p2, reports):
        for column, want in oracles.damped_family_row(ALPHA, BETA, a, b).items():
            assert getattr(report, column) == pytest.approx(want, abs=1e-12), (a, b, column)


def _fail_evolve_at_half(monkeypatch):
    """Make ``pipeline.evolve`` raise on any stack that holds p = 0.5, before any
    estimator runs."""
    import entredist.pipeline as pipeline

    real = pipeline.evolve

    def flaky(state, p1, p2):
        if 0.5 in np.atleast_1d(p1):
            raise ValueError("synthetic failure")
        return real(state, p1, p2)

    monkeypatch.setattr(pipeline, "evolve", flaky)


def _artifact_rows(kind, monkeypatch):
    """Fresh rows and their config for one of the sweep.json oracle cases."""
    if kind == "empty":
        return [], pure_config(steps=3)
    initial = (InitialSpec(mixed_system=mixed_system_with_purity(ALPHA, BETA, 0.82))
               if kind == "mixed" else InitialSpec(alpha=ALPHA, beta=BETA))
    config = SweepConfig(initial=initial, p_values=tuple(np.linspace(0.0, 1.0, 11)),
                         estimator="qp", tomography=kind == "tomography", shots=2000, seed=5)
    if kind == "failed":
        _fail_evolve_at_half(monkeypatch)
    return sweep(config), config


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("kind", ["pure", "mixed", "tomography", "failed", "empty"])
def test_sweep_artifacts_match_the_reference_encodings(monkeypatch, tmp_path, kind):
    rows, config = _artifact_rows(kind, monkeypatch)
    assert sum(r.error is not None for r in rows) == (kind == "failed")
    write_sweep(rows, config, tmp_path)
    assert (tmp_path / "sweep.json").read_text() == oracles.indented_json(rows_to_json(rows))

    with open(tmp_path / "sweep.csv", newline="") as fh:
        header, *cells = list(csv.reader(fh))
    assert len(cells) == len(rows)
    for figure, columns in FIGURE_COLUMNS.items():
        with open(tmp_path / f"{figure}.csv", newline="") as fh:
            assert next(csv.reader(fh)) == list(columns)
            expected = [[row[header.index(name)] if name in header else f"{2 / 3:.12g}"
                         for name in columns] for row in cells]
            assert list(csv.reader(fh)) == expected, figure


def test_write_sweep_formats_each_cell_once(monkeypatch, tmp_path):
    import entredist.pipeline as pipeline

    rows = sweep(pure_config(steps=7))
    real, calls = pipeline._format, []
    monkeypatch.setattr(pipeline, "_format", lambda value: calls.append(value) or real(value))
    write_sweep(rows, pure_config(steps=7), tmp_path)
    assert len(calls) == len(rows) * len(CSV_COLUMNS)


def test_rows_to_json_mirror(pure_rows):
    payload = rows_to_json(pure_rows[:3])
    assert payload[0]["p"] == 0.0
    assert isinstance(payload[0]["genuine4"], bool)
    assert payload[0]["c2_s1s2"] == pytest.approx(INITIAL_TANGLE, abs=1e-9)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sweep_with_tomography_loop():
    cfg = SweepConfig(
        initial=InitialSpec(alpha=ALPHA, beta=BETA),
        p_values=(0.1, 0.5, 0.9),
        tomography=True,
        shots=4000,
        seed=5,
    )
    rows = sweep(cfg)
    assert all(r.error is None for r in rows)
    assert all(r.estimator_unbalanced == "qp" for r in rows)
    assert [r.seed for r in rows] == [5, 6, 7]
    mid = rows[1].report
    assert mid.residual_pair > 0.1
    assert mid.c2_s1s2 < 0.05
    again = sweep(cfg)
    assert [r.report.c2_s1s2 for r in again] == [r.report.c2_s1s2 for r in rows]


def test_sweep_rows_flag_errors_and_continue(monkeypatch, tmp_path):
    import entredist.pipeline as pipeline

    config = pure_config(steps=4)
    real = pipeline.compute_report

    def flaky(state, p, estimator_pair="lb"):
        # fails on any stack that holds the second grid point, whatever its size
        if config.p_values[1] in np.atleast_1d(p):
            raise ValueError("synthetic failure")
        return real(state, p, estimator_pair=estimator_pair)

    monkeypatch.setattr(pipeline, "compute_report", flaky)
    rows = sweep(config)
    assert [r.error is None for r in rows] == [True, False, True, True]
    assert "synthetic failure" in rows[1].error

    measures = CSV_COLUMNS[1:CSV_COLUMNS.index("estimator_pair")]
    record = rows_to_json(rows)[1]
    assert {record[name] for name in measures} == {""}
    assert "synthetic failure" in record["error"]
    emit_csv(rows, tmp_path / "sweep.csv")
    with open(tmp_path / "sweep.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))[1]
    assert {cells[name] for name in measures} == {""}

    live = [rows[0]] + rows[2:]
    assert thresholds(rows) == thresholds(live)
    assert thresholds(rows[1:2]) == {"esd": None, "esb": None}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("kind", ["pure", "mixed", "tomography"])
def test_failed_row_provenance_matches_its_neighbours(monkeypatch, kind):
    initial = (InitialSpec(mixed_system=mixed_system_with_purity(ALPHA, BETA, 0.82))
               if kind == "mixed" else InitialSpec(alpha=ALPHA, beta=BETA))
    config = SweepConfig(initial=initial, p_values=(0.1, 0.5, 0.9), estimator="qp",
                         tomography=kind == "tomography", shots=2000, seed=5)
    _fail_evolve_at_half(monkeypatch)
    left, failed, right = (row.to_record() for row in sweep(config))
    assert "synthetic failure" in failed["error"] and not left["error"] and not right["error"]
    provenance = ("estimator_pair", "estimator_unbalanced", "tomography")
    assert [failed[k] for k in provenance] == [left[k] for k in provenance] == [right[k] for k in provenance]
    assert (left["estimator_pair"], left["estimator_unbalanced"]) == (
        ("pure", "pure") if kind == "pure" else ("qp", "qp"))
    seeds = [left["seed"], failed["seed"], right["seed"]]
    assert seeds == ([5, 6, 7] if kind == "tomography" else ["", "", ""])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sweep_in_short_stacks_matches_one_pass(monkeypatch):
    import entredist.pipeline as pipeline

    pure = pure_config(steps=10)
    tomo = SweepConfig(initial=InitialSpec(alpha=ALPHA, beta=BETA), p_values=(0.1, 0.3, 0.5, 0.7, 0.9),
                       tomography=True, shots=2000, seed=4)
    whole = [sweep(pure), sweep(tomo)]
    monkeypatch.setattr(pipeline, "STACK_ROWS", 3)
    assert [sweep(pure), sweep(tomo)] == whole
    assert [r.seed for r in whole[1]] == [4, 5, 6, 7, 8]


def test_config_parsing_and_validation(tmp_path):
    payload = {
        "alpha_re": float(ALPHA),
        "beta_re": float(BETA),
        "p_grid": {"start": 0.0, "stop": 1.0, "steps": 11},
        "estimator": "qp",
        "tomography": {"enabled": True, "shots": 123, "seed": 9},
    }
    cfg = SweepConfig.from_json(payload)
    assert len(cfg.p_values) == 11 and cfg.estimator == "qp"
    assert cfg.tomography and cfg.shots == 123 and cfg.seed == 9

    cfg = SweepConfig.from_json({"alpha_re": 1.0, "beta_re": 0.0, "p_grid": [0.0, 0.25, 1.0]})
    assert cfg.p_values == (0.0, 0.25, 1.0)

    with pytest.raises(ValueError, match="within"):
        SweepConfig.from_json({"alpha_re": 1.0, "beta_re": 0.0, "p_grid": [0.0, 1.5]})
    with pytest.raises(ValueError, match="steps"):
        SweepConfig.from_json({"alpha_re": 1.0, "beta_re": 0.0,
                               "p_grid": {"steps": 1}})
    with pytest.raises(ValueError, match="estimator"):
        pure_config(estimator="exact")

    # integer fields take JSON integers only: no booleans, no fractional part
    pure = {"alpha_re": 1.0, "beta_re": 0.0}
    cfg = SweepConfig.from_json({**pure, "p_grid": {"steps": 3.0}, "seed": 4.0,
                                 "tomography": {"shots": 50.0}})
    assert (len(cfg.p_values), cfg.seed, cfg.shots) == (3, 4, 50)
    assert type(cfg.seed) is int and type(cfg.shots) is int
    for payload in (
        {**pure, "p_grid": {"steps": 2.7}},
        {**pure, "seed": 1.9},
        {**pure, "seed": True},
        {**pure, "seed": "3"},
        {**pure, "tomography": {"shots": 1.5}},
        {**pure, "tomography": {"seed": 2.5}},
        {**pure, "tomography": {"seed": False}},
        {**pure, "p_grid": {"steps": float("inf")}},
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            SweepConfig.from_json(payload)

    # float fields take JSON numbers only: no booleans, no numeric strings
    cfg = SweepConfig.from_json({"alpha_re": 1, "beta_re": 0,
                                 "p_grid": {"start": 0, "stop": 1, "steps": 3}})
    assert cfg.p_values == (0.0, 0.5, 1.0) and cfg.initial.alpha == 1.0
    for payload, match in (
        ({**pure, "p_grid": {"start": False, "stop": True, "steps": 3}},
         "p_grid.start must be a number"),
        ({**pure, "p_grid": {"stop": "1", "steps": 3}}, "p_grid.stop must be a number"),
        ({**pure, "p_grid": [0.0, True]}, "p_grid entry must be a number"),
        ({**pure, "p_grid": ["0", 1.0]}, "p_grid entry must be a number"),
        ({**pure, "p_grid": "01"}, "p_grid must be a JSON object or list"),
        ({**pure, "p_grid": 5}, "p_grid must be a JSON object or list"),
        ({"alpha_re": True, "beta_re": 0.0}, "alpha_re must be a number"),
        ({"alpha_re": 1.0, "beta_re": "0"}, "beta_re must be a number"),
        ({**pure, "alpha_im": False}, "alpha_im must be a number"),
        ({**pure, "beta_im": "0"}, "beta_im must be a number"),
    ):
        with pytest.raises(ValueError, match=match):
            SweepConfig.from_json(payload)


def test_negative_seed_is_rejected():
    for payload in ({"seed": -1}, {"tomography": {"enabled": True, "seed": -1}}):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SweepConfig.from_json({"alpha_re": 1.0, "beta_re": 0.0, **payload})
    with pytest.raises(ValueError, match="seed must be non-negative"):
        pure_config(tomography=True, seed=-1)
    assert pure_config(seed=0).seed == 0


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: PureState(np.full(16, NAN)),
    lambda: DensityMatrix(np.full((4, 4), NAN)),
    lambda: InitialSpec(alpha=NAN, beta=1.0),
    lambda: SweepConfig(initial=InitialSpec(alpha=1.0, beta=0.0), p_values=(0.0, NAN)),
], ids=["PureState", "DensityMatrix", "InitialSpec", "SweepConfig"])
def test_validators_reject_non_finite_input(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_mixed_fixture_thresholds_match_lab_window():
    system = mixed_system_with_purity(ALPHA, BETA, 0.82)
    cfg = SweepConfig(initial=InitialSpec(mixed_system=system),
                      p_values=tuple(np.linspace(0.0, 1.0, 101)))
    rows = sweep(cfg)
    esd = find_threshold(series(rows, "c2_s1s2"), "esd")
    esb = find_threshold(series(rows, "c2_e1e2"), "esb")
    # impurity pulls death earlier and birth later than the pure values
    assert esd < P_ESD and esb > P_ESB
    assert esd == pytest.approx(0.34, abs=0.04)
    assert esb == pytest.approx(0.67, abs=0.05)


def test_write_manifest(tmp_path):
    cfg = pure_config(steps=5, seed=3)
    write_manifest(cfg, tmp_path)
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["seed"] == 3
    assert len(payload["config_sha256"]) == 64
    assert set(payload["versions"]) == {"entredist", "numpy", "python"}
    write_manifest(cfg, tmp_path)
    assert json.loads((tmp_path / "manifest.json").read_text()) == payload


def test_invariant_checks_all_pass():
    checks = invariant_checks(seed=0)
    assert len(checks) >= 8
    failures = [(name, detail) for name, ok, detail in checks if not ok]
    assert failures == []
