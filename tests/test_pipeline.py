import csv
import json

import numpy as np
import pytest

from conftest import ALPHA, BETA, INITIAL_TANGLE, P_ESB, P_ESD
from entredist.channels import InitialSpec, mixed_system_with_purity
from entredist.qcore import DensityMatrix, PureState
from entredist.pipeline import (
    CSV_COLUMNS,
    SweepConfig,
    emit_csv,
    emit_plotdata,
    find_threshold,
    invariant_checks,
    rows_to_json,
    sweep,
    thresholds,
    write_manifest,
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

    calls = {"n": 0}
    real = pipeline.compute_report

    def flaky(state, p, estimator_pair="lb"):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ValueError("synthetic failure")
        return real(state, p, estimator_pair=estimator_pair)

    monkeypatch.setattr(pipeline, "compute_report", flaky)
    rows = sweep(pure_config(steps=4))
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
