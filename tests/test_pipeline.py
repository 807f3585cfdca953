import csv
import json
import math
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import ALPHA, BETA, INITIAL_TANGLE, P_ESB, P_ESD, UNKNOWN_CONFIG_KEYS
from entredist.channels import InitialSpec, evolve, initial_state, mixed_system_with_purity
from entredist.measures import TangleReport, compute_report, concurrence
from entredist.qcore import DensityMatrix, PureState, haar_state, save_state
from entredist.pipeline import (
    CSV_COLUMNS,
    FIGURE_COLUMNS,
    ZERO_TOL,
    SweepConfig,
    SweepRow,
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
    return SweepConfig(**{"initial": InitialSpec(alpha=ALPHA, beta=BETA),
                          "p_values": tuple(np.linspace(0.0, 1.0, steps)), **kwargs})


@pytest.fixture(scope="module")
def pure_rows():
    return sweep(pure_config())


def series(rows, column):
    return [(r.p, oracles.row_record(r)[column]) for r in rows]


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


# values around the crossing level, signed zeros and non-finite ones, so that ties with
# ZERO_TOL, NaN comparisons and infinite spans all occur
THRESHOLD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, ZERO_TOL, -ZERO_TOL, 2 * ZERO_TOL, math.nan, math.inf, -math.inf]),
    st.floats(-1.0, 1.0), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=400)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), THRESHOLD_VALUES), max_size=12),
       st.sampled_from(["esd", "esb"]))
def test_find_threshold_matches_the_segment_loop(points, kind):
    ps = sorted(p for p, _ in points)
    series = [(p, v) for p, (_, v) in zip(ps, points)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = find_threshold(series, kind)
    assert repr(found) == repr(oracles.looped_threshold(series, kind))


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


def test_golden_thresholds_lie_on_the_closed_forms(tmp_path, pure_rows):
    # the signed concurrences cross zero transversally; C^2 only touches zero, and
    # interpolating it put ESD 1.75e-3 late on this grid
    write_sweep(pure_rows, pure_config(), tmp_path)
    found = json.loads((tmp_path / "thresholds.json").read_text())
    assert abs(found["esd"] - P_ESD) <= 5e-5 and abs(found["esb"] - P_ESB) <= 5e-5, found


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


# Columns the concurrence floor biases near p = 0 (the S1S2 pair) and p = 1 (E1E2), where
# one Wootters root of the pair is small but not zero: measures._wootters_roots zeroes
# eigenvalues of rho rho~ below 1e-9, which drops that root from C.
FLOORED_NEAR_0 = ("c2_s1s2", "gamma_s1s2", "residual_pair", "residual_s1", "residual_s2",
                  "tau_u_s1_s2e2", "tau_u_s2_s1e1")
FLOORED_NEAR_1 = ("c2_e1e2", "gamma_e1e2", "residual_pair", "residual_e1", "residual_e2",
                  "tau_u_e1_s2e2", "tau_u_e2_s1e1")


def test_fine_sweep_matches_the_closed_forms_off_the_concurrence_floor():
    rows = sweep(pure_config(steps=1001))
    floored = set()
    for row in rows:
        for column, want in oracles.damped_family_row(ALPHA, BETA, row.p, row.p).items():
            err = abs(getattr(row.report, column) - want)
            if err > 1e-10:
                assert err < 1e-4, (row.p, column, err)  # the floor's size, not a wrong value
                floored.add((round(row.p, 3), column))
    low, high = (0.001, 0.002, 0.003, 0.004, 0.005), (0.995, 0.996, 0.997, 0.998, 0.999)
    expected = ({(p, c) for p in low for c in FLOORED_NEAR_0}
                | {(p, c) for p in high for c in FLOORED_NEAR_1})
    assert len(expected) == 70
    assert floored == expected


def _fail_evolve_at_half(monkeypatch, message="synthetic failure"):
    """Make ``pipeline.evolve`` raise ``message`` on any stack that holds p = 0.5, before
    any estimator runs."""
    import entredist.pipeline as pipeline

    real = pipeline.evolve

    def flaky(state, p1, p2):
        if 0.5 in np.atleast_1d(p1):
            raise ValueError(message)
        return real(state, p1, p2)

    monkeypatch.setattr(pipeline, "evolve", flaky)


def _artifact_rows(kind, monkeypatch):
    """Fresh rows and their config for one of the sweep.json oracle cases."""
    if kind == "empty":
        return [], pure_config(steps=3)
    initial = (InitialSpec(mixed_system=mixed_system_with_purity(ALPHA, BETA, 0.82))
               if kind == "mixed" else InitialSpec(alpha=ALPHA, beta=BETA))
    config = SweepConfig(initial=initial, p_values=tuple(np.linspace(0.0, 1.0, 11)),
                         tomography=kind == "tomography", shots=2000, seed=5)
    if kind == "failed":
        # an error text with a quote, a backslash, a newline and the record boundary
        # of the indent=1 layout must still encode as the reference does
        _fail_evolve_at_half(monkeypatch, 'synthetic "failure" \\ at\n},\n  {"p": 0.5')
    if kind == "failed-csv":
        # a comma, a lone carriage return and edge spaces: the CSV quoting cases
        _fail_evolve_at_half(monkeypatch, " synthetic, failure\rat p = 0.5 ")
    return sweep(config), config


def _assert_reference_artifacts(rows, out):
    """sweep.json and the four CSVs in ``out`` are byte-equal to the reference encoders'
    text for ``rows``."""
    records = list(map(oracles.row_record, rows))
    assert (out / "sweep.json").read_bytes() == oracles.indented_json(records).encode()
    assert (out / "sweep.csv").read_bytes() == oracles.csv_text(CSV_COLUMNS, records).encode()
    figure_records = [dict(record, witness_threshold=2 / 3) for record in records]
    for figure, columns in FIGURE_COLUMNS.items():
        want = oracles.csv_text(columns, figure_records).encode()
        assert (out / f"{figure}.csv").read_bytes() == want, figure


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("kind", ["pure", "mixed", "tomography", "failed", "failed-csv", "empty"])
def test_sweep_artifacts_match_the_reference_encodings(monkeypatch, tmp_path, kind):
    rows, config = _artifact_rows(kind, monkeypatch)
    assert sum(r.error is not None for r in rows) == kind.startswith("failed")
    write_sweep(rows, config, tmp_path)
    _assert_reference_artifacts(rows, tmp_path)


def test_non_finite_and_signed_zero_cells_match_the_reference_encodings(tmp_path):
    # NaN and the infinities are where json.dumps departs from repr, and -0.0 keeps its sign
    numbers = [0.25, math.nan, math.inf, -math.inf, -0.0, 1e-5, 1e16, 0.1, 2 / 3, 1e-300,
               -1.5e-12, 123456789.123, 0.0, 1.0, -2.0, 5e-324, 1.7976931348623157e308,
               0.3, math.nan, 7.0]
    report = TangleReport._make([*numbers, True])
    rows = [SweepRow(0.25, report, "qp", "qp", True, 7),
            SweepRow(0.5, report._replace(p=0.5, c2_e1e2=0.5, genuine4=False), "lb", "qp", True, 8),
            SweepRow(0.75, None, "qp", "qp", True, 9, error="ValueError: lone\rreturn")]
    write_sweep(rows, pure_config(steps=3), tmp_path)
    _assert_reference_artifacts(rows, tmp_path)


def test_write_sweep_builds_each_rows_cells_once(monkeypatch, tmp_path):
    rows = sweep(pure_config(steps=7))
    real, built = SweepRow.cells.func, []
    counting = cached_property(lambda row: built.append(row.p) or real(row))
    counting.__set_name__(SweepRow, "cells")
    monkeypatch.setattr(SweepRow, "cells", counting)
    write_sweep(rows, pure_config(steps=7), tmp_path)
    assert built == [row.p for row in rows]
    assert all(len(row.cells) == len(CSV_COLUMNS) for row in rows)


def test_rows_to_json_mirror(pure_rows, tmp_path):
    # the returned text is what write_sweep writes and what the reference encoder gives
    for rows in ([], pure_rows[:3]):
        text = rows_to_json(rows)
        write_sweep(rows, pure_config(steps=3), tmp_path)
        assert (tmp_path / "sweep.json").read_bytes() == text.encode()
        assert text == oracles.indented_json(list(map(oracles.row_record, rows)))
    payload = json.loads(text)
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

    def flaky(state, p):
        # fails on any stack that holds the second grid point, whatever its size
        if config.p_values[1] in np.atleast_1d(p):
            raise ValueError("synthetic failure")
        return real(state, p)

    monkeypatch.setattr(pipeline, "compute_report", flaky)
    rows = sweep(config)
    assert [r.error is None for r in rows] == [True, False, True, True]
    assert "synthetic failure" in rows[1].error

    measures = CSV_COLUMNS[1:CSV_COLUMNS.index("estimator_pair")]
    record = json.loads(rows_to_json(rows))[1]
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
    config = SweepConfig(initial=initial, p_values=(0.1, 0.5, 0.9),
                         tomography=kind == "tomography", shots=2000, seed=5)
    _fail_evolve_at_half(monkeypatch)
    left, failed, right = json.loads(rows_to_json(sweep(config)))
    assert "synthetic failure" in failed["error"] and not left["error"] and not right["error"]
    provenance = ("estimator_pair", "estimator_unbalanced", "tomography")
    assert [failed[k] for k in provenance] == [left[k] for k in provenance] == [right[k] for k in provenance]
    assert (left["estimator_pair"], left["estimator_unbalanced"]) == (
        ("pure", "pure") if kind == "pure" else ("qp", "qp"))
    seeds = [left["seed"], failed["seed"], right["seed"]]
    assert seeds == ([5, 6, 7] if kind == "tomography" else ["", "", ""])


SEVEN = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)  # passes of 3, 3 and 1 at STACK_ROWS = 3


def _counted_evolve(monkeypatch, fails):
    """Make ``pipeline.evolve`` raise on any stack that holds a point ``fails(p)`` names;
    returns the list of the stacks it was called on."""
    import entredist.pipeline as pipeline

    real, calls = pipeline.evolve, []

    def counted(state, p1, p2):
        calls.append(np.atleast_1d(p1).tolist())
        if any(fails(p) for p in calls[-1]):
            raise ValueError("synthetic failure")
        return real(state, p1, p2)

    monkeypatch.setattr(pipeline, "evolve", counted)
    monkeypatch.setattr(pipeline, "STACK_ROWS", 3)
    return calls


def test_failing_passes_retry_each_point_once(monkeypatch):
    config = SweepConfig(initial=InitialSpec(alpha=ALPHA, beta=BETA), p_values=SEVEN,
                         tomography=True, shots=2000, seed=11)
    calls = _counted_evolve(monkeypatch, lambda p: True)
    rows = sweep(config)
    assert [r.p for r in rows] == list(SEVEN)
    assert all(r.report is None and "synthetic failure" in r.error for r in rows)
    assert [r.seed for r in rows] == list(range(11, 18))
    assert {(r.estimator_pair, r.estimator_unbalanced, r.tomography) for r in rows} == {
        ("qp", "qp", True)}
    # each failing pass of n points costs n single-point retries and no more
    assert calls == [list(SEVEN[:3]), *[[p] for p in SEVEN[:3]],
                     list(SEVEN[3:6]), *[[p] for p in SEVEN[3:6]],
                     [SEVEN[6]], [SEVEN[6]]]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("failing", [(0, 6), (2, 3)], ids=["first-and-last", "pass-boundary"])
def test_failures_stay_on_their_rows_across_passes(monkeypatch, failing):
    config = SweepConfig(initial=InitialSpec(alpha=ALPHA, beta=BETA), p_values=SEVEN,
                         tomography=True, shots=2000, seed=11)
    clean = sweep(config)
    calls = _counted_evolve(monkeypatch, lambda p: p in [SEVEN[i] for i in failing])
    rows = sweep(config)
    assert [k for k, r in enumerate(rows) if r.error] == list(failing)
    assert [r for k, r in enumerate(rows) if k not in failing] == [
        r for k, r in enumerate(clean) if k not in failing]
    assert [r.seed for r in rows] == [r.seed for r in clean] == list(range(11, 18))
    assert {(r.estimator_pair, r.estimator_unbalanced, r.tomography) for r in rows} == {
        (clean[0].estimator_pair, clean[0].estimator_unbalanced, True)}
    failed_passes = {k // 3 for k in failing}
    assert len(calls) == 3 + sum(len(SEVEN[3 * i:3 * i + 3]) for i in failed_passes)


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
    payload = {  # every key of the amplitude form
        "alpha_re": float(ALPHA),
        "alpha_im": 0.0,
        "beta_re": 0.0,
        "beta_im": float(BETA),
        "p_grid": {"start": 0.0, "stop": 1.0, "steps": 11},
        "estimator": "qp",
        "tomography": {"enabled": True, "shots": 123},
        "seed": 9,
        "out_dir": "runs",
    }
    with pytest.warns(FutureWarning, match="estimator setting is ignored"):
        cfg = SweepConfig.from_json(payload)
    assert len(cfg.p_values) == 11 and cfg.initial.beta == 1j * BETA
    assert cfg.tomography and cfg.shots == 123 and cfg.seed == 9 and cfg.out_dir == "runs"

    cfg = SweepConfig.from_json({"alpha_re": 1.0, "beta_re": 0.0, "p_grid": [0.0, 0.25, 1.0]})
    assert cfg.p_values == (0.0, 0.25, 1.0)

    with pytest.raises(ValueError, match="within"):
        SweepConfig.from_json({"alpha_re": 1.0, "beta_re": 0.0, "p_grid": [0.0, 1.5]})
    with pytest.raises(ValueError, match="grid needs at least 2 points"):
        SweepConfig.from_json({"alpha_re": 1.0, "beta_re": 0.0, "p_grid": [0.5]})
    with pytest.raises(ValueError, match="steps"):
        SweepConfig.from_json({"alpha_re": 1.0, "beta_re": 0.0,
                               "p_grid": {"steps": 1}})
    with pytest.raises(ValueError, match="estimator must be 'lb' or 'qp', got 'exact'"):
        SweepConfig.from_json({"alpha_re": 1.0, "beta_re": 0.0, "estimator": "exact"})

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
    for payload in ({"seed": -1}, {"seed": -1, "tomography": {"enabled": True}}):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SweepConfig.from_json({"alpha_re": 1.0, "beta_re": 0.0, **payload})
    with pytest.raises(ValueError, match="seed must be non-negative"):
        pure_config(tomography=True, seed=-1)
    assert pure_config(seed=0).seed == 0


@pytest.mark.parametrize("key", UNKNOWN_CONFIG_KEYS)
def test_config_rejects_unknown_keys(key):
    extra, where = UNKNOWN_CONFIG_KEYS[key]
    with pytest.raises(ValueError, match=f"unknown {where} keys"):
        SweepConfig.from_json({"alpha_re": 1.0, "beta_re": 0.0, **extra})


@pytest.mark.parametrize("payload", [[], "{}", 5, None], ids=["list", "string", "number", "null"])
def test_config_must_be_a_json_object(payload):
    with pytest.raises(ValueError, match="must be a JSON object, got a"):
        SweepConfig.from_json(payload)


@pytest.mark.parametrize("field, value, message", [
    ("seed", 1.5, "seed must be an integer"),
    ("shots", 2.5, "shots must be an integer"),
    ("tomography", "yes", "tomography must be True or False"),
    ("initial", "x", "initial must be an InitialSpec, got 'x'"),
    ("out_dir", 5, "out_dir must be a string or None, got 5"),
    ("p_values", (0.0, "0.5"), "p_values entry must be a number, got '0.5'"),
    ("p_values", (0.0, True), "p_values entry must be a number, got True"),
])
def test_sweep_config_checks_its_own_field_types(field, value, message):
    with pytest.raises(ValueError, match=message):
        pure_config(steps=3, **{field: value})
    config = pure_config(steps=3, seed=2.0, shots=1000.0)
    assert (type(config.seed), type(config.shots)) == (int, int)
    assert '"seed": 2,' in config.canonical_json()


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


def _mixed_config(tmp_path, system, estimator=None, steps=101):
    """A mixed-input config read from JSON, naming the legacy ``estimator`` if given; a
    named one warns once."""
    save_state(system, tmp_path / "system.json")
    payload = {"mixed_system_file": "system.json", "p_grid": {"steps": steps}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = SweepConfig.from_json({**payload, **({"estimator": estimator} if estimator else {})},
                                       base_dir=tmp_path)
    assert [w.category for w in caught] == [FutureWarning] * (estimator is not None)
    return config


def _assert_exact_pair_cut_residual(rows, system):
    """Every row's residual_pair is C(rho_S)^2 less its four pairwise terms."""
    tangle = concurrence(system) ** 2
    for row in rows:
        r = row.report
        want = tangle - (r.c2_s2e1 + r.c2_s1e2 + r.c2_s1s2 + r.c2_e1e2)
        assert r.residual_pair == pytest.approx(want, abs=1e-12), row.p


@pytest.mark.parametrize("purity", [0.82, 0.9])
@pytest.mark.parametrize("estimator", ["lb", "qp", None], ids=["lb", "qp", "none"])
def test_mixed_fixture_sweep_matches_the_closed_forms(tmp_path, purity, estimator):
    # the legacy estimator input changes nothing; the pair-cut tangle is the fixture's
    # C^2 = 4 (v alpha beta - q)^2 (see oracles.mixed_fixture_row), on every row
    system = mixed_system_with_purity(ALPHA, BETA, purity)
    config = _mixed_config(tmp_path, system, estimator)
    rows = sweep(config)
    assert {(row.estimator_pair, row.estimator_unbalanced) for row in rows} == {("qp", "qp")}
    for row in rows:
        for column, want in oracles.mixed_fixture_row(ALPHA, BETA, purity, row.p).items():
            assert getattr(row.report, column) == pytest.approx(want, abs=1e-12), (row.p, column)
    assert concurrence(system) == pytest.approx(oracles.xstate_concurrence(system.entries), abs=1e-12)
    _assert_exact_pair_cut_residual(rows, system)
    # the gamma_* crossings sit within interpolation error of the closed-form thresholds
    # (measured 4.9e-6 at P = 0.82 and 2.1e-5 at P = 0.9)
    write_sweep(rows, config, tmp_path)
    found = json.loads((tmp_path / "thresholds.json").read_text())
    want = oracles.mixed_fixture_thresholds(ALPHA, BETA, purity)
    tol = {0.82: 1e-5, 0.9: 5e-5}[purity]
    assert found == pytest.approx(want, abs=tol)


@pytest.mark.filterwarnings("ignore::UserWarning")  # random states' single-qubit residuals
@pytest.mark.parametrize("estimator", [None, "lb"], ids=["none", "lb"])
def test_mixed_residual_pair_is_the_exact_pair_cut_tangle(tmp_path, estimator):
    # the dilations are local unitaries on (S1,E1) and (S2,E2), so a damped row's pair-cut
    # tangle is the two-qubit convex roof C(rho_S)^2 at every p: 24 random system states,
    # six of each rank 1 to 4
    rng = np.random.default_rng(31)
    for rank in [1, 2, 3, 4] * 6:
        kets = np.array([haar_state(2, rng).amplitudes for _ in range(rank)])
        weights = rng.dirichlet(np.ones(rank))
        system = DensityMatrix(np.einsum("k,ki,kj->ij", weights, kets, kets.conj()))
        _assert_exact_pair_cut_residual(sweep(_mixed_config(tmp_path, system, estimator, 11)),
                                        system)


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


def _check(name, seed=0):
    """The named check of ``invariant_checks(seed)``: (passed, detail)."""
    [(ok, detail)] = [(ok, detail) for n, ok, detail in invariant_checks(seed) if n == name]
    return ok, detail


def test_invariant_check_of_the_mixed_pair_cut_tangle(monkeypatch):
    import entredist.measures as measures
    import entredist.pipeline as pipeline

    name = "quasi-pure pair-cut tangle is C(rho_S)^2 on mixed rows"
    assert _check(name) == (True, _check(name)[1])
    # the purity-gap bound falls 0.046 below the roof on the purity-0.82 fixture
    monkeypatch.setattr(pipeline, "tangle_quasipure", measures.tangle_lower_bound)
    ok, detail = _check(name)
    assert not ok and float(detail.split()[2]) > 0.04


def test_invariant_check_of_the_mixed_fixture_thresholds(monkeypatch):
    import entredist.pipeline as pipeline

    name = "mixed-fixture ESD and ESB at the closed form"
    for seed in (0, 7, 42, 2026):
        assert _check(name, seed)[0], seed
    # a fixture of purity 0.9 moves ESD to 0.378, off the purity-0.82 closed form (0.3503)
    real = pipeline.mixed_system_with_purity
    monkeypatch.setattr(pipeline, "mixed_system_with_purity",
                        lambda alpha, beta, purity: real(alpha, beta, 0.9))
    ok, detail = _check(name)
    assert not ok and float(detail.split()[2]) > 0.02


def test_invariant_check_of_the_family_concurrences_off_the_diagonal(monkeypatch):
    import entredist.pipeline as pipeline

    name = "closed-form pairwise concurrences at random (p1, p2)"
    for seed in (0, 1, 2026):
        assert _check(name, seed)[0], seed
    # a dilation that damps both photons at p1 passes the diagonal check, not this one
    real = pipeline.evolve
    monkeypatch.setattr(pipeline, "evolve", lambda state, p1, p2: real(state, p1, p1))
    assert _check("closed-form pairwise concurrences")[0]
    assert not _check(name)[0]
