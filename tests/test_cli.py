import csv
import json
import warnings

import numpy as np
import pytest

from conftest import ALPHA, BETA, UNKNOWN_CONFIG_KEYS
from entredist.cli import main
from entredist.qcore import basis_state, state_to_json


@pytest.fixture()
def config_path(tmp_path):
    payload = {
        "alpha_re": float(ALPHA),
        "beta_re": float(BETA),
        "p_grid": {"start": 0.0, "stop": 1.0, "steps": 21},
        "seed": 7,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_sweep_writes_all_artifacts(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    for name in ("sweep.csv", "fig2.csv", "fig3.csv", "fig4.csv",
                 "sweep.json", "thresholds.json", "manifest.json"):
        assert (out / name).exists(), name
    assert "wrote 21 rows" in capsys.readouterr().out
    thresholds = json.loads((out / "thresholds.json").read_text())
    assert thresholds["esd"] == pytest.approx(ALPHA / BETA, abs=0.05)
    assert thresholds["esb"] == pytest.approx(1 - ALPHA / BETA, abs=0.05)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7


def test_sweep_is_byte_deterministic(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(config_path), "--out", str(out_b)]) == 0
    names = sorted(path.name for path in out_a.iterdir())
    assert names == sorted(["sweep.csv", "fig2.csv", "fig3.csv", "fig4.csv", "sweep.json",
                            "thresholds.json", "manifest.json"])
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_thresholds_prints_json(config_path, capsys):
    assert main(["thresholds", "--config", str(config_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"esd", "esb"}
    with pytest.warns(FutureWarning):
        assert main(["thresholds", "--config", str(config_path), "--seed", "3",
                     "--shots", "500", "--estimator", "qp"]) == 0
    assert json.loads(capsys.readouterr().out) == payload


def test_tomo_roundtrip_small(tmp_path, config_path, capsys):
    out = tmp_path / "tomo"
    code = main([
        "tomo-roundtrip", "--config", str(config_path),
        "--out", str(out), "--p", "0.5", "--shots", "3000", "--seed", "1",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["shots"] == 3000
    assert report["fidelity_to_true"] > 0.9
    assert (out / "counts.csv").exists()
    assert (out / "settings.json").exists()
    assert (out / "rho_true.json").exists() and (out / "rho_mle.json").exists()
    counts = (out / "counts.csv").read_text().splitlines()
    assert len(counts) == 257


@pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
def test_tomo_roundtrip_rejects_p_outside_unit_interval(tmp_path, config_path, capsys, p):
    out = tmp_path / "tomo"
    assert main(["tomo-roundtrip", "--config", str(config_path), "--out", str(out), "--p", p]) == 1
    assert f"error: damping strength p={float(p)} outside [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_tomo_roundtrip_is_byte_deterministic(tmp_path, config_path):
    argv = ["tomo-roundtrip", "--config", str(config_path), "--p", "0.25",
            "--shots", "100000", "--seed", "5"]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    for name in ("counts.csv", "settings.json", "rho_mle.json", "report.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_tomo_roundtrip_mixed_reports_uhlmann_fidelity(tmp_path):
    from entredist.channels import mixed_system_with_purity

    (tmp_path / "system.json").write_text(
        json.dumps(state_to_json(mixed_system_with_purity(ALPHA, BETA, 0.82))))
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps({"mixed_system_file": "system.json", "seed": 3}))
    out = tmp_path / "tomo"
    assert main(["tomo-roundtrip", "--config", str(cfg), "--out", str(out),
                 "--p", "0.3", "--shots", "100000"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "fidelity_between_spectra" not in report
    assert isinstance(report["fidelity_to_true"], float)
    assert 0.9 < report["fidelity_to_true"] <= 1.0
    assert report["gap_bound"] >= 0.0
    assert report["converged"] == (report["gap_bound"] <= 1.0)


def test_check_invariants_passes(capsys):
    assert main(["check-invariants", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "FAIL" not in out


def test_check_invariants_failure_exits_two(monkeypatch, capsys):
    import entredist.cli as cli

    monkeypatch.setattr(
        cli, "invariant_checks",
        lambda seed=0: [("synthetic", False, "forced failure")],
    )
    assert main(["check-invariants"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_bad_arguments_exit_one(tmp_path, capsys):
    assert main(["sweep"]) == 1  # missing --config
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alpha_re": 0.9, "beta_re": 0.9}))
    assert main(["sweep", "--config", str(bad)]) == 1
    assert main(["tomo-roundtrip", "--config", str(bad)]) == 1

    pure = {"alpha_re": 1.0, "beta_re": 0.0}
    good = tmp_path / "good.json"
    good.write_text(json.dumps(pure))
    # only sweep and thresholds take --estimator
    assert main(["tomo-roundtrip", "--config", str(good), "--estimator", "lb"]) == 1

    (tmp_path / "system.json").write_text(json.dumps(state_to_json(basis_state("00").density())))
    for payload in (
        [pure],
        {**pure, "alpha_re": "abc"},
        {**pure, "tomography": 5},
        {**pure, "tomography": {"enabled": "false"}},
        {**pure, "p_grid": 5},
        {"mixed_system_file": 5},
        {"mixed_system_file": "system.json", "alpha_re": 1.0},
        {**pure, "p_grid": {"steps": 2.7}},
        {**pure, "seed": 1.9},
        {**pure, "seed": True},
        {**pure, "seed": -1},
        {**pure, "tomography": {"enabled": True, "seed": -1}},
        {**pure, "p_grid": {"start": False, "stop": True, "steps": 3}},
        {**pure, "p_grid": {"start": "0", "stop": 1.0, "steps": 3}},
        {**pure, "p_grid": [0.0, True]},
        {**pure, "p_grid": [0.0, "0.5"]},
        {**pure, "p_grid": "01"},
        {**pure, "alpha_re": True},
        {**pure, "beta_im": "0"},
        {**pure, "out_dir": 5},
    ):
        bad.write_text(json.dumps(payload))
        for command in ("sweep", "thresholds", "tomo-roundtrip"):
            capsys.readouterr()
            assert main([command, "--config", str(bad), "--out", str(tmp_path / "out"),
                         "--shots", "10"]) == 1, (command, payload)
            assert "error: invalid config" in capsys.readouterr().err, (command, payload)


def test_mixed_system_file_with_non_number_entries_exits_one(tmp_path, capsys):
    # |00><00| on two qubits, spelled with a string n_qubits and boolean entries
    payload = {"n_qubits": "2", "re": [True] + [False] * 15, "im": [False] * 16}
    (tmp_path / "system.json").write_text(json.dumps(payload))
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps({"mixed_system_file": "system.json", "p_grid": {"steps": 3}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "error: invalid config: n_qubits must be an integer" in capsys.readouterr().err


def test_mixed_system_file_without_im_exits_one_naming_it(tmp_path, capsys):
    payload = state_to_json(basis_state("00").density())
    del payload["im"]
    (tmp_path / "system.json").write_text(json.dumps(payload))
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps({"mixed_system_file": "system.json", "p_grid": {"steps": 3}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "error: invalid config: a state needs the keys n_qubits, re and im; missing ['im']" \
        in capsys.readouterr().err


def test_parser_is_built_once(monkeypatch, capsys):
    import entredist.cli as cli

    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt by main"))
    monkeypatch.setattr(cli, "invariant_checks", lambda seed=0: [])
    assert main(["check-invariants"]) == 0
    assert main(["sweep"]) == 1  # argparse errors still exit 1


def test_successive_calls_share_no_parsed_state(tmp_path, config_path):
    # one parser serves every call: the flags of one call must not reach the next
    command = ["thresholds", "--config", str(config_path), "--out"]
    assert main([*command, str(tmp_path / "before")]) == 0
    with pytest.warns(FutureWarning):
        assert main([*command, str(tmp_path / "flags"), "--seed", "99", "--shots", "500",
                     "--estimator", "qp"]) == 0
    assert main([*command, str(tmp_path / "after")]) == 0
    manifest = {name: json.loads((tmp_path / name / "manifest.json").read_text())
                for name in ("before", "flags", "after")}
    assert manifest["flags"]["seed"] == 99
    assert manifest["after"] == manifest["before"] and manifest["after"]["seed"] == 7


def test_negative_seed_override_exits_one(tmp_path, config_path, capsys):
    for command in ("sweep", "thresholds", "tomo-roundtrip"):
        capsys.readouterr()
        assert main([command, "--config", str(config_path), "--out", str(tmp_path / "out"),
                     "--seed", "-1"]) == 1, command
        assert "seed must be non-negative" in capsys.readouterr().err, command


def test_flags_do_not_mend_a_bad_config_value(tmp_path, config_path, capsys):
    # the file is checked on its own, before the flags replace its values
    pure = json.loads(config_path.read_text())
    bad = tmp_path / "bad.json"
    for payload, flag, message in (
        ({**pure, "seed": -1}, ["--seed", "3"], "seed must be non-negative"),
        ({**pure, "seed": "7"}, ["--seed", "3"], "seed must be an integer"),
        ({**pure, "tomography": {"shots": 0}}, ["--shots", "500"], "shots must be positive"),
        ({**pure, "tomography": {"shots": 2.5}}, ["--shots", "500"], "tomography.shots"),
    ):
        bad.write_text(json.dumps(payload))
        for command in ("sweep", "thresholds", "tomo-roundtrip"):
            capsys.readouterr()
            assert main([command, "--config", str(bad), "--out", str(tmp_path / "out"),
                         *flag]) == 1, (command, payload)
            assert message in capsys.readouterr().err, (command, payload)


@pytest.mark.parametrize("where", ["flag", "config"])
def test_shots_beyond_int64_exit_one_before_any_write(where, tmp_path, config_path, capsys):
    # a binomial draw takes at most 2**63 - 1 shots; more is a config error, not a traceback
    if where == "config":
        payload = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**payload, "tomography": {"shots": 1e20}}))
    flag = ["--shots", str(2 ** 63)] if where == "flag" else []
    for command in ("sweep", "thresholds", "tomo-roundtrip"):
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--config", str(config_path), "--out", str(out), *flag]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and "shots must be positive and at most" in err, command
        assert not out.exists(), command


# The file each command writes; thresholds with neither --out nor out_dir only prints.
WRITTEN = {"thresholds": "thresholds.json", "sweep": "sweep.csv", "tomo-roundtrip": "report.json"}


@pytest.mark.parametrize("command", WRITTEN)
def test_commands_write_under_the_config_out_dir(command, tmp_path, config_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", str(config_path), "--shots", "2000"]) == 0
    if command == "thresholds":
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]  # only printed
    else:
        assert (tmp_path / WRITTEN[command]).exists()
    out = tmp_path / "from_config"
    cfg = tmp_path / "with_out_dir.json"
    cfg.write_text(json.dumps({**json.loads(config_path.read_text()), "out_dir": str(out)}))
    argv = [command, "--config", str(cfg), "--shots", "2000"]
    # --out overrides the config's out_dir: nothing is written there
    assert main([*argv, "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / WRITTEN[command]).exists() and not out.exists()
    capsys.readouterr()
    assert main(argv) == 0
    if command == "thresholds":
        assert json.loads((out / "thresholds.json").read_text()) == json.loads(capsys.readouterr().out)
    assert json.loads((out / "manifest.json").read_text())["seed"] == 7
    assert (tmp_path / "flag" / WRITTEN[command]).read_bytes() == (out / WRITTEN[command]).read_bytes()


@pytest.mark.parametrize("key", UNKNOWN_CONFIG_KEYS)
def test_unknown_config_keys_exit_one(key, tmp_path, config_path, capsys):
    extra, where = UNKNOWN_CONFIG_KEYS[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(config_path.read_text()), **extra}))
    for command in WRITTEN:
        capsys.readouterr()
        assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 1, command
        assert f"error: invalid config: unknown {where} keys" in capsys.readouterr().err, command
    assert not (tmp_path / "out").exists()


def test_unknown_figure_protected_internally(config_path, tmp_path):
    # argparse rejects unknown subcommands with exit code 1
    assert main(["render", "--config", str(config_path)]) == 1


def test_estimator_flag_threads_through(tmp_path, config_path):
    out = tmp_path / "qp"
    with pytest.warns(FutureWarning):
        assert main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--estimator", "qp"]) == 0
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    idx = header.split(",").index("estimator_pair")
    assert {r.split(",")[idx] for r in rows} == {"pure"}  # pure rows ignore it

    mixed_system = tmp_path / "system.json"
    from entredist.channels import mixed_system_with_purity

    mixed_system.write_text(json.dumps(state_to_json(mixed_system_with_purity(ALPHA, BETA, 0.82))))
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps({
        "mixed_system_file": "system.json",
        "p_grid": {"steps": 5},
    }))
    out2 = tmp_path / "qp2"
    with pytest.warns(FutureWarning):
        assert main(["sweep", "--config", str(cfg), "--out", str(out2),
                     "--estimator", "lb"]) == 0
    header, *rows = (out2 / "sweep.csv").read_text().splitlines()
    idx = header.split(",").index("estimator_pair")
    assert {r.split(",")[idx] for r in rows} == {"qp"}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_legacy_estimator_input_changes_no_byte(tmp_path):
    # a mixed config naming "lb", "qp" or no estimator, by key, by flag or both, writes the
    # same sweep.csv and manifest.json; each run that names one warns exactly once
    from entredist.channels import mixed_system_with_purity

    (tmp_path / "system.json").write_text(
        json.dumps(state_to_json(mixed_system_with_purity(ALPHA, BETA, 0.82))))
    runs = {}
    for key in (None, "lb", "qp"):
        cfg = tmp_path / f"mixed-{key}.json"
        cfg.write_text(json.dumps({"mixed_system_file": "system.json", "p_grid": {"steps": 11},
                                   **({"estimator": key} if key else {})}))
        for flag in (None, "lb", "qp"):
            out = tmp_path / f"out-{key}-{flag}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["sweep", "--config", str(cfg), "--out", str(out),
                             *(["--estimator", flag] if flag else [])]) == 0
            legacy = [w for w in caught if w.category is FutureWarning]
            assert len(legacy) == (key is not None or flag is not None), (key, flag)
            runs[key, flag] = [(out / name).read_bytes() for name in ("sweep.csv", "manifest.json")]
    assert all(files == runs[None, None] for files in runs.values())
    assert b",qp,qp,false,," in runs[None, None][0]


def test_sweep_warns_of_failed_rows(tmp_path, config_path, monkeypatch, capsys):
    import entredist.pipeline as pipeline

    real = pipeline.compute_report

    def flaky(state, p):
        if 0.5 in np.atleast_1d(p):
            raise ValueError("synthetic failure")
        return real(state, p)

    monkeypatch.setattr(pipeline, "compute_report", flaky)
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "warning: 1 rows failed: p = [0.5]\n"
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 21
    assert [row["p"] for row in rows if row["error"]] == ["0.5"]
    assert rows[10]["error"] == "ValueError: synthetic failure" and rows[10]["c2_s1s2"] == ""
