import json

import pytest

from conftest import ALPHA, BETA
from entredist.cli import main
from entredist.qcore import basis_state


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
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
    assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()


def test_thresholds_prints_json(config_path, capsys):
    assert main(["thresholds", "--config", str(config_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"esd", "esb"}
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


def test_tomo_roundtrip_mixed_reports_uhlmann_fidelity(tmp_path):
    from entredist.channels import mixed_system_with_purity

    (tmp_path / "system.json").write_text(
        json.dumps(mixed_system_with_purity(ALPHA, BETA, 0.82).to_json()))
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

    (tmp_path / "system.json").write_text(json.dumps(basis_state("00").density().to_json()))
    for payload in (
        [pure],
        {**pure, "alpha_re": "abc"},
        {**pure, "tomography": 5},
        {**pure, "p_grid": 5},
        {"mixed_system_file": 5},
        {"mixed_system_file": "system.json", "alpha_re": 1.0},
    ):
        bad.write_text(json.dumps(payload))
        for command in ("sweep", "thresholds", "tomo-roundtrip"):
            capsys.readouterr()
            assert main([command, "--config", str(bad), "--out", str(tmp_path / "out"),
                         "--shots", "10"]) == 1, (command, payload)
            assert "error: invalid config" in capsys.readouterr().err, (command, payload)


def test_unknown_figure_protected_internally(config_path, tmp_path):
    # argparse rejects unknown subcommands with exit code 1
    assert main(["render", "--config", str(config_path)]) == 1


def test_estimator_flag_threads_through(tmp_path, config_path):
    out = tmp_path / "qp"
    assert main(["sweep", "--config", str(config_path), "--out", str(out),
                 "--estimator", "qp"]) == 0
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    idx = header.split(",").index("estimator_pair")
    assert {r.split(",")[idx] for r in rows} == {"pure"}  # pure rows ignore it

    mixed_system = tmp_path / "system.json"
    from entredist.channels import mixed_system_with_purity

    mixed_system.write_text(json.dumps(mixed_system_with_purity(ALPHA, BETA, 0.82).to_json()))
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps({
        "mixed_system_file": "system.json",
        "p_grid": {"steps": 5},
    }))
    out2 = tmp_path / "qp2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out2),
                 "--estimator", "qp"]) == 0
    header, *rows = (out2 / "sweep.csv").read_text().splitlines()
    idx = header.split(",").index("estimator_pair")
    assert {r.split(",")[idx] for r in rows} == {"qp"}
