"""Command-line entry point: sweeps, thresholds, tomography round trips, checks.

Exit codes: 0 on success, 1 on argument/configuration errors, 2 when the
invariant battery reports a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .channels import evolve, initial_state
from .measures import concurrence
from .pipeline import (
    SweepConfig,
    emit_csv,
    emit_plotdata,
    find_threshold,
    invariant_checks,
    rows_to_json,
    sweep,
    write_manifest,
)
from .qcore import DensityMatrix, fidelity_pure, partial_trace, psd_sqrt, purity, save_state
from .tomography import mle_reconstruct, save_counts, save_settings_manifest, simulate_counts


def _load_config(args) -> SweepConfig:
    path = Path(args.config)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read config {path}: {exc}") from exc
    if getattr(args, "seed", None) is not None:
        payload["seed"] = args.seed
    if getattr(args, "shots", None) is not None:
        payload.setdefault("tomography", {})["shots"] = args.shots
    if getattr(args, "estimator", None) is not None:
        payload["estimator"] = args.estimator
    try:
        return SweepConfig.from_json(payload, base_dir=path.parent)
    except (ValueError, KeyError) as exc:
        raise SystemExit(f"error: invalid config: {exc}") from exc


def _thresholds_payload(rows) -> dict:
    live = [r for r in rows if r.report is not None]
    esd = find_threshold([(r.p, r.report.c2_s1s2) for r in live], "esd")
    esb = find_threshold([(r.p, r.report.c2_e1e2) for r in live], "esb")
    return {"esd": esd, "esb": esb}


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    out = Path(args.out or config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    rows = sweep(config)
    emit_csv(rows, out / "sweep.csv")
    for figure in ("fig2", "fig3", "fig4"):
        emit_plotdata(rows, figure, out / f"{figure}.csv")
    (out / "sweep.json").write_text(json.dumps(rows_to_json(rows), indent=1))
    (out / "thresholds.json").write_text(json.dumps(_thresholds_payload(rows), indent=1))
    write_manifest(config, out)
    failed = [r.p for r in rows if r.error]
    if failed:
        print(f"warning: {len(failed)} rows failed: p = {failed}", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {out / 'sweep.csv'}")
    return 0


def _cmd_thresholds(args) -> int:
    config = _load_config(args)
    rows = sweep(config)
    payload = _thresholds_payload(rows)
    print(json.dumps(payload, indent=1))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "thresholds.json").write_text(json.dumps(payload, indent=1))
        write_manifest(config, out)
    return 0


def _uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clamped to [0, 1]."""
    root = psd_sqrt(rho.entries)
    value = float(psd_sqrt(root @ sigma.entries @ root).trace().real) ** 2
    return min(max(value, 0.0), 1.0)


def _cmd_tomo_roundtrip(args) -> int:
    config = _load_config(args)
    if not 0.0 <= args.p <= 1.0:
        raise SystemExit(f"error: --p must lie in [0, 1], got {args.p}")
    out = Path(args.out or config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)

    state = evolve(initial_state(config.initial), args.p, args.p)
    rho_true = state if isinstance(state, DensityMatrix) else state.density()
    records = simulate_counts(rho_true, config.shots, config.seed)
    result = mle_reconstruct(records)

    save_counts(records, out / "counts.csv")
    save_settings_manifest(out / "settings.json")
    save_state(rho_true, out / "rho_true.json")
    save_state(result.rho, out / "rho_mle.json")

    report = {
        "p": args.p,
        "shots": config.shots,
        "seed": config.seed,
        "iterations": result.iterations,
        "converged": result.converged,
        "log_likelihood": result.log_likelihood,
        "gap_bound": result.gap_bound,
        "purity_true": purity(rho_true),
        "purity_mle": purity(result.rho),
        "concurrence_error_s1s2": abs(
            concurrence(partial_trace(result.rho, ("S1", "S2")).entries)
            - concurrence(partial_trace(rho_true, ("S1", "S2")).entries)),
        "concurrence_error_e1e2": abs(
            concurrence(partial_trace(result.rho, ("E1", "E2")).entries)
            - concurrence(partial_trace(rho_true, ("E1", "E2")).entries)),
    }
    report["fidelity_to_true"] = (_uhlmann_fidelity(rho_true, result.rho)
                                  if isinstance(state, DensityMatrix)
                                  else fidelity_pure(result.rho, state))
    (out / "report.json").write_text(json.dumps(report, indent=1))
    write_manifest(config, out)
    print(json.dumps(report, indent=1))
    return 0


def _cmd_check_invariants(args) -> int:
    checks = invariant_checks(seed=args.seed if args.seed is not None else 0)
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed += not ok
    if failed:
        print(f"{failed} of {len(checks)} checks failed", file=sys.stderr)
        return 2
    print(f"all {len(checks)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entredist",
        description="Entanglement redistribution under local amplitude damping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a full sweep and write CSV/JSON artifacts")
    p_sweep.add_argument("--config", required=True, help="JSON sweep configuration")
    p_sweep.add_argument("--out", help="output directory (defaults to config out_dir or cwd)")
    p_sweep.add_argument("--seed", type=int, help="override the config seed")
    p_sweep.add_argument("--shots", type=int, help="override tomography shots")
    p_sweep.add_argument("--estimator", choices=("lb", "qp"), help="mixed-state pair-cut estimator")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_thr = sub.add_parser("thresholds", help="sweep and print the death/birth thresholds")
    p_thr.add_argument("--config", required=True)
    p_thr.add_argument("--out")
    p_thr.add_argument("--seed", type=int)
    p_thr.add_argument("--shots", type=int)
    p_thr.add_argument("--estimator", choices=("lb", "qp"))
    p_thr.set_defaults(func=_cmd_thresholds)

    p_tomo = sub.add_parser("tomo-roundtrip", help="simulate counts at one p and reconstruct")
    p_tomo.add_argument("--config", required=True)
    p_tomo.add_argument("--out")
    p_tomo.add_argument("--p", type=float, default=0.5, help="damping strength (default 0.5)")
    p_tomo.add_argument("--seed", type=int)
    p_tomo.add_argument("--shots", type=int)
    p_tomo.set_defaults(func=_cmd_tomo_roundtrip)

    p_chk = sub.add_parser("check-invariants", help="run the structural self-checks")
    p_chk.add_argument("--seed", type=int)
    p_chk.set_defaults(func=_cmd_check_invariants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad arguments; the contract wants 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return exc.code or 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
