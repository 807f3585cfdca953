"""Command-line entry point: sweeps, thresholds, tomography round trips, checks.

Exit codes: 0 on success, 1 on argument/configuration errors, 2 when the
invariant battery reports a failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .channels import evolve, initial_state
from .measures import concurrence
from .pipeline import SweepConfig, invariant_checks, sweep, thresholds, write_manifest, write_sweep
from .qcore import (DensityMatrix, fidelity_pure, psd_sqrt, purity, resolve_slots, save_state,
                    state_marginal)
from .tomography import mle_reconstruct, save_counts, save_settings_manifest, simulate_counts


def _load_config(args) -> SweepConfig:
    """The config file, checked on its own, then the flags given replacing its values; a
    legacy ``--estimator`` replaces the file's, so only the parse warns, once."""
    path = Path(args.config)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if getattr(args, "estimator", None) is not None and isinstance(payload, dict):
        payload = {**payload, "estimator": args.estimator}
    flags = {"out_dir": args.out, "seed": args.seed, "shots": args.shots}
    try:
        config = SweepConfig.from_json(payload, base_dir=path.parent)
        return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"invalid config: {exc}") from exc


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    out = Path(config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    rows = sweep(config)
    write_sweep(rows, config, out)
    failed = [r.p for r in rows if r.error]
    if failed:
        print(f"warning: {len(failed)} rows failed: p = {failed}", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {out / 'sweep.csv'}")
    return 0


def _cmd_thresholds(args) -> int:
    config = _load_config(args)
    text = json.dumps(thresholds(sweep(config)), indent=1)
    print(text)
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "thresholds.json").write_text(text)
        write_manifest(config, out)
    return 0


def _uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clamped to [0, 1]."""
    root = psd_sqrt(rho.entries)
    value = float(psd_sqrt(root @ sigma.entries @ root).trace().real) ** 2
    return min(max(value, 0.0), 1.0)


def _cmd_tomo_roundtrip(args) -> int:
    config = _load_config(args)
    state = evolve(initial_state(config.initial), args.p, args.p)  # checks p before any write
    out = Path(config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)

    rho_true = state if isinstance(state, DensityMatrix) else state.density()
    counts = simulate_counts(rho_true, config.shots, config.seed)
    result = mle_reconstruct(counts)

    save_counts(counts, out / "counts.csv")
    save_settings_manifest(out / "settings.json")
    save_state(rho_true, out / "rho_true.json")
    save_state(result.rho, out / "rho_mle.json")

    # each pair's concurrence of the fit and of the truth, from one stacked marginal
    fit_and_truth = np.stack([result.rho.entries, rho_true.entries])
    c_s1s2, c_e1e2 = (concurrence(state_marginal(fit_and_truth, resolve_slots(pair, 4)))
                      for pair in (("S1", "S2"), ("E1", "E2")))
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
        "concurrence_error_s1s2": float(abs(c_s1s2[0] - c_s1s2[1])),
        "concurrence_error_e1e2": float(abs(c_e1e2[0] - c_e1e2[1])),
    }
    report["fidelity_to_true"] = (_uhlmann_fidelity(rho_true, result.rho)
                                  if isinstance(state, DensityMatrix)
                                  else fidelity_pure(result.rho, state))
    text = json.dumps(report, indent=1)
    (out / "report.json").write_text(text)
    write_manifest(config, out)
    print(text)
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

    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", required=True, help="JSON sweep configuration")
    configured.add_argument("--out", help="output directory, overriding the config's out_dir "
                            "(with neither: the cwd; thresholds then only prints)")
    configured.add_argument("--seed", type=int, help="override the config seed")
    configured.add_argument("--shots", type=int, help="override tomography shots")
    swept = argparse.ArgumentParser(add_help=False, parents=[configured])
    swept.add_argument("--estimator", choices=("lb", "qp"),
                       help="legacy input, ignored with a FutureWarning")

    sub.add_parser("sweep", parents=[swept], help="run a full sweep and write CSV/JSON artifacts"
                   ).set_defaults(func=_cmd_sweep)
    sub.add_parser("thresholds", parents=[swept], help="sweep and print the death/birth thresholds"
                   ).set_defaults(func=_cmd_thresholds)

    p_tomo = sub.add_parser("tomo-roundtrip", parents=[configured],
                            help="simulate counts at one p and reconstruct")
    p_tomo.add_argument("--p", type=float, default=0.5, help="damping strength (default 0.5)")
    p_tomo.set_defaults(func=_cmd_tomo_roundtrip)

    p_chk = sub.add_parser("check-invariants", help="run the structural self-checks")
    p_chk.add_argument("--seed", type=int)
    p_chk.set_defaults(func=_cmd_check_invariants)
    return parser


# Built once per process: parse_args fills a fresh namespace on every call, so
# the parser holds no state from one call to the next.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad arguments; the contract wants 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
