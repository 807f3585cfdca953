"""Benchmark of the entredist command line; see perfbench/README.md.

    python3 perfbench/run.py --workload pure-sweep --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout: it imports the package from
``src/`` and compares against ``tests/data/golden_sweep.csv``.  Every
invocation calls ``entredist.cli.main`` in this process, one after another
(a closed loop with one caller).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The environment, sample counts, checks and (traced) spans
are written to ``.bench_out/``.
"""

import os

# One BLAS thread: the kernels are 4x4 to 256x256, where extra threads add
# run-to-run noise on a shared machine rather than speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, golden_argv  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden_sweep.csv"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 9  # four before and five after the timed loop, to sample two moments of a noisy host
MIN_REPEATS = 2
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "measures.concurrence.calls_per_row": "calls/row",
    "measures.concurrence.us_p50": "us",
    "measures.tangle_quasipure.calls_per_row": "calls/row",
    "measures.tangle_quasipure.us_p50": "us",
    "measures.effective_three_tangle.calls_per_row": "calls/row",
    "measures.effective_three_tangle.us_p50": "us",
    "measures.compute_report.ms_p50": "ms",
    "measures.compute_report.ms_p99": "ms",
    "measures.self_ms_per_row": "ms/row",
    "qcore.marginal.calls_per_row": "calls/row",
    "qcore.marginal.self_ms_per_row": "ms/row",
    "qcore.DensityMatrix.calls_per_row": "calls/row",
    "qcore.DensityMatrix.us_p50": "us",
    "channels.evolve.calls_per_row": "calls/row",
    "channels.evolve.us_p50": "us",
    "tomography.mle.iterations": "iter/fit",
    "tomography.mle.us_per_iter": "us/iter",
    "tomography.mle_reconstruct.s_p50": "s",
    "tomography.setting_projectors.calls_per_row": "calls/row",
    "tomography.setting_projectors.ms_p50": "ms",
    "tomography.simulate_counts.ms_p50": "ms",
    "tomography.mle.unconverged_share": "share",
    "tomography.infidelity_max": "1",
    "tomography.conc_err_max": "1",
    "pipeline.emit.ms_per_row": "ms/row",
    "pipeline.sweep.self_ms_per_row": "ms/row",
    "cli.main.self_ms": "ms",
    "cli.self_share": "share",
    "pipeline.self_share": "share",
    "channels.self_share": "share",
    "tomography.self_share": "share",
    "measures.self_share": "share",
    "qcore.self_share": "share",
    "measures.warnings.rank_above_two_per_row": "count/row",
    "measures.warnings.estimator_per_row": "count/row",
    "tomography.warnings.unconverged_per_row": "count/row",
    "trace.overhead_share": "share",
}


@dataclass
class Repeat:
    """One repeat of a workload: its timed invocations and what the checks found."""

    k: int
    seconds: float = 0.0
    rows: int = 0
    failed: int = 0
    floored: int = 0
    fits: list = field(default_factory=list)
    warnings: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)


def _warning_kind(w: warnings.WarningMessage) -> str:
    from entredist.measures import EstimatorWarning

    text = str(w.message)
    if issubclass(w.category, EstimatorWarning):
        return "estimator"
    if "rank above two" in text:
        return "rank_above_two"
    if "did not converge" in text:
        return "mle_unconverged"
    return "other"


def invoke(argv: list[str]) -> tuple[int, float, Counter, str]:
    """Run the CLI in this process; returns exit code, seconds, warning counts, stderr."""
    import entredist.cli

    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        start = time.perf_counter()
        code = entredist.cli.main(argv)  # looked up per call, so a tracer's wrapper is used
        elapsed = time.perf_counter() - start
    return code, elapsed, Counter(_warning_kind(w) for w in caught), err.getvalue()


def run_repeat(workload, k: int) -> Repeat:
    rep = Repeat(k)
    for argv, out in workload.repeat(k):
        shutil.rmtree(out, ignore_errors=True)
        code, elapsed, caught, err = invoke(argv)
        checked = workload.check(argv, out)
        if code != 0:
            checked.fail(checked.rows, f"exit code {code}: {err.strip()[-300:]}")
        rep.seconds += elapsed
        rep.rows += checked.rows
        rep.failed += min(checked.failed, checked.rows)
        rep.floored += checked.floored
        rep.fits += checked.fits
        rep.warnings += caught
        rep.problems += checked.problems
    return rep


def run_phase(workload, seconds: float, min_repeats: int) -> list[Repeat]:
    """Repeats until ``seconds`` have passed and at least ``min_repeats`` are done."""
    reps = []
    start = time.perf_counter()
    while len(reps) < min_repeats or time.perf_counter() - start < seconds:
        reps.append(run_repeat(workload, len(reps)))
    return reps


def probe_setup(argv: list[str]) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(argv)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def check_golden(workdir: Path) -> tuple[int, int]:
    """Untimed golden run; returns (rows compared, rows that differ from the golden CSV)."""
    argv, out = golden_argv(workdir)
    code, _, _, _ = invoke(argv)
    golden = GOLDEN.read_bytes()
    try:
        produced = (out / "sweep.csv").read_bytes()
    except OSError:
        produced = b""
    rows = len(golden.splitlines()) - 1
    if code != 0:
        return rows, rows
    if produced == golden:
        return rows, 0
    a, b = golden.splitlines(keepends=True), produced.splitlines(keepends=True)
    diff = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return rows, min(rows, max(1, diff))


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_sha": _git_sha(),
        "seed": seed,
    }


def tomography_metrics(reps: list[Repeat], traced: list[Repeat], spans_ns: list[int]) -> dict:
    fits = [f for r in reps for f in r.fits]
    traced_iters = sum(f["iterations"] for r in traced for f in r.fits)
    return {
        "tomography.mle.iterations": statistics.fmean(f["iterations"] for f in fits) if fits else 0.0,
        "tomography.mle.us_per_iter": sum(spans_ns) / 1e3 / traced_iters if traced_iters else 0.0,
        "tomography.mle.unconverged_share":
            sum(not f["converged"] for f in fits) / len(fits) if fits else 0.0,
        "tomography.infidelity_max": 1.0 - min(f["fidelity"] for f in fits) if fits else 0.0,
        "tomography.conc_err_max": max(f["concurrence_error"] for f in fits) if fits else 0.0,
    }


def measure(args, workload, workdir: Path) -> dict:
    golden_rows, golden_failed = check_golden(workdir)
    invoke(workload.warmup_argv())  # fill this process's lazy state before timing
    result = {"golden": {"rows": golden_rows, "differ": golden_failed}}
    if not args.trace:
        setup = [probe_setup(workload.warmup_argv()) for _ in range(SETUP_PROBES // 2)]
        reps = run_phase(workload, args.seconds, 1 if args.smoke else MIN_REPEATS)
        setup += [probe_setup(workload.warmup_argv()) for _ in range(SETUP_PROBES - len(setup))]
        rates = [r.rows / r.seconds for r in reps]
        metrics = {"setup_s": statistics.median(setup), "rows_per_s": statistics.median(rates)}
        result["setup_s"] = setup
        result["samples"] = {"setup_s": len(setup), "rows_per_s": len(rates)}
        traced = []
    else:
        plain = run_phase(workload, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run_repeat(workload, r.k) for r in plain]
        finally:
            tracer.uninstall()
        reps = plain + traced
        rows = sum(r.rows for r in traced)
        metrics, calls = layer_metrics(tracer.spans, rows)
        mle_ns = [e - s for name, s, e, _, _ in tracer.spans if name == "tomography.mle_reconstruct"]
        metrics.update(tomography_metrics(reps, traced, mle_ns))
        all_rows = sum(r.rows for r in reps)
        seen = sum((r.warnings for r in reps), Counter())
        metrics["measures.warnings.rank_above_two_per_row"] = seen["rank_above_two"] / all_rows
        metrics["measures.warnings.estimator_per_row"] = seen["estimator"] / all_rows
        metrics["tomography.warnings.unconverged_per_row"] = seen["mle_unconverged"] / all_rows
        metrics["trace.overhead_share"] = (
            sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.csv"
        tracer.write(spans_path)
        result["samples"] = {"traced_rows": rows, "repeats_per_phase": len(plain),
                             "span_calls": calls}
        result["spans_file"] = spans_path.name
    result["attempted"] = golden_rows + sum(r.rows for r in reps)
    result["failed"] = golden_failed + sum(r.failed for r in reps)
    result["floored_concurrences"] = sum(r.floored for r in reps)
    if not args.trace:
        metrics["ok_share"] = 1.0 - result["failed"] / result["attempted"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["metrics"] = metrics
    result["repeats"] = [
        {"k": r.k, "seconds": r.seconds, "rows": r.rows, "failed": r.failed, "floored": r.floored,
         "warnings": dict(r.warnings), "fits": r.fits, "problems": r.problems}
        for r in reps]
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="21-point sweep grids and one repeat, for the self-test only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entredist" / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"error: {ROOT} is not an entredist source checkout "
              "(needs src/entredist and tests/data/golden_sweep.csv)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed, args.smoke)
        result = measure(args, workload, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:  # a set-up probe failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment(args.seed),
        **result,
    }
    details_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details_path.write_text(json.dumps(details, indent=1))
    problems = [p for r in result["repeats"] for p in r["problems"]]
    if result["golden"]["differ"]:
        problems.insert(0, f"{result['golden']['differ']} golden sweep.csv rows differ")
    for problem in problems[:10]:
        print(f"check failed: {problem}")
    print(f"details: {details_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
