"""In-memory spans around the entredist module boundaries, and the layer metrics they give.

The tracer replaces each traced function by a wrapper in every entredist
module namespace that holds it, so calls inside a module are caught as well
as calls between modules.  ``DensityMatrix`` is traced through its
``__post_init__``, which is where construction validates the matrix.

A span is ``(name, start_ns, end_ns, parent_index, row)``.  A row is one grid
point or one tomography round trip: it starts at a ``channels.evolve`` call
made directly by ``pipeline.sweep`` or ``cli.main`` and ends when the sweep
returns or the next row starts.  Spans outside rows carry row -1.

Only the functions below are wrapped.  Small helpers (``hermitize``,
``psd_sqrt``, ``purity``, ``as_matrix`` ...) are not, so their time counts as
self time of the function that calls them; wrapping them would cost more
than the work they do.
"""

from __future__ import annotations

import csv
import importlib
import statistics
import time

MODULES = ("cli", "pipeline", "channels", "tomography", "measures", "qcore")

# (module, attribute, span name).  concurrence() goes through
# concurrence_signed(), so tracing the latter counts every evaluation once.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("pipeline", "sweep", "pipeline.sweep"),
    ("pipeline", "emit_csv", "pipeline.emit"),
    ("pipeline", "emit_plotdata", "pipeline.emit"),
    ("pipeline", "rows_to_json", "pipeline.emit"),
    ("pipeline", "write_manifest", "pipeline.emit"),
    ("channels", "initial_state", "channels.initial_state"),
    ("channels", "evolve", "channels.evolve"),
    ("tomography", "setting_projectors", "tomography.setting_projectors"),
    ("tomography", "simulate_counts", "tomography.simulate_counts"),
    ("tomography", "mle_reconstruct", "tomography.mle_reconstruct"),
    ("tomography", "save_counts", "tomography.save"),
    ("tomography", "save_settings_manifest", "tomography.save"),
    ("measures", "compute_report", "measures.compute_report"),
    ("measures", "concurrence_signed", "measures.concurrence"),
    ("measures", "tangle_quasipure", "measures.tangle_quasipure"),
    ("measures", "effective_three_tangle", "measures.effective_three_tangle"),
    ("qcore", "vector_marginal", "qcore.marginal"),
    ("qcore", "matrix_marginal", "qcore.marginal"),
    ("qcore", "partial_trace", "qcore.marginal"),
    ("qcore", "save_state", "qcore.save_state"),
)
DENSITY_SPAN = "qcore.DensityMatrix"
ROW_START = "channels.evolve"
ROW_PARENTS = ("pipeline.sweep", "cli.main")


class Tracer:
    """Records spans while installed; ``uninstall`` restores the original functions."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._row = -1
        self._next_row = 0
        self._patches: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if name == "cli.main":
                self._row = -1
            elif name == ROW_START and parent >= 0 and spans[parent][0] in ROW_PARENTS:
                self._row = self._next_row
                self._next_row += 1
            index = len(spans)
            spans.append((name, 0, 0, parent, self._row))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, spans[index][4])
                if name == "pipeline.sweep":
                    self._row = -1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [importlib.import_module(f"entredist.{m}") for m in MODULES]
        mods.append(importlib.import_module("entredist"))
        for module, attr, name in TARGETS:
            original = getattr(importlib.import_module(f"entredist.{module}"), attr)
            traced = self._wrap(name, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)
        density = importlib.import_module("entredist.qcore").DensityMatrix
        self._patches.append((density, "__post_init__", density.__post_init__))
        density.__post_init__ = self._wrap(DENSITY_SPAN, density.__post_init__)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_ns", "end_ns", "parent", "row"])
            for index, span in enumerate(self.spans):
                writer.writerow([index, *span])


def _percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, rows: int) -> tuple[dict, dict]:
    """Per-layer numbers from the spans of ``rows`` rows, and the call count of each span name.

    A span's self time is its duration minus the durations of its direct
    children; a module's self time is the sum over its spans.
    """
    own_ns = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own_ns[parent] -= end - start
    durations: dict[str, list[int]] = {}
    self_ns: dict[str, list[int]] = {}
    for (name, start, end, _, _), own in zip(spans, own_ns):
        durations.setdefault(name, []).append(end - start)
        self_ns.setdefault(name, []).append(own)

    def calls_per_row(name):
        return len(durations.get(name, ())) / rows

    def p50(name, scale):
        values = durations.get(name)
        return statistics.median(values) / scale if values else 0.0

    def self_ms_per_row(prefix):
        total = sum(sum(v) for k, v in self_ns.items() if k == prefix or k.startswith(prefix + "."))
        return total / 1e6 / rows

    report_ms = [d / 1e6 for d in durations.get("measures.compute_report", ())]
    main_self = self_ns.get("cli.main")
    total_ms = sum(durations.get("cli.main", ())) / 1e6
    metrics = {
        "measures.concurrence.calls_per_row": calls_per_row("measures.concurrence"),
        "measures.concurrence.us_p50": p50("measures.concurrence", 1e3),
        "measures.tangle_quasipure.calls_per_row": calls_per_row("measures.tangle_quasipure"),
        "measures.tangle_quasipure.us_p50": p50("measures.tangle_quasipure", 1e3),
        "measures.effective_three_tangle.calls_per_row": calls_per_row("measures.effective_three_tangle"),
        "measures.effective_three_tangle.us_p50": p50("measures.effective_three_tangle", 1e3),
        "measures.compute_report.ms_p50": p50("measures.compute_report", 1e6),
        "measures.compute_report.ms_p99": _percentile(report_ms, 99),
        "measures.self_ms_per_row": self_ms_per_row("measures"),
        "qcore.marginal.calls_per_row": calls_per_row("qcore.marginal"),
        "qcore.marginal.self_ms_per_row": self_ms_per_row("qcore.marginal"),
        "qcore.DensityMatrix.calls_per_row": calls_per_row(DENSITY_SPAN),
        "qcore.DensityMatrix.us_p50": p50(DENSITY_SPAN, 1e3),
        "channels.evolve.calls_per_row": calls_per_row("channels.evolve"),
        "channels.evolve.us_p50": p50("channels.evolve", 1e3),
        "tomography.mle_reconstruct.s_p50": p50("tomography.mle_reconstruct", 1e9),
        "tomography.setting_projectors.calls_per_row": calls_per_row("tomography.setting_projectors"),
        "tomography.setting_projectors.ms_p50": p50("tomography.setting_projectors", 1e6),
        "tomography.simulate_counts.ms_p50": p50("tomography.simulate_counts", 1e6),
        "pipeline.emit.ms_per_row": sum(durations.get("pipeline.emit", ())) / 1e6 / rows,
        "pipeline.sweep.self_ms_per_row": self_ms_per_row("pipeline.sweep"),
        "cli.main.self_ms": statistics.median(main_self) / 1e6 if main_self else 0.0,
    }
    for module in MODULES:
        metrics[f"{module}.self_share"] = (
            self_ms_per_row(module) * rows / total_ms if total_ms else 0.0)
    return metrics, {name: len(values) for name, values in durations.items()}
