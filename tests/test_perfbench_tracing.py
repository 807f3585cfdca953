"""The benchmark's tracer still wraps the functions that do the traced work."""

import importlib.util
from pathlib import Path

import numpy as np

import entredist.pipeline as pipeline
from conftest import ALPHA, BETA
from entredist.channels import InitialSpec, mixed_system_with_purity

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

EXPECTED_SPANS = {
    "measures.compute_report",
    "measures.concurrence",
    "measures.effective_three_tangle",
    "qcore.marginal",
    "channels.evolve",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_layer_spans():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for initial in (InitialSpec(alpha=ALPHA, beta=BETA),
                        InitialSpec(mixed_system=mixed_system_with_purity(ALPHA, BETA, 0.82))):
            config = pipeline.SweepConfig(initial=initial, p_values=tuple(np.linspace(0.0, 1.0, 3)))
            rows = pipeline.sweep(config)
            assert all(row.error is None for row in rows)
    finally:
        tracer.uninstall()
    recorded = {name for name, *_ in tracer.spans}
    assert EXPECTED_SPANS <= recorded, EXPECTED_SPANS - recorded
