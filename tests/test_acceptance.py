"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines alongside the pytest output.
"""

import time

import numpy as np
import pytest

from conftest import ALPHA, BETA, INITIAL_TANGLE, family_state
from oracles import convex_roof_tangle, random_rank2_mixed, werner_concurrence
from entredist.channels import (
    InitialSpec,
    mixed_system_with_purity,
    random_family_state,
)
from entredist.measures import (
    PAIR_CUT,
    concurrence,
    decompose_pair_residual,
    monogamy_slacks,
    residual_pair_cut,
    tangle_lower_bound,
    tangle_pure,
    tangle_quasipure,
)
from entredist.pipeline import SweepConfig, find_threshold, sweep
from entredist.qcore import DensityMatrix, fidelity_pure, haar_state, partial_trace
from entredist.tomography import mle_reconstruct, simulate_counts

# Measured lab thresholds with their one-sigma error bars.
LAB_ESD, LAB_ESD_ERR = 0.34, 0.04
LAB_ESB, LAB_ESB_ERR = 0.67, 0.05
LAB_WITNESS_INTERVAL = (0.27, 0.73)


def verdict(number, name, passed, detail=""):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def fine_sweep():
    """Timed 1001-point sweep of the canonical pure family."""
    config = SweepConfig(
        initial=InitialSpec(alpha=ALPHA, beta=BETA),
        p_values=tuple(np.linspace(0.0, 1.0, 1001)),
    )
    start = time.perf_counter()
    rows = sweep(config)
    elapsed = time.perf_counter() - start
    assert all(r.error is None for r in rows)
    return rows, elapsed


def test_criterion_01_esd_threshold(fine_sweep):
    rows, elapsed = fine_sweep
    esd = find_threshold([(r.p, r.report.c2_s1s2) for r in rows], "esd")
    ok = abs(esd - 0.40825) <= 1e-3 and elapsed < 10.0
    verdict(1, "sudden-death threshold", ok,
            f"esd={esd:.5f} (target 0.40825 +- 0.001), sweep {elapsed:.2f}s < 10s")


def test_criterion_02_esb_threshold(fine_sweep):
    rows, _ = fine_sweep
    esb = find_threshold([(r.p, r.report.c2_e1e2) for r in rows], "esb")
    ok = abs(esb - 0.59175) <= 1e-3
    verdict(2, "sudden-birth threshold", ok, f"esb={esb:.5f} (target 0.59175 +- 0.001)")


def test_criterion_03_experimental_band_consistency(fine_sweep):
    rows, _ = fine_sweep
    esd_pure = find_threshold([(r.p, r.report.c2_s1s2) for r in rows], "esd")
    esb_pure = find_threshold([(r.p, r.report.c2_e1e2) for r in rows], "esb")

    system = mixed_system_with_purity(ALPHA, BETA, 0.82)
    mixed_rows = sweep(SweepConfig(
        initial=InitialSpec(mixed_system=system),
        p_values=tuple(np.linspace(0.0, 1.0, 101)),
    ))
    esd_mixed = find_threshold([(r.p, r.report.c2_s1s2) for r in mixed_rows], "esd")
    esb_mixed = find_threshold([(r.p, r.report.c2_e1e2) for r in mixed_rows], "esb")

    # report-only plausibility: where the purity-0.82 fixture lands
    in_esd_band = abs(esd_mixed - LAB_ESD) <= LAB_ESD_ERR
    in_esb_band = abs(esb_mixed - LAB_ESB) <= LAB_ESB_ERR
    print(f"  [report] mixed fixture: esd={esd_mixed:.3f} "
          f"({'inside' if in_esd_band else 'outside'} lab band {LAB_ESD}+-{LAB_ESD_ERR}), "
          f"esb={esb_mixed:.3f} "
          f"({'inside' if in_esb_band else 'outside'} lab band {LAB_ESB}+-{LAB_ESB_ERR})")

    # hard assertion: pure-theory values inside twice the quoted error bars
    ok = (abs(esd_pure - LAB_ESD) <= 2 * LAB_ESD_ERR
          and abs(esb_pure - LAB_ESB) <= 2 * LAB_ESB_ERR)
    verdict(3, "experimental-band consistency", ok,
            f"|{esd_pure:.3f}-{LAB_ESD}|<={2*LAB_ESD_ERR}, "
            f"|{esb_pure:.3f}-{LAB_ESB}|<={2*LAB_ESB_ERR}")


def test_criterion_04_tangle_conservation():
    deviations = [
        abs(tangle_pure(family_state(p), PAIR_CUT) - INITIAL_TANGLE)
        for p in np.linspace(0.0, 1.0, 101)
    ]
    ok = max(deviations) < 1e-9
    verdict(4, "pair-cut tangle conservation", ok,
            f"max |tangle - 24/49| = {max(deviations):.2e} < 1e-9")


def test_criterion_05_effective_tangles_vanish(fine_sweep):
    rows, _ = fine_sweep
    worst = max(
        max(r.report.tau_eff_s1e1, r.report.tau_eff_s2e2) for r in rows
    )
    ok = worst < 1e-6
    verdict(5, "effective-qubit tangles vanish", ok, f"max = {worst:.2e} < 1e-6")


def test_criterion_06_anchored_tangle_symmetry(fine_sweep):
    rows, _ = fine_sweep
    worst_s = max(
        abs(r.report.tau_u_s1_s2e2 - r.report.tau_u_s2_s1e1)
        for r in rows
    )
    worst_e = max(
        abs(r.report.tau_u_e1_s2e2 - r.report.tau_u_e2_s1e1)
        for r in rows
    )
    ok = worst_s < 1e-6 and worst_e < 1e-6
    verdict(6, "anchored three-tangle symmetry", ok,
            f"max |S1-S2| = {worst_s:.2e}, max |E1-E2| = {worst_e:.2e}")


def test_criterion_07_residual_decomposition_identity():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 101):
        worst = max(worst, decompose_pair_residual(family_state(p)).discrepancy)
    rng = np.random.default_rng(918)
    for _ in range(100):
        worst = max(worst, decompose_pair_residual(random_family_state(rng)).discrepancy)
    ok = worst < 1e-6
    verdict(7, "six-term decomposition identity", ok, f"max |lhs-rhs| = {worst:.2e}")


def test_criterion_08_monogamy_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1207)
    worst_single = np.inf
    for _ in range(500):
        report = monogamy_slacks(haar_state(4, rng))
        worst_single = min(worst_single, min(report.one_vs_rest.values()))
    worst_pair = np.inf
    for _ in range(200):
        psi = random_family_state(rng)
        worst_pair = min(worst_pair, residual_pair_cut(psi))
    elapsed = time.perf_counter() - start
    ok = worst_single >= -1e-6 and worst_pair >= -1e-6 and elapsed < 60.0
    verdict(8, "monogamy slack suite", ok,
            f"min 1-vs-rest slack {worst_single:.2e}, min pair slack {worst_pair:.2e}, "
            f"{elapsed:.1f}s < 60s")


def test_criterion_09_dicke_witness(fine_sweep):
    rows, _ = fine_sweep
    fid_half = next(r.report.dicke_fidelity for r in rows if abs(r.p - 0.5) < 1e-12)
    ok_value = abs(fid_half - 0.8285) <= 1e-3

    series = [(r.p, r.report.dicke_fidelity - 2.0 / 3.0) for r in rows]
    crossings = []
    for (p0, v0), (p1, v1) in zip(series, series[1:]):
        if (v0 <= 0.0 < v1) or (v0 > 0.0 >= v1):
            crossings.append(p0 + (0.0 - v0) / (v1 - v0) * (p1 - p0))
    lo, hi = min(crossings), max(crossings)
    ok_interval = abs(lo - 0.17) <= 0.01 and abs(hi - 0.83) <= 0.01
    ok_contains = lo <= LAB_WITNESS_INTERVAL[0] and hi >= LAB_WITNESS_INTERVAL[1]
    ok = ok_value and len(crossings) == 2 and ok_interval and ok_contains
    verdict(9, "Dicke witness", ok,
            f"F(1/2)={fid_half:.5f} (0.8285 +- 1e-3), interval [{lo:.4f}, {hi:.4f}] "
            f"covers lab [{LAB_WITNESS_INTERVAL[0]}, {LAB_WITNESS_INTERVAL[1]}]")


def test_criterion_10_dead_zone_structure(fine_sweep):
    rows, _ = fine_sweep
    esd = find_threshold([(r.p, r.report.c2_s1s2) for r in rows], "esd")
    esb = find_threshold([(r.p, r.report.c2_e1e2) for r in rows], "esb")
    inside = [r.report for r in rows if esd < r.p < esb]
    ok = bool(inside) and all(
        r.c2_s1s2 == 0.0 and r.c2_e1e2 == 0.0 and r.residual_pair > 0.1
        for r in inside
    )
    verdict(10, "dead-zone structure", ok,
            f"{len(inside)} grid points in ({esd:.4f}, {esb:.4f}) all fully multipartite")


def test_criterion_11_gamma_sign_behavior(fine_sweep):
    rows, _ = fine_sweep
    esd = find_threshold([(r.p, r.report.c2_s1s2) for r in rows], "esd")
    esb = find_threshold([(r.p, r.report.c2_e1e2) for r in rows], "esb")

    # At the exact endpoints both environment/system marginals are product
    # pure states whose signed concurrence is identically zero, so the strict
    # sign statement applies to the interior grid points only.
    first, last = rows[0].report, rows[-1].report
    assert abs(first.gamma_e1e2) < 1e-12 and abs(last.gamma_s1s2) < 1e-12

    env_ok = all(
        r.report.gamma_e1e2 < 0.0
        for r in rows
        if 0.0 < r.p < esb - 0.01
    )
    sys_ok = all(
        r.report.gamma_s1s2 < 0.0
        for r in rows
        if esd + 0.01 < r.p < 1.0
    )
    verdict(11, "signed-concurrence sign behavior", env_ok and sys_ok,
            f"gamma_e1e2 < 0 on (0, {esb - 0.01:.4f}), "
            f"gamma_s1s2 < 0 on ({esd + 0.01:.4f}, 1); boundary values are exact zeros")


def test_criterion_12_tomography_round_trip():
    start = time.perf_counter()
    psi = family_state(0.5)
    records = simulate_counts(psi.density(), 10**6, seed=2026)
    result = mle_reconstruct(records, max_iter=100_000, tol=1e-5)
    fid = fidelity_pure(result.rho, psi)
    errors = []
    for pair in (("S1", "S2"), ("E1", "E2")):
        true_c = concurrence(partial_trace(psi, pair).entries)
        fit_c = concurrence(partial_trace(result.rho, pair).entries)
        errors.append(abs(true_c - fit_c))
    elapsed = time.perf_counter() - start
    ok = fid >= 0.999 and max(errors) < 0.01 and elapsed < 300.0
    verdict(12, "tomography round trip", ok,
            f"fidelity {fid:.5f} >= 0.999, concurrence errors {max(errors):.4f} < 0.01, "
            f"{elapsed:.0f}s < 300s ({result.iterations} iterations)")


def test_criterion_13_estimator_ordering():
    cut = (0,)  # the one-versus-rest cut the quasi-pure estimator serves
    rng = np.random.default_rng(1349)
    worst_lb_qp = -np.inf
    worst_qp_oracle = -np.inf
    for _ in range(100):
        rho = DensityMatrix(random_rank2_mixed(rng))
        lb = tangle_lower_bound(rho, cut)
        qp = tangle_quasipure(rho, cut)
        oracle = convex_roof_tangle(rho, cut, n_samples=2000, rng=rng)
        worst_lb_qp = max(worst_lb_qp, lb - qp)
        worst_qp_oracle = max(worst_qp_oracle, qp - oracle)
    ordering_ok = worst_lb_qp <= 1e-6 and worst_qp_oracle <= 1e-6

    pure_gap = 0.0
    for _ in range(10):
        psi = haar_state(4, rng)
        exact = tangle_pure(psi, cut)
        rho = psi.density()
        pure_gap = max(
            pure_gap,
            abs(tangle_lower_bound(rho, cut) - exact),
            abs(tangle_quasipure(rho, cut) - exact),
            abs(convex_roof_tangle(rho, cut, n_samples=50, rng=rng) - exact),
        )
    ok = ordering_ok and pure_gap < 1e-6
    verdict(13, "estimator ordering", ok,
            f"max(lb-qp) = {worst_lb_qp:.2e}, max(qp-oracle) = {worst_qp_oracle:.2e}, "
            f"pure-state spread {pure_gap:.2e}")


def test_criterion_14_wootters_oracle():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    worst = 0.0
    for v in (0.0, 0.2, 1.0 / 3.0, 0.5, 1.0):
        rho = v * np.outer(bell, bell.conj()) + (1.0 - v) * np.eye(4) / 4.0
        worst = max(worst, abs(concurrence(rho) - werner_concurrence(v)))
    ok = worst < 1e-9
    verdict(14, "Werner-state Wootters oracle", ok, f"max deviation {worst:.2e} < 1e-9")
