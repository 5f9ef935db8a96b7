"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -rP`` to see every line.
"""

import math
import time

import numpy as np
import pytest

from mfbwalk import (
    Branch,
    absorption_mass,
    barrier_recurrence_residual,
    display_time_to_barrier,
    make_model,
    mean_time_any,
    mean_time_to_barrier,
    occupancy_residual,
    periodic_mean_times,
    simulate,
    site_visits,
    total_absorption,
    truncated_visit_derivatives,
    truncated_visits,
)
from conftest import random_model


def _report(num, ok, elapsed, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} " \
           f"({elapsed:.2f}s) {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sym():
    return make_model(p=0.5, q=0.5, p0=0.25, q0=0.25, s0=0.25, N=2, i0=0)


@pytest.fixture(scope="module")
def drift():
    return make_model(p=0.4, q=0.2, p0=0.2, q0=0.2, s0=0.2, N=2, i0=0)


@pytest.fixture(scope="module")
def random_battery():
    rng = np.random.default_rng(2025)
    drifts = [random_model(rng, "DRIFT") for _ in range(25)]
    balanced = [random_model(rng, "BALANCED") for _ in range(25)]
    return drifts, balanced


def test_criterion_1_total_absorption(random_battery):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    models = [random_model(rng, "DRIFT") for _ in range(50)] \
        + [random_model(rng, "BALANCED") for _ in range(50)]
    worst = max(abs(total_absorption(m) - 1.0) for m in models)
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-10 and elapsed < 1.0, elapsed,
            f"total absorption = 1 for 100 models, worst |delta| = {worst:.2e}")


def test_criterion_2_visits_vs_truncated_solver(sym, drift, random_battery):
    t0 = time.perf_counter()
    drifts, balanced = random_battery
    models = [sym, drift] + drifts + balanced
    worst = 0.0
    for m in models:
        tv = truncated_visits(m)
        assert tv.tail_bound < 1e-12
        for j in range(-3 * m.N, 3 * m.N + 1):
            closed = site_visits(m, j)
            worst = max(worst,
                        abs(closed - tv.values[j]) / max(closed, 1e-30))
    goldens = (abs(site_visits(sym, 0) - 2.309401) < 1e-6
               and abs(site_visits(sym, 2) - 0.618802) < 1e-6
               and abs(site_visits(sym, 1) - 0.732051) < 1e-6)
    elapsed = time.perf_counter() - t0
    _report(2, worst < 1e-8 and goldens and elapsed < 10.0, elapsed,
            f"closed x_j vs solver on 52 models, worst rel = {worst:.2e}, "
            f"reference values on target = {goldens}")


def test_criterion_3_mean_times(sym, drift, random_battery):
    t0 = time.perf_counter()
    goldens = (abs(mean_time_any(sym, 0) - 5.0) < 1e-9
               and abs(mean_time_any(sym, 1) - 6.0) < 1e-9
               and abs(mean_time_any(drift, 0) - 22.0 / 3.0) < 1e-9
               and abs(mean_time_any(drift, 1) - 9.0) < 1e-9)
    drifts, balanced = random_battery
    worst = 0.0
    for m in [sym, drift] + drifts[:10] + balanced[:10]:
        solved = periodic_mean_times(m)
        for i in range(m.N + 1):
            worst = max(worst, abs(mean_time_any(m, i) - float(solved[i]))
                        / float(solved[i]))
    periodic = all(
        mean_time_any(m, i) == pytest.approx(mean_time_any(m, i % m.N),
                                             rel=1e-12)
        for m in (sym, drift) for i in range(-2 * m.N, 4 * m.N + 1))
    elapsed = time.perf_counter() - t0
    _report(3, goldens and worst < 1e-10 and periodic, elapsed,
            f"branch formulas vs periodic solve, worst rel = {worst:.2e}, "
            f"goldens = {goldens}, periodicity = {periodic}")


def test_criterion_4_branch_continuity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst = 0.0
    # one closed form covers both branches and does not cancel at
    # |rho - 1| = 1e-6, so the difference is the true change in the times
    for _ in range(10):
        base = random_model(rng, "BALANCED")
        for sign in (+1.0, -1.0):
            pert = make_model(p=base.q * (1.0 + sign * 1e-6), q=base.q,
                              p0=base.p0, q0=base.q0, s0=base.s0,
                              N=base.N, i0=base.i0)
            assert pert.branch is Branch.DRIFT
            for i in range(base.N + 1):
                worst = max(worst, abs(mean_time_any(pert, i)
                                       - mean_time_any(base, i)))
    elapsed = time.perf_counter() - t0
    _report(4, worst < 1e-3, elapsed,
            f"balanced vs |rho-1|=1e-6 drift mean times, worst = {worst:.2e}")


def test_criterion_5_barrier_time_vs_exact_derivative(drift):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    models = [drift] + [random_model(rng, "DRIFT", i0=0) for _ in range(20)]
    worst = 0.0
    discrepancy_notes = 0
    for m in models:
        deriv = truncated_visit_derivatives(m)
        for k in range(-5, 6):
            exact = m.s0 * deriv[k * m.N]
            closed = mean_time_to_barrier(m, k)
            worst = max(worst, abs(closed - exact) / max(abs(exact), 1e-30))
            shown = display_time_to_barrier(m, k)
            discrepancy_notes += abs(shown - closed) > 1e-9 * max(abs(closed), 1e-30)
    elapsed = time.perf_counter() - t0
    # the barrier-chain path must pass outright; the display-form deviation is
    # recorded as a formula discrepancy, which is the documented outcome
    _report(5, worst < 1e-6 and discrepancy_notes > 0 and elapsed < 30.0,
            elapsed,
            f"barrier-chain m0k vs exact derivative on 21 models, worst rel "
            f"= {worst:.2e}; display-form discrepancies recorded = "
            f"{discrepancy_notes}")


def test_criterion_6_monte_carlo_concordance(sym, drift):
    t0 = time.perf_counter()
    details = []
    ok = True
    for m in (sym, drift):
        stats = simulate(m, walks=10 ** 6, seed=42)
        m0 = mean_time_any(m, m.i0)
        dev = abs(stats.mean_steps - m0) / stats.mean_steps_se
        ok &= dev < 4.0
        details.append(f"mean dev {dev:.2f}se")
        for k in range(-2, 3):
            freq = stats.absorption_hist.get(k, 0.0)
            se = math.sqrt(freq * (1.0 - freq) / stats.walks)
            dev_k = abs(absorption_mass(m, k) - freq) / se
            ok &= dev_k < 4.0
        tv = truncated_visits(m)
        for j in range(-2 * m.N, 2 * m.N + 1):
            mean, se = stats.visit_means[j]
            ok &= abs(mean - tv.values[j]) < 4.0 * se
        details.append("masses and visit means within 4se")
    elapsed = time.perf_counter() - t0
    _report(6, ok and elapsed < 60.0, elapsed,
            "1e6 walks at seed 42 within 4 standard errors "
            f"({'; '.join(details)})")


def test_criterion_7_simulation_determinism(drift):
    t0 = time.perf_counter()
    runs = [simulate(drift, walks=60_000, seed=42, workers=w)
            for w in (1, 2, 8)]
    repeat = simulate(drift, walks=60_000, seed=42, workers=2)
    identical = runs[0] == runs[1] == runs[2] == repeat
    elapsed = time.perf_counter() - t0
    _report(7, identical, elapsed,
            "bit-identical statistics across 1, 2, 8 workers and reruns")


def test_criterion_8_difference_equation_residuals(sym, drift, random_battery):
    t0 = time.perf_counter()
    drifts, balanced = random_battery
    worst = 0.0
    for m in [sym, drift] + drifts + balanced:
        for k in range(-3, 4):
            worst = max(worst, abs(barrier_recurrence_residual(m, k)))
        for j in range(-3 * m.N + 1, 3 * m.N):
            worst = max(worst, abs(occupancy_residual(m, j)))
    elapsed = time.perf_counter() - t0
    _report(8, worst < 1e-10, elapsed,
            f"recurrence and occupancy residuals on 52 models, worst = "
            f"{worst:.2e}")
