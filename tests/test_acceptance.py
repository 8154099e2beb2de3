"""Acceptance gate: the ten headline requirements, one test each.

Every test pins its tolerance inline, times its own work against the
stated budget, and emits a single PASS/FAIL line so a log scrape can
recover the verdicts without parsing the pytest summary.
"""

import math
import time
from functools import partial

from gauge_workbench.closedform import (
    DELTA_SLOPE,
    X_RESONANCE,
    gauge_pair,
    q_length,
    two_color_q,
)
from gauge_workbench.identities import (
    TOL_ONE_PHOTON,
    TOL_ORACLE,
    check_ac_stark,
    check_master_identity,
    check_one_photon,
)
from gauge_workbench.oracle import (
    build_oracle,
    diagonal_elements,
    gauge_pair_oracle,
    norm_1s,
    one_photon_elements,
    q_oracle,
    r2_overlap,
)
from gauge_workbench.rabi import beta, beta_slope

R2_EXACT = -512.0 * math.sqrt(2.0) / 243.0


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_resonance_amplitude(default_grid):
    start = time.perf_counter()
    closed = q_length(3.0 / 16.0)
    grid = q_oracle(default_grid, 3.0 / 16.0)
    elapsed = time.perf_counter() - start
    closed_ok = abs(closed - (-7.853655422)) < 1e-8
    oracle_ok = abs(grid / closed - 1.0) < 1e-6
    _verdict(
        "resonance amplitude",
        closed_ok and oracle_ok and elapsed < 1.0,
        f"closed {closed:.12g}, grid/closed-1 {grid / closed - 1.0:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_02_two_color_table_entry():
    start = time.perf_counter()
    value = two_color_q(7.0 / 20.0)
    elapsed = time.perf_counter() - start
    ok = abs(value - (-62.659473633)) < 1e-8
    _verdict(
        "two-color combination",
        ok and elapsed < 1.0,
        f"value {value:.12g}, {elapsed:.2f}s",
    )


def test_03_rabi_coefficient_and_slope():
    start = time.perf_counter()
    coefficient = beta(X_RESONANCE)
    slope = beta_slope()
    elapsed = time.perf_counter() - start
    coeff_ok = abs(coefficient / 3.68111e-5 - 1.0) < 1e-3
    slope_ok = abs(slope / 2.32293e-4 - 1.0) < 1e-3
    _verdict(
        "intensity coefficient",
        coeff_ok and slope_ok and elapsed < 1.0,
        f"beta {coefficient:.6e}, slope {slope:.6e}, {elapsed:.2f}s",
    )


def test_04_difference_curve_reproduction():
    start = time.perf_counter()
    xs = [0.01 + i * (0.36 / 199.0) for i in range(200)]
    deltas = [gauge_pair(x).delta for x in xs]
    worst = max(
        abs(d - DELTA_SLOPE * (x - X_RESONANCE))
        for x, d in zip(xs, deltas)
    )
    crossings = [
        i for i in range(len(xs) - 1) if deltas[i] * deltas[i + 1] < 0.0
    ]
    elapsed = time.perf_counter() - start
    bracket_ok = (
        len(crossings) == 1
        and xs[crossings[0]] < 3.0 / 16.0 < xs[crossings[0] + 1]
    )
    _verdict(
        "difference line over 200 points",
        worst < 1e-9 and bracket_ok and elapsed < 5.0,
        f"max deviation {worst:.2e}, sign change in "
        f"[{xs[crossings[0]]:.4f}, {xs[crossings[0] + 1]:.4f}], {elapsed:.2f}s",
    )


def test_05_single_crossing_by_bisection():
    start = time.perf_counter()
    lo, hi = 0.01, 0.37
    samples = [lo + i * (hi - lo) / 2000.0 for i in range(2001)]
    signs = [gauge_pair(x).delta > 0.0 for x in samples]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    a, b = lo, hi
    for _ in range(80):
        mid = 0.5 * (a + b)
        if (gauge_pair(a).delta > 0.0) == (gauge_pair(mid).delta > 0.0):
            a = mid
        else:
            b = mid
    root = 0.5 * (a + b)
    elapsed = time.perf_counter() - start
    _verdict(
        "unique crossing location",
        flips == 1 and abs(root - 3.0 / 16.0) < 1e-9 and elapsed < 5.0,
        f"{flips} sign flip(s), root {root:.12f}, {elapsed:.2f}s",
    )


def test_06_master_identity_both_sources(default_grid):
    start = time.perf_counter()
    closed = check_master_identity()
    grid = check_master_identity(partial(gauge_pair_oracle, default_grid),
                                 r2_overlap(default_grid), TOL_ORACLE)
    elapsed = time.perf_counter() - start
    _verdict(
        "propagator identity",
        closed.max_residual < 1e-9 and grid.max_residual < 1e-6
        and elapsed < 30.0,
        f"closed {closed.max_residual:.2e}, grid {grid.max_residual:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_07_dynamic_polarizability_identity(default_grid):
    start = time.perf_counter()
    basis = check_ac_stark()
    grid = check_ac_stark(partial(diagonal_elements, default_grid), norm_1s(default_grid),
                          TOL_ORACLE)
    elapsed = time.perf_counter() - start
    _verdict(
        "dynamic polarizability identity",
        basis.passed and basis.max_residual < 1e-9
        and grid.passed and grid.max_residual < 1e-6 and elapsed < 30.0,
        f"Sturmian {basis.max_residual:.2e}, grid {grid.max_residual:.2e} over x = "
        f"{grid.x_values}, {elapsed:.2f}s",
    )


def test_08_grid_self_checks(default_grid):
    start = time.perf_counter()
    state = build_oracle(default_grid)
    energy_worst = max(
        abs(state.s1.energy + 0.5),
        abs(state.s2.energy + 0.125),
        abs(state.s2p.energy + 0.125),
    )
    overlap = abs(state.integrate(state.w1, state.w2))
    gap = state.s2p.energy - state.s1.energy
    m_len = state.integrate(state.w2p, state.r * state.w1)
    m_vel = state.integrate(state.w2p, state.wd1)
    commutator = abs(-m_vel - gap * m_len)
    r2_err = abs(r2_overlap(default_grid) / R2_EXACT - 1.0)
    elapsed = time.perf_counter() - start
    _verdict(
        "grid self-checks",
        energy_worst < 1e-8 and overlap < 1e-10 and commutator < 1e-8
        and r2_err < 1e-6 and elapsed < 10.0,
        f"energies {energy_worst:.2e}, overlap {overlap:.2e}, "
        f"commutator {commutator:.2e}, r2 {r2_err:.2e}, {elapsed:.2f}s",
    )


def test_09_one_photon_gauge_factor(default_grid):
    start = time.perf_counter()
    basis = check_one_photon()
    grid = check_one_photon(one_photon_elements(default_grid), TOL_ONE_PHOTON)
    elapsed = time.perf_counter() - start
    _verdict(
        "one-photon gauge factor",
        basis.passed and basis.max_residual < 1e-9
        and grid.passed and grid.max_residual < 1e-8 and elapsed < 5.0,
        f"Sturmian {basis.max_residual:.2e}, grid {grid.max_residual:.2e} at omega = "
        f"{grid.x_values}, {elapsed:.2f}s",
    )


def test_10_noninvariance_off_resonance():
    start = time.perf_counter()
    d_low = gauge_pair(0.10).delta
    d_high = gauge_pair(0.25).delta
    elapsed = time.perf_counter() - start
    _verdict(
        "gauge difference off resonance",
        abs(d_low) > 1e-2 and abs(d_high) > 1e-2 and elapsed < 1.0,
        f"delta(0.10) {d_low:.4f}, delta(0.25) {d_high:.4f}, {elapsed:.2f}s",
    )
