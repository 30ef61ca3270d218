"""Acceptance gate: the ten shipped guarantees, each with its stated
tolerance and runtime budget.

Every test prints one `criterion NN: PASS (...)` line on success; a failed
assertion leaves the criterion reported as FAILED by pytest itself.
"""

import math
import time
from pathlib import Path

import numpy as np

from helpers import random_density, random_ket
from xyswap import qcore
from xyswap.critical import (
    sweep,
    t1_critical,
    t2_asymptote,
    t2_critical,
    t3_asymptote,
    t3_critical,
)
from xyswap.swapnet import swap_triple
from xyswap.teleport import (
    TeleportConfig,
    conditioned_state,
    evaluate,
    fidelity_closed_form,
)
from xyswap.xychain import ChainParams, pair_metrics, thermal_state

GOLDEN = Path(__file__).parent / "data" / "table1_golden.csv"

_TABLE_ETAS = [round(0.1 * i, 1) for i in range(10)]


def _golden_rows():
    lines = GOLDEN.read_text().splitlines()
    t2 = [float(tok) for tok in lines[1].split(",")]
    t3 = [float(tok) for tok in lines[2].split(",")]
    return t2, t3


def _report(n, detail):
    print(f"criterion {n:02d}: PASS ({detail})")


def test_criterion_01_threshold_table_values():
    start = time.perf_counter()
    got2 = [r.t_over_j for r in sweep(2, 0.0, _TABLE_ETAS)]
    got3 = [r.t_over_j for r in sweep(3, 0.0, _TABLE_ETAS)]
    elapsed = time.perf_counter() - start
    want2, want3 = _golden_rows()
    worst = max(
        max(abs(g - w) for g, w in zip(got2, want2)),
        max(abs(g - w) for g, w in zip(got3, want3)),
    )
    assert worst <= 1e-4
    assert elapsed < 5.0
    _report(1, f"20 values, max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_isotropic_concurrence_threshold():
    start = time.perf_counter()
    roots = [t1_critical(0.0, eta).t_over_j for eta in (0.0, 0.5, 2.0)]
    elapsed = time.perf_counter() - start
    worst = max(abs(r - 1.13459) for r in roots)
    assert worst <= 1e-4
    assert elapsed < 1.0
    _report(2, f"three fields, max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_closed_form_matches_pipeline():
    start = time.perf_counter()
    worst = 0.0
    for gamma in (0.0, 0.3, 0.6, 1.0):
        for eta in (0.0, 0.5, 0.9, 1.5, 3.0):
            for t in (0.2, 0.5, 1.0, 2.0):
                p = ChainParams(J=1.0, gamma=gamma, eta=eta, T=t)
                for mu in (0.0, math.pi / 8.0, math.pi / 4.0):
                    cfg = TeleportConfig(mu=mu)
                    closed = fidelity_closed_form(p, cfg).phi_closed
                    sim = evaluate(p, cfg).phi_simulated
                    worst = max(worst, abs(closed - sim))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 60.0
    _report(3, f"240 points, max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_metric_oracle_equivalence():
    start = time.perf_counter()
    worst_c = worst_f = 0.0
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        for eta in (0.0, 0.5, 1.0, 1.5, 2.0):
            for t in (0.2, 0.5, 1.0, 2.0, 5.0):
                p = ChainParams(J=1.0, gamma=gamma, eta=eta, T=t)
                rho = thermal_state(p)
                m = pair_metrics(p)
                worst_c = max(
                    worst_c, abs(m.concurrence - qcore.wootters_concurrence(rho))
                )
                worst_f = max(worst_f, abs(m.fef - qcore.bell_fraction(rho)))
    elapsed = time.perf_counter() - start
    assert worst_c <= 1e-9
    assert worst_f <= 1e-12
    assert elapsed < 5.0
    _report(
        4,
        f"125 points, conc dev {worst_c:.2e}, fef dev {worst_f:.2e}, {elapsed:.2f}s",
    )


def test_criterion_05_zero_temperature_limits():
    cfg = TeleportConfig(mu=math.pi / 4.0)
    cold = 1e-3
    cases = [
        # (gamma, eta, limiting fidelity at mu = pi/4)
        (0.3, 0.4, 1.0),
        (0.6, 0.8, 0.5 + (1.0 + 0.6 + 0.36 + 0.216) / 24.0),
        (0.6, 1.0, 2.0 / 3.0 + (0.6 / math.sqrt(1.36)) ** 3 / 3.0),
    ]
    worst_phi = 0.0
    for gamma, eta, want in cases:
        phi = fidelity_closed_form(
            ChainParams(J=1.0, gamma=gamma, eta=eta, T=cold), cfg
        ).phi_closed
        worst_phi = max(worst_phi, abs(phi - want))
    assert worst_phi <= 1e-6

    conc_cases = [
        (0.3, 0.4, 1.0),
        (0.6, 0.8, 0.2),
        (0.6, 1.0, 0.6 / math.sqrt(1.36)),
    ]
    worst_conc = 0.0
    for gamma, eta, want in conc_cases:
        m = pair_metrics(ChainParams(J=1.0, gamma=gamma, eta=eta, T=0.0))
        worst_conc = max(worst_conc, abs(m.concurrence - want))
    assert worst_conc <= 1e-12
    _report(5, f"phi dev {worst_phi:.2e}, ground conc dev {worst_conc:.2e}")


def test_criterion_06_probability_completeness():
    rng = np.random.default_rng(20260826)
    worst_swap = worst_tele = 0.0
    for _ in range(50):
        chis = [random_density(rng, 4) for _ in range(3)]
        total = swap_triple(*chis).probabilities.sum()
        worst_swap = max(worst_swap, abs(total - 1.0))
    for _ in range(50):
        resource = random_density(rng, 8)
        ket = random_ket(rng, 2)
        cfg = TeleportConfig(mu=rng.uniform(0.0, math.pi / 4.0))
        total = sum(
            conditioned_state(resource, ket, j, k, cfg)[0]
            for j in range(4)
            for k in (1, 2)
        )
        worst_tele = max(worst_tele, abs(total - 1.0))
    assert worst_swap <= 1e-10
    assert worst_tele <= 1e-10
    _report(
        6,
        f"50+50 inputs, swap dev {worst_swap:.2e}, teleport dev {worst_tele:.2e}",
    )


def test_criterion_07_sign_flip_symmetries():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(30):
        J = rng.uniform(0.2, 2.0)
        gamma = rng.uniform(0.0, 1.0)
        eta = rng.uniform(0.0, 2.5)
        T = rng.uniform(0.2, 4.0)
        base = thermal_state(ChainParams(J, gamma, eta, T))
        c0 = qcore.wootters_concurrence(base)
        f0 = qcore.bell_fraction(base)
        for flipped in (
            ChainParams(-J, gamma, eta, T),
            ChainParams(J, -gamma, eta, T),
            ChainParams(J, gamma, -eta, T),
        ):
            rho = thermal_state(flipped)
            worst = max(worst, abs(qcore.wootters_concurrence(rho) - c0))
            worst = max(worst, abs(qcore.bell_fraction(rho) - f0))
    assert worst <= 1e-10
    _report(7, f"30 points x 3 flips, max dev {worst:.2e}")


def test_criterion_08_asymptote_consistency():
    ratios = {}
    for eta in (50.0, 200.0):
        ratios[(2, eta)] = t2_critical(1.0, eta).t_over_j / t2_asymptote(1.0, eta)
        ratios[(3, eta)] = t3_critical(1.0, eta).t_over_j / t3_asymptote(1.0, eta)
    for kind in (2, 3):
        assert abs(ratios[(kind, 50.0)] - 1.0) <= 0.15
        assert abs(ratios[(kind, 200.0)] - 1.0) < abs(ratios[(kind, 50.0)] - 1.0)
    _report(
        8,
        "ratios at eta=50/200: "
        + f"kind2 {ratios[(2, 50.0)]:.4f}/{ratios[(2, 200.0)]:.4f}, "
        + f"kind3 {ratios[(3, 50.0)]:.4f}/{ratios[(3, 200.0)]:.4f}",
    )


def test_criterion_09_threshold_curve_shapes():
    grid = np.linspace(0.0, 2.0, 41)
    for gamma in (0.3, 0.6, 1.0):
        eta_crit = math.sqrt(1.0 - gamma**2)
        values = [r.t_over_j for r in sweep(3, gamma, grid)]
        below = [v for e, v in zip(grid, values) if e < eta_crit - 1e-12]
        above = [(e, v) for e, v in zip(grid, values) if e > eta_crit + 1e-12]
        for a, b in zip(below, below[1:]):
            assert b < a
        for (_, a), (_, b) in zip(above, above[1:]):
            assert b > a
        if gamma < 1.0:
            assert t3_critical(gamma, eta_crit).t_over_j == 0.0
    zero_curve = [r.t_over_j for r in sweep(3, 0.0, grid)]
    for e, v in zip(grid, zero_curve):
        if e < 1.0 - 1e-12:
            assert v > 0.0
        else:
            assert v == 0.0
    for a, b in zip(zero_curve[:20], zero_curve[1:20]):
        assert b < a
    _report(9, "4 curves: decrease, vanish at the critical field, increase")


def test_criterion_10_noise_amplification_ordering():
    roots2 = [r.t_over_j for r in sweep(2, 0.0, _TABLE_ETAS)]
    roots3 = [r.t_over_j for r in sweep(3, 0.0, _TABLE_ETAS)]
    gaps = [a - b for a, b in zip(roots2, roots3)]
    assert all(g > 0.0 for g in gaps)
    _report(10, f"t3 < t2 at all 10 columns, min gap {min(gaps):.4f}")
