"""Tests for the critical-temperature solvers."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_critical
from xyswap import critical, qcore
from xyswap.critical import (
    CriticalResult,
    sweep,
    t1_critical,
    t2_asymptote,
    t2_critical,
    t3_asymptote,
    t3_critical,
)
from xyswap.xychain import ChainParams, pair_metrics, thermal_state


# ---------------------------------------------------------------------------
# concurrence threshold (kind 1)


def test_concurrence_threshold_isotropic_value():
    for eta in (0.0, 0.5, 2.0):
        result = t1_critical(0.0, eta)
        assert result.converged
        assert result.t_over_j == pytest.approx(1.13459, abs=1e-4)


def test_concurrence_threshold_field_independent_when_isotropic():
    values = [t1_critical(0.0, eta).t_over_j for eta in (0.0, 0.3, 0.8, 2.0)]
    assert max(values) - min(values) < 1e-6


def test_concurrence_threshold_reentrant_point(caplog):
    # at gamma = 0.3, eta = 2 the concurrence vanishes on an inner window and
    # revives, so the margin crosses zero three times; the solver must keep
    # the largest root and say so
    with caplog.at_level(logging.WARNING, logger="xyswap.critical"):
        result = t1_critical(0.3, 2.0)
    assert result.converged
    assert result.t_over_j == pytest.approx(1.0348, abs=1e-3)
    assert any("crosses zero" in r.getMessage() for r in caplog.records)


def test_concurrence_threshold_against_dense_scan():
    # independent check through the generic spin-flip oracle: scan downward
    # in T until the concurrence first turns positive
    result = t1_critical(0.3, 2.0)
    found = None
    t = 1.2
    while t > 0.9:
        rho = thermal_state(ChainParams(J=1.0, gamma=0.3, eta=2.0, T=t))
        if qcore.wootters_concurrence(rho) > 0.0:
            found = t
            break
        t -= 1e-4
    assert found is not None
    assert result.t_over_j == pytest.approx(found, abs=2e-4)


# ---------------------------------------------------------------------------
# FEF threshold (kind 2)


def test_fef_threshold_reference_values():
    assert t2_critical(0.0, 0.4).t_over_j == pytest.approx(1.07525, abs=1e-4)
    assert t2_critical(0.0, 0.9).t_over_j == pytest.approx(0.71411, abs=1e-4)


def test_fef_threshold_collapses_beyond_unit_field():
    result = t2_critical(0.0, 1.2)
    assert result.converged
    assert result.t_over_j == 0.0
    assert result.bracket == (0.0, 0.0)


# ---------------------------------------------------------------------------
# fidelity threshold (kind 3)


def test_fidelity_threshold_reference_values():
    assert t3_critical(0.0, 0.0).t_over_j == pytest.approx(0.55508, abs=1e-4)
    assert t3_critical(0.0, 0.5).t_over_j == pytest.approx(0.43810, abs=1e-4)


def test_fidelity_threshold_zero_on_degenerate_boundary():
    result = t3_critical(0.6, 0.8)
    assert result.converged
    assert result.t_over_j == 0.0


# ---------------------------------------------------------------------------
# root quality and scaling


def test_roots_verify_their_margin():
    margins = {
        1: lambda p: 2.0 * pair_metrics(p).lambdas[0] - sum(pair_metrics(p).lambdas),
        2: lambda p: pair_metrics(p).fef - 0.5,
    }
    for kind, solver in ((1, t1_critical), (2, t2_critical), (3, t3_critical)):
        result = solver(0.4, 0.6)
        assert result.converged
        lo, hi = result.bracket
        assert hi - lo <= 1.1e-8
        assert lo <= result.t_over_j <= hi
        if kind in margins:
            margin = margins[kind]
            assert margin(ChainParams(1.0, 0.4, 0.6, lo)) >= 0.0
            assert margin(ChainParams(1.0, 0.4, 0.6, hi)) <= 0.0
            assert abs(margin(ChainParams(1.0, 0.4, 0.6, result.t_over_j))) < 1e-6


def test_roots_scale_with_coupling():
    a = t3_critical(0.5, 0.5, J=1.0)
    b = t3_critical(0.5, 0.5, J=2.5)
    assert b.t_over_j == pytest.approx(a.t_over_j, abs=1e-6)


def test_custom_ceiling_can_miss_the_root(caplog):
    with caplog.at_level(logging.WARNING, logger="xyswap.critical"):
        result = t1_critical(0.0, 0.0, t_hi=0.5)
    assert not result.converged
    assert math.isnan(result.t_over_j)
    assert result.bracket is None
    assert any("scan ceiling" in r.getMessage() for r in caplog.records)


def test_result_fields():
    result = t2_critical(0.3, 0.7)
    assert isinstance(result, CriticalResult)
    assert result.kind == 2
    assert result.gamma == 0.3
    assert result.eta == 0.7
    with pytest.raises(AttributeError):
        result.t_over_j = 0.0  # frozen


# ---------------------------------------------------------------------------
# asymptotes


def test_asymptote_formulas():
    assert t2_asymptote(0.5, 10.0) == pytest.approx(10.0 / math.log(40.0), abs=1e-12)
    assert t3_asymptote(0.5, 10.0) == pytest.approx(
        10.0 / (3.0 * math.log(20.0) + math.log(2.0)), abs=1e-12
    )
    # the fidelity threshold line always sits below the FEF one
    assert t3_asymptote(1.0, 50.0) < t2_asymptote(1.0, 50.0)


def test_asymptote_domain():
    with pytest.raises(ValueError):
        t2_asymptote(0.0, 10.0)
    with pytest.raises(ValueError):
        t3_asymptote(0.0, 10.0)
    with pytest.raises(ValueError):
        t2_asymptote(1.0, 0.4)  # 2 eta <= gamma
    with pytest.raises(ValueError):
        t3_asymptote(1.0, -1.0)
    # zero field: the log would fail with a bare math domain error
    with pytest.raises(ValueError, match="asymptote requires 2 eta > gamma"):
        t2_asymptote(0.5, 0.0)
    with pytest.raises(ValueError, match=r"asymptote requires 2 eta\*\*3 > gamma\*\*3"):
        t3_asymptote(0.5, 0.0)


def test_asymptotes_track_large_field_roots():
    ratio2 = t2_critical(1.0, 50.0).t_over_j / t2_asymptote(1.0, 50.0)
    ratio3 = t3_critical(1.0, 50.0).t_over_j / t3_asymptote(1.0, 50.0)
    assert 0.9 < ratio2 < 1.1
    assert 0.85 < ratio3 < 1.15


# ---------------------------------------------------------------------------
# sweeps and domain checks


def test_sweep_shapes_and_order():
    grid = [0.0, 0.4, 0.8, 1.2]
    results = sweep(3, 0.6, grid)
    assert [r.eta for r in results] == grid
    assert all(r.kind == 3 for r in results)
    assert all(r.converged for r in results)


def test_sweep_dips_to_zero_at_degeneracy():
    results = sweep(3, 0.6, [0.4, 0.8, 1.2])
    assert results[0].t_over_j > 0.0
    assert results[1].t_over_j == 0.0
    assert results[2].t_over_j > 0.0


def test_sweep_rejects_bad_kind():
    with pytest.raises(ValueError):
        sweep(0, 0.5, [0.0])
    with pytest.raises(ValueError):
        sweep(4, 0.5, [0.0])
    # bools and floats equal to a kind are not kinds; numpy integers are
    for kind in (True, 1.0, 2.0, np.float64(3.0)):
        with pytest.raises(ValueError, match="kind must be 1, 2 or 3"):
            sweep(kind, 0.5, [0.5])
    results = sweep(np.int64(2), 0.5, [0.5])
    assert type(results[0].kind) is int
    assert results == sweep(2, 0.5, [0.5])


@pytest.mark.parametrize("gamma, j, message", [
    (5.0, 1.0, r"gamma must lie in \[0, 1\], got 5.0"),
    (math.nan, -1.0, "gamma must be finite, got nan"),
    (0.5, -1.0, "J must be positive, got -1.0"),
])
def test_sweep_checks_gamma_and_j_for_any_grid(gamma, j, message):
    # the empty grid raises what a one-eta grid raises
    for grid in ([], [0.5]):
        with pytest.raises(ValueError, match=message):
            sweep(3, gamma, grid, J=j)


def test_domain_validation():
    with pytest.raises(ValueError):
        t1_critical(-0.1, 0.0)
    with pytest.raises(ValueError):
        t1_critical(1.5, 0.0)
    with pytest.raises(ValueError):
        t1_critical(0.5, -0.2)
    with pytest.raises(ValueError):
        t1_critical(0.5, 0.0, J=0.0)
    with pytest.raises(ValueError):
        t1_critical(0.5, 0.0, J=-1.0)
    with pytest.raises(ValueError):
        t1_critical(0.5, 0.0, t_hi=-2.0)
    with pytest.raises(ValueError):
        t1_critical(0.5, 0.0, t_hi=math.inf)
    # a ceiling below the 1e-6 J scan floor
    with pytest.raises(ValueError):
        t1_critical(0.5, 0.0, t_hi=5e-7)
    with pytest.raises(ValueError):
        t3_critical(0.5, 0.0, J=2.0, t_hi=1.5e-6)
    with pytest.raises(ValueError):
        t1_critical(math.nan, 0.0)


# ---------------------------------------------------------------------------
# the array scan against the point-by-point reference


_FIG1_ETAS = list(np.linspace(0.0, 2.0, 81))
_TAIL_ETAS = [2.5, 7.0, 30.0, 120.0, 200.0]
_SWEEPS = (
    # the table1 grid
    [(kind, 0.0, [round(0.1 * i, 1) for i in range(10)], 1.0) for kind in (2, 3)]
    # the fig1 grid, which holds the kind-1 re-entrant points at gamma = 0.3
    + [(kind, g, _FIG1_ETAS, 1.0) for g in (0.0, 0.3, 1.0) for kind in (1, 2, 3)]
    # large-field tails, where every eta has its own ceiling
    + [(kind, g, _TAIL_ETAS, 1.0) for g in (0.3, 1.0) for kind in (1, 2, 3)]
    + [(kind, 0.4, [0.0, 0.5, 1.0, 1.5, 3.0, 50.0], j) for j in (0.37, 2.0) for kind in (1, 2, 3)]
    # roots below the scan floor
    + [(kind, 0.003, [1.0], 1.0) for kind in (2, 3)]
    # more etas than one pass holds, scanned and bisected in several blocks
    + [(1, 0.3, list(np.linspace(0.0, 2.0, 300)), 1.0)]
    # 7 to 11 ceilings scanned in shared passes, their grids ending in different ones
    + [(kind, 0.3, _FIG1_ETAS + [2.5, 12.0, 16.0, 30.0, 55.0, 80.0, 120.0, 200.0, 11.0, 300.0, 500.0], 1.0)
       for kind in (1, 2, 3)]
    # one eta whose grid of over 1024 points spans several passes
    + [(1, 0.5, [200.0], 1.0), (2, 0.5, [200.0], 1.0), (3, 0.5, [700.0], 1.0)]
)


def _assert_same_roots(got, messages, want):
    assert [repr(r) for r in got] == [repr(r) for r, _ in want]
    assert messages == [m for _, ms in want for m in ms]


@pytest.mark.parametrize("kind, gamma, etas, j", _SWEEPS)
def test_sweep_matches_reference_solver(caplog, kind, gamma, etas, j):
    with caplog.at_level(logging.WARNING, logger="xyswap.critical"):
        got = sweep(kind, gamma, etas, J=j)
    want = [reference_critical(kind, gamma, float(eta), J=j) for eta in etas]
    _assert_same_roots(got, [r.getMessage() for r in caplog.records], want)


@pytest.mark.parametrize("kind, gamma, eta, j, t_hi", [
    (1, 0.3, 2.0, 1.0, None),  # re-entrant: three crossings
    (1, 0.0, 0.0, 1.0, 0.5),  # the ceiling leaves the margin positive
    (2, 0.003, 1.0, 1.0, None),  # below the floor
    (3, 0.5, 0.4, 2.0, 7.3),
    (2, 0.6, 0.8, 0.37, None),  # T = 0 fallback on the degenerate boundary
    (1, 0.5, 1e305, 1.0, 1.0),  # B / T overflows below the ceiling
    (3, 0.2, 0.7, 1.0, 500.0),  # 10^4 scan points
    # ceilings at the floor: one-point grids, whose ceiling is also the floor
    (1, 0.3, 2.0, 1.0, critical._T_FLOOR_OVER_J),
    (3, 0.5, 0.4, 2.0, critical._T_FLOOR_OVER_J * 2.0),
    (2, 0.6, 0.8, 0.37, critical._T_FLOOR_OVER_J * 0.37),  # T = 0 fallback
])
def test_point_solvers_match_reference_solver(caplog, kind, gamma, eta, j, t_hi):
    solver = {1: t1_critical, 2: t2_critical, 3: t3_critical}[kind]
    with caplog.at_level(logging.WARNING, logger="xyswap.critical"):
        got = solver(gamma, eta, J=j, t_hi=t_hi)
    want = reference_critical(kind, gamma, eta, J=j, t_hi=t_hi)
    _assert_same_roots([got], [r.getMessage() for r in caplog.records], [want])


def test_ulp_noise_in_array_margins_moves_no_root(monkeypatch):
    # the array forms may differ from the scalar ones by an ulp; margins
    # that are zero or nearly so (flat regions at gamma = 0 and 1) are
    # recomputed by the scalar forms, so such noise cannot add a crossing
    array_margins = critical._scan_margins

    def noisy(*args):
        values = array_margins(*args)
        return values + 1e-15 * np.where(np.arange(values.size) % 2, 1.0, -1.0)

    monkeypatch.setattr(critical, "_scan_margins", noisy)
    etas = _FIG1_ETAS + _TAIL_ETAS
    for gamma in (0.0, 0.3, 1.0):
        for kind in (1, 2, 3):
            got = sweep(kind, gamma, etas)
            want = [reference_critical(kind, gamma, float(eta))[0] for eta in etas]
            assert [repr(r) for r in got] == [repr(r) for r in want]


def _logged(solve):
    """The value of solve() and the messages it logged to xyswap.critical."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    log = logging.getLogger("xyswap.critical")
    log.addHandler(handler)
    try:
        return solve(), messages
    finally:
        log.removeHandler(handler)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from([1, 2, 3]),
    gamma=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.003, 0.3, 0.6, 1.0])),
    j=st.sampled_from([0.37, 1.0, 2.0]),
    etas=st.lists(st.one_of(st.sampled_from(_FIG1_ETAS), st.floats(2.0, 200.0)), max_size=16).flatmap(
        # eta = 1.0 lies below the floor at gamma = 0.003; 0.8 at gamma = 0.6
        # and 1.2 at gamma = 0 (kind 2) take the T = 0 fallback
        lambda etas: st.permutations(etas + [1.0, 0.8, 1.2])
    ),
)
def test_random_sweeps_match_reference_solver(kind, gamma, j, etas):
    # fig1-grid etas share the 5 J ceiling, tail etas each have their own,
    # so the scans, rechecks and lockstep bisection mix within one sweep
    got, messages = _logged(lambda: sweep(kind, gamma, etas, J=j))
    _assert_same_roots(got, messages, [reference_critical(kind, gamma, float(eta), J=j) for eta in etas])


@pytest.mark.parametrize("kind, fig1_passes, tail_passes", [(1, 21, 8), (2, 21, 8), (3, 21, 6)])
def test_margin_pass_budget(monkeypatch, kind, fig1_passes, tail_passes):
    # numpy margin passes per sweep: whole grid columns of every ceiling's
    # grid, each grid's ceiling its first column, in the same passes of up
    # to 1024 lanes, then the lockstep bisection; the fixed cost of a pass
    # sets a root's cost.
    # Pass lengths are whole blocks of 128 lanes, so that numpy's cache of
    # freed buffers under 1 KB holds a few sizes, not one per pass length
    lengths = []
    array_margins = critical._scan_margins

    def counted(*args):
        lengths.append(args[-1].size)
        return array_margins(*args)

    monkeypatch.setattr(critical, "_scan_margins", counted)
    for etas, passes in ((_FIG1_ETAS, fig1_passes), (_TAIL_ETAS, tail_passes)):
        lengths.clear()
        sweep(kind, 0.5, etas)
        assert len(lengths) == passes
        assert all(length % 128 == 0 and length <= 1024 for length in lengths)


@pytest.mark.parametrize("kind, fig1_evals, tail_evals", [(1, 0, 0), (2, 0, 0), (3, 0, 30)])
def test_scalar_recheck_budget(monkeypatch, kind, fig1_evals, tail_evals):
    # scalar margins per sweep: the rechecks of array margins near zero and
    # the T = 0 fallback, all through the public closed forms.  Only the
    # margins the crossing rules and the bisection read are rechecked;
    # rechecking every near-zero bisection node takes the kind-3 tail to 149
    evals = []

    def counted(closed_form):
        def wrapped(*args):
            evals.append(args)
            return closed_form(*args)
        return wrapped

    for name in ("pair_metrics", "fidelity_closed_form"):
        monkeypatch.setattr(critical, name, counted(getattr(critical, name)))
    for etas, budget in ((_FIG1_ETAS, fig1_evals), (_TAIL_ETAS, tail_evals)):
        evals.clear()
        sweep(kind, 0.5, etas)
        assert len(evals) == budget


def test_positive_ceiling_ends_the_scan_after_its_first_pass(monkeypatch):
    # at eta = 1e305 every margin below this ceiling lies within 1e-13 of
    # zero and is rechecked; the eta leaves its grid after the pass that
    # holds its ceiling, not 10^6 scan points later
    evals = []
    metrics = critical.pair_metrics
    monkeypatch.setattr(critical, "pair_metrics", lambda params: evals.append(params) or metrics(params))
    got, messages = _logged(lambda: t1_critical(0.5, 1e305, t_hi=5e4))
    assert len(evals) <= critical._SCAN_LANES
    _assert_same_roots([got], messages, [reference_critical(1, 0.5, 1e305, t_hi=5e4)])


def test_scan_memory_stays_bounded_for_a_high_ceiling():
    # about 10^6 scan points; the whole grid as an array alone would be 8 MB
    tracemalloc.start()
    try:
        result = t3_critical(0.5, 0.4, t_hi=5e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # repr(reference_critical(3, 0.5, 0.4, t_hi=5e4)[0]) from tests/helpers.py,
    # computed once, before the array passes were last reworked, and stored:
    # that reference walks the 10^6 scan points one scalar closed form at a
    # time, which takes ~10 s
    assert repr(result) == (
        "CriticalResult(kind=3, gamma=0.5, eta=0.4, t_over_j=0.4501122813810498, "
        "bracket=(0.4501122784008176, 0.45011228436128203), converged=True)"
    )


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    J=st.floats(1e-3, 1e3),
    gamma=st.floats(0.0, 1.0),
    eta=st.floats(0.0, 1e3),
    T=st.floats(1e-6, 1e6),
)
def test_array_margins_match_scalar_margins(J, gamma, eta, T):
    # numpy's exp is not libm's, so the array forms may differ by an ulp
    T = max(T, 1e-6 * J)
    b, r = critical._field_terms(gamma, eta, J)
    for kind in (1, 2, 3):
        value = critical._scan_margins(kind, J, np.array([b]), np.array([r]), np.array([T]))[0]
        scalar = critical._MARGINS[kind](ChainParams(J=J, gamma=gamma, eta=eta, T=T))
        assert abs(value - scalar) <= 1e-15


def _fig1_scan_temperatures():
    """The temperatures of the shipped fig1 scan: its 5 J ceiling, then
    repeated subtraction of 0.05 J, the first point at or below the floor
    clamped to it."""
    ts, t = [], 5.0
    while t > critical._T_FLOOR_OVER_J:
        ts.append(t)
        t -= critical._SCAN_STEP_OVER_J
    return ts + [critical._T_FLOOR_OVER_J]


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", [1, 2, 3])
def test_array_margins_match_scalar_margins_on_the_fig1_scan(kind, gamma):
    # every (eta, T) point the fig1 sweep evaluates in its scan, where the
    # array forms carry most of the solver's traffic
    ts = np.array(_fig1_scan_temperatures())
    assert ts.size == 101
    for eta in _FIG1_ETAS:
        assert critical._default_t_hi(kind, gamma, eta, 1.0) == ts[0]
        b, r = critical._field_terms(gamma, eta, 1.0)
        values = critical._scan_margins(kind, 1.0, np.full(ts.size, b), np.full(ts.size, r), ts)
        scalar = [critical._MARGINS[kind](ChainParams(J=1.0, gamma=gamma, eta=eta, T=t)) for t in ts.tolist()]
        assert np.max(np.abs(values - scalar)) <= 1e-15, eta
