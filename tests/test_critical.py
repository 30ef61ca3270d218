"""Tests for the critical-temperature solvers."""

import logging
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import public_margin, public_margins, reference_critical, scalar_bisection
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
from xyswap.xychain import ChainParams, field_terms, pair_metrics, thermal_state


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


@pytest.mark.xfail(strict=True, reason="known limit: the margin underflows above eta ~ 816")
def test_isotropic_concurrence_threshold_at_strong_fields():
    # the isotropic threshold does not depend on the field, but near it the
    # margin is about exp(-(eta - 1) / T) times a slope and underflows:
    # t1_critical(0.0, eta) returns 0.0 with converged=True from eta =
    # 815.786 up, where a stray 5e-324 can show above the returned root
    assert t1_critical(0.0, 858.0).t_over_j == pytest.approx(1.13459, abs=1e-4)


def test_concurrence_threshold_reentrant_point(caplog):
    # at gamma = 0.3, eta = 2 the concurrence vanishes on an inner window and
    # revives, so the margin crosses zero three times; the solver must keep
    # the largest root and say so
    with caplog.at_level(logging.WARNING, logger="xyswap.critical"):
        result = t1_critical(0.3, 2.0)
    assert result.converged
    assert result.t_over_j == pytest.approx(1.0348, abs=1e-3)
    assert [r.getMessage() for r in caplog.records] == [
        "kind 1 margin crosses zero 3 times (gamma=0.3, eta=2); keeping the largest root"
    ]


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
    assert repr(b) == repr(a)


def test_custom_ceiling_can_miss_the_root(caplog):
    # a guard that no default ceiling is known to reach: the solve from an
    # explicit ceiling below the root, where the margin is still positive
    with caplog.at_level(logging.WARNING, logger="xyswap.critical"):
        [result] = critical._solve(1, 0.0, [0.0], [0.5], 1.0)
    assert not result.converged
    assert math.isnan(result.t_over_j)
    assert result.bracket is None
    assert [r.getMessage() for r in caplog.records] == [
        "kind 1 margin still positive at scan ceiling T = 0.5 (gamma=0, eta=0)"
    ]


def test_result_fields():
    result = t2_critical(0.3, 0.7)
    assert isinstance(result, CriticalResult)
    assert result.kind == 2
    assert result.gamma == 0.3
    assert result.eta == 0.7
    with pytest.raises(AttributeError):
        result.t_over_j = 0.0  # frozen
    # an int eta is read as a float, as `sweep` reads every eta
    assert repr(t2_critical(0.3, 2)) == repr(t2_critical(0.3, 2.0))


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
        t1_critical(math.nan, 0.0)


_HUGE = 10**400  # an int too large for a float


@pytest.mark.parametrize("call", [
    lambda: t1_critical(0.5, _HUGE),
    lambda: t3_critical(0.5, 1.0, _HUGE),
    lambda: t2_asymptote(0.5, _HUGE),
    lambda: sweep(1, 0.5, [_HUGE]),
    lambda: ChainParams(J=_HUGE, gamma=0.0, eta=0.0, T=1.0),
], ids=["eta", "J", "asymptote", "sweep_eta", "chain_params"])
def test_ints_too_large_for_a_float_are_not_finite(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


# ---------------------------------------------------------------------------
# the array scan against the point-by-point reference


_FIG1_ETAS = list(np.linspace(0.0, 2.0, 81))
_TAIL_ETAS = [2.5, 7.0, 30.0, 120.0, 200.0]


def _mixed_etas(eta_max):
    """The fig1 grid and 219 log-spaced etas from 2 to eta_max in one fixed
    shuffled order: brackets that take from 23 to about 44 halvings."""
    tail = np.logspace(math.log10(2.0), math.log10(eta_max), 219)
    return [float(eta) for eta in np.random.default_rng(30).permutation(_FIG1_ETAS + list(tail))]


_SWEEPS = (
    # the table1 grid
    [(kind, 0.0, [round(0.1 * i, 1) for i in range(10)], 1.0) for kind in (2, 3)]
    # the fig1 grid, which holds the kind-1 re-entrant points at gamma = 0.3
    + [(kind, g, _FIG1_ETAS, 1.0) for g in (0.0, 0.3, 1.0) for kind in (1, 2, 3)]
    # large-field tails, where every eta has its own ceiling above 5 J
    + [(kind, g, _TAIL_ETAS, 1.0) for g in (0.3, 1.0) for kind in (1, 2, 3)]
    + [(kind, 0.4, [0.0, 0.5, 1.0, 1.5, 3.0, 50.0], j) for j in (0.37, 2.0) for kind in (1, 2, 3)]
    # roots below the scan floor
    + [(kind, 0.003, [1.0], 1.0) for kind in (2, 3)]
    # more etas than one pass holds, scanned and bisected in several blocks
    + [(1, 0.3, list(np.linspace(0.0, 2.0, 300)), 1.0)]
    # rows of 5 J ceilings and tail rows mixed within passes
    + [(kind, 0.3, _FIG1_ETAS + [2.5, 12.0, 16.0, 30.0, 55.0, 80.0, 120.0, 200.0, 11.0, 300.0, 500.0], 1.0)
       for kind in (1, 2, 3)]
    # ceilings of about 60 J, which took over 1024 points at 0.05 J
    + [(1, 0.5, [200.0], 1.0), (2, 0.5, [200.0], 1.0), (3, 0.5, [700.0], 1.0)]
    # 300 open brackets, more than one bisection chunk of 256 holds, fig1
    # and large-field etas mixed, so that the brackets of a chunk close at
    # different passes; kind 3 has no bracket above eta ~ 9e4 at gamma = 0.5
    # (its margin cancels to 0 there), so its etas stop at 1e4
    + [(kind, 0.5, _mixed_etas(1e4 if kind == 3 else 1e8), 1.0) for kind in (1, 2, 3)]
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


# the point solvers at their default ceilings (None), and `critical._solve`
# from an explicit ceiling T, handed to both solvers as T / J
@pytest.mark.parametrize("kind, gamma, eta, j, ceiling", [
    (1, 0.3, 2.0, 1.0, None),  # re-entrant: three crossings
    (1, 0.0, 0.0, 1.0, 0.5),  # the ceiling leaves the margin positive
    (2, 0.003, 1.0, 1.0, None),  # below the floor
    (3, 0.5, 0.4, 2.0, 7.3),
    (2, 0.6, 0.8, 0.37, None),  # T = 0 fallback on the degenerate boundary
    (1, 0.5, 1e305, 1.0, 1.0),  # B / T overflows below the ceiling
    # B = hypot(eta, gamma) J overflows, B / J does not
    (1, 0.5, 1e10, 1e300, 1e301),
    (3, 0.5, 1e10, 1e300, 1e301),
    (3, 0.2, 0.7, 1.0, 500.0),  # steps of 5 J
    # steps of 5 J miss the re-entrant window: one crossing, no warning
    (1, 0.3, 2.0, 1.0, 500.0),
    # ceilings at the floor: one-point grids, whose ceiling is also the floor
    (1, 0.3, 2.0, 1.0, critical._T_FLOOR_OVER_J),
    (3, 0.5, 0.4, 2.0, critical._T_FLOOR_OVER_J * 2.0),
    (2, 0.6, 0.8, 0.37, critical._T_FLOOR_OVER_J * 0.37),  # T = 0 fallback
])
def test_point_solvers_match_reference_solver(caplog, kind, gamma, eta, j, ceiling):
    solver = {1: t1_critical, 2: t2_critical, 3: t3_critical}[kind]
    with caplog.at_level(logging.WARNING, logger="xyswap.critical"):
        if ceiling is None:
            got = solver(gamma, eta, J=j)
        else:
            [got] = critical._solve(kind, gamma, [eta], [ceiling / j], j)
    want = reference_critical(kind, gamma, eta, J=j, ceiling=None if ceiling is None else ceiling / j)
    _assert_same_roots([got], [r.getMessage() for r in caplog.records], [want])


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
    # so the scans and the lockstep bisection mix within one sweep
    got, messages = _logged(lambda: sweep(kind, gamma, etas, J=j))
    _assert_same_roots(got, messages, [reference_critical(kind, gamma, float(eta), J=j) for eta in etas])


def _margin_passes(monkeypatch):
    """A list that grows by one per numpy margin pass of the solver."""
    passes = []
    array_margins = critical._scan_margins
    monkeypatch.setattr(critical, "_scan_margins", lambda *args: passes.append(args) or array_margins(*args))
    return passes


@pytest.mark.parametrize("kind, fig1_passes, tail_passes", [(1, 17, 7), (2, 17, 7), (3, 17, 6)])
def test_margin_pass_budget(monkeypatch, kind, fig1_passes, tail_passes):
    # numpy margin passes per sweep: the scan rows of 102 points, split into
    # the fewest passes of at most 17 rows (5 for the fig1 grid's 81), then
    # the lockstep bisection in passes of 256 lanes; the fixed cost of a
    # pass sets a root's cost.  The few pass lengths keep numpy's cache of
    # freed buffers under 1 KB small, and scan passes of at most 17 rows
    # keep glibc from trimming the heap after each pass
    passes = _margin_passes(monkeypatch)
    for etas, budget in ((_FIG1_ETAS, fig1_passes), (_TAIL_ETAS, tail_passes)):
        passes.clear()
        sweep(kind, 0.5, etas)
        lengths = [args[-1].size for args in passes]
        assert len(lengths) == budget
        assert all(length == 256 or (length % 102 == 0 and length <= 17 * 102) for length in lengths)
    # more rows than one pass holds: 300 rows in 18 passes of 16 or 17 rows
    passes.clear()
    sweep(kind, 0.5, list(np.linspace(0.0, 2.0, 300)))
    rows = [args[-1].size // 102 for args in passes if args[-1].size % 102 == 0]
    assert len(rows) == 18 and sum(rows) == 300
    assert max(rows) - min(rows) <= 1


def _counted_closed_forms(monkeypatch):
    """The arguments of every call the solver makes to the public closed
    forms, by the names it looks them up under."""
    evals = []

    def counted(closed_form):
        def wrapped(*args):
            evals.append(args)
            return closed_form(*args)
        return wrapped

    for name in ("pair_metrics", "fidelity_closed_form"):
        monkeypatch.setattr(critical, name, counted(getattr(critical, name)))
    return evals


@pytest.mark.parametrize("kind, fig1_evals, tail_evals", [(1, 0, 0), (2, 0, 0), (3, 0, 0)])
def test_scalar_recheck_budget(monkeypatch, kind, fig1_evals, tail_evals):
    # scalar closed-form calls per sweep: the array margins are the closed
    # forms' kernels, so only the T = 0 fallback of a scan without a bracket
    # calls a closed form, and no eta of these sweeps takes it
    evals = _counted_closed_forms(monkeypatch)
    for etas, budget in ((_FIG1_ETAS, fig1_evals), (_TAIL_ETAS, tail_evals)):
        evals.clear()
        sweep(kind, 0.5, etas)
        assert len(evals) == budget


def test_t0_fallback_is_the_only_scalar_call(monkeypatch):
    # eta = 1.2 at gamma = 0 has no FEF crossing, so its root comes from the
    # margin on the kernels' T = 0 input: one scalar call, for that eta only
    evals = []
    inputs = critical.kernel_inputs
    monkeypatch.setattr(critical, "kernel_inputs", lambda params: evals.append(params) or inputs(params))
    results = sweep(2, 0.0, [0.4, 1.2, 0.9])
    assert [p.T for p in evals] == [0.0]
    assert [p.eta for p in evals] == [1.2]
    assert results[1].t_over_j == 0.0


def test_positive_ceiling_ends_the_scan_after_its_first_pass(monkeypatch):
    # at eta = 1e305 the margin is about gamma / eta, positive, at an
    # explicit 5e4 J ceiling: the eta's one scan row is its only pass, no
    # bracket is bisected and no closed form is called for it
    evals = _counted_closed_forms(monkeypatch)
    passes = _margin_passes(monkeypatch)
    got, messages = _logged(lambda: critical._solve(1, 0.5, [1e305], [5e4], 1.0))
    assert len(evals) == 0
    assert len(passes) == 1
    _assert_same_roots(got, messages, [reference_critical(1, 0.5, 1e305, ceiling=5e4)])


def _counted_margins(sweep_):
    """sweep_, its margin passes counted, failing past 64 passes."""
    passes, margins = [], sweep_.margins

    def counted(rows, t):
        passes.append(t.size)
        assert len(passes) <= 64, "the bisection does not terminate"
        return margins(rows, t)

    sweep_.margins = counted
    return sweep_


def test_bisection_closes_brackets_above_two_to_the_26_j():
    # the kind-2 root at eta = 1e10 lies near 4.1e8 J, where adjacent
    # doubles are 6e-8 J apart: the 1e-8 J width is never reached, and the
    # bracket closes at two neighbouring doubles instead
    sweep_ = critical._Sweep(2, 0.5, [1e10])
    lo, hi = 4.0e8, 4.2e8
    assert (sweep_.margins(np.zeros(2, dtype=np.intp), np.array([lo, hi])) > 0.0).tolist() == [True, False]
    _counted_margins(sweep_)
    start = time.perf_counter()
    got = critical._bisect(sweep_, np.array([lo]), np.array([hi]), critical._BRACKET_WIDTH_OVER_J)
    assert time.perf_counter() - start < 1.0
    # the scalar loop of tests/helpers.py on the same bracket
    lo, hi = scalar_bisection(
        lambda t: public_margin(2, ChainParams(J=1.0, gamma=0.5, eta=1e10, T=t)), lo, hi
    )
    assert [a.tolist() for a in got] == [[lo], [hi]]
    assert 4.0e8 < lo < hi <= lo + 2 * math.ulp(lo)
    assert hi - lo > critical._BRACKET_WIDTH_OVER_J


def _bracket(lo, width):
    """(lo, lo + width), or with width None (lo, the next double above it)."""
    return lo, math.nextafter(lo, math.inf) if width is None else lo + width


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from([1, 2, 3]),
    gamma=st.floats(0.0, 1.0),
    brackets=st.lists(
        st.tuples(
            st.floats(-3.0, 10.0).map(lambda x: 10.0**x),  # eta
            # lo, and often near 2**26 J, where adjacent doubles grow past 1e-8 J
            st.one_of(st.floats(-6.0, 10.0).map(lambda x: 10.0**x), st.floats(2.0**23, 2.0**28)),
            st.one_of(st.floats(math.log10(2e-8), 3.0).map(lambda x: 10.0**x), st.none()),  # width
        ).map(lambda b: (b[0], *_bracket(b[1], b[2])))
        | st.floats(0.0, 200.0).map(lambda eta: (eta, math.nan, math.nan)),  # no bracket
        min_size=1,
        max_size=12,
    ).flatmap(
        # and one bracket of neighbouring doubles
        lambda brackets: st.permutations(brackets + [(1e10, *_bracket(4.1e8, None))])
    ),
)
@example(kind=2, gamma=0.5, brackets=[(1e10, 7e7, 7e7 + 1.0), (1.0, 0.5, 0.6)])
def test_bisection_gives_the_scalar_loops_brackets(kind, gamma, brackets):
    # every bracket of a lockstep bisection, below and above 2**24 J (where
    # the width alone tells an open bracket) and at neighbouring doubles,
    # closes where the scalar loop of tests/helpers.py closes it; NaN
    # stands for no bracket and stays.  The margin is the kind's inside
    # each bracket and, as at every bracket the scan hands on, positive at
    # its lo and not at its hi
    etas, lo, hi = (np.array(column) for column in zip(*brackets))
    sweep_ = _counted_margins(critical._Sweep(kind, gamma, etas.tolist()))
    margins = sweep_.margins

    def straddling(rows, t):
        return np.where(t == lo[rows], 1.0, np.where(t == hi[rows], -1.0, margins(rows, t)))

    sweep_.margins = straddling
    with np.errstate(all="ignore"):
        got = critical._bisect(sweep_, lo.copy(), hi.copy(), critical._BRACKET_WIDTH_OVER_J)

    def scalar(eta, a, b):
        def f(t):
            return 1.0 if t == a else -1.0 if t == b else public_margin(
                kind, ChainParams(J=1.0, gamma=gamma, eta=eta, T=t)
            )
        return (a, b) if math.isnan(a) else scalar_bisection(f, a, b)

    want = [scalar(*bracket) for bracket in brackets]
    assert [repr(b) for b in zip(*(a.tolist() for a in got))] == [repr(b) for b in want]


def test_scan_memory_stays_bounded_for_a_high_ceiling():
    # one scan row of 102 points from an explicit 5e4 J ceiling, in steps
    # of 500 J, where steps of 0.05 J took 10^6 points
    tracemalloc.start()
    try:
        [result] = critical._solve(3, 0.5, [0.4], [5e4], 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # repr(reference_critical(3, 0.5, 0.4, ceiling=5e4)[0]) from tests/helpers.py
    assert repr(result) == (
        "CriticalResult(kind=3, gamma=0.5, eta=0.4, t_over_j=0.45011228077948784, "
        "bracket=(0.45011227714150903, 0.45011228441746665), converged=True)"
    )
    # the root of the 0.05 J grid, 6.0e-10 J away
    assert result.t_over_j == pytest.approx(0.4501122813810498, abs=1e-8)


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_solve_work_is_bounded_at_any_field_and_ceiling(monkeypatch, kind):
    # one scan pass, then bisection from a bracket a hundredth of the
    # default ceiling wide, which follows the field up to ~3e297 J, down to
    # 1e-8 J or to neighbouring doubles
    solver = {1: t1_critical, 2: t2_critical, 3: t3_critical}[kind]
    passes = _margin_passes(monkeypatch)
    for eta in (1e3, 1e8, 1e50, 1e200, 1e300):
        passes.clear()
        assert solver(0.5, eta).converged
        assert len(passes) <= 10, eta


def test_roots_match_the_fine_grid_roots():
    # a ceiling above 5 J is scanned in steps of a hundredth of it; each
    # root stays within 1e-8 J of the 0.05 J grid's from the same ceiling,
    # both brackets being at most 1e-8 J wide around the same root.  The
    # fine grid, thousands of points a case, is evaluated on arrays through
    # the public kernels, and its first upward bracket is bisected by the
    # scalar loop of tests/helpers.py
    rng = np.random.default_rng(12)
    floor = critical._T_FLOOR_OVER_J
    for _ in range(300):
        kind, gamma = int(rng.integers(1, 4)), float(rng.choice([0.05, 0.3, 0.5, 1.0]))
        eta = math.exp(rng.uniform(math.log(2.0), math.log(5e3)))
        got = {1: t1_critical, 2: t2_critical, 3: t3_critical}[kind](gamma, eta)
        ceiling = critical._default_t_hi(kind, gamma, eta)
        fine = ceiling - 0.05 * np.arange(int(ceiling / 0.05) + 1)
        grid = np.r_[fine[fine > floor], floor]
        positive = public_margins(kind, gamma, eta, grid) > 0.0
        assert positive.any() and not positive[0], (kind, gamma, eta)
        i = int(positive.argmax())
        lo, hi = scalar_bisection(
            lambda t: public_margin(kind, ChainParams(J=1.0, gamma=gamma, eta=eta, T=t)), grid[i], grid[i - 1]
        )
        assert got.converged, (kind, gamma, eta)
        assert got.t_over_j == pytest.approx(0.5 * (lo + hi), abs=1e-8), (kind, gamma, eta)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(kind=st.sampled_from([1, 2, 3]), gamma=st.floats(0.0, 1.0), eta=st.floats(0.0, 1e3))
# kind-1 points where scans from coarser ceilings (50, 279.3 and 689.6 J)
# step over two crossings, and the re-entrant point
@example(kind=1, gamma=0.5, eta=1.5)
@example(kind=1, gamma=0.0342, eta=4.366)
@example(kind=1, gamma=0.215, eta=2.854)
@example(kind=1, gamma=0.3, eta=2.0)
def test_default_ceilings_give_the_largest_root(kind, gamma, eta):
    # no margin is positive on a dense grid from 1e-6 J above the root's
    # bracket (or above T = 0) up to the default ceiling, so no crossing
    # lies between the ceiling and the root; a zero root has a T = 0
    # margin <= 0.  The isotropic kind-1 margin, also where the field ratio
    # r underflows to 0, underflows above eta ~ 816 (README "Known limits";
    # test_isotropic_concurrence_threshold_at_strong_fields)
    assume(not (kind == 1 and eta > 815.0 and field_terms(gamma, eta)[1] == 0.0))
    result = {1: t1_critical, 2: t2_critical, 3: t3_critical}[kind](gamma, eta)
    ceiling = critical._default_t_hi(kind, gamma, eta)
    hi = result.bracket[1] if result.bracket else 0.0
    values = public_margins(kind, gamma, eta, np.linspace(hi + 1e-6, ceiling, 20_001))
    assert not np.isnan(values).any()
    assert not (values > 0.0).any(), (result, float(values.max()))
    if result.t_over_j == 0.0:
        assert public_margin(kind, ChainParams(J=1.0, gamma=gamma, eta=eta, T=0.0)) <= 0.0


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from([1, 2, 3]),
    lanes=st.lists(
        st.tuples(
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
            # eta from 0 to 1e300, and cold lanes from 1e303, where B / T
            # overflows near the scan floor
            st.one_of(st.floats(0.0, 1e3), st.floats(0.0, 1e300), st.floats(1e303, 1e308)),
            # T / J from the scan floor up
            st.one_of(st.just(1.0), st.floats(1.0, 1e12)).map(lambda x: x * critical._T_FLOOR_OVER_J),
        ),
        min_size=1,
        max_size=40,
    ),
    data=st.data(),
)
def test_array_margins_match_scalar_margins(kind, lanes, data):
    # one array per example, its lanes in a shuffled order and strided in
    # memory: each value is bit for bit the public closed forms' margin, and
    # lanes where B / T overflows take the closed forms' T -> 0 limit
    order = data.draw(st.permutations(range(len(lanes))))
    stride = data.draw(st.sampled_from([1, 2, 3]))
    points = [lanes[i] for i in order]
    arrays = np.zeros((3, stride * len(points)))
    for p, (gamma, eta, t_over_j) in enumerate(points):
        arrays[:, stride * p] = (*field_terms(gamma, eta), t_over_j)
    b, r, t = arrays[:, ::stride]
    with np.errstate(all="ignore"):
        values = critical._scan_margins(kind, b, r, t)
    for value, (gamma, eta, t_over_j), b_lane, t_lane in zip(values.tolist(), points, b.tolist(), t.tolist()):
        scalar = public_margin(kind, ChainParams(J=1.0, gamma=gamma, eta=eta, T=t_over_j))
        assert value == scalar
        if 1.0 / t_lane * b_lane == math.inf:  # beta B, as the closed forms form it
            assert value == public_margin(kind, ChainParams(J=1.0, gamma=gamma, eta=eta, T=0.0)) == 0.0


def _fig1_scan_temperatures():
    """The temperatures of the shipped fig1 scan: its 5 J ceiling, then
    repeated subtraction of 0.05 J, the first point at or below the floor
    clamped to it."""
    ts, t = [], 5.0
    while t > critical._T_FLOOR_OVER_J:
        ts.append(t)
        t -= 0.05
    return ts + [critical._T_FLOOR_OVER_J]


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", [1, 2, 3])
def test_array_margins_match_scalar_margins_on_the_fig1_scan(kind, gamma):
    # every (eta, T) point the fig1 sweep evaluates in its scan, where the
    # array forms carry most of the solver's traffic
    ts = np.array(_fig1_scan_temperatures())
    assert ts.size == 101
    for eta in _FIG1_ETAS:
        assert critical._default_t_hi(kind, gamma, eta) == ts[0]
        b, r = field_terms(gamma, eta)
        values = critical._scan_margins(kind, np.full(ts.size, b), np.full(ts.size, r), ts)
        scalar = [public_margin(kind, ChainParams(J=1.0, gamma=gamma, eta=eta, T=t)) for t in ts.tolist()]
        assert values.tolist() == scalar, eta
