"""Critical temperatures of the swapped-channel figures of merit.

Three thresholds are tracked as functions of the chain parameters, each a
root in temperature of a signed margin:

  kind 1: pair concurrence,            2 lambda_max - sum(lambda) = 0
  kind 2: pair fully entangled fraction,              FEF - 1/2 = 0
  kind 3: average teleport fidelity at mu = pi/4,   Phi - 2/3 = 0

Each margin is positive below its critical temperature and negative above
it, so a descending scan from a ceiling finds the largest root; that
bracket is then bisected.  Each margin depends on T / J alone, so the
solver works in units of J: J only converts an explicit ceiling and the
temperatures that the warnings print.  All etas of a sweep are solved on
one array path of numpy passes of bounded size: each eta's scan is one
row of at most 102 temperatures from its ceiling, in steps of 0.05 up to
a ceiling of 5 and of a hundredth of the ceiling above; the rows are
split into the fewest passes of at most 17 whole rows, of sizes within
one row of each other, small enough that freeing a pass's temporaries
does not trim the heap, and the crossing rules run along the rows; then
the bisection steps all brackets in lockstep, in chunks of up to 256
open brackets, each on one lane layout until all of them close.  The
passes run the numpy kernels of `pair_metrics` and `fidelity_closed_form`
on arrays, so every sign is the one those public closed forms give.  For
gamma > 0 the thresholds grow roughly linearly in eta, and the scan ceiling
follows the large-eta asymptote so the root never escapes the scanned
window; the bounded row keeps the solve's cost bounded however large the
field or the ceiling.
"""

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

# unused here, but the perfbench tracer wraps pair_metrics and fidelity_closed_form under these names
from .teleport import fidelity_closed_form, fidelity_coefficients
from .xychain import (
    ChainParams, bell_overlap, field_terms, is_finite, kernel_inputs, pair_metrics, scaled_exponentials,
    spin_flip_roots,
)

__all__ = [
    "CriticalResult",
    "t1_critical",
    "t2_critical",
    "t3_critical",
    "t2_asymptote",
    "t3_asymptote",
    "sweep",
]

_T_FLOOR_OVER_J = 1e-6
_SCAN_STEP_OVER_J = 0.05  # the scan step up to a ceiling of 5
_SCAN_STEPS = 100  # steps from a ceiling above 5 down to 0
_BRACKET_WIDTH_OVER_J = 1e-8
# most eta scans per scan pass, ~1.7k lanes (the fig1 grid's 81 rows in 5
# passes, of sizes that differ by one row at most): with 20 to 41 rows, freeing
# a pass's temporaries let glibc trim the heap, and the next pass faulted it back
_SCAN_ROWS = 17
_BISECT_LANES = 256  # midpoints per bisection pass
_LANES = np.arange(_BISECT_LANES)


class CriticalResult(NamedTuple):
    """Root of one margin kind at fixed (gamma, eta), in units of J."""

    kind: int
    gamma: float
    eta: float
    t_over_j: float
    bracket: tuple | None
    converged: bool


def _check_domain(gamma, eta, j):
    for name, value in (("gamma", gamma), ("eta", eta), ("J", j)):
        if not is_finite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma!r}")
    if eta < 0.0:
        raise ValueError(f"eta must be nonnegative, got {eta!r}")
    if j <= 0.0:
        raise ValueError(f"J must be positive, got {j!r}")


def t2_asymptote(gamma, eta, J=1.0):
    """Large-eta slope line for the FEF threshold, eta J / ln(2 eta / gamma)."""
    _check_domain(gamma, eta, J)
    if gamma == 0.0:
        raise ValueError("asymptote requires gamma > 0")
    den = math.log(eta) - math.log(gamma) + math.log(2.0) if eta > 0.0 else 0.0
    if den <= 0.0:
        raise ValueError("asymptote requires 2 eta > gamma")
    return eta * J / den


def t3_asymptote(gamma, eta, J=1.0):
    """Large-eta slope line for the fidelity threshold,
    eta J / (3 ln(eta / gamma) + ln 2)."""
    _check_domain(gamma, eta, J)
    if gamma == 0.0:
        raise ValueError("asymptote requires gamma > 0")
    den = 3.0 * (math.log(eta) - math.log(gamma)) + math.log(2.0) if eta > 0.0 else 0.0
    if den <= 0.0:
        raise ValueError("asymptote requires 2 eta**3 > gamma**3")
    return eta * J / den


def _margin(kind, e, r):
    """The kind's margin from the closed forms' kernels on their inputs
    (e, r), floats (`kernel_inputs`) or arrays (`scaled_exponentials` and
    `field_terms`), so each value is bit for bit the one the public closed
    forms give at J = 1."""
    if kind == 1:
        return spin_flip_roots(e, r)[1]
    if kind == 2:
        return bell_overlap(e, r) - 0.5
    c1, c2 = fidelity_coefficients(e, r)  # at mu = pi/4
    return c1 + 0.5 * c2 - 2.0 / 3.0


def _default_t_hi(kind, gamma, eta):
    t_hi = 5.0
    if gamma > 0.0 and eta > 2.0:
        asym = t3_asymptote(gamma, eta) if kind == 3 else t2_asymptote(gamma, eta)
        t_hi = max(t_hi, 2.0 * asym)
    return t_hi


def _scan_margins(kind, b, r, t):
    """The kind's margin at temperatures t / J > 0, with b and r from
    `field_terms`, arrays of one shape: `_margin` on `scaled_exponentials`.
    Where b / t overflows (at t >= 1e-6, hypot(eta, gamma) above ~1.8e302)
    the kernels give NaN, set to 0, the margin of their T -> 0 input there
    (`kernel_inputs`)."""
    margin = _margin(kind, scaled_exponentials(1.0 / t, b), r)
    np.copyto(margin, 0.0, where=np.isnan(margin))
    return margin


class _Sweep:
    """A sweep's per-eta constants, for numpy passes whose lanes are each
    an eta index (`rows`) and a temperature."""

    def __init__(self, kind, gamma, etas):
        self.kind = kind
        terms = [field_terms(gamma, eta) for eta in etas]
        self.b, self.r = np.array([b for b, _ in terms]), np.array([r for _, r in terms])

    def margins(self, rows, t):
        return _scan_margins(self.kind, self.b[rows], self.r[rows], t)


def _scan(sweep, t_his):
    """Scan every eta down from its ceiling in `t_his` and return, per eta,
    its margin at the ceiling, its crossings below and, unless that margin
    is positive (no root, no bisection), its first upward bracket (T,
    previous T) as lo and hi, NaN where there is none.
    An eta's scan is one row: its ceiling, then T - s, T - 2 s, ...
    (repeated subtraction), the first point at or below the floor clamped
    to it and the rest of the row padded with the floor, which adds no
    crossing.  The step s is 0.05 up to a ceiling of 5 and t_hi /
    _SCAN_STEPS above it, so a row of _SCAN_STEPS + 2 points always
    reaches the floor.  The rows are split into the fewest passes of at
    most _SCAN_ROWS whole rows, sizes that differ by one row at most and
    keep glibc from trimming the heap after every pass."""
    n = t_his.size
    f_hi, crossings = np.empty(n), np.empty(n, dtype=np.intp)
    lo, hi = np.full(n, math.nan), np.full(n, math.nan)
    passes = -(-n // _SCAN_ROWS)
    for k in range(passes):
        part = np.arange(k * n // passes, (k + 1) * n // passes)
        ceilings = t_his[part]
        steps = np.where(ceilings > 5.0, ceilings / _SCAN_STEPS, _SCAN_STEP_OVER_J)
        acc = np.empty((part.size, _SCAN_STEPS + 2))
        acc[:, 0], acc[:, 1:] = ceilings, steps[:, None]
        t = np.maximum(np.subtract.accumulate(acc, axis=1), _T_FLOOR_OVER_J)
        values = sweep.margins(part[:, None], t)
        signs = np.sign(values)
        current = signs[:, 1:]
        # strict sign on the current point, so margins that merely
        # underflow to exact zero near T = 0 do not count as crossings
        cross = (current != signs[:, :-1]) & (current != 0.0)
        upward = cross & (current > 0.0)
        f_hi[part], crossings[part] = values[:, 0], cross.sum(axis=1)
        found = (upward.any(axis=1) & (values[:, 0] <= 0.0)).nonzero()[0]
        col = upward[found].argmax(axis=1)
        lo[part[found]], hi[part[found]] = t[found, col + 1], t[found, col]
    return f_hi, crossings, lo, hi


@functools.cache
def _tree(depth):
    """Lane tables for `depth` bisection steps of each bracket slot at once,
    its size = 2**depth - 1 midpoints in heap order: the size, each lane's
    slot, each lane's lower and upper child (clamped to the last lane), and
    per step after the first the lanes whose path takes the upper half
    there (lo = mid), then those taking the lower (hi = mid)."""
    size = 2**depth - 1
    heap = [(lane // size, lane % size + 1) for lane in range(_BISECT_LANES)]  # (slot, node from 1)
    turns = []
    for step in range(1, depth):
        # node q, of q.bit_length() levels, turns at `step` by that bit of q
        bits = [q >> q.bit_length() - 1 - step & 1 if q.bit_length() > step else None for _, q in heap]
        turns.append((np.array([b == 1 for b in bits]), np.array([b == 0 for b in bits])))

    def lanes(values):
        return np.array([min(v, _BISECT_LANES - 1) for v in values])

    lower = lanes(s * size + 2 * q - 1 for s, q in heap)
    upper = lanes(s * size + 2 * q for s, q in heap)
    return size, np.array([s for s, _ in heap]), lower, upper, turns


def _open(lo, hi, width):
    """Which brackets (lo, hi) are wider than `width` and not yet two
    neighbouring doubles, which lie over 1e-8 apart above 2**26."""
    mid = 0.5 * (lo + hi)
    return (hi - lo > width) & (mid != lo) & (mid != hi)


def _bisect(sweep, lo_all, hi_all, width):
    """The brackets (lo_all, hi_all), NaN where there is none, narrowed in
    place by mid = 0.5 * (lo + hi) and the sign of the margin there, as a
    scalar bisection narrows them, until `_open` closes them, all etas in
    lockstep, and returned.  The open brackets are taken in index order,
    in chunks of up to _BISECT_LANES, each bisected to the end (`_passes`)
    before the next."""
    open_ = _open(lo_all, hi_all, width).nonzero()[0]
    for start in range(0, open_.size, _BISECT_LANES):
        held = open_[start:start + _BISECT_LANES]
        lo_all[held], hi_all[held] = _passes(sweep, held, lo_all[held], hi_all[held], width)
    return lo_all, hi_all


def _passes(sweep, held, lo, hi, width):
    """The open brackets (lo, hi) of etas `held`, one chunk of `_bisect`,
    bisected on one tree and one lane layout until every one is closed.  A
    pass takes the midpoints of the next `depth` steps of each bracket,
    depth as large as the pass allows, each formed along its own path with
    the scalar arithmetic.  Each bracket then follows the signs down its
    tree by indexing only, once, and stays where it is closed, in that
    pass and in the rest its chunk takes, so it reads the midpoints the
    scalar loop reads, given a margin positive at lo and not at hi, as the
    scan hands brackets on."""
    count = held.size
    size, slot, lower, upper, turns = _tree((_BISECT_LANES // count + 1).bit_length() - 1)
    pick = np.minimum(slot, count - 1)  # padding slots repeat the last bracket
    rows, roots = held[pick], _LANES[:count * size:size]
    # below width * 2**51 (2**24.4 J at 1e-8 J) adjacent doubles lie under
    # width / 2 apart, so the midpoint of a bracket wider than `width` lies
    # strictly inside it, and the width alone tells an open bracket
    fine = hi.max() < width * 2.0**51
    while True:
        t_lo, t_hi = lo[pick], hi[pick]
        for to_upper, to_lower in turns:
            mid = 0.5 * (t_lo + t_hi)
            np.copyto(t_lo, mid, where=to_upper)
            np.copyto(t_hi, mid, where=to_lower)
        t = 0.5 * (t_lo + t_hi)
        positive = sweep.margins(rows, t) > 0.0
        # the width alone: in a bracket closed at neighbouring doubles the
        # midpoint is an end, and its sign moves that end onto itself
        wide = t_hi - t_lo > width
        # each lane's next lane: its child by the sign, or itself where the
        # bracket is closed, and the scalar loop stops
        after = np.where(wide, np.where(positive, upper, lower), _LANES)
        lane = roots
        for _ in turns:
            lane = after[lane]
        up = wide & positive
        lo = np.where(up, t, t_lo)[lane]
        hi = np.where(wide ^ up, t, t_hi)[lane]
        if not (hi - lo > width if fine else _open(lo, hi, width)).any():
            return lo, hi


def _solve(kind, gamma, etas, t_his, j):
    """Roots of one margin kind at each (eta, scan ceiling) pair, ceilings
    and roots in units of J, on one array path of numpy passes of bounded
    size (`_Sweep`), which keeps memory bounded and flat for any ceiling
    and sweep, and of bounded number for any ceiling.

    First the descending scans, which start at the ceilings: one row of at
    most 102 points per eta, in the fewest passes of at most 17 whole rows
    (~1.7k lanes), balanced to within one row, with the crossing rules
    applied along each row (`_scan`).  Then the bisection of the first
    upward bracket of every eta whose margin is not positive at its
    ceiling, all in lockstep on the array margins (`_bisect`).  The array
    margins are the public closed forms' kernels, bit for bit, so each
    sign, bracket, root and warning is the one a point-by-point scalar
    solver on the same grid gives; the T = 0 fallback of `_root` runs the
    same `_margin` on the kernels' T = 0 input.
    """
    sweep = _Sweep(kind, gamma, etas)
    with np.errstate(all="ignore"):
        f_hi, crossings, lo, hi = _scan(sweep, np.array(t_his))
        _bisect(sweep, lo, hi, _BRACKET_WIDTH_OVER_J)
    return [
        _root(kind, gamma, *args, j)
        for args in zip(etas, t_his, f_hi.tolist(), crossings.tolist(), lo.tolist(), hi.tolist())
    ]


def _warn(message, *args):
    """Log a warning to the `xyswap.critical` logger.  `logging` is loaded
    here, on the first warning, not when the package is imported; handlers
    attached to the logger by that name receive every warning."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


def _root(kind, gamma, eta, t_hi, f_hi, crossings, lo, hi, j):
    """One eta's result from its scan and bisected bracket (lo, hi), NaN
    where there is none, with the T = 0 fallback and the warnings, which
    print absolute temperatures (times j)."""
    if f_hi > 0.0:
        _warn(
            "kind %d margin still positive at scan ceiling T = %.6g (gamma=%g, eta=%g)",
            kind, t_hi * j, gamma, eta,
        )
        return CriticalResult(kind, gamma, eta, math.nan, None, False)

    if math.isnan(lo):
        m0 = _margin(kind, *kernel_inputs(ChainParams(J=1.0, gamma=gamma, eta=eta, T=0.0)))
        if m0 <= 0.0:
            return CriticalResult(kind, gamma, eta, 0.0, (0.0, 0.0), True)
        _warn(
            "kind %d margin positive at T = 0 but no crossing found above %.1e (gamma=%g, eta=%g)",
            kind, _T_FLOOR_OVER_J * j, gamma, eta,
        )
        return CriticalResult(kind, gamma, eta, math.nan, None, False)

    if crossings > 1:
        _warn(
            "kind %d margin crosses zero %d times (gamma=%g, eta=%g); keeping the largest root",
            kind, crossings, gamma, eta,
        )

    return CriticalResult(kind, gamma, eta, 0.5 * (lo + hi), (lo, hi), True)


def _ceiling(kind, gamma, eta, j, t_hi):
    """Checked scan ceiling in units of J: the given one over J, kept in
    [1e-6, the largest double], or the default for the kind."""
    _check_domain(gamma, eta, j)
    if t_hi is None:
        return _default_t_hi(kind, gamma, eta)
    if not (is_finite(t_hi) and t_hi >= _T_FLOOR_OVER_J * j):
        raise ValueError(f"t_hi must be finite and at least {_T_FLOOR_OVER_J:g} J, got {t_hi!r}")
    return min(max(t_hi / j, _T_FLOOR_OVER_J), sys.float_info.max)


def _critical(kind, gamma, eta, j, t_hi):
    return _solve(kind, gamma, [eta], [_ceiling(kind, gamma, eta, j, t_hi)], j)[0]


def t1_critical(gamma, eta, J=1.0, *, t_hi=None):
    """Temperature where the pair concurrence vanishes."""
    return _critical(1, gamma, eta, J, t_hi)


def t2_critical(gamma, eta, J=1.0, *, t_hi=None):
    """Temperature where the pair FEF drops to 1/2."""
    return _critical(2, gamma, eta, J, t_hi)


def t3_critical(gamma, eta, J=1.0, *, t_hi=None):
    """Temperature where the swapped-channel fidelity at mu = pi/4 drops
    to the classical 2/3."""
    return _critical(3, gamma, eta, J, t_hi)


def sweep(kind, gamma, eta_grid, J=1.0):
    """All critical temperatures of one kind along a grid of eta values."""
    if isinstance(kind, bool) or not isinstance(kind, (int, np.integer)) or kind not in (1, 2, 3):
        raise ValueError(f"kind must be 1, 2 or 3, got {kind!r}")
    _check_domain(gamma, 0.0, J)  # gamma and J once, whatever the grid
    etas = list(eta_grid)
    for eta in etas:
        if not (is_finite(eta) and eta >= 0.0):
            _check_domain(gamma, eta, J)  # raises the eta's error
    etas = [float(eta) for eta in etas]
    return _solve(int(kind), gamma, etas, [_default_t_hi(kind, gamma, eta) for eta in etas], J)
