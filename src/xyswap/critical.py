"""Critical temperatures of the swapped-channel figures of merit.

Three thresholds are tracked as functions of the chain parameters, each a
root in temperature of a signed margin:

  kind 1: pair concurrence,            2 lambda_max - sum(lambda) = 0
  kind 2: pair fully entangled fraction,              FEF - 1/2 = 0
  kind 3: average teleport fidelity at mu = pi/4,   Phi - 2/3 = 0

Each margin is positive below its critical temperature and negative above
it, so a descending scan from a ceiling finds the largest root; that
bracket is then bisected.  All etas of a sweep are solved on one array
path of numpy passes of bounded size: the scans start at the ceilings,
the crossing rules run on whole passes of array margins, and the
bisection steps all brackets in lockstep on them.  Array margins near
zero are rechecked by the public scalar closed forms, `pair_metrics` and
`fidelity_closed_form`, so every sign is the scalar one.  For gamma > 0
the thresholds grow roughly linearly in eta, and the scan ceiling
follows the large-eta asymptote so the root never escapes the scanned
window.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .teleport import TeleportConfig, fidelity_closed_form
from .xychain import ChainParams, pair_metrics

__all__ = [
    "CriticalResult",
    "t1_critical",
    "t2_critical",
    "t3_critical",
    "t2_asymptote",
    "t3_asymptote",
    "sweep",
]

logger = logging.getLogger(__name__)

_T_FLOOR_OVER_J = 1e-6
_SCAN_STEP_OVER_J = 0.05
_BRACKET_WIDTH_OVER_J = 1e-8
_SCAN_LANES = 1024  # margin values per scan pass, which bounds the scan's memory
_BISECT_LANES = 256  # midpoints per bisection pass
# a pass's arrays span whole blocks of this many lanes, the rest padding: numpy keeps
# up to 7 freed buffers of each size below 1 KB, which arbitrary lengths fill by MBs
_PASS_QUANTUM = 128
_SCAN_RECHECK = 1e-13  # array margins this close to zero, or NaN, are recomputed by the scalar forms
_LANES = np.arange(_BISECT_LANES)


@dataclass(frozen=True)
class CriticalResult:
    """Root of one margin kind at fixed (gamma, eta), in units of J."""

    kind: int
    gamma: float
    eta: float
    t_over_j: float
    bracket: tuple | None
    converged: bool


def _check_domain(gamma, eta, j):
    for name, value in (("gamma", gamma), ("eta", eta), ("J", j)):
        if not math.isfinite(value):
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


def _margin_concurrence(params):
    m = pair_metrics(params)
    return 2.0 * m.lambdas[0] - sum(m.lambdas)


def _margin_fef(params):
    return pair_metrics(params).fef - 0.5


_PHI_CFG = TeleportConfig(mu=math.pi / 4.0)


def _margin_phi(params):
    r = fidelity_closed_form(params, _PHI_CFG)
    return r.c1 + 0.5 * r.c2 - 2.0 / 3.0


_MARGINS = {1: _margin_concurrence, 2: _margin_fef, 3: _margin_phi}


def _default_t_hi(kind, gamma, eta, j):
    t_hi = 5.0 * j
    if gamma > 0.0 and eta > 2.0:
        asym = t3_asymptote(gamma, eta, j) if kind == 3 else t2_asymptote(gamma, eta, j)
        t_hi = max(t_hi, 2.0 * asym)
    return t_hi


def _field_terms(gamma, eta, j):
    """The gap scale B and the ratio gamma J / B (0 where B = 0), formed as
    the scalar closed forms form them."""
    b = math.hypot(eta, gamma) * j
    return b, (gamma * j / b if b > 0.0 else 0.0)


def _scan_margins(kind, j, b, r, t):
    """Array form of the kind's margin at temperatures t > 0 for J > 0,
    with b and r from `_field_terms`: b, r and t are arrays of one shape.

    Follows `pair_metrics` and `fidelity_closed_form` on their scaled
    hyperbolic branch, with the same exponentials exp(+-beta B - shift)
    and exp(+-beta J - shift), shift = max(beta B, beta J), and forms only
    the terms the kind needs, in products instead of powers.  numpy's exp
    can differ from the math module's by an ulp, and the products round
    differently, so the values agree within 1e-15, not bit for bit; the
    solver recomputes values near zero with the scalar forms.
    """
    beta = 1.0 / t
    xb = beta * b
    xj = beta * j
    shift = np.maximum(xb, xj)
    minus = -shift
    eb_hi, ej_hi = np.exp(xb - shift), np.exp(xj - shift)
    eb_lo, ej_lo = np.exp(minus - xb), np.exp(minus - xj)
    # twice the scaled cosh and sinh of beta B
    cb, sb = eb_hi + eb_lo, eb_hi - eb_lo
    if kind == 3:
        cj, sj = ej_hi + ej_lo, ej_hi - ej_lo
        den = cb + cj
        rs = r * sb
        c1 = (cb * den + cj * cj) / (den * den)  # 3 c1 / 2
        c2 = (sj + rs) * (sj * sj + rs * rs) / (den * den * den)  # 3 c2 / 2
        return (c1 + c1 + c2 - 2.0) / 3.0
    z = cb + (ej_hi + ej_lo)
    if kind == 2:
        return np.maximum(ej_hi, 0.5 * (cb + r * sb)) / z - 0.5
    u = 0.5 * (r * sb)
    root = np.hypot(np.exp(minus), u)
    # lam1 >= lam2 and lam3 >= lam4, so the largest is lam1 or lam3, and
    # 2 max(lam1, lam3) - (lam1 + ... + lam4) = |lam1 - lam3| - lam2 - lam4
    return (np.abs(ej_hi - (root + u)) - ej_lo - (root - u)) / z


def _near(values, size):
    """Which of the first `size` values lie within _SCAN_RECHECK of zero, or
    are NaN (B / T overflows): those whose sign the scalar forms settle."""
    # NaN fails the comparison; sliced last, so each array spans the whole pass
    return (~(np.abs(values) > _SCAN_RECHECK))[:size]


class _Sweep:
    """A sweep's per-eta constants, for numpy passes whose lanes are each
    an eta index (`rows`) and a temperature."""

    def __init__(self, kind, gamma, etas, j):
        self.kind, self.gamma, self.etas, self.j = kind, gamma, etas, j
        terms = [_field_terms(gamma, eta, j) for eta in etas]
        self.b, self.r = np.array([b for b, _ in terms]), np.array([r for _, r in terms])

    def margins(self, rows, t):
        return _scan_margins(self.kind, self.j, self.b[rows], self.r[rows], t)

    def settle(self, values, rows, t, lanes):
        """The values, those of `lanes` (a list of lane indices) recomputed
        by the public closed forms through `_MARGINS`, so that their signs
        are the scalar ones."""
        margin = _MARGINS[self.kind]
        for p in lanes:
            values[p] = margin(ChainParams(J=self.j, gamma=self.gamma, eta=self.etas[rows[p]], T=float(t[p])))
        return values


class _Grid:
    """The scan grid of the etas `members` (an array of at most _SCAN_LANES
    indices) that share a ceiling: their b and r, the last point scanned
    `t` (the ceiling at first, None after the floor) and their signs there
    (None before the first pass)."""

    def __init__(self, sweep, members, t_hi):
        self.members, self.b, self.r = members, sweep.b[members], sweep.r[members]
        self.t, self.signs = t_hi, None


def _scan(sweep, grids, step, floor, f_hi, crossings, first):
    """Carry the `grids` down from their ceilings through T - step,
    T - 2 step, ... (repeated subtraction) to the first point at or below
    the floor, which is the floor and the last: keep each eta's margin at
    its ceiling in `f_hi`, count its crossings below and keep its first
    upward bracket (T, previous T).  All grids share passes of at most
    _SCAN_LANES lanes, each in turn taking the whole columns that still
    fit: lane start + c * n + e is member e at column c, its previous point
    n lanes back, and the last column carries into the grid's next pass.
    A grid's first pass holds its ceiling as column 0, which gets no
    crossing test; an eta whose margin is positive there leaves its grid
    after that pass."""
    acc = np.full(_SCAN_LANES + 1, step)
    rows = np.zeros(_SCAN_LANES, dtype=np.intp)
    b, r, t, before, previous = np.ones((5, _SCAN_LANES))
    while grids:
        size, segments = 0, []  # segment: (grid, first lane, last lane + 1)
        for grid in grids:
            n = grid.members.size
            if size + n > _SCAN_LANES:
                continue
            # a first pass subtracts 0.0 once, so its column 0 is the ceiling
            acc[:2] = grid.t, (0.0 if grid.signs is None else step)
            ts = np.subtract.accumulate(acc)
            width = (_SCAN_LANES - size) // n
            if ts[width] <= floor:
                width = int((ts[1:] <= floor).nonzero()[0][0]) + 1
                ts[width] = floor
            for lanes, value in ((rows, grid.members), (b, grid.b), (r, grid.r),
                                 (t, ts[1:width + 1, None]), (before, ts[:width, None])):
                lanes[size:size + width * n].reshape(width, n)[:] = value
            segments.append((grid, size, size + width * n))
            size += width * n
        padded = -(-size // _PASS_QUANTUM) * _PASS_QUANTUM
        values = _scan_margins(sweep.kind, sweep.j, b[:padded], r[:padded], t[:padded])
        current = np.sign(sweep.settle(values, rows, t, _near(values, size).nonzero()[0].tolist()))
        for grid, start, stop in segments:
            n, ceiling = grid.members.size, grid.signs is None
            if ceiling:
                f_hi[grid.members], grid.signs = values[start:start + n], current[start:start + n]
            previous[start:start + n], previous[start + n:stop] = grid.signs, current[start:stop - n]
            grid.t, grid.signs = None if t[stop - 1] <= floor else t[stop - 1], current[stop - n:stop]
            if ceiling:  # a ceiling that leaves the margin positive ends the eta's scan
                keep = ~(values[start:start + n] > 0.0)
                grid.members, grid.b, grid.r, grid.signs = (x[keep] for x in (grid.members, grid.b, grid.r, grid.signs))
        # strict sign on the current point, so margins that merely
        # underflow to exact zero near T = 0 do not count as crossings
        for p in ((current != previous[:padded]) & (current != 0.0))[:size].nonzero()[0].tolist():
            i = rows[p]
            crossings[i] += 1
            if first[i] is None and current[p] > 0.0:
                first[i] = (float(t[p]), float(before[p]))
        grids = [grid for grid in grids if grid.t is not None and grid.members.size]


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


def _bisect(sweep, first, width):
    """Each bracket of `first` (None where there is none) narrowed until
    hi - lo <= width by mid = 0.5 * (lo + hi) and the sign of the margin
    there, as a scalar bisection narrows it, all etas in lockstep.  A pass
    takes up to _BISECT_LANES open brackets and the midpoints of the next
    `depth` steps of each, depth as large as the pass allows, each formed
    along its own path with the scalar arithmetic.  Each bracket then
    follows the signs down its tree by indexing only, and stays where it
    is no wider than `width`, so it reads the midpoints the scalar loop
    reads; of those, the ones near zero are rechecked and the descent
    repeated, until every sign it read is settled."""
    lo_all = np.array([math.nan if b is None else b[0] for b in first])
    hi_all = np.array([math.nan if b is None else b[1] for b in first])
    while (open_ := (hi_all - lo_all > width).nonzero()[0][:_BISECT_LANES]).size:
        count = open_.size
        size, slot, lower, upper, turns = _tree((_BISECT_LANES // count + 1).bit_length() - 1)
        rows = open_[np.minimum(slot, count - 1)]  # padding slots repeat the last bracket
        t_lo, t_hi = lo_all[rows], hi_all[rows]
        for to_upper, to_lower in turns:
            mid = 0.5 * (t_lo + t_hi)
            np.copyto(t_lo, mid, where=to_upper)
            np.copyto(t_hi, mid, where=to_lower)
        t = 0.5 * (t_lo + t_hi)
        values = sweep.margins(rows, t)
        near = _near(values, count * size)
        wide = t_hi - t_lo > width
        while True:
            positive = values > 0.0
            # each lane's next lane: its child by the sign, or itself where
            # the bracket is no wider than `width`, and the scalar loop stops
            after = np.where(wide, np.where(positive, upper, lower), _LANES)
            path = [_LANES[:count * size:size]]  # the slots' roots
            for _ in turns:
                path.append(after[path[-1]])
            read = np.concatenate(path)
            stale = read[near[read].nonzero()[0]].tolist()
            if not stale:
                break
            stale = list(set(stale))  # the descent reads a lane again where it stays
            sweep.settle(values, rows, t, stale)
            near[stale] = False
        lo_all[open_] = np.where(wide & positive, t, t_lo)[path[-1]]
        hi_all[open_] = np.where(wide & ~positive, t, t_hi)[path[-1]]
    brackets = zip(lo_all.tolist(), hi_all.tolist())
    return [None if b is None else bracket for b, bracket in zip(first, brackets)]


def _solve(kind, gamma, etas, j, t_his):
    """Roots of one margin kind at each (eta, scan ceiling) pair, on one
    array path of numpy passes of at most _SCAN_LANES values (`_Sweep`),
    which keeps memory bounded and flat for any ceiling and sweep.

    First the descending scans, which start at the ceilings: the etas that
    share a ceiling on one grid, all grids in the same passes, with the
    crossing rules applied to whole passes of array margins (`_scan`).  An
    eta whose margin is positive at its ceiling stops after the first pass.
    Then the bisection of every other eta's first upward bracket, all in
    lockstep on the array margins (`_bisect`).  Every margin the rules and
    the bisection read that lies within _SCAN_RECHECK of zero, or is NaN,
    is rechecked by the public closed forms, so each sign, bracket, root
    and warning is the one a point-by-point scalar solver gives.
    """
    floor = _T_FLOOR_OVER_J * j
    sweep = _Sweep(kind, gamma, etas, j)
    crossings, first, f_hi = [0] * len(etas), [None] * len(etas), np.empty(len(etas))
    groups = {}
    for i, t_hi in enumerate(t_his):
        groups.setdefault(t_hi, []).append(i)
    grids = [_Grid(sweep, np.array(members[s:s + _SCAN_LANES]), t_hi)
             for t_hi, members in groups.items() for s in range(0, len(members), _SCAN_LANES)]
    with np.errstate(all="ignore"):
        _scan(sweep, grids, _SCAN_STEP_OVER_J * j, floor, f_hi, crossings, first)
        f_hi = f_hi.tolist()
        # brackets an eta found in its first pass below a positive ceiling
        first = [None if f > 0.0 else bracket for f, bracket in zip(f_hi, first)]
        brackets = _bisect(sweep, first, _BRACKET_WIDTH_OVER_J * j)
    return [
        _root(kind, gamma, eta, j, t_hi, floor, *state)
        for eta, t_hi, state in zip(etas, t_his, zip(f_hi, crossings, brackets))
    ]


def _root(kind, gamma, eta, j, t_hi, floor, f_hi, crossings, bracket):
    """The result of one eta's scan and bisected bracket: the T = 0
    fallback where the scan found no bracket, and the warnings."""
    if f_hi > 0.0:
        logger.warning(
            "kind %d margin still positive at scan ceiling T = %.6g (gamma=%g, eta=%g)",
            kind, t_hi, gamma, eta,
        )
        return CriticalResult(kind, gamma, eta, math.nan, None, False)

    if bracket is None:
        m0 = _MARGINS[kind](ChainParams(J=j, gamma=gamma, eta=eta, T=0.0))
        if m0 <= 0.0:
            return CriticalResult(kind, gamma, eta, 0.0, (0.0, 0.0), True)
        logger.warning(
            "kind %d margin positive at T = 0 but no crossing found above %.1e (gamma=%g, eta=%g)",
            kind, floor, gamma, eta,
        )
        return CriticalResult(kind, gamma, eta, math.nan, None, False)

    if crossings > 1:
        logger.warning(
            "kind %d margin crosses zero %d times (gamma=%g, eta=%g); keeping the largest root",
            kind, crossings, gamma, eta,
        )

    lo, hi = bracket
    root = 0.5 * (lo + hi)
    return CriticalResult(kind, gamma, eta, root / j, (lo / j, hi / j), True)


def _ceiling(kind, gamma, eta, j, t_hi):
    """Checked scan ceiling: the given one, or the default for the kind."""
    _check_domain(gamma, eta, j)
    if t_hi is None:
        return _default_t_hi(kind, gamma, eta, j)
    if not (math.isfinite(t_hi) and t_hi >= _T_FLOOR_OVER_J * j):
        raise ValueError(f"t_hi must be finite and at least {_T_FLOOR_OVER_J:g} J, got {t_hi!r}")
    return t_hi


def _critical(kind, gamma, eta, j, t_hi):
    return _solve(kind, gamma, [eta], j, [_ceiling(kind, gamma, eta, j, t_hi)])[0]


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
    if isinstance(kind, bool) or not isinstance(kind, (int, np.integer)) or kind not in _MARGINS:
        raise ValueError(f"kind must be 1, 2 or 3, got {kind!r}")
    _check_domain(gamma, 0.0, J)  # gamma and J once, whatever the grid
    etas = [float(eta) for eta in eta_grid]
    for eta in etas:
        if not 0.0 <= eta < math.inf:
            _check_domain(gamma, eta, J)  # raises the eta's error
    return _solve(int(kind), gamma, etas, J, [_default_t_hi(kind, gamma, eta, J) for eta in etas])
