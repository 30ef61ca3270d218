"""Critical temperatures of the swapped-channel figures of merit.

Three thresholds are tracked as functions of the chain parameters, each a
root in temperature of a signed margin:

  kind 1: pair concurrence,            2 lambda_max - sum(lambda) = 0
  kind 2: pair fully entangled fraction,              FEF - 1/2 = 0
  kind 3: average teleport fidelity at mu = pi/4,   Phi - 2/3 = 0

Each margin is positive below its critical temperature and negative above
it, so a descending scan finds the largest root; that bracket is then
bisected.  All etas of a sweep are solved on one array path of numpy
passes of fixed size: the crossing rules run on whole passes of array
margins, and the bisection steps all brackets in lockstep on them.  Array
margins near zero are rechecked by the scalar closed forms, through their
kernels with the inputs checked once per sweep, so every sign is the
scalar one.  For gamma > 0 the thresholds grow roughly linearly in eta,
and the scan ceiling follows the large-eta asymptote so the root never
escapes the scanned window.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .teleport import TeleportConfig, _closed_coefficients, fidelity_closed_form
from .xychain import ChainParams, _metrics_kernel, pair_metrics

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
_SCAN_BLOCK = 256  # margin values per numpy pass, which bounds the scan's memory
_SCAN_RECHECK = 1e-13  # array margins this close to zero, or NaN, are recomputed by the scalar forms


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
    den = math.log(eta) - math.log(gamma) + math.log(2.0)
    if den <= 0.0:
        raise ValueError("asymptote requires 2 eta > gamma")
    return eta * J / den


def t3_asymptote(gamma, eta, J=1.0):
    """Large-eta slope line for the fidelity threshold,
    eta J / (3 ln(eta / gamma) + ln 2)."""
    _check_domain(gamma, eta, J)
    if gamma == 0.0:
        raise ValueError("asymptote requires gamma > 0")
    den = 3.0 * (math.log(eta) - math.log(gamma)) + math.log(2.0)
    if den <= 0.0:
        raise ValueError("asymptote requires 2 eta**3 > gamma**3")
    return eta * J / den


def _concurrence_excess(m):
    return 2.0 * m.lambdas[0] - sum(m.lambdas)


def _fef_excess(m):
    return m.fef - 0.5


def _phi_excess(coefficients):
    c1, c2 = coefficients
    return c1 + 0.5 * c2 - 2.0 / 3.0


def _margin_concurrence(params):
    return _concurrence_excess(pair_metrics(params))


def _margin_fef(params):
    return _fef_excess(pair_metrics(params))


_PHI_CFG = TeleportConfig(mu=math.pi / 4.0)


def _margin_phi(params):
    r = fidelity_closed_form(params, _PHI_CFG)
    return _phi_excess((r.c1, r.c2))


_MARGINS = {1: _margin_concurrence, 2: _margin_fef, 3: _margin_phi}
# the same margins on the unchecked closed-form kernels at (beta, B, J, gamma):
# the kernel, None in the cold limit, and the margin of its output
_KERNEL_MARGINS = {
    1: (_metrics_kernel, _concurrence_excess),
    2: (_metrics_kernel, _fef_excess),
    3: (_closed_coefficients, _phi_excess),
}


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


def _margin_at(kind, gamma, eta, j):
    """The kind's margin as a function of T at checked (gamma, eta, J).

    For T > 0 it evaluates the closed-form kernel at beta = 1/T and the
    B bound here, with the public forms' arithmetic and so their values.
    At T = 0, and in the cold limit, it takes the public route, whose
    `ground_region` limits the kernels leave out.
    """
    kernel, excess = _KERNEL_MARGINS[kind]
    margin = _MARGINS[kind]
    g = abs(gamma)
    b, _ = _field_terms(g, eta, j)

    def f(t):
        out = kernel(1.0 / t, b, j, g) if t > 0.0 else None
        return margin(ChainParams(J=j, gamma=gamma, eta=eta, T=t)) if out is None else excess(out)

    return f


def _scan_margins(kind, j, b, r, t):
    """Array form of the kind's margin at temperatures t > 0 for J > 0,
    with b and r from `_field_terms`, all broadcast together.

    Follows `pair_metrics` and `fidelity_closed_form` on their scaled
    hyperbolic branch.  numpy's exp can differ from the math module's by an
    ulp, so the values agree within 1e-15, not bit for bit; the scan
    recomputes points near zero with the scalar forms.
    """
    beta = 1.0 / t
    xb = beta * b
    xj = beta * j
    m = np.maximum(xb, xj)
    eb_hi, eb_lo = np.exp(xb - m), np.exp(-xb - m)
    ej_hi, ej_lo = np.exp(xj - m), np.exp(-xj - m)
    ch_b, sh_b = 0.5 * (eb_hi + eb_lo), 0.5 * (eb_hi - eb_lo)
    ch_j, sh_j = 0.5 * (ej_hi + ej_lo), 0.5 * (ej_hi - ej_lo)
    if kind == 3:
        den = ch_b + ch_j
        c1 = 2.0 * (ch_b**2 + ch_b * ch_j + ch_j**2) / (3.0 * den**2)
        c2 = (
            2.0
            * (sh_j**3 + r * sh_j**2 * sh_b + r**2 * sh_j * sh_b**2 + r**3 * sh_b**3)
            / (3.0 * den**3)
        )
        return c1 + 0.5 * c2 - 2.0 / 3.0
    z = 2.0 * (ch_b + ch_j)
    lam1 = ej_hi / z
    if kind == 2:
        return np.maximum(lam1, (ch_b + r * sh_b) / z) - 0.5
    u = r * sh_b
    root = np.hypot(np.exp(-m), u)
    lam2, lam3, lam4 = ej_lo / z, (root + u) / z, (root - u) / z
    # summed in descending order as pair_metrics does; lam1 >= lam2 and lam3 >= lam4
    top, mid_a = np.maximum(lam1, lam3), np.minimum(lam1, lam3)
    mid_b, bottom = np.maximum(lam2, lam4), np.minimum(lam2, lam4)
    total = top + np.maximum(mid_a, mid_b) + np.minimum(mid_a, mid_b) + bottom
    return 2.0 * top - total


class _Sweep:
    """A sweep's margins on numpy passes of exactly _SCAN_BLOCK lanes, each
    an eta index (`rows`) and a temperature; padding repeats real lanes."""

    def __init__(self, kind, gamma, etas, j):
        self.kind, self.j = kind, j
        terms = [_field_terms(gamma, eta, j) for eta in etas]
        self.b, self.r = np.array([b for b, _ in terms]), np.array([r for _, r in terms])
        self.scalar = [_margin_at(kind, gamma, eta, j) for eta in etas]

    def margins(self, rows, t):
        return _scan_margins(self.kind, self.j, self.b[rows], self.r[rows], t)

    def settle(self, values, rows, t, size):
        """The values, those of the first `size` lanes that lie within
        _SCAN_RECHECK of zero, or are NaN (B / T overflows), recomputed by
        the scalar kernels, so that their signs are the scalar ones."""
        near = ~(np.abs(values) > _SCAN_RECHECK)  # NaN fails the comparison
        for p in np.flatnonzero(near[:size]).tolist():
            values[p] = self.scalar[rows[p]](float(t[p]))
        return values


def _scan(sweep, live, signs, t_hi, step, floor, crossings, first):
    """Carry the scans of the etas `live` (at most _SCAN_BLOCK), which share
    the ceiling t_hi and have the given margin signs there, down the grid
    t_hi - step, t_hi - 2 step, ... (repeated subtraction), whose first
    point at or below the floor is the floor and the last: count each
    eta's crossings and keep its first upward bracket (T, previous T).  A
    pass holds whole grid columns, lane c * len(live) + e being eta e at
    column c, so each lane's previous point lies len(live) lanes back, and
    the last column of a pass carries into the next."""
    count = len(live)
    columns = _SCAN_BLOCK // count
    rows = np.resize(np.array(live), _SCAN_BLOCK)
    column = np.arange(count, count + _SCAN_BLOCK) // count  # of each lane, from 1
    acc = np.full(_SCAN_BLOCK + 1, step)
    acc[0] = t_hi
    while True:
        ts = np.subtract.accumulate(acc)  # the previous column, then this pass's
        low = np.flatnonzero((ts[1:] <= floor)[:columns])
        width = int(low[0]) + 1 if low.size else columns
        if low.size:
            ts[width] = floor
        k = np.minimum(column, width)
        t = ts[k]
        f_sign = np.sign(sweep.settle(sweep.margins(rows, t), rows, t, width * count))
        f_prev = np.concatenate((signs, f_sign[:-count]))
        # strict sign on the current point, so margins that merely
        # underflow to exact zero near T = 0 do not count as crossings
        for p in np.flatnonzero(((f_sign != f_prev) & (f_sign != 0.0))[:width * count]).tolist():
            i = rows[p]
            crossings[i] += 1
            if first[i] is None and f_sign[p] > 0.0:
                first[i] = (float(t[p]), float(ts[k[p] - 1]))
        if low.size:
            return
        signs = f_sign[(columns - 1) * count:columns * count]
        acc[0] = ts[columns]


@functools.cache
def _tree(depth):
    """Lane tables for `depth` bisection steps of each bracket slot at once,
    its 2**depth - 1 midpoints in heap order: each lane's slot, each slot's
    first lane, each lane's lower and upper child (clamped to the last
    lane), and per step after the first the lanes whose path takes the
    upper half there (lo = mid), then those taking the lower (hi = mid)."""
    size = 2**depth - 1
    heap = [(lane // size, lane % size + 1) for lane in range(_SCAN_BLOCK)]  # (slot, node from 1)
    turns = []
    for step in range(1, depth):
        # node q, of q.bit_length() levels, turns at `step` by that bit of q
        bits = [q >> q.bit_length() - 1 - step & 1 if q.bit_length() > step else None for _, q in heap]
        turns.append((np.array([b == 1 for b in bits]), np.array([b == 0 for b in bits])))

    def lanes(values):
        return np.array([min(v, _SCAN_BLOCK - 1) for v in values])

    lower = lanes(s * size + 2 * q - 1 for s, q in heap)
    upper = lanes(s * size + 2 * q for s, q in heap)
    return lanes(s for s, _ in heap), lanes(s * size for s in range(_SCAN_BLOCK)), lower, upper, turns


def _bisect(sweep, first, width):
    """Each bracket of `first` (None where there is none) narrowed until
    hi - lo <= width by mid = 0.5 * (lo + hi) and the sign of the margin
    there, as a scalar bisection narrows it, all etas in lockstep.  A pass
    takes up to _SCAN_BLOCK open brackets and the midpoints of the next
    `depth` steps of each, depth as large as the pass allows, each formed
    along its own path with the scalar arithmetic; descending the steps by
    their signs then reads, and rechecks, the midpoints the scalar loop
    reads."""
    lo_all = np.array([math.nan if b is None else b[0] for b in first])
    hi_all = np.array([math.nan if b is None else b[1] for b in first])
    while open_ := np.flatnonzero(hi_all - lo_all > width)[:_SCAN_BLOCK].tolist():
        count = len(open_)
        slot, at, lower, upper, turns = _tree((_SCAN_BLOCK // count + 1).bit_length() - 1)
        rows = np.array(open_ + open_[-1:] * (_SCAN_BLOCK - count))
        lo, hi = lo_all[rows], hi_all[rows]
        hi[count:] = lo[count:]  # padded slots hold an empty bracket
        t_lo, t_hi = lo[slot], hi[slot]
        for to_upper, to_lower in turns:
            mid = 0.5 * (t_lo + t_hi)
            np.copyto(t_lo, mid, where=to_upper)
            np.copyto(t_hi, mid, where=to_lower)
        values = sweep.margins(rows[slot], 0.5 * (t_lo + t_hi))
        for _ in range(len(turns) + 1):
            mid = 0.5 * (lo + hi)
            positive = sweep.settle(values[at], rows, mid, count) > 0.0
            wide = hi - lo > width
            np.copyto(lo, mid, where=wide & positive)
            np.copyto(hi, mid, where=wide & ~positive)
            at = np.where(positive, upper[at], lower[at])
        lo_all[open_], hi_all[open_] = lo[:count], hi[:count]
    brackets = zip(lo_all.tolist(), hi_all.tolist())
    return [None if b is None else bracket for b, bracket in zip(first, brackets)]


def _solve(kind, gamma, etas, j, t_his):
    """Roots of one margin kind at each (eta, scan ceiling) pair, on one
    array path of numpy passes of exactly _SCAN_BLOCK values (`_Sweep`),
    which keeps memory bounded and flat for any ceiling and sweep.

    First the margins at all ceilings: an eta whose margin is positive
    there stops.  Then the descending scans of the other etas, those that
    share a ceiling on one grid, with the crossing rules applied to whole
    passes of array margins (`_scan`).  Then the bisection of every first
    upward bracket, all etas in lockstep on the array margins (`_bisect`).
    Every margin the rules and the bisection read that lies within
    _SCAN_RECHECK of zero, or is NaN, is rechecked by the scalar kernels,
    so each sign, bracket, root and warning is the one a point-by-point
    scalar solver gives.
    """
    floor = _T_FLOOR_OVER_J * j
    step = _SCAN_STEP_OVER_J * j
    sweep = _Sweep(kind, gamma, etas, j)
    crossings, first, f_hi = [0] * len(etas), [None] * len(etas), np.empty(len(etas))
    with np.errstate(all="ignore"):
        for start in range(0, len(etas), _SCAN_BLOCK):
            rows = np.minimum(np.arange(start, start + _SCAN_BLOCK), len(etas) - 1)
            t = np.array(t_his)[rows]
            size = len(etas) - start
            f_hi[start:start + _SCAN_BLOCK] = sweep.settle(sweep.margins(rows, t), rows, t, size)[:size]
        groups = {}
        for i, t_hi in enumerate(t_his):
            if not f_hi[i] > 0.0:  # a ceiling that leaves the margin positive ends the scan
                groups.setdefault(t_hi, []).append(i)
        for t_hi, members in groups.items():
            for start in range(0, len(members), _SCAN_BLOCK):
                live = members[start:start + _SCAN_BLOCK]
                _scan(sweep, live, np.sign(f_hi[live]), t_hi, step, floor, crossings, first)
        brackets = _bisect(sweep, first, _BRACKET_WIDTH_OVER_J * j)
    return [
        _root(kind, gamma, eta, j, t_hi, floor, *state)
        for eta, t_hi, state in zip(etas, t_his, zip(f_hi.tolist(), crossings, brackets))
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
        m0 = _margin_at(kind, gamma, eta, j)(0.0)
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
    if kind not in _MARGINS:
        raise ValueError(f"kind must be 1, 2 or 3, got {kind!r}")
    etas = [float(eta) for eta in eta_grid]
    return _solve(kind, gamma, etas, J, [_ceiling(kind, gamma, eta, J, None) for eta in etas])
