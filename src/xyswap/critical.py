"""Critical temperatures of the swapped-channel figures of merit.

Three thresholds are tracked as functions of the chain parameters, each a
root in temperature of a signed margin:

  kind 1: pair concurrence,            2 lambda_max - sum(lambda) = 0
  kind 2: pair fully entangled fraction,              FEF - 1/2 = 0
  kind 3: average teleport fidelity at mu = pi/4,   Phi - 2/3 = 0

Each margin is positive below its critical temperature and negative above
it, so a descending scan finds the largest root; that bracket is then
bisected.  The scan evaluates array forms of the closed forms, all etas of
a sweep that share a ceiling at once, in numpy passes of fixed size; the
bisection evaluates the scalar closed forms through their kernels, with
the inputs checked once per sweep.  For gamma > 0 the thresholds grow
roughly linearly in eta, and the scan ceiling follows the large-eta
asymptote so the root never escapes the scanned window.
"""

import logging
import math
from dataclasses import dataclass
from itertools import chain, islice

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


def _scan_grid(t_hi, step, floor):
    """The scan temperatures in chunks: t_hi, then repeated subtraction of
    step, the first value at or below the floor replaced by the floor and
    ending the scan.  Yields (ts, n): an array of _SCAN_BLOCK values of
    which the first n belong to the scan."""
    acc = np.full(_SCAN_BLOCK, step)
    acc[0] = t_hi
    head = 1  # the ceiling itself is never clamped
    while True:
        ts = np.subtract.accumulate(acc)
        low = np.flatnonzero(ts[head:] <= floor)
        if low.size:
            n = head + int(low[0]) + 1
            ts[n - 1] = floor
            yield ts, n
            return
        yield ts, _SCAN_BLOCK
        acc[0] = ts[-1] - step
        head = 0


class _Scan:
    """Descending scan of one margin: its value at the ceiling, the last
    point, the crossing count and the first (largest) upward bracket."""

    __slots__ = ("f", "f_hi", "t_prev", "f_prev", "crossings", "first")

    def __init__(self, f):
        self.f = f
        self.f_hi = None
        self.crossings = 0
        self.first = None

    def feed(self, points):
        """Carry the scan on over an iterator of (T, array margin) pairs;
        margins within _SCAN_RECHECK of zero are recomputed by `f`."""
        f = self.f
        if self.f_hi is None:
            t, value = next(points)
            self.t_prev = t
            self.f_hi = self.f_prev = value if value > _SCAN_RECHECK or value < -_SCAN_RECHECK else f(t)
        if self.f_hi > 0.0:
            # the scan ends at a ceiling that leaves the margin positive
            for _ in points:
                pass
            return
        t_prev, f_prev, crossings, first = self.t_prev, self.f_prev, self.crossings, self.first
        for t, f_cur in points:
            # NaN fails both comparisons, so it is recomputed too
            if not (f_cur > _SCAN_RECHECK or f_cur < -_SCAN_RECHECK):
                f_cur = f(t)
            # strict sign on the current point, so margins that merely
            # underflow to exact zero near T = 0 do not count as crossings
            upward = f_prev <= 0.0 < f_cur
            if upward or f_prev >= 0.0 > f_cur:
                crossings += 1
                if first is None and upward:
                    first = (t, t_prev)
            t_prev, f_prev = t, f_cur
        self.t_prev, self.f_prev, self.crossings, self.first = t_prev, f_prev, crossings, first


def _margin_passes(kind, j, gamma, etas, ts, n):
    """Array margins at (eta, ts[k]) for each eta in turn and k < n, as
    lists from numpy passes of exactly _SCAN_BLOCK points, the last one
    padded, so that every pass allocates the same sizes."""
    b, r = np.array([_field_terms(gamma, eta, j) for eta in etas]).T
    for start in range(0, len(etas) * n, _SCAN_BLOCK):
        point = np.arange(start, start + _SCAN_BLOCK)
        row = np.minimum(point // n, len(etas) - 1)
        # where B / T overflows the values are NaN, and the scalar forms decide
        with np.errstate(all="ignore"):
            yield _scan_margins(kind, j, b[row], r[row], ts[point % n]).tolist()


def _solve(kind, gamma, etas, j, t_his):
    """Roots of one margin kind at each (eta, scan ceiling) pair.

    Etas that share a ceiling share one scan grid, and the margins on it
    are evaluated in numpy passes of bounded size, so memory stays bounded
    for any ceiling.  The crossing rules and the bisection then run per eta
    on the scalar closed-form kernels.
    """
    floor = _T_FLOOR_OVER_J * j
    step = _SCAN_STEP_OVER_J * j
    scans = [_Scan(_margin_at(kind, gamma, eta, j)) for eta in etas]
    groups = {}
    for i, t_hi in enumerate(t_his):
        groups.setdefault(t_hi, []).append(i)
    for t_hi, members in groups.items():
        for ts, n in _scan_grid(t_hi, step, floor):
            live = [i for i in members if scans[i].f_hi is None or scans[i].f_hi <= 0.0]
            if not live:
                break
            t_list = ts.tolist()
            values = chain.from_iterable(
                _margin_passes(kind, j, gamma, [etas[i] for i in live], ts, n)
            )
            for i in live:
                # islice comes first, so zip takes exactly n values per eta
                scans[i].feed(zip(islice(t_list, n), values))
    return [_root(kind, gamma, eta, j, t_hi, floor, scan) for eta, t_hi, scan in zip(etas, t_his, scans)]


def _root(kind, gamma, eta, j, t_hi, floor, scan):
    """The result of one finished scan: its warnings, then the bisection."""
    f = scan.f
    if scan.f_hi > 0.0:
        logger.warning(
            "kind %d margin still positive at scan ceiling T = %.6g (gamma=%g, eta=%g)",
            kind, t_hi, gamma, eta,
        )
        return CriticalResult(kind, gamma, eta, math.nan, None, False)

    if scan.first is None:
        m0 = f(0.0)
        if m0 <= 0.0:
            return CriticalResult(kind, gamma, eta, 0.0, (0.0, 0.0), True)
        logger.warning(
            "kind %d margin positive at T = 0 but no crossing found above %.1e (gamma=%g, eta=%g)",
            kind, floor, gamma, eta,
        )
        return CriticalResult(kind, gamma, eta, math.nan, None, False)

    if scan.crossings > 1:
        logger.warning(
            "kind %d margin crosses zero %d times (gamma=%g, eta=%g); keeping the largest root",
            kind, scan.crossings, gamma, eta,
        )

    lo, hi = scan.first
    width = _BRACKET_WIDTH_OVER_J * j
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
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
