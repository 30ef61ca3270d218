"""Critical temperatures of the swapped-channel figures of merit.

Three thresholds are tracked as functions of the chain parameters, each a
root in temperature of a signed margin:

  kind 1: pair concurrence,            2 lambda_max - sum(lambda) = 0
  kind 2: pair fully entangled fraction,              FEF - 1/2 = 0
  kind 3: average teleport fidelity at mu = pi/4,   Phi - 2/3 = 0

Each margin is positive below its critical temperature and negative above
it, so a descending scan finds the largest root; that bracket is then
bisected.  For gamma > 0 the thresholds grow roughly linearly in eta, and
the scan ceiling follows the large-eta asymptote so the root never escapes
the scanned window.
"""

import logging
import math
from dataclasses import dataclass

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


def _solve(kind, gamma, eta, j, t_hi):
    margin = _MARGINS[kind]

    def f(t):
        return margin(ChainParams(J=j, gamma=gamma, eta=eta, T=t))

    floor = _T_FLOOR_OVER_J * j
    step = _SCAN_STEP_OVER_J * j
    f_hi = f(t_hi)
    if f_hi > 0.0:
        logger.warning(
            "kind %d margin still positive at scan ceiling T = %.6g (gamma=%g, eta=%g)",
            kind, t_hi, gamma, eta,
        )
        return CriticalResult(kind, gamma, eta, math.nan, None, False)

    t_prev, f_prev = t_hi, f_hi
    first = None
    crossings = 0
    t = t_hi - step
    while True:
        t = max(t, floor)
        f_cur = f(t)
        # strict sign on the current point, so margins that merely
        # underflow to exact zero near T = 0 do not count as crossings
        upward = f_prev <= 0.0 < f_cur
        if upward or f_prev >= 0.0 > f_cur:
            crossings += 1
            if first is None and upward:
                first = (t, t_prev)
        t_prev, f_prev = t, f_cur
        if t == floor:
            break
        t = t - step

    if first is None:
        m0 = f(0.0)
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

    lo, hi = first
    width = _BRACKET_WIDTH_OVER_J * j
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return CriticalResult(kind, gamma, eta, root / j, (lo / j, hi / j), True)


def _critical(kind, gamma, eta, j, t_hi):
    _check_domain(gamma, eta, j)
    if t_hi is None:
        t_hi = _default_t_hi(kind, gamma, eta, j)
    elif not (math.isfinite(t_hi) and t_hi >= _T_FLOOR_OVER_J * j):
        raise ValueError(f"t_hi must be finite and at least {_T_FLOOR_OVER_J:g} J, got {t_hi!r}")
    return _solve(kind, gamma, eta, j, t_hi)


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
    return [_critical(kind, gamma, float(eta), J, None) for eta in eta_grid]
