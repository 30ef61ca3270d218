"""Two-qubit anisotropic XY exchange pair in a transverse field: exact
spectrum, thermal state, and closed-form entanglement metrics.

The pair Hamiltonian is

    H = (1+gamma) J/2 sx.sx + (1-gamma) J/2 sy.sy + eta J/2 (sz.1 + 1.sz)

with anisotropy gamma in [-1, 1], field-to-coupling ratio eta, coupling J
and temperature T (Boltzmann constant absorbed, beta = 1/T).  The four
eigenpairs are analytic, which makes the Gibbs state, the concurrence and
the maximal Bell overlap available in closed form; the generic routines in
`qcore` must reproduce them, which is the package's first correctness
gate.  Scalar metrics are invariant under sign flips of J, gamma and eta
(each flip is a local unitary on the pair), so the closed forms are
evaluated on absolute values and remain valid on the full sign domain.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qcore

__all__ = [
    "ChainParams",
    "SpectrumXY",
    "PairMetrics",
    "field_terms",
    "scaled_exponentials",
    "hamiltonian",
    "spectrum",
    "thermal_state",
    "ground_state",
    "bell_overlap",
    "spin_flip_roots",
    "kernel_inputs",
    "pair_metrics",
]

_CASE_TOL = 1e-12  # the closed form's tie tolerance on eta^2 + gamma^2 against 1
# The ground state's tie tolerance on the energies in units of |J|: the levels
# -hypot(eta, gamma) and -1 tie where the hypot is within 5e-13 of 1, the band
# above to first order, as eta^2 + gamma^2 - 1 ~ 2 (hypot - 1).  A constant of
# its own, so the oracle shares no classifier with the closed form.
_LEVEL_TOL = 5e-13
_ETA_SQUARE_MAX = math.sqrt(sys.float_info.max)  # the largest double whose square is finite


def is_finite(value):
    """`math.isfinite`, False (not OverflowError) for an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ChainParams:
    """Model parameters for one exchange pair."""

    J: float
    gamma: float
    eta: float
    T: float

    def __post_init__(self):
        for name in ("J", "gamma", "eta", "T"):
            value = getattr(self, name)
            if not is_finite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            # stored as a Python float: a numpy scalar would carry numpy's
            # arithmetic (overflow warnings, float32 rounding, int64
            # wrap-around) into the scalar closed forms
            object.__setattr__(self, name, float(value))
        if not -1.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [-1, 1], got {self.gamma!r}")
        if self.T < 0.0:
            raise ValueError(f"T must be >= 0, got {self.T!r}")

    @property
    def b_field(self):
        """Transverse field eta * J."""
        return self.eta * self.J


@dataclass(frozen=True)
class SpectrumXY:
    """Eigenpairs ordered (B, J, -J, -B) with B = hypot(eta, gamma) |J|;
    the kets are the rows of a 4x4 complex array."""

    energies: tuple
    kets: np.ndarray


class PairMetrics(NamedTuple):
    lambdas: tuple
    concurrence: float
    fef: float


# max and min, elementwise on arrays: a selection rounds nothing, and on
# floats the builtins are several times faster than numpy's ufuncs
def _larger(x, y):
    return np.maximum(x, y) if isinstance(x, np.ndarray) else max(x, y)


def _smaller(x, y):
    return np.minimum(x, y) if isinstance(x, np.ndarray) else min(x, y)


def field_terms(gamma, eta):
    """B / |J| = hypot(eta, gamma), finite for every finite eta, and
    r = gamma / hypot (0 where hypot = 0), for gamma, eta >= 0."""
    b = math.hypot(eta, gamma)
    return b, (gamma / b if b > 0.0 else 0.0)


def scaled_exponentials(beta, b):
    """(exp(xb - m), exp(-xb - m), exp(beta - m), exp(-beta - m), m) with
    xb = beta*b and the shift m = max(xb, beta), in units of |J|: beta is
    |J| / T and b is B / |J|, floats or numpy arrays alike.  Where beta or
    m overflows (T = 0 included) floats give None, where `kernel_inputs`
    takes the T -> 0 limit, and array lanes NaN, which
    `critical._scan_margins` handles."""
    xb = beta * b
    m = _larger(xb, beta)
    if not isinstance(m, np.ndarray) and not m < math.inf:  # beta = inf: inf, or inf * 0 = nan
        return None
    minus = -m
    return np.exp(xb - m), np.exp(minus - xb), np.exp(beta - m), np.exp(minus - beta), m


def hamiltonian(params):
    """The pair Hamiltonian as a dense 4x4 complex matrix."""
    sx, sy, sz, one = (qcore.pauli(i) for i in (1, 2, 3, 0))
    return (
        0.5 * (1.0 + params.gamma) * params.J * np.kron(sx, sx)
        + 0.5 * (1.0 - params.gamma) * params.J * np.kron(sy, sy)
        + 0.5 * params.b_field * (np.kron(sz, one) + np.kron(one, sz))
    )


def _field_block_pair(a, b):
    """(a, b) and the norm to divide them by for a unit ket along
    a|00> + b|11>.  A pair whose norm is too small to invert (complex
    division multiplies by 1/norm) is first scaled up by an exact power of
    two."""
    norm = math.hypot(a, b)
    if 1.0 / norm == math.inf:
        a, b = a * 2.0**600, b * 2.0**600
        norm = math.hypot(a, b)
    return a, b, norm


def spectrum(params):
    """Analytic eigen-decomposition of the pair Hamiltonian.

    The {|01>, |10>} block always diagonalizes into the triplet/singlet
    combinations with energies +-J.  The {|00>, |11>} block has energies
    +-B; its eigenvectors are computed with the cancellation-free form of
    B -+ b_field (their product equals (gamma J)^2).  The kets depend only
    on B, b_field and gamma J in units of |J|: hypot(eta, gamma),
    eta sign(J) and gamma sign(J), scaled by an exact power of two where
    gamma^2 underflows or hypot + |eta| overflows.  The energies are
    absolute; the kets are the rows of one 4x4 complex array.
    """
    sign = math.copysign(1.0, params.J) if params.J else 0.0  # J = 0: product kets
    field, bm, gj = math.hypot(params.eta, params.gamma), params.eta * sign, params.gamma * sign
    big_b = field * abs(params.J)
    if gj * gj < sys.float_info.min or field + abs(bm) == math.inf:
        # gamma scaled near 1, or hypot up to 2**1021 where hypot / gamma is larger
        shift = min(-math.frexp(gj)[1], 1021 - math.frexp(field)[1])
        field, bm, gj = (math.ldexp(x, shift) for x in (field, bm, gj))
    if gj == 0.0:
        # product-state block: |00>, |11> with energies +-b_field
        up, down = (1.0, 0.0, 1.0), (0.0, 1.0, 1.0)
        (a0, b0, n0), (a3, b3, n3) = (up, down) if bm >= 0.0 else (down, up)
    else:
        if bm >= 0.0:
            bplus = field + bm
            bminus = gj * gj / bplus
        else:
            bminus = field - bm
            bplus = gj * gj / bminus
        (a0, b0, n0), (a3, b3, n3) = _field_block_pair(bplus, gj), _field_block_pair(bminus, -gj)
    kets = np.array([(a0, 0, 0, b0), (0, 1, 1, 0), (0, 1, -1, 0), (a3, 0, 0, b3)], dtype=complex)
    kets /= np.array([n0, math.sqrt(2.0), math.sqrt(2.0), n3])[:, None]
    return SpectrumXY(energies=(big_b, params.J, -params.J, -big_b), kets=kets)


def _unit_levels(params):
    """The spectrum's energies in units of |J|, in its order:
    (b, sign J, -sign J, -b) with b = hypot(eta, gamma)."""
    b, sign = math.hypot(params.eta, params.gamma), math.copysign(1.0, params.J)
    return b, sign, -sign, -b


def thermal_state(params):
    """Gibbs state of the pair at temperature T > 0, in units of |J|.

    The exponents are -(E/|J|)/(T/|J|) over the `_unit_levels`, shifted by
    the largest.  Where T/|J| underflows to 0 or max(hypot, 1)/(T/|J|)
    overflows the T -> 0 limit is returned, and at J = 0 the free pair's
    I/4.  The state is V diag(p) V^H, one contraction over the spectrum's
    kets V with the Boltzmann weights p.
    """
    if params.T <= 0.0:
        raise ValueError("thermal_state requires T > 0; use ground_state at T = 0")
    levels = _unit_levels(params)
    t = params.T / abs(params.J) if params.J else 0.0
    if t == 0.0 or max(levels) / t == math.inf:
        return ground_state(params)
    exponents = -np.array(levels) / t
    # where twice max(hypot, 1)/(T/|J|) overflows the smallest weight is exp(-inf) = 0
    with np.errstate(over="ignore"):
        weights = np.exp(exponents - exponents.max())
    weights /= weights.sum()
    kets = spectrum(params).kets
    return np.einsum("ia,ib,i->ab", kets, kets.conj(), weights)


def ground_state(params):
    """T -> 0 limit of the thermal state: the equal mixture of the kets
    whose `_unit_levels` lie within _LEVEL_TOL of the lowest, which can only
    be the exchange level -1 and the field level -hypot(eta, gamma).

    That is the exchange eigenstate (antisymmetric for J > 0, symmetric for
    J < 0) while hypot(eta, gamma) < 1, the field-aligned eigenstate above,
    and both on the tie band.  The free pair (J = 0) is maximally mixed.
    """
    if params.J == 0.0:
        return np.eye(4, dtype=complex) / 4.0
    levels = _unit_levels(params)
    low = min(levels)
    kets = spectrum(params).kets
    rhos = [qcore.ket_density(k) for k, e in zip(kets, levels) if e - low <= _LEVEL_TOL]
    return rhos[0] if len(rhos) == 1 else 0.5 * (rhos[0] + rhos[1])


# The kernels take (e, r) as `kernel_inputs` gives them, as floats, or as
# arrays of `scaled_exponentials` and `field_terms`, in units of |J|.  The
# sum and the difference of an exponential pair are twice a scaled cosh and sinh.


def bell_overlap(e, r):
    """Maximal Bell overlap (FEF) of the thermal pair: the larger of the
    exchange-block exp(beta |J|)/Z and the field-block (cosh + r sinh)/Z."""
    eb_hi, eb_lo, ej_hi, ej_lo, _ = e
    cb = eb_hi + eb_lo
    z = cb + (ej_hi + ej_lo)  # partition function, scaled
    return _larger(ej_hi / z, 0.5 * (cb + r * (eb_hi - eb_lo)) / z)


def spin_flip_roots(e, r):
    """Spin-flip roots of the thermal pair, largest first (a min/max
    network), and the concurrence excess 2 lambda_max - sum(lambda), summed
    left to right.  The field-block roots are sqrt(1 + u^2) +- u with
    u = r sinh(beta B), the nested radical simplified."""
    eb_hi, eb_lo, ej_hi, ej_lo, shift = e
    z = (eb_hi + eb_lo) + (ej_hi + ej_lo)
    u = 0.5 * (r * (eb_hi - eb_lo))
    root = np.hypot(np.exp(-shift), u)
    c, d = (root + u) / z, (root - u) / z
    # c >= d as u >= 0, and a >= b as beta >= 0: merge the two ordered pairs
    a, b = ej_hi / z, ej_lo / z
    s0, p = _larger(a, c), _smaller(a, c)
    q, s3 = _larger(b, d), _smaller(b, d)
    s1, s2 = _larger(p, q), _smaller(p, q)
    return (s0, s1, s2, s3), 2.0 * s0 - (((s0 + s1) + s2) + s3)


def kernel_inputs(params):
    """The kernels' inputs (e, r) at every T >= 0, functions of T / |J|:
    `scaled_exponentials` of 1 / (T / |J|) on `field_terms`, or where
    beta * max(B, |J|) overflows their T -> 0 limit, classified on
    s = eta^2 + gamma^2 against 1 with tie tolerance _CASE_TOL: weight 1
    on the field block where s > 1, on the exchange block where s < 1 and
    on both at the tie, under an infinite shift, and r = |gamma| / sqrt(s),
    0 where s underflows (the exchange region, where r weighs nothing).
    s is +inf where eta**2 would overflow (|eta| above ~1.34e154).  The
    free pair (J = 0) is maximally mixed."""
    if params.J == 0.0:
        return (1.0, 1.0, 1.0, 1.0, 0.0), 0.0
    g = abs(params.gamma)
    b, r = field_terms(g, abs(params.eta))
    t = params.T / abs(params.J)
    e = scaled_exponentials(math.inf if t == 0.0 else 1.0 / t, b)
    if e is None:
        s = math.inf if abs(params.eta) > _ETA_SQUARE_MAX else params.eta**2 + params.gamma**2
        tie = abs(s - 1.0) <= _CASE_TOL
        e = (float(s > 1.0 or tie), 0.0, float(s < 1.0 or tie), 0.0, math.inf)
        r = g / math.sqrt(s) if s > 0.0 else 0.0
    return e, r


def pair_metrics(params):
    """Spin-flip spectrum roots, concurrence and maximal Bell overlap of the
    thermal pair in closed form, as Python floats: the kernels
    `spin_flip_roots` and `bell_overlap` on `kernel_inputs`, so T = 0 and
    overflowing beta * max(B, |J|) give the zero-temperature limits (the
    generic qcore oracles lose digits there to square roots of roundoff-zero
    eigenvalues on the rank-deficient ground states)."""
    e, r = kernel_inputs(params)
    lams, excess = spin_flip_roots(e, r)
    fef = bell_overlap(e, r)
    return PairMetrics(tuple(float(lam) for lam in lams), max(float(excess), 0.0), float(fef))
