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
    "HyperbolicWeights",
    "scaled_hyperbolics",
    "ground_region",
    "hamiltonian",
    "spectrum",
    "thermal_state",
    "ground_state",
    "pair_metrics",
]

_CASE_TOL = 1e-12  # tie tolerance when classifying eta^2 + gamma^2 against 1
_ETA_SQUARE_MAX = math.sqrt(sys.float_info.max)  # the largest double whose square is finite


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
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not -1.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [-1, 1], got {self.gamma!r}")
        if self.T < 0.0:
            raise ValueError(f"T must be >= 0, got {self.T!r}")

    @property
    def b_field(self):
        """Transverse field eta * J."""
        return self.eta * self.J

    @property
    def b_script(self):
        """Gap scale sqrt(eta^2 + gamma^2) |J| (nonnegative by convention)."""
        return math.hypot(self.eta, self.gamma) * abs(self.J)

    @property
    def beta(self):
        return math.inf if self.T == 0.0 else 1.0 / self.T


@dataclass(frozen=True)
class SpectrumXY:
    """Eigenpairs ordered (B, J, -J, -B) with B = b_script."""

    energies: tuple
    kets: tuple
    partition_z_log: float


class PairMetrics(NamedTuple):
    lambdas: tuple
    concurrence: float
    fef: float


class HyperbolicWeights(NamedTuple):
    """cosh/sinh of beta*B and beta*|J|, all scaled by exp(-shift)."""

    ch_b: float
    ch_j: float
    sh_b: float
    sh_j: float
    shift: float


def scaled_hyperbolics(beta, b_script, j_abs):
    """Overflow-safe hyperbolic weights, or None in the cold limit.

    Every member is the plain cosh/sinh multiplied by exp(-shift) with
    shift = max(beta*b_script, beta*j_abs)), so ratios that are homogeneous
    in the four members can be formed for any beta at which the shift is
    finite.  Where beta or the shift overflows (T = 0 included) no scaling
    exists, and callers take the T -> 0 limits of `ground_region` instead.
    """
    if beta == math.inf:
        return None
    xb = beta * b_script
    xj = beta * j_abs
    m = max(xb, xj)
    if m == math.inf:
        return None
    eb_hi, eb_lo = math.exp(xb - m), math.exp(-xb - m)
    ej_hi, ej_lo = math.exp(xj - m), math.exp(-xj - m)
    return HyperbolicWeights(
        0.5 * (eb_hi + eb_lo), 0.5 * (ej_hi + ej_lo), 0.5 * (eb_hi - eb_lo), 0.5 * (ej_hi - ej_lo), m
    )


def hamiltonian(params):
    """The pair Hamiltonian as a dense 4x4 complex matrix."""
    sx, sy, sz, one = (qcore.pauli(i) for i in (1, 2, 3, 0))
    return (
        0.5 * (1.0 + params.gamma) * params.J * np.kron(sx, sx)
        + 0.5 * (1.0 - params.gamma) * params.J * np.kron(sy, sy)
        + 0.5 * params.b_field * (np.kron(sz, one) + np.kron(one, sz))
    )


def _basis_ket(index):
    ket = np.zeros(4, dtype=complex)
    ket[index] = 1.0
    return ket


def _field_block_ket(a, b):
    """Unit ket along a|00> + b|11>.  A pair whose norm is too small to
    invert (complex division multiplies by 1/norm) is first scaled up by an
    exact power of two."""
    norm = math.hypot(a, b)
    if 1.0 / norm == math.inf:
        a, b = a * 2.0**600, b * 2.0**600
        norm = math.hypot(a, b)
    ket = np.array([a, 0.0, 0.0, b], dtype=complex)
    ket /= norm
    return ket


def spectrum(params):
    """Analytic eigen-decomposition of the pair Hamiltonian.

    The {|01>, |10>} block always diagonalizes into the triplet/singlet
    combinations with energies +-J.  The {|00>, |11>} block has energies
    +-B; its eigenvectors are computed with the cancellation-free form of
    B -+ b_field (their product equals (gamma J)^2).  The kets depend only
    on the ratios of B, b_field and gamma J, so where (gamma J)^2 would
    underflow the three are first scaled by an exact power of two.
    """
    big_b = params.b_script
    bm = params.b_field
    gj = params.gamma * params.J
    if gj == 0.0:
        # product-state block: |00>, |11> with energies +-b_field
        if bm >= 0.0:
            k0, k3 = _basis_ket(0), _basis_ket(3)
        else:
            k0, k3 = _basis_ket(3), _basis_ket(0)
    else:
        field = big_b
        if gj * gj < sys.float_info.min:
            # gamma J scaled near 1, or B up to 2**1021 where B / gamma J is larger
            shift = max(0, min(-math.frexp(gj)[1], 1021 - math.frexp(big_b)[1]))
            field, bm, gj = (math.ldexp(x, shift) for x in (big_b, bm, gj))
        if bm >= 0.0:
            bplus = field + bm
            bminus = gj * gj / bplus
        else:
            bminus = field - bm
            bplus = gj * gj / bminus
        k0 = _field_block_ket(bplus, gj)
        k3 = _field_block_ket(bminus, -gj)
    k1 = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    k2 = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    h = scaled_hyperbolics(params.beta, big_b, abs(params.J))
    log_z = math.inf if h is None else h.shift + math.log(2.0 * (h.ch_b + h.ch_j))
    return SpectrumXY(
        energies=(big_b, params.J, -params.J, -big_b),
        kets=(k0, k1, k2, k3),
        partition_z_log=log_z,
    )


def thermal_state(params):
    """Gibbs state of the pair at temperature T > 0.

    Boltzmann weights are formed in the log domain (shifted by the largest
    exponent).  Where max(B, |J|)/T overflows the T -> 0 limit is returned.
    """
    if params.T <= 0.0:
        raise ValueError("thermal_state requires T > 0; use ground_state at T = 0")
    spec = spectrum(params)
    if max(spec.energies) / params.T == math.inf:
        return ground_state(params)
    exponents = -np.array(spec.energies) / params.T
    # where twice max(B, |J|)/T overflows the smallest weight is exp(-inf) = 0
    with np.errstate(over="ignore"):
        weights = np.exp(exponents - exponents.max())
    weights /= weights.sum()
    rho = np.zeros((4, 4), dtype=complex)
    for w, ket in zip(weights, spec.kets):
        rho += w * qcore.ket_density(ket)
    return rho


def ground_region(params):
    """Region of the T -> 0 limit and the classifier s = eta^2 + gamma^2.

    'free' at J = 0 (H = 0, fully degenerate); otherwise s against 1 with
    tie tolerance 1e-12: 'exchange' below (the antisymmetric exchange
    eigenstate wins), 'boundary' at 1 (it ties with the field-aligned
    eigenstate) and 'field' above (the field-aligned eigenstate wins).
    Where eta**2 would overflow (|eta| above ~1.34e154) the region is
    'field' and s is +inf, so the field ratio |gamma| / sqrt(s), below
    1e-154 there, is taken as 0.
    """
    if abs(params.eta) > _ETA_SQUARE_MAX:
        s = math.inf
    else:
        s = params.eta**2 + params.gamma**2
    if params.J == 0.0:
        return "free", s
    if abs(s - 1.0) <= _CASE_TOL:
        return "boundary", s
    return ("exchange" if s < 1.0 else "field"), s


def ground_state(params):
    """T -> 0 limit of the thermal state, per `ground_region`.

    Exchange region: the antisymmetric exchange eigenstate; boundary: its
    equal mixture with the field-aligned eigenstate; field region: the
    field-aligned eigenstate alone.  For J < 0 the symmetric exchange
    eigenstate takes the singlet's role; the free pair is maximally mixed.
    """
    region, _ = ground_region(params)
    if region == "free":
        return np.eye(4, dtype=complex) / 4.0
    spec = spectrum(params)
    exchange = spec.kets[2] if params.J > 0.0 else spec.kets[1]
    if region == "boundary":
        return 0.5 * (qcore.ket_density(exchange) + qcore.ket_density(spec.kets[3]))
    if region == "exchange":
        return qcore.ket_density(exchange)
    return qcore.ket_density(spec.kets[3])


def _ground_metrics(params):
    """T -> 0 limits of the spin-flip roots, concurrence and Bell overlap,
    per `ground_region`."""
    region, s = ground_region(params)
    if region == "free":
        return PairMetrics((0.25, 0.25, 0.25, 0.25), 0.0, 0.25)
    g = abs(params.gamma)
    if region == "boundary":
        lams = (0.5, 0.5 * g, 0.0, 0.0)
        return PairMetrics(lams, 0.5 * (1.0 - g), 0.5)
    if region == "exchange":
        return PairMetrics((1.0, 0.0, 0.0, 0.0), 1.0, 1.0)
    r = g / math.sqrt(s)
    return PairMetrics((r, 0.0, 0.0, 0.0), r, 0.5 * (1.0 + r))


def pair_metrics(params):
    """Spin-flip spectrum roots, concurrence and maximal Bell overlap of the
    thermal pair, all in closed form.

    At T = 0, and wherever beta * max(B, |J|) overflows, the
    zero-temperature limits of the closed forms are used directly (the
    generic qcore oracles lose digits to square roots of roundoff-zero
    eigenvalues on the rank-deficient ground states).  Otherwise everything
    reduces to ratios of scaled hyperbolics; the nested radical in the
    field-block roots simplifies to sqrt(1 + u^2) +- u with
    u = (gamma J / B) sinh(beta B), which is the form used here.  The
    threshold solver's scalar margins of kinds 1 and 2 are this function.
    """
    j_abs = abs(params.J)
    beta = params.beta
    big_b = params.b_script
    h = scaled_hyperbolics(beta, big_b, j_abs)
    if h is None:
        return _ground_metrics(params)
    z = 2.0 * (h.ch_b + h.ch_j)  # partition function, scaled
    r = abs(params.gamma) * j_abs / big_b if big_b > 0.0 else 0.0
    lam1 = math.exp(beta * j_abs - h.shift) / z
    lam2 = math.exp(-beta * j_abs - h.shift) / z
    u = r * h.sh_b
    root = math.hypot(math.exp(-h.shift), u)
    lam3 = (root + u) / z
    lam4 = (root - u) / z
    lams = tuple(sorted((lam1, lam2, lam3, lam4), reverse=True))
    conc = max(2.0 * lams[0] - sum(lams), 0.0)
    # the only two Bell overlaps that can win: the exchange-block maximum
    # exp(beta |J|)/Z and the field-block maximum (cosh + r sinh)/Z
    fef = max(lam1, (h.ch_b + r * h.sh_b) / z)
    return PairMetrics(lams, conc, fef)
