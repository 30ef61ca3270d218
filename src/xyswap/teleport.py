"""Conditional teleportation through the swapped three-qubit resource.

One outcome chi^(i) of the swap network, relabeled (A2, B, C), serves as
the channel: the sender Bell-measures the input qubit A1 together with A2
(outcome j), the assisting party measures B in the rotated basis
{cos(mu)|0> + sin(mu)|1>, -sin(mu)|0> + cos(mu)|1>} (outcome k in {1, 2}),
and the receiver applies a branch-dependent Pauli to C.  The figure of
merit is the input-averaged corrected overlap

    Phi = <  sum_{i,j,k}  p_i q^(i)_{jk}(phi) <phi| s_c rho_C s_c |phi>  >_phi

with the average taken over the six axis states, a spherical 3-design
and so exact for this integrand of degree 2 in the Bloch vector.  Each
branch state is one tensor contraction of the channel with the Bell bra
(against the input) and the assisting bra on both sides; measuring C
instead of B only permutes the channel axes they meet.  The Pauli
table is static: entry (i, j, k) is the exhaustive-search optimum for the
resource that outcome i ideally produces.  Swapping three ground-pair
singlets under GHZ outcome i leaves the sign-flipped partner basis state
ghz_ket(7 - i), so the search runs against that ket (at mu = pi/4, where
the optimum is strict).

The same average has a closed form c1 + c2 cos(mu) sin(mu) whose
coefficients are ratios of scaled hyperbolics; the simulated and closed
values must agree to near machine precision, which is the package's
second correctness gate.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .swapnet import swap_all
from .xychain import kernel_inputs

__all__ = [
    "TeleportConfig",
    "TeleportResult",
    "measurement_family",
    "conditioned_state",
    "fidelity_coefficients",
    "fidelity_closed_form",
    "evaluate",
]

@dataclass(frozen=True)
class TeleportConfig:
    """Measurement angle mu in [0, pi/4] and which assisting qubit (B or C)
    is measured; the other one receives."""

    mu: float = math.pi / 4.0
    measure_qubit: str = "B"

    def __post_init__(self):
        if not 0.0 <= self.mu <= math.pi / 4.0 + 1e-15:
            raise ValueError(f"mu must lie in [0, pi/4], got {self.mu!r}")
        if self.measure_qubit not in ("B", "C"):
            raise ValueError(f"measure_qubit must be 'B' or 'C', got {self.measure_qubit!r}")


@dataclass(frozen=True)
class TeleportResult:
    c1: float
    c2: float
    phi_closed: float
    phi_simulated: float | None = None
    correction_table: dict | None = None
    per_outcome_weight: dict | None = None


def _basis_kets(mu):
    k1 = np.array([math.cos(mu), math.sin(mu)], dtype=complex)
    k2 = np.array([-math.sin(mu), math.cos(mu)], dtype=complex)
    return k1, k2


def measurement_family(cfg):
    """Bell projectors for (A1, A2) and the two rotated single-qubit
    projectors for the assisting measurement."""
    bells = [qcore.ket_density(qcore.bell_ket(j)) for j in range(4)]
    singles = [qcore.ket_density(k) for k in _basis_kets(cfg.mu)]
    return bells, singles


def conditioned_state(resource, input_ket, j, k, cfg=None):
    """Receiver state after Bell outcome j and assisting outcome k.

    Returns (q, rho_C) with q the branch probability; impossible branches
    (q <= ZERO_PROB_THRESHOLD) return (q, None).
    """
    cfg = cfg if cfg is not None else TeleportConfig()
    qcore.validate_density(resource, dim=8)
    qcore.validate_ket(input_ket, dim=2)
    if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or j not in range(4):
        raise ValueError(f"bell outcome j must be in 0..3, got {j!r}")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k not in (1, 2):
        raise ValueError(f"assisting outcome k must be 1 or 2, got {k!r}")
    bells, singles = measurement_family(cfg)
    # qubits (A1, A2, B, C): the assisting one is measured, the other kept
    assist, keep = (2, 3) if cfg.measure_qubit == "B" else (3, 2)
    total = qcore.tensor(qcore.ket_density(input_ket), resource)
    q, post = qcore.measure(total, qcore.tensor(bells[j], singles[k - 1]), (0, 1, assist))
    return q, None if post is None else qcore.partial_trace(post, (keep,))


# the bra u[n, j, k, a, b] on both sides of channel m; "C" swaps its B and C axes
_RHO_SUBSCRIPTS = {"B": "njkab,mabcdef,njkde->nmjkcf", "C": "njkab,macbdfe,njkde->nmjkcf"}
_U, _RES = np.zeros((6, 4, 2, 2, 2)), np.zeros((8, 2, 2, 2, 2, 2, 2))
_RHO_PATH = np.einsum_path(_RHO_SUBSCRIPTS["B"], _U, _RES, _U, optimize="greedy")[0]
_BELLS = np.stack([qcore.bell_ket(j).reshape(2, 2) for j in range(4)])
_PAULIS = np.stack([qcore.pauli(c) for c in range(4)])


def _branch_data(resources, mu, measure_qubit):
    """Vectorized branch bookkeeping over the Bloch design.

    resources: stacked (M, 8, 8) channel states.  Returns (q, vals, wts):
    q[n, m, j, k] are branch probabilities at design node n, and
    vals[c, n, m, j, k] = <phi_n| s_c rho~_C s_c |phi_n> for each candidate
    correction c, with rho~_C the q-weighted (unnormalized) receiver state,
    so no branch ever needs renormalizing.
    """
    kets, wts = qcore.bloch_grid()
    res = np.asarray(resources, dtype=complex).reshape(-1, 2, 2, 2, 2, 2, 2)
    w = np.einsum("jxa,nx->nja", _BELLS.conj(), kets)
    u = np.einsum("nja,kb->njkab", w, np.stack(_basis_kets(mu)).conj())
    rho = np.einsum(_RHO_SUBSCRIPTS[measure_qubit], u, res, u.conj(), optimize=_RHO_PATH)
    q = np.einsum("nmjkcc->nmjk", rho).real
    sigma_phi = np.einsum("cxy,ny->cnx", _PAULIS, kets)
    vals = np.einsum("nmjkxy,cnx,cny->cnmjk", rho, sigma_phi.conj(), sigma_phi).real
    return q, vals, wts


# Local unitaries between the sign sectors of the pair Hamiltonian.  Z x 1
# flips sx.sx and sy.sy and keeps the field term eta J, so it carries
# H(J, gamma, eta) to H(-J, gamma, -eta).  S = diag(1, i), which is
# Rz(pi/2) up to a phase, maps sx to sy and sy to -sx, so S x S carries
# H(gamma) to H(-gamma) and back (its square Z x Z commutes with H).
# Conjugating a Gibbs or ground state by them gives the state of the
# carried Hamiltonian.
_FLIP_J = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
_FLIP_GAMMA = np.diag([1.0, 1j, 1j, -1.0])


def _positive_frame(params):
    """The local unitary that takes the pair into the J > 0, gamma >= 0
    frame, for which the correction table is derived; None where the pair
    is already there (or J = 0, where the pair is maximally mixed)."""
    if params.J >= 0.0 and params.gamma >= 0.0:
        return None
    frame = np.eye(4, dtype=complex)
    if params.J < 0.0:
        frame = _FLIP_J @ frame
    if params.gamma < 0.0:
        frame = _FLIP_GAMMA @ frame
    return frame


@functools.cache
def _correction_table(measure_qubit):
    """Static Pauli index for branch (i, j, k) at entry [i, j, k - 1]."""
    ideal = np.stack([qcore.ket_density(qcore.ghz_ket(7 - i)) for i in range(8)])
    _, vals, wts = _branch_data(ideal, math.pi / 4.0, measure_qubit)
    scores = np.einsum("cnmjk,n->cmjk", vals, wts)
    table = np.argmax(scores, axis=0)
    table.setflags(write=False)
    return table


def fidelity_coefficients(e, r):
    """(c1, c2) from the pair's kernel inputs (e, r), as `xychain`'s
    kernels take them, floats or arrays: ratios of terms of
    one degree in twice the scaled hyperbolics, powers as products, and
    sh_j^3 + r sh_j^2 sh_b + r^2 sh_j sh_b^2 + r^3 sh_b^3 factored."""
    eb_hi, eb_lo, ej_hi, ej_lo, _ = e
    cb, cj, sj, rs = eb_hi + eb_lo, ej_hi + ej_lo, ej_hi - ej_lo, r * (eb_hi - eb_lo)
    den = cb + cj
    c1 = 2.0 * (cb * cb + cb * cj + cj * cj) / (3.0 * (den * den))
    c2 = 2.0 * ((sj + rs) * (sj * sj + rs * rs)) / (3.0 * (den * den * den))
    return c1, c2


def fidelity_closed_form(params, cfg=None):
    """Closed-form average fidelity coefficients (c1, c2) and their value
    c1 + c2 cos(mu) sin(mu), as Python floats: the kernel
    `fidelity_coefficients` on `xychain.kernel_inputs`, so T = 0 and
    overflowing beta * max(B, |J|) give the limiting values.  Evaluated on
    |J|, |gamma|, |eta| (sign flips are local unitaries)."""
    cfg = cfg if cfg is not None else TeleportConfig()
    c1, c2 = (float(c) for c in fidelity_coefficients(*kernel_inputs(params)))
    phi = c1 + c2 * math.cos(cfg.mu) * math.sin(cfg.mu)
    return TeleportResult(c1=c1, c2=c2, phi_closed=phi)


def evaluate(params, cfg=None):
    """Closed form and simulation side by side, with the static correction
    table and the averaged per-branch weights p_i <q^(i)_{jk}>.

    Each pair is first rotated into the J > 0, gamma >= 0 frame by local
    unitaries, which the parties can apply since they know the chain's
    signs; the table is derived for that frame.
    """
    cfg = cfg if cfg is not None else TeleportConfig()
    closed = fidelity_closed_form(params, cfg)
    swap = swap_all(params, _positive_frame(params))
    kept = [i for i in range(8) if swap.post_states[i] is not None]
    resources = np.stack([swap.post_states[i] for i in kept])
    probs = swap.probabilities[kept]
    q, vals, wts = _branch_data(resources, cfg.mu, cfg.measure_qubit)
    full_table = _correction_table(cfg.measure_qubit)
    corrected = np.take_along_axis(vals, full_table[kept][None, None], axis=0)[0]
    phi_sim = float(np.einsum("n,m,nmjk->", wts, probs, corrected))
    # zero rows for the outcomes the swap never produces
    weight = np.zeros((8, 4, 2))
    weight[kept] = probs[:, None, None] * np.einsum("n,nmjk->mjk", wts, q)
    branches = [(i, j, k) for i in range(8) for j in range(4) for k in (1, 2)]
    return TeleportResult(
        c1=closed.c1,
        c2=closed.c2,
        phi_closed=closed.phi_closed,
        phi_simulated=phi_sim,
        correction_table={b: int(full_table[b[0], b[1], b[2] - 1]) for b in branches},
        per_outcome_weight={b: float(weight[b[0], b[1], b[2] - 1]) for b in branches},
    )
