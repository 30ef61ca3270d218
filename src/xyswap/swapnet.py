"""Entanglement swapping for a three-pair network.

Three two-qubit states chi_{A1 B1}, chi_{A2 B2}, chi_{A3 B3} are combined
and the three A qubits are measured in the GHZ basis.  Each of the eight
outcomes i leaves the unnormalized conditional state

    <GHZ_i|_A (chi_1 x chi_2 x chi_3) |GHZ_i>_A

on (B1, B2, B3).  All eight are one tensor contraction over the pair
states reshaped to (2, 2, 2, 2), so the 64-dimensional product state is
never formed.  Its trace is the outcome probability.
"""

from dataclasses import dataclass

import numpy as np

from . import qcore
from .xychain import ground_state, thermal_state

__all__ = ["SwapResult", "swap_triple", "swap_all"]

# GHZ bra on (A1, A2, A3), the three pairs as (A_p, B_p, A_p', B_p'), and
# the GHZ ket on (A1', A2', A3'); the output is (i, B1 B2 B3, B1' B2' B3').
_SUBSCRIPTS = "iace,aubv,cwdx,eyfz,ibdf->iuwyvxz"
_GHZ = np.stack([qcore.ghz_ket(i) for i in range(8)]).reshape(8, 2, 2, 2)
_PAIR = np.zeros((2, 2, 2, 2))
_PATH = np.einsum_path(_SUBSCRIPTS, _GHZ, _PAIR, _PAIR, _PAIR, _GHZ, optimize="greedy")[0]


@dataclass(frozen=True)
class SwapResult:
    """Outcome probabilities, conditional states (None for impossible
    branches) and the outcome-averaged mixture."""

    probabilities: np.ndarray
    post_states: tuple
    mixture: np.ndarray


def _swap(chi1, chi2, chi3):
    pairs = [np.asarray(chi, dtype=complex).reshape(2, 2, 2, 2) for chi in (chi1, chi2, chi3)]
    branches = np.einsum(_SUBSCRIPTS, _GHZ.conj(), *pairs, _GHZ, optimize=_PATH).reshape(8, 8, 8)
    probs = np.einsum("ijj->i", branches).real
    kept = probs > qcore.ZERO_PROB_THRESHOLD
    states = branches[kept] / probs[kept, None, None]
    states = 0.5 * (states + states.conj().transpose(0, 2, 1))
    mixture = np.einsum("i,ijk->jk", probs[kept], states)
    kept_states = iter(states)
    post_states = tuple(next(kept_states) if k else None for k in kept)
    return SwapResult(probs, post_states, mixture)


def swap_triple(chi1, chi2, chi3):
    """All eight GHZ outcomes for three (possibly distinct) pair states."""
    for chi in (chi1, chi2, chi3):
        qcore.validate_density(chi, dim=4)
    return _swap(chi1, chi2, chi3)


def swap_all(params, frame=None):
    """Swap three identical pairs drawn from the chain model (thermal for
    T > 0, ground state at T = 0).  A `frame`, a 4x4 unitary, is applied
    to each pair first, as U chi U^dagger."""
    chi = thermal_state(params) if params.T > 0.0 else ground_state(params)
    if frame is not None:
        chi = frame @ chi @ frame.conj().T
    qcore.validate_density(chi, dim=4)
    return _swap(chi, chi, chi)
