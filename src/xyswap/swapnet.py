"""Entanglement swapping for a three-pair network.

Three two-qubit states chi_{A1 B1}, chi_{A2 B2}, chi_{A3 B3} are combined
and the three A qubits are measured in the GHZ basis.  Each of the eight
outcomes i leaves the unnormalized conditional state

    <GHZ_i|_A (chi_1 x chi_2 x chi_3) |GHZ_i>_A

on (B1, B2, B3).  Its trace is the outcome probability.

Each GHZ ket has two nonzero entries: GHZ_i = (|x> + s|x'>)/sqrt2, with x
a bit string on (A1, A2, A3), x' its complement 7 - x and s = +-1
(`qcore.ghz_ket`).  With chi_p[a, a'] the 2x2 block <a|chi_p|a'> on B_p
and K(u, v) = chi_1[u1, v1] x chi_2[u2, v2] x chi_3[u3, v3], the state is
the sum of four triple Kronecker products,

    1/2 [K(x, x) + K(x', x') + s K(x, x') + s K(x', x)],

two diagonal terms and two cross terms.  Outcomes x and 7 - x have the
same string pair and opposite s: they share the diagonal terms and differ
in the sign of the cross terms.  So the eight states are one signed sum of
16 products, K(u, u) and K(u, u') for the eight strings u, whose blocks
are read through index tables built once.  The 64-dimensional product
state is never formed.
"""

from dataclasses import dataclass

import numpy as np

from . import qcore
from .xychain import ground_state, thermal_state

__all__ = ["SwapResult", "swap_triple", "swap_all"]

# the 16 terms K(u, v): v = u for terms 0..7, v = 7 - u for terms 8..15.
# The tables are built in Python: numpy's integer and sign ufuncs, run here,
# would page ~0.25 MB of numpy's code into every process at import.
_TERMS = [(u, u) for u in range(8)] + [(u, 7 - u) for u in range(8)]
# A_p's bit of each term's u and v, as (pair p, term); A1 is the most
# significant bit of a string
_PAIR_INDEX = np.arange(3)[:, None]
_U_BITS = np.array([[u >> 2 - p & 1 for u, _ in _TERMS] for p in range(3)])
_V_BITS = np.array([[v >> 2 - p & 1 for _, v in _TERMS] for p in range(3)])
# outcome i weighs term (u, v) by the product of its GHZ ket's entries at
# u and v: 1/2 for the two diagonal terms of its string pair, s/2 for the
# two cross terms, 0 elsewhere
_GHZ_SIGNS = [[(x > 0) - (x < 0) for x in qcore.ghz_ket(i).real.tolist()] for i in range(8)]
_TERM_WEIGHTS = np.array([[0.5 * s[u] * s[v] for u, v in _TERMS] for s in _GHZ_SIGNS], dtype=complex)


@dataclass(frozen=True)
class SwapResult:
    """Outcome probabilities and conditional states (None for impossible
    branches)."""

    probabilities: np.ndarray
    post_states: tuple


def _swap(chi1, chi2, chi3):
    pairs = np.array((chi1, chi2, chi3), dtype=complex).reshape(3, 2, 2, 2, 2)
    # the blocks chi_p[u_p, v_p] of the 16 terms, as (pair p, term, b, b')
    b1, b2, b3 = pairs[_PAIR_INDEX, _U_BITS, :, _V_BITS, :]
    kron = (b1[:, :, None, :, None] * b2[:, None, :, None, :]).reshape(16, 4, 4)
    kron = (kron[:, :, None, :, None] * b3[:, None, :, None, :]).reshape(16, 64)
    branches = (_TERM_WEIGHTS @ kron).reshape(8, 8, 8)
    probs = np.einsum("ijj->i", branches).real
    kept = probs > qcore.ZERO_PROB_THRESHOLD
    states = branches[kept] / probs[kept, None, None]
    states = 0.5 * (states + states.conj().transpose(0, 2, 1))
    kept_states = iter(states)
    post_states = tuple(next(kept_states) if k else None for k in kept)
    return SwapResult(probs, post_states)


def swap_triple(chi1, chi2, chi3):
    """All eight GHZ outcomes for three (possibly distinct) pair states."""
    for chi in (chi1, chi2, chi3):
        qcore.validate_density(chi, dim=4)
    return _swap(chi1, chi2, chi3)


def swap_all(params):
    """Swap three identical pairs drawn from the chain model (thermal for
    T > 0, ground state at T = 0).

    The pair state is not re-checked: `thermal_state` and `ground_state`
    build a density operator on the whole parameter domain (a property
    test holds them to `qcore.validate_density`).
    """
    chi = thermal_state(params) if params.T > 0.0 else ground_state(params)
    return _swap(chi, chi, chi)
