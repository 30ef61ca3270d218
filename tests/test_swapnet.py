"""Tests for the three-pair entanglement-swapping network."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import brute_embed, counted, qubit_swap_matrix, random_density, three_tangle
from xyswap import qcore
from xyswap.swapnet import SwapResult, swap_all, swap_triple
from xyswap.teleport import TeleportConfig, evaluate
from xyswap.xychain import ChainParams, ground_state, thermal_state


def _purity(rho):
    return float(np.trace(rho @ rho).real)


def test_maximally_mixed_inputs_stay_maximally_mixed():
    chi = np.eye(4, dtype=complex) / 4.0
    result = swap_triple(chi, chi, chi)
    assert_allclose(result.probabilities, np.full(8, 0.125), atol=1e-12)
    for state in result.post_states:
        assert_allclose(state, np.eye(8) / 8.0, atol=1e-12)


def test_singlet_inputs_produce_pure_tripartite_states():
    chi = qcore.ket_density(qcore.bell_ket(2))
    result = swap_triple(chi, chi, chi)
    assert_allclose(result.probabilities, np.full(8, 0.125), atol=1e-12)
    for i, state in enumerate(result.post_states):
        assert _purity(state) == pytest.approx(1.0, abs=1e-12)
        # outcome i leaves the conjugate basis state, index 7 - i
        ket = qcore.ghz_ket(7 - i)
        assert float((ket.conj() @ state @ ket).real) == pytest.approx(
            1.0, abs=1e-12
        )
        # genuinely tripartite: unit residual tangle of the dominant vector
        w, v = np.linalg.eigh(state)
        assert three_tangle(v[:, -1]) == pytest.approx(1.0, abs=1e-9)


def test_symmetric_bell_inputs_map_outcome_to_itself():
    chi = qcore.ket_density(qcore.bell_ket(0))
    result = swap_triple(chi, chi, chi)
    for i, state in enumerate(result.post_states):
        ket = qcore.ghz_ket(i)
        assert float((ket.conj() @ state @ ket).real) == pytest.approx(
            1.0, abs=1e-12
        )


def test_probabilities_complete_for_random_inputs():
    rng = np.random.default_rng(61)
    for _ in range(10):
        chis = [random_density(rng, 4) for _ in range(3)]
        result = swap_triple(*chis)
        assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(result.probabilities >= -1e-14)
        for state in result.post_states:
            qcore.validate_density(state, dim=8)


def test_probability_matches_projector_expectation():
    # independent check: p_i = Tr[(Pi_i on the measured qubits) chi1.chi2.chi3]
    rng = np.random.default_rng(67)
    chis = [random_density(rng, 4) for _ in range(3)]
    product = np.kron(np.kron(chis[0], chis[1]), chis[2])
    result = swap_triple(*chis)
    for i in range(8):
        proj = brute_embed(qcore.ket_density(qcore.ghz_ket(i)), (0, 2, 4), 6)
        want = float(np.trace(proj @ product).real)
        assert result.probabilities[i] == pytest.approx(want, abs=1e-12)


def _pair_state(spec):
    """A seeded random_density state of the given rank, or the product
    basis state |ab> for ("basis", index)."""
    kind, *args = spec
    if kind == "basis":
        ket = np.zeros(4, dtype=complex)
        ket[args[0]] = 1.0
        return qcore.ket_density(ket)
    seed, rank = args
    return random_density(np.random.default_rng(seed), 4, rank)


_PAIR_SPECS = st.one_of(
    st.tuples(st.just("random"), st.integers(0, 2**32 - 1), st.integers(1, 4)),
    st.tuples(st.just("basis"), st.integers(0, 3)),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(specs=st.lists(_PAIR_SPECS, min_size=3, max_size=3, unique=True))
@example(specs=[("basis", 0), ("basis", 3), ("basis", 1)])  # six outcomes impossible
@example(specs=[("basis", 2), ("random", 7, 1), ("random", 8, 4)])
def test_contraction_matches_generic_measurement(specs):
    # the generic route: embed the GHZ projector on (A1, A2, A3) in the
    # 64-dimensional product state, measure, and trace the A qubits out;
    # three different pairs, basis states among them making some outcomes
    # impossible
    chis = [_pair_state(spec) for spec in specs]
    product = np.kron(np.kron(chis[0], chis[1]), chis[2])
    result = swap_triple(*chis)
    for i in range(8):
        prob, post = qcore.measure(product, qcore.ket_density(qcore.ghz_ket(i)), (0, 2, 4))
        assert abs(result.probabilities[i] - prob) <= 1e-13
        if prob > 1e-12:
            want = qcore.partial_trace(post, (1, 3, 5))
            assert np.max(np.abs(result.post_states[i] - want)) <= 1e-13
        if prob < 1e-15:
            assert result.post_states[i] is None


def test_swap_computes_no_einsum_path(monkeypatch):
    # the outcome states come from fixed index tables: no contraction path,
    # neither built by the caller nor re-checked inside numpy.einsum
    calls = []
    einsum_path = counted(calls, "einsum_path", np.einsum_path)
    monkeypatch.setattr(np, "einsum_path", einsum_path)
    monkeypatch.setitem(np.einsum.__wrapped__.__globals__, "einsum_path", einsum_path)
    rng = np.random.default_rng(83)
    swap_triple(*(random_density(rng, 4) for _ in range(3)))
    swap_all(ChainParams(J=1.0, gamma=0.4, eta=0.7, T=0.6))
    swap_all(ChainParams(J=-1.0, gamma=-0.3, eta=1.2, T=0.0))
    assert calls == []


def test_exchanging_two_input_pairs_permutes_outcomes():
    rng = np.random.default_rng(73)
    chis = [random_density(rng, 4) for _ in range(3)]
    base = swap_triple(chis[0], chis[1], chis[2])
    swapped = swap_triple(chis[1], chis[0], chis[2])
    # exchanging pairs 1 and 2 permutes the measurement basis into itself;
    # find the induced outcome relabeling and the matching B-side unitary
    perm_a = qubit_swap_matrix(3, 0, 1)
    perm_b = qubit_swap_matrix(3, 0, 1)
    for i in range(8):
        overlaps = [
            abs(np.vdot(qcore.ghz_ket(a), perm_a @ qcore.ghz_ket(i)))
            for a in range(8)
        ]
        a = int(np.argmax(overlaps))
        assert overlaps[a] == pytest.approx(1.0, abs=1e-12)
        assert swapped.probabilities[a] == pytest.approx(
            base.probabilities[i], abs=1e-10
        )
        want = perm_b @ base.post_states[i] @ perm_b.T
        assert_allclose(swapped.post_states[a], want, atol=1e-10)


def test_impossible_branches_report_none():
    ket00 = np.zeros(4, dtype=complex)
    ket00[0] = 1.0
    chi = qcore.ket_density(ket00)
    result = swap_triple(chi, chi, chi)
    assert result.probabilities[0] == pytest.approx(0.5, abs=1e-12)
    assert result.probabilities[7] == pytest.approx(0.5, abs=1e-12)
    for i in range(1, 7):
        assert result.probabilities[i] == pytest.approx(0.0, abs=1e-14)
        assert result.post_states[i] is None
    # the kept qubits stay in |000>
    e000 = np.zeros(8)
    e000[0] = 1.0
    assert_allclose(result.post_states[0], np.outer(e000, e000), atol=1e-12)


def test_swap_all_agrees_with_swap_triple():
    # the model's pair in every sign sector, and at a tie of its two lowest
    # levels, swapped by either entry point
    for J, gamma, eta, T in ((1.0, 0.4, 0.7, 0.6), (-1.0, 0.4, -0.7, 0.6), (1.0, -0.4, 0.7, 0.0),
                             (-1.0, -0.4, 0.7, 0.6), (-2.0, 0.6, -0.8, 0.0)):
        p = ChainParams(J=J, gamma=gamma, eta=eta, T=T)
        chi = thermal_state(p) if T > 0.0 else ground_state(p)
        result, want = swap_all(p), swap_triple(chi, chi, chi)
        assert_allclose(result.probabilities, want.probabilities, atol=1e-14)
        for state, want_state in zip(result.post_states, want.post_states):
            assert_allclose(state, want_state, atol=1e-14)


def test_swap_triple_rejects_bad_inputs():
    chi = np.eye(4, dtype=complex) / 4.0
    for bad in (2.0 * chi, np.eye(2, dtype=complex) / 2.0):
        for chis in ((chi, chi, bad), (chi, bad, chi), (bad, chi, chi)):
            with pytest.raises(ValueError):
                swap_triple(*chis)


def test_swap_all_thermal_pair():
    result = swap_all(ChainParams(J=1.0, gamma=0.0, eta=0.0, T=0.5))
    assert isinstance(result, SwapResult)
    # identical-pair networks give unbiased outcomes
    assert_allclose(result.probabilities, np.full(8, 0.125), atol=1e-12)
    for state in result.post_states:
        qcore.validate_density(state, dim=8)


def test_swap_all_ground_pair_is_pure_per_branch():
    result = swap_all(ChainParams(J=1.0, gamma=0.3, eta=0.4, T=0.0))
    for state in result.post_states:
        assert _purity(state) == pytest.approx(1.0, abs=1e-12)


def _signed(magnitude):
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitude).map(lambda sm: sm[0] * sm[1])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    J=_signed(st.floats(0.0, 1e300)),
    gamma=st.floats(-1.0, 1.0),
    eta=_signed(st.floats(0.0, 1e300)),
    T=st.one_of(st.just(0.0), st.floats(5e-324, 1e300)),
)
@example(J=-1.0, gamma=-0.5, eta=0.8, T=0.4)
@example(J=1e-300, gamma=1e-12, eta=-1e300, T=5e-324)
@example(J=-4.0, gamma=0.6, eta=0.8, T=0.0)  # hypot(eta, gamma) = 1: a tie
def test_the_pair_states_swap_all_trusts_are_density_operators(J, gamma, eta, T):
    # swap_all checks nothing: the model's own pair state and the swap of
    # it must be valid on the whole parameter domain
    p = ChainParams(J=J, gamma=gamma, eta=eta, T=T)
    qcore.validate_density(thermal_state(p) if T > 0.0 else ground_state(p), dim=4)
    result = swap_all(p)
    assert result.probabilities.min() >= -1e-15
    assert abs(result.probabilities.sum() - 1.0) <= 1e-12
    for state in result.post_states:
        if state is not None:
            qcore.validate_density(state, dim=8)


def test_swap_all_and_evaluate_call_no_lapack(monkeypatch):
    # the pair state is the package's own, so no eigenvalue check runs on it
    calls = []
    for name in ("eigvalsh", "eigh", "eigvals", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(calls, name, getattr(np.linalg, name)))
    swap_all(ChainParams(J=1.0, gamma=0.4, eta=0.7, T=0.6))
    swap_all(ChainParams(J=1.0, gamma=0.4, eta=0.7, T=0.0))
    swap_all(ChainParams(J=-1.0, gamma=-0.4, eta=0.7, T=0.6))
    for qubit in ("B", "C"):
        evaluate(ChainParams(J=-1.3, gamma=-0.4, eta=0.9, T=0.5), TeleportConfig(measure_qubit=qubit))
    assert calls == []
