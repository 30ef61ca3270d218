"""Tests for conditional teleportation through the swapped resource."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import counted, random_density, random_ket, reference_branch_data
from xyswap import qcore
from xyswap.teleport import (
    TeleportConfig,
    _branch_data,
    _correction_table,
    _design_factors,
    conditioned_state,
    evaluate,
    fidelity_closed_form,
    measurement_family,
)
from xyswap.xychain import ChainParams, scaled_exponentials

_E0 = np.array([1.0, 0.0], dtype=complex)


def _params(J=1.0, gamma=0.0, eta=0.0, T=1.0):
    return ChainParams(J=J, gamma=gamma, eta=eta, T=T)


# ---------------------------------------------------------------------------
# configuration and measurement family


def test_config_validation():
    assert TeleportConfig().mu == pytest.approx(math.pi / 4.0)
    assert TeleportConfig().measure_qubit == "B"
    with pytest.raises(ValueError):
        TeleportConfig(mu=-0.1)
    with pytest.raises(ValueError):
        TeleportConfig(mu=math.pi / 3.0)
    with pytest.raises(ValueError):
        TeleportConfig(measure_qubit="A")


def test_measurement_family_axis_aligned():
    bells, singles = measurement_family(TeleportConfig(mu=0.0))
    assert_allclose(singles[0], [[1, 0], [0, 0]], atol=1e-15)
    assert_allclose(singles[1], [[0, 0], [0, 1]], atol=1e-15)
    for j, proj in enumerate(bells):
        assert_allclose(proj, qcore.ket_density(qcore.bell_ket(j)), atol=1e-15)


def test_measurement_family_diagonal():
    _, singles = measurement_family(TeleportConfig(mu=math.pi / 4.0))
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([-1.0, 1.0]) / math.sqrt(2.0)
    assert_allclose(singles[0], np.outer(plus, plus), atol=1e-15)
    assert_allclose(singles[1], np.outer(minus, minus), atol=1e-15)


def test_measurement_family_completeness():
    bells, singles = measurement_family(TeleportConfig(mu=0.3))
    assert_allclose(sum(bells), np.eye(4), atol=1e-14)
    assert_allclose(sum(singles), np.eye(2), atol=1e-14)
    for proj in bells + singles:
        qcore.validate_projector(proj)


# ---------------------------------------------------------------------------
# conditioned state


def test_conditioned_state_perfect_channel():
    resource = qcore.ket_density(qcore.ghz_ket(0))
    q, rho = conditioned_state(resource, _E0, 0, 1)
    assert q == pytest.approx(0.125, abs=1e-12)
    assert float(np.trace(rho @ rho).real) == pytest.approx(1.0, abs=1e-12)
    # the receiver holds the input up to one Pauli
    fids = [
        float((_E0.conj() @ (qcore.pauli(c) @ rho @ qcore.pauli(c)) @ _E0).real)
        for c in range(4)
    ]
    assert max(fids) == pytest.approx(1.0, abs=1e-10)


def test_conditioned_state_maximally_mixed_channel():
    resource = np.eye(8, dtype=complex) / 8.0
    q, rho = conditioned_state(resource, _E0, 1, 2)
    assert q == pytest.approx(0.125, abs=1e-12)
    assert_allclose(rho, np.eye(2) / 2.0, atol=1e-12)


def test_conditioned_state_branch_completeness():
    rng = np.random.default_rng(83)
    for _ in range(5):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        resource = g @ g.conj().T
        resource /= np.trace(resource).real
        ket = random_ket(rng, 2)
        cfg = TeleportConfig(mu=rng.uniform(0, math.pi / 4.0))
        total = sum(
            conditioned_state(resource, ket, j, k, cfg)[0]
            for j in range(4)
            for k in (1, 2)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_conditioned_state_impossible_branch():
    e000 = np.zeros(8, dtype=complex)
    e000[0] = 1.0
    resource = qcore.ket_density(e000)
    q, rho = conditioned_state(resource, _E0, 0, 2, TeleportConfig(mu=0.0))
    assert q == pytest.approx(0.0, abs=1e-14)
    assert rho is None


def test_conditioned_state_validation():
    resource = np.eye(8, dtype=complex) / 8.0
    with pytest.raises(ValueError):
        conditioned_state(resource, _E0, 4, 1)
    with pytest.raises(ValueError):
        conditioned_state(resource, _E0, 0, 0)
    with pytest.raises(ValueError):
        conditioned_state(resource, _E0, 0, 3)
    with pytest.raises(ValueError):
        conditioned_state(np.eye(4, dtype=complex) / 4.0, _E0, 0, 1)
    with pytest.raises(ValueError):
        conditioned_state(resource, 2.0 * _E0, 0, 1)
    # booleans and non-integers are not outcomes: j = True is not outcome 1,
    # and j = 1.0, which passes `in range(4)`, cannot index the Bell list
    for j, k in ((True, 1), (np.True_, 1), (1.0, 1), (0, True), (0, np.True_), (0, 1.0), (0, 2.0)):
        with pytest.raises(ValueError):
            conditioned_state(resource, _E0, j, k)
    assert conditioned_state(resource, _E0, np.int64(1), np.int64(2))[0] == pytest.approx(0.125)


def test_branch_data_matches_generic_measurement():
    # the generic route: conditioned_state measures the input and the channel
    # through qcore.measure and traces out all but the receiver.  Random
    # channels of every rank, and |000> at mu = 0, where each k = 2 branch
    # is impossible
    rng = np.random.default_rng(89)
    e000 = np.zeros(8, dtype=complex)
    e000[0] = 1.0
    cases = [(random_density(rng, 8, rank), 0.37) for rank in range(1, 9)]
    cases.append((qcore.ket_density(e000), 0.0))
    kets, _ = qcore.bloch_grid()
    impossible = 0
    for qubit in ("B", "C"):
        for resource, mu in cases:
            cfg = TeleportConfig(mu=mu, measure_qubit=qubit)
            q, vals, _ = _branch_data(resource[None], mu, qubit)
            for n, ket in enumerate(kets):
                for j in range(4):
                    for k in (1, 2):
                        want_q, rho_c = conditioned_state(resource, ket, j, k, cfg)
                        assert abs(q[n, 0, j, k - 1] - want_q) <= 1e-13
                        impossible += rho_c is None
                        for c in range(4):
                            phi = qcore.pauli(c) @ ket
                            want = 0.0 if rho_c is None else want_q * (phi.conj() @ rho_c @ phi).real
                            assert abs(vals[c, n, 0, j, k - 1] - want) <= 1e-13
    # per qubit, |000>'s 24 branches at k = 2, and at k = 1 the two Bell
    # outcomes orthogonal to the input |0> or |1> on A1 with A2 in |0>
    assert impossible == 2 * (24 + 4)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ranks=st.lists(st.integers(1, 8), min_size=1, max_size=8),
    qubit=st.sampled_from(("B", "C")),
    mu=st.one_of(st.sampled_from((0.0, math.pi / 4.0)), st.floats(0.0, math.pi / 4.0)),
)
def test_branch_data_matches_its_definition(seed, ranks, qubit, mu):
    # stacks of random channels against the three-einsum definition; and
    # since mu enters only through the assisting bra, once on each side,
    # q and vals are c^2 X0 + c s X1 + s^2 X2 in c = cos(mu), s = sin(mu)
    # with X fitted from mu = 0, pi/4 and pi/2
    rng = np.random.default_rng(seed)
    resources = np.stack([random_density(rng, 8, rank) for rank in ranks])
    q, vals, _ = _branch_data(resources, mu, qubit)
    want_q, want_vals = reference_branch_data(resources, mu, qubit)
    assert np.max(np.abs(q - want_q)) <= 1e-14
    assert np.max(np.abs(vals - want_vals)) <= 1e-14
    fit_mus = (0.0, math.pi / 4.0, math.pi / 2.0)
    design = np.array([[math.cos(m) ** 2, math.cos(m) * math.sin(m), math.sin(m) ** 2] for m in fit_mus])
    c, s = math.cos(mu), math.sin(mu)
    for got, part in ((q, 0), (vals, 1)):
        fixed = np.linalg.solve(design, np.stack([_branch_data(resources, m, qubit)[part].ravel() for m in fit_mus]))
        assert np.max(np.abs(got.ravel() - np.array([c * c, c * s, s * s]) @ fixed)) <= 1e-14


# ---------------------------------------------------------------------------
# correction table


def test_correction_table_is_total():
    table = _correction_table("B")
    for i in range(8):
        for j in range(4):
            for k in (1, 2):
                assert table[i, j, k - 1] in (0, 1, 2, 3)


def test_correction_table_identity_branches():
    # the branches needing no correction, pinned as a regression guard
    found = {
        (i, j, k)
        for i in range(8)
        for j in range(4)
        for k in (1, 2)
        if _correction_table("B")[i, j, k - 1] == 0
    }
    assert found == {
        (0, 0, 2), (0, 3, 1),
        (1, 1, 2), (1, 2, 1),
        (2, 0, 2), (2, 3, 1),
        (3, 1, 2), (3, 2, 1),
        (4, 1, 1), (4, 2, 2),
        (5, 0, 1), (5, 3, 2),
        (6, 1, 1), (6, 2, 2),
        (7, 0, 1), (7, 3, 2),
    }


# entries [i, j, k - 1] as the tables were first derived, so that a
# change to `_branch_data` cannot move both a table and its re-derivation
_PINNED_TABLES = {
    "B": [
        [[3, 0], [2, 1], [1, 2], [0, 3]],
        [[2, 1], [3, 0], [0, 3], [1, 2]],
        [[3, 0], [2, 1], [1, 2], [0, 3]],
        [[2, 1], [3, 0], [0, 3], [1, 2]],
        [[1, 2], [0, 3], [3, 0], [2, 1]],
        [[0, 3], [1, 2], [2, 1], [3, 0]],
        [[1, 2], [0, 3], [3, 0], [2, 1]],
        [[0, 3], [1, 2], [2, 1], [3, 0]],
    ],
    "C": [
        [[3, 0], [2, 1], [1, 2], [0, 3]],
        [[3, 0], [2, 1], [1, 2], [0, 3]],
        [[2, 1], [3, 0], [0, 3], [1, 2]],
        [[2, 1], [3, 0], [0, 3], [1, 2]],
        [[1, 2], [0, 3], [3, 0], [2, 1]],
        [[1, 2], [0, 3], [3, 0], [2, 1]],
        [[0, 3], [1, 2], [2, 1], [3, 0]],
        [[0, 3], [1, 2], [2, 1], [3, 0]],
    ],
}


@pytest.mark.parametrize("measure_qubit", ["B", "C"])
def test_correction_table_is_pinned(measure_qubit):
    assert _correction_table(measure_qubit).tolist() == _PINNED_TABLES[measure_qubit]


def test_correction_table_first_branch():
    assert _correction_table("B")[0, 0, 0] == 3


def test_corrections_repair_every_ideal_branch():
    # through each perfect channel the corrected receiver state must equal
    # the input on every branch, for arbitrary inputs
    rng = np.random.default_rng(89)
    cfg = TeleportConfig(mu=math.pi / 4.0)
    kets = [_E0, random_ket(rng, 2), random_ket(rng, 2)]
    for i in range(8):
        resource = qcore.ket_density(qcore.ghz_ket(7 - i))
        for ket in kets:
            for j in range(4):
                for k in (1, 2):
                    q, rho = conditioned_state(resource, ket, j, k, cfg)
                    assert q == pytest.approx(0.125, abs=1e-12)
                    s = qcore.pauli(_correction_table("B")[i, j, k - 1])
                    fid = float((ket.conj() @ (s @ rho @ s) @ ket).real)
                    assert fid == pytest.approx(1.0, abs=1e-10)


def test_correction_table_is_strict_optimum_for_ideal_channels():
    # re-derive each table afresh on the ideal resources: the cached
    # entries must win every branch with a clear margin, so the argmax can
    # never flip on roundoff
    ideal = np.stack(
        [qcore.ket_density(qcore.ghz_ket(7 - i)) for i in range(8)]
    )
    for measure_qubit in ("B", "C"):
        _, vals, wts = _branch_data(ideal, math.pi / 4.0, measure_qubit)
        scores = np.einsum("cnmjk,n->cmjk", vals, wts)
        assert np.array_equal(np.argmax(scores, axis=0), _correction_table(measure_qubit))
        ranked = np.sort(scores, axis=0)
        margin = float(np.min(ranked[-1] - ranked[-2]))
        assert margin > 0.08, measure_qubit


# ---------------------------------------------------------------------------
# fidelity, simulated and closed


def test_perfect_network_teleports_exactly():
    p = _params(J=1.0, gamma=0.0, eta=0.0, T=0.0)
    assert evaluate(p).phi_simulated == pytest.approx(1.0, abs=1e-12)
    closed = fidelity_closed_form(p)
    assert closed.c1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert closed.c2 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert closed.phi_closed == pytest.approx(1.0, abs=1e-15)


def test_hot_network_is_useless():
    p = _params(J=1.0, gamma=0.7, eta=1.2, T=1e9)
    closed = fidelity_closed_form(p)
    assert closed.phi_closed == pytest.approx(0.5, abs=1e-9)
    assert evaluate(p).phi_simulated == pytest.approx(0.5, abs=1e-9)


def test_simulation_matches_closed_form_on_small_grid():
    for gamma in (0.0, 1.0):
        for eta in (0.0, 0.9):
            for T in (0.5, 2.0):
                p = _params(J=1.0, gamma=gamma, eta=eta, T=T)
                for mu in (0.0, math.pi / 4.0):
                    cfg = TeleportConfig(mu=mu)
                    closed = fidelity_closed_form(p, cfg)
                    sim = evaluate(p, cfg).phi_simulated
                    assert sim == pytest.approx(closed.phi_closed, abs=1e-9)


def test_measuring_the_other_assistant_is_equivalent():
    for gamma, eta in ((0.5, 0.7), (1.0, 0.0), (0.3, 1.4)):
        for T in (0.0, 0.8):
            p = _params(J=1.0, gamma=gamma, eta=eta, T=T)
            for mu in (0.0, math.pi / 4.0):
                closed = fidelity_closed_form(p, TeleportConfig(mu=mu))
                sim_c = evaluate(p, TeleportConfig(mu=mu, measure_qubit="C")).phi_simulated
                assert abs(closed.phi_closed - sim_c) <= 1e-9


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    J=st.builds(lambda sign, x: sign * x, st.sampled_from((1.0, -1.0)), st.floats(1e-3, 1e3)),
    gamma=st.floats(-1.0, 1.0),
    eta=st.floats(-1e3, 1e3),
    T=st.one_of(st.just(0.0), st.floats(5e-324, 1e6)),
    qubit=st.sampled_from(("B", "C")),
    mu=st.floats(0.0, math.pi / 4.0),
)
def test_simulation_matches_closed_form_in_every_sign_sector(J, gamma, eta, T, qubit, mu):
    # the closed form is sign-blind; the simulation rotates each pair into
    # the J > 0, gamma >= 0 frame, for which the correction table is derived
    result = evaluate(_params(J, gamma, eta, T), TeleportConfig(mu=mu, measure_qubit=qubit))
    assert abs(result.phi_closed - result.phi_simulated) <= 1e-9


def test_evaluate_einsum_budget(monkeypatch):
    # per evaluate: the swap's outcome probabilities, the channel
    # contraction and the branch probabilities in `_branch_data`, the
    # simulated fidelity and the weights, and the Gibbs state's one at
    # T > 0.  The design factors are built once per process; every later
    # call reads them from the cache
    for qubit in ("B", "C"):
        evaluate(_params(gamma=0.4, eta=1.1, T=0.7), TeleportConfig(mu=0.3, measure_qubit=qubit))
    before = _design_factors.cache_info()
    calls = []
    monkeypatch.setattr(np, "einsum", counted(calls, "einsum", np.einsum))
    for qubit in ("B", "C"):
        for T, want in ((0.7, 6), (0.0, 5)):
            calls.clear()
            evaluate(_params(gamma=0.4, eta=1.1, T=T), TeleportConfig(mu=0.3, measure_qubit=qubit))
            assert len(calls) == want, (qubit, T)
    after = _design_factors.cache_info()
    assert after.misses == before.misses == 1
    assert after.hits == before.hits + 4


def test_fidelity_increases_with_measurement_angle():
    p = _params(J=1.0, gamma=0.6, eta=0.5, T=0.6)
    values = [
        evaluate(p, TeleportConfig(mu=mu)).phi_simulated
        for mu in (0.0, math.pi / 8.0, math.pi / 4.0)
    ]
    assert values[0] <= values[1] + 1e-10
    assert values[1] <= values[2] + 1e-10
    assert fidelity_closed_form(p).c2 >= 0.0


def test_fidelity_bounds():
    rng = np.random.default_rng(101)
    for _ in range(5):
        p = _params(
            J=rng.uniform(0.3, 2.0),
            gamma=rng.uniform(0, 1),
            eta=rng.uniform(0, 2),
            T=rng.uniform(0.1, 5.0),
        )
        phi = evaluate(p).phi_simulated
        assert 0.5 - 1e-12 <= phi <= 1.0 + 1e-12


def test_evaluate_pinned_point():
    p = _params(J=1.0, gamma=1.0, eta=0.8, T=0.5)
    result = evaluate(p)
    assert result.c1 == pytest.approx(0.5119552298156635, abs=1e-12)
    assert result.c2 == pytest.approx(0.2042292872762139, abs=1e-12)
    assert result.phi_closed == pytest.approx(0.6140698734537705, abs=1e-12)
    assert result.phi_simulated == pytest.approx(result.phi_closed, abs=1e-9)
    assert len(result.correction_table) == 64
    assert result.correction_table[(0, 0, 1)] == 3
    total = sum(result.per_outcome_weight.values())
    assert total == pytest.approx(1.0, abs=1e-10)
    assert all(w >= -1e-14 for w in result.per_outcome_weight.values())


def test_closed_form_zero_temperature_regions():
    # interior: full advantage
    r = fidelity_closed_form(_params(gamma=0.3, eta=0.4, T=0.0))
    assert (r.c1, r.c2) == (2.0 / 3.0, 2.0 / 3.0)
    # boundary
    r = fidelity_closed_form(_params(gamma=0.6, eta=0.8, T=0.0))
    assert r.c1 == 0.5
    assert r.c2 == pytest.approx((1.0 + 0.6 + 0.36 + 0.216) / 12.0, abs=1e-15)
    # field-dominated
    r = fidelity_closed_form(_params(gamma=0.6, eta=1.0, T=0.0))
    assert r.c1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert r.c2 == pytest.approx((2.0 / 3.0) * (0.6 / math.sqrt(1.36)) ** 3, abs=1e-15)
    # free pair
    r = fidelity_closed_form(_params(J=0.0, gamma=0.6, eta=1.0, T=0.0))
    assert (r.c1, r.c2) == (0.5, 0.0)


def test_advantage_threshold_matches_sign_polynomial():
    # Phi(pi/4) - 2/3 and the cubic hyperbolic polynomial must agree in sign
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 100:
        p = _params(
            J=rng.uniform(0.2, 2.0),
            gamma=rng.uniform(0, 1),
            eta=rng.uniform(0, 3),
            T=rng.uniform(0.1, 5.0),
        )
        # the unit form: beta = |J| / T on b = hypot(eta, gamma)
        b = math.hypot(p.eta, p.gamma)
        eb_hi, eb_lo, ej_hi, ej_lo, _ = scaled_exponentials(abs(p.J) / p.T, b)
        ch_b, ch_j = 0.5 * (eb_hi + eb_lo), 0.5 * (ej_hi + ej_lo)
        sh_b, sh_j = 0.5 * (eb_hi - eb_lo), 0.5 * (ej_hi - ej_lo)
        r = abs(p.gamma) / b if b > 0 else 0.0
        poly = (
            sh_j**3
            + r * sh_j**2 * sh_b
            + r**2 * sh_j * sh_b**2
            + r**3 * sh_b**3
            - 2.0 * ch_b * ch_j * (ch_b + ch_j)
        )
        margin = fidelity_closed_form(p).phi_closed - 2.0 / 3.0
        if abs(poly) < 1e-12 or abs(margin) < 1e-12:
            continue  # too close to the threshold to carry a stable sign
        assert (margin > 0) == (poly > 0)
        checked += 1
