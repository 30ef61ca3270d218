"""Tests for the exchange-pair model: Hamiltonian, spectrum, Gibbs state,
ground state and the closed-form pair metrics."""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xyswap import qcore, xychain
from xyswap.teleport import evaluate, fidelity_closed_form
from xyswap.xychain import (
    ChainParams,
    ground_state,
    hamiltonian,
    kernel_inputs,
    pair_metrics,
    scaled_exponentials,
    spectrum,
    thermal_state,
)


def _params(J=1.0, gamma=0.0, eta=0.0, T=1.0):
    return ChainParams(J=J, gamma=gamma, eta=eta, T=T)


# ---------------------------------------------------------------------------
# parameters


def test_params_accessors():
    p = _params(J=2.0, gamma=0.5, eta=0.4, T=0.8)
    assert p.b_field == pytest.approx(0.8)
    # the field-block energy B = hypot(eta, gamma) |J|, nonnegative even for J < 0
    big_b = spectrum(p).energies[0]
    assert big_b == math.hypot(p.eta, p.gamma) * abs(p.J)
    assert spectrum(_params(J=-2.0, gamma=0.5, eta=0.4)).energies[0] == big_b
    # the kernels' unit form: beta = |J| / T on hypot(eta, gamma) is B / T
    assert (abs(p.J) / p.T) * math.hypot(p.eta, p.gamma) == pytest.approx(big_b / p.T)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(gamma=1.5)
    with pytest.raises(ValueError):
        _params(gamma=-1.0001)
    with pytest.raises(ValueError):
        _params(T=-0.1)
    with pytest.raises(ValueError):
        _params(J=math.inf)
    with pytest.raises(ValueError):
        _params(eta=math.nan)


# numpy scalars as parameters, at points where numpy scalar arithmetic
# overflows or wraps: max(levels) / T at a subnormal T (float32's below
# 1e-38), the field-block energies near the largest double, int64 squares
_SCALAR_POINTS = [
    dict(J=np.float64(1.0), gamma=0.5, eta=1.0, T=np.float64(1e-310)),
    dict(J=1.0, gamma=0.3, eta=np.float64(1.7e308), T=0.5),
    dict(J=np.float64(-2.0), gamma=np.float64(0.3), eta=np.float64(-0.7), T=np.float64(0.5)),
    dict(J=np.float32(1.5), gamma=np.float32(-0.25), eta=np.float32(0.5), T=np.float32(1e-40)),
    dict(J=np.float32(-1.5), gamma=np.float32(0.75), eta=np.float32(3e38), T=np.float32(0.3)),
    dict(J=np.int64(3), gamma=np.int64(1), eta=np.int64(-2), T=np.int64(0)),
    dict(J=np.int64(-2), gamma=0.5, eta=np.int64(10**18), T=np.int64(1)),
]


def _public_results(p):
    """Every public result on p, as comparable values."""
    spec = spectrum(p)
    results = [spec.energies, [k.tobytes() for k in spec.kets], ground_state(p).tobytes(),
               pair_metrics(p), fidelity_closed_form(p), evaluate(p)]
    if p.T > 0.0:
        results.append(thermal_state(p).tobytes())
    return results


@pytest.mark.parametrize("point", range(len(_SCALAR_POINTS)))
def test_numpy_scalar_params_match_python_floats_without_warning(point):
    values = _SCALAR_POINTS[point]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = ChainParams(**values)
        got = _public_results(p)
    assert [str(w.message) for w in caught] == []
    assert all(type(getattr(p, name)) is float for name in values)
    # against the Python floats the scalars hold (float32 rounded them first)
    floats = ChainParams(**{name: float(value) for name, value in values.items()})
    assert p == floats
    assert got == _public_results(floats)


# ---------------------------------------------------------------------------
# Hamiltonian


def test_hamiltonian_isotropic_exchange():
    h = hamiltonian(_params(J=1.0, gamma=0.0, eta=0.0))
    want = np.zeros((4, 4))
    want[1, 2] = want[2, 1] = 1.0
    assert_allclose(h, want, atol=1e-15)


def test_hamiltonian_anisotropy_couples_aligned_states():
    h = hamiltonian(_params(J=1.0, gamma=1.0, eta=0.0))
    assert h[0, 3] == pytest.approx(1.0)
    assert h[3, 0] == pytest.approx(1.0)
    assert h[1, 2] == pytest.approx(1.0)


def test_hamiltonian_field_on_diagonal():
    h = hamiltonian(_params(J=1.0, gamma=0.0, eta=0.7))
    assert h[0, 0] == pytest.approx(0.7)
    assert h[3, 3] == pytest.approx(-0.7)
    assert h[1, 1] == pytest.approx(0.0)
    assert h[2, 2] == pytest.approx(0.0)


def test_hamiltonian_hermitian_and_real():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = _params(
            J=rng.uniform(-2, 2),
            gamma=rng.uniform(-1, 1),
            eta=rng.uniform(-3, 3),
        )
        h = hamiltonian(p)
        assert_allclose(h, h.conj().T, atol=1e-14)
        assert_allclose(h.imag, 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_matches_dense_solver():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = _params(
            J=rng.uniform(-2, 2),
            gamma=rng.uniform(-1, 1),
            eta=rng.uniform(-3, 3),
        )
        spec = spectrum(p)
        h = hamiltonian(p)
        assert_allclose(
            sorted(spec.energies), np.linalg.eigvalsh(h), atol=1e-12
        )
        # eigenvector residuals and orthonormality
        for e, ket in zip(spec.energies, spec.kets):
            assert_allclose(h @ ket, e * ket, atol=1e-12)
        mat = np.column_stack(spec.kets)
        assert_allclose(mat.conj().T @ mat, np.eye(4), atol=1e-12)


def test_spectrum_product_block_without_anisotropy():
    spec = spectrum(_params(J=1.0, gamma=0.0, eta=0.5))
    assert spec.energies == pytest.approx((0.5, 1.0, -1.0, -0.5))
    assert_allclose(spec.kets[0], [1, 0, 0, 0], atol=1e-15)
    assert_allclose(spec.kets[3], [0, 0, 0, 1], atol=1e-15)


def test_spectrum_zero_field_block_is_bell_pair():
    spec = spectrum(_params(J=1.0, gamma=0.8, eta=0.0))
    assert_allclose(spec.kets[0], qcore.bell_ket(0), atol=1e-14)
    assert abs(np.vdot(spec.kets[3], qcore.bell_ket(3))) == pytest.approx(1.0)


def test_spectrum_negative_field_swaps_product_block():
    spec = spectrum(_params(J=1.0, gamma=0.0, eta=-0.5))
    # |11> now carries the positive energy +B
    assert_allclose(spec.kets[0], [0, 0, 0, 1], atol=1e-15)
    assert_allclose(spec.kets[3], [1, 0, 0, 0], atol=1e-15)


def test_spectrum_cancellation_free_at_large_field():
    # B - b_field underflows if formed by subtraction; the eigenvectors must
    # still be exact eigenvectors
    p = _params(J=1.0, gamma=0.1, eta=1e8)
    spec = spectrum(p)
    h = hamiltonian(p)
    for e, ket in zip(spec.energies, spec.kets):
        assert_allclose(h @ ket, e * ket, atol=1e-7)
    mat = np.column_stack(spec.kets)
    assert_allclose(mat.conj().T @ mat, np.eye(4), atol=1e-13)


@pytest.mark.parametrize("gamma, eta", [(1e-200, 1e-200), (1e-160, 0.0)])
def test_field_block_exact_where_anisotropy_squared_underflows(gamma, eta):
    # (gamma J)^2 underflows below |gamma J| ~ 1e-154: the field-block kets
    # must stay orthogonal and the Gibbs state must match the closed forms
    p = _params(J=1.0, gamma=gamma, eta=eta, T=0.5)
    kets = spectrum(p).kets
    assert abs(np.vdot(kets[0], kets[3])) <= 1e-15
    rho = thermal_state(p)
    m = pair_metrics(p)
    assert abs(qcore.wootters_concurrence(rho) - m.concurrence) <= 1e-10
    assert abs(qcore.bell_fraction(rho) - m.fef) <= 1e-10


# ---------------------------------------------------------------------------
# thermal state


def test_thermal_state_requires_positive_temperature():
    with pytest.raises(ValueError):
        thermal_state(_params(T=0.0))


def test_thermal_state_high_temperature_limit():
    rho = thermal_state(_params(J=1.0, gamma=0.7, eta=1.3, T=1e9))
    assert_allclose(rho, np.eye(4) / 4.0, atol=1e-9)


def test_thermal_state_low_temperature_selects_singlet():
    rho = thermal_state(_params(J=1.0, gamma=0.0, eta=0.0, T=0.01))
    singlet = qcore.ket_density(qcore.bell_ket(2))
    assert_allclose(rho, singlet, atol=1e-12)


def test_thermal_state_matches_matrix_exponential():
    rng = np.random.default_rng(23)
    for _ in range(30):
        p = _params(
            J=rng.uniform(-2, 2),
            gamma=rng.uniform(-1, 1),
            eta=rng.uniform(-2, 2),
            T=rng.uniform(0.2, 5.0),
        )
        want = scipy.linalg.expm(-hamiltonian(p) / p.T)
        want /= np.trace(want).real
        assert_allclose(thermal_state(p), want, atol=1e-10)


def _ket_density_sum(p):
    """The Gibbs state as the sum of the ket densities of the spectrum,
    each times its Boltzmann weight."""
    b, t, sign = math.hypot(p.eta, p.gamma), p.T / abs(p.J), math.copysign(1.0, p.J)
    exponents = -np.array((b, sign, -sign, -b)) / t
    weights = np.exp(exponents - exponents.max())
    weights /= weights.sum()
    return sum(w * qcore.ket_density(ket) for w, ket in zip(weights, spectrum(p).kets))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    J=st.floats(1e-3, 1e3),
    gamma=st.floats(0.0, 1.0),
    eta=st.floats(0.0, 1e3),
    T=st.floats(-3.0, 3.0).map(lambda x: 10.0**x),
)
def test_thermal_state_is_the_sum_of_its_ket_densities(J, gamma, eta, T):
    for sj, sg, se in itertools.product((1.0, -1.0), repeat=3):
        p = _params(J=sj * J, gamma=sg * gamma, eta=se * eta, T=T)
        rho = thermal_state(p)
        assert np.max(np.abs(rho - _ket_density_sum(p))) <= 1e-15
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15


def test_thermal_state_is_valid_density():
    qcore.validate_density(thermal_state(_params(J=-1.3, gamma=0.9, eta=2.0, T=0.3)))


def test_thermal_state_survives_extreme_cold():
    rho = thermal_state(_params(J=1.0, gamma=0.5, eta=0.3, T=1e-8))
    assert np.all(np.isfinite(rho))
    qcore.validate_density(rho)


def test_thermal_state_silent_where_the_exponent_spread_overflows():
    # max(B, |J|) / T is finite but the spread of the exponents is not; the
    # smallest weight is then exactly 0, with no floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = thermal_state(_params(J=1.0, gamma=0.5, eta=0.0, T=1e-308))
    assert_allclose(rho, qcore.ket_density(qcore.bell_ket(2)), atol=1e-15)


@pytest.mark.parametrize("J", [0.0, -0.0])
def test_thermal_state_of_the_free_pair_is_maximally_mixed(J):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = thermal_state(_params(J=J, gamma=0.3, eta=0.4, T=0.7))
    assert np.array_equal(rho, np.eye(4) / 4.0)


@pytest.mark.parametrize("J", [2.0, -2.0])
def test_thermal_state_is_the_ground_state_where_t_over_j_underflows(J):
    p = _params(J=J, gamma=0.5, eta=0.3, T=5e-324)
    assert p.T / abs(p.J) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = thermal_state(p)
    assert np.array_equal(rho, ground_state(p))


def test_ground_weight_grows_on_cooling():
    # when the field gap B exceeds |J| the field-block state at energy -B is
    # the ground state and its Gibbs weight must rise monotonically as T drops
    p0 = _params(J=1.0, gamma=0.3, eta=2.0)
    ket = spectrum(p0).kets[3]
    weights = [
        float((ket.conj() @ thermal_state(_params(J=1.0, gamma=0.3, eta=2.0, T=t)) @ ket).real)
        for t in (2.0, 1.0, 0.5)
    ]
    assert weights[0] < weights[1] < weights[2]


# ---------------------------------------------------------------------------
# ground state


def test_ground_state_exchange_region():
    rho = ground_state(_params(J=1.0, gamma=0.3, eta=0.4, T=0.0))
    assert_allclose(rho, qcore.ket_density(qcore.bell_ket(2)), atol=1e-14)


def test_ground_state_boundary_mixture():
    # gamma^2 + eta^2 = 1: equal mixture of the two lowest states
    p = _params(J=1.0, gamma=0.6, eta=0.8, T=0.0)
    rho = ground_state(p)
    qcore.validate_density(rho)
    assert qcore.wootters_concurrence(rho) == pytest.approx(0.2, abs=1e-8)
    # rank two, equal weights
    ev = np.sort(np.linalg.eigvalsh(rho))
    assert_allclose(ev, [0, 0, 0.5, 0.5], atol=1e-12)


def test_ground_state_field_region():
    p = _params(J=1.0, gamma=0.6, eta=1.0, T=0.0)
    rho = ground_state(p)
    want = qcore.ket_density(spectrum(p).kets[3])
    assert_allclose(rho, want, atol=1e-14)
    assert qcore.wootters_concurrence(rho) == pytest.approx(
        0.6 / math.sqrt(1.36), abs=1e-8
    )


def test_ground_state_ferromagnetic_coupling():
    rho = ground_state(_params(J=-1.0, gamma=0.3, eta=0.4, T=0.0))
    assert_allclose(rho, qcore.ket_density(qcore.bell_ket(1)), atol=1e-14)


def test_ground_state_free_pair():
    rho = ground_state(_params(J=0.0, gamma=0.3, eta=0.4, T=0.0))
    assert_allclose(rho, np.eye(4) / 4.0, atol=1e-15)


def test_ground_state_does_not_read_the_closed_forms_classifier(monkeypatch):
    # s = 0.36 + 0.6724 is 0.0324 above 1: widening the closed form's tie
    # tolerance past that moves its T -> 0 limit onto the boundary, but the
    # ground state ties levels on the energies alone and stays the field ket
    p = _params(J=1.0, gamma=0.6, eta=0.82, T=0.0)
    monkeypatch.setattr(xychain, "_CASE_TOL", 0.05)
    assert kernel_inputs(p)[0][:4] == (1.0, 0.0, 1.0, 0.0)
    rho = ground_state(p)
    assert np.array_equal(rho, qcore.ket_density(spectrum(p).kets[3]))
    assert np.linalg.matrix_rank(rho) == 1


def test_ground_state_is_cold_limit_of_gibbs():
    rng = np.random.default_rng(31)
    for _ in range(15):
        gamma = rng.uniform(0, 1)
        eta = rng.uniform(0, 2)
        if abs(gamma**2 + eta**2 - 1.0) < 0.05:
            eta += 0.1  # keep clear of the degenerate boundary
        p0 = _params(J=1.0, gamma=gamma, eta=eta, T=0.0)
        pc = _params(J=1.0, gamma=gamma, eta=eta, T=1e-4)
        assert_allclose(ground_state(p0), thermal_state(pc), atol=1e-8)


# ---------------------------------------------------------------------------
# pair metrics, closed form


def test_metrics_pinned_point():
    m = pair_metrics(_params(J=1.0, gamma=0.5, eta=0.4, T=0.8))
    assert_allclose(
        m.lambdas,
        (
            0.5409361987629667,
            0.2961793586172209,
            0.08109631055943709,
            0.04440274713107517,
        ),
        rtol=0, atol=1e-12,
    )
    assert m.concurrence == pytest.approx(0.11925778245523355, abs=1e-12)
    assert m.fef == pytest.approx(0.5409361987629667, abs=1e-12)


def test_metrics_match_generic_oracles():
    rng = np.random.default_rng(43)
    for _ in range(40):
        p = _params(
            J=rng.uniform(-2, 2),
            gamma=rng.uniform(-1, 1),
            eta=rng.uniform(-2, 2),
            T=rng.uniform(0.15, 4.0),
        )
        rho = thermal_state(p)
        m = pair_metrics(p)
        assert_allclose(m.lambdas, qcore.spin_flip_lambdas(rho), atol=1e-10)
        assert m.concurrence == pytest.approx(
            qcore.wootters_concurrence(rho), abs=1e-10
        )
        assert m.fef == pytest.approx(qcore.bell_fraction(rho), abs=1e-12)


def test_metrics_structure():
    rng = np.random.default_rng(47)
    for _ in range(40):
        m = pair_metrics(
            _params(
                J=rng.uniform(-2, 2),
                gamma=rng.uniform(-1, 1),
                eta=rng.uniform(-3, 3),
                T=rng.uniform(0.05, 10.0),
            )
        )
        lams = np.array(m.lambdas)
        assert np.all(np.diff(lams) <= 1e-15)
        assert np.all(lams >= -1e-15)
        # the spin-flip roots never exceed unit total mass; equality holds
        # only at zero field, where the thermal state is Bell diagonal
        assert lams.sum() <= 1.0 + 1e-12
        assert m.concurrence == pytest.approx(
            max(2.0 * lams[0] - lams.sum(), 0.0), abs=1e-12
        )
        assert m.fef >= lams[0] - 1e-15
        assert 0.0 <= m.fef <= 1.0 + 1e-15


def test_metrics_roots_complete_at_zero_field():
    for T in (0.3, 1.0, 4.0):
        m = pair_metrics(_params(J=1.2, gamma=0.7, eta=0.0, T=T))
        assert sum(m.lambdas) == pytest.approx(1.0, abs=1e-12)


def test_metrics_hot_limit():
    m = pair_metrics(_params(J=1.0, gamma=0.8, eta=1.1, T=1e9))
    assert_allclose(m.lambdas, (0.25, 0.25, 0.25, 0.25), atol=1e-9)
    assert m.concurrence == 0.0
    assert m.fef == pytest.approx(0.25, abs=1e-9)


def test_metrics_concurrence_vanishes_at_known_temperature():
    # isotropic zero-field pair: entanglement dies at T/J = 1.13459
    assert pair_metrics(_params(T=1.0)).concurrence > 0.01
    assert pair_metrics(_params(T=1.13459)).concurrence < 1e-4
    assert pair_metrics(_params(T=1.2)).concurrence == 0.0


def test_metrics_sign_flip_invariance():
    rng = np.random.default_rng(53)
    for _ in range(20):
        J = rng.uniform(0.2, 2)
        gamma = rng.uniform(0, 1)
        eta = rng.uniform(0, 2)
        T = rng.uniform(0.2, 3)
        base = pair_metrics(_params(J, gamma, eta, T))
        for flipped in (
            _params(-J, gamma, eta, T),
            _params(J, -gamma, eta, T),
            _params(J, gamma, -eta, T),
        ):
            m = pair_metrics(flipped)
            assert_allclose(m.lambdas, base.lambdas, atol=1e-14)
            assert m.concurrence == pytest.approx(base.concurrence, abs=1e-14)
            assert m.fef == pytest.approx(base.fef, abs=1e-14)


def test_metrics_ground_regions():
    # below the boundary: pure maximally entangled pair
    m = pair_metrics(_params(J=1.0, gamma=0.3, eta=0.4, T=0.0))
    assert m.lambdas == (1.0, 0.0, 0.0, 0.0)
    assert m.concurrence == 1.0
    assert m.fef == 1.0
    # on the boundary
    m = pair_metrics(_params(J=1.0, gamma=0.6, eta=0.8, T=0.0))
    assert_allclose(m.lambdas, (0.5, 0.3, 0.0, 0.0), atol=1e-15)
    assert m.concurrence == pytest.approx(0.2, abs=1e-15)
    assert m.fef == 0.5
    # above the boundary
    m = pair_metrics(_params(J=1.0, gamma=0.6, eta=1.0, T=0.0))
    r = 0.6 / math.sqrt(1.36)
    assert m.concurrence == pytest.approx(r, abs=1e-15)
    assert m.fef == pytest.approx(0.5 * (1.0 + r), abs=1e-15)
    # free pair
    m = pair_metrics(_params(J=0.0, gamma=0.6, eta=1.0, T=0.0))
    assert m.lambdas == (0.25, 0.25, 0.25, 0.25)
    assert m.concurrence == 0.0
    assert m.fef == 0.25


def test_metrics_ground_match_oracles_loosely():
    # the generic route loses half the digits to sqrt of roundoff zeros,
    # so it only corroborates the closed forms at 1e-8
    for gamma, eta in ((0.3, 0.4), (0.6, 0.8), (0.6, 1.0), (1.0, 0.0)):
        p = _params(J=1.0, gamma=gamma, eta=eta, T=0.0)
        rho = ground_state(p)
        m = pair_metrics(p)
        assert qcore.wootters_concurrence(rho) == pytest.approx(
            m.concurrence, abs=1e-8
        )
        assert qcore.bell_fraction(rho) == pytest.approx(m.fef, abs=1e-10)


def test_metrics_strong_field_asymptotics():
    # for eta >> 1 at T = 0 the residual entanglement decays as gamma/eta
    gamma, eta = 0.5, 1e3
    m = pair_metrics(_params(J=1.0, gamma=gamma, eta=eta, T=0.0))
    assert m.concurrence * eta == pytest.approx(gamma, rel=1e-2)
    assert (m.fef - 0.5) * eta == pytest.approx(gamma / 2.0, rel=1e-2)


def _scaled_hyperbolics(beta, b):
    """(cosh(xb), cosh(beta), sinh(xb), sinh(beta)) times exp(-shift), and
    the shift, with xb = beta * b, as halves of sums and differences of
    `scaled_exponentials`."""
    e = scaled_exponentials(beta, b)
    if e is None:
        return None
    eb_hi, eb_lo, ej_hi, ej_lo, m = e
    return (0.5 * (eb_hi + eb_lo), 0.5 * (ej_hi + ej_lo), 0.5 * (eb_hi - eb_lo), 0.5 * (ej_hi - ej_lo), m)


def test_scaled_hyperbolics_extreme_beta():
    ch_b, ch_j, sh_b, sh_j, shift = _scaled_hyperbolics(1e4, 1.3)
    for value in (ch_b, ch_j, sh_b, sh_j):
        assert math.isfinite(value)
    assert shift == pytest.approx(1.3e4)
    assert ch_b >= sh_b >= 0.0
    assert ch_j >= sh_j >= 0.0
    # the dominant channel keeps full precision under the shared scaling;
    # the subdominant one underflows to zero gracefully
    assert ch_b == pytest.approx(0.5, abs=1e-12)
    assert sh_b / ch_b == pytest.approx(1.0, abs=1e-12)
    assert ch_j == pytest.approx(0.0, abs=1e-300)


def test_scaled_hyperbolics_moderate_beta():
    # beta = |J| / T = 0.28 and b = hypot(eta, gamma) = 2.75: xb = 0.77
    ch_b, ch_j, sh_b, sh_j, shift = _scaled_hyperbolics(0.28, 2.75)
    s = math.exp(-shift)
    assert ch_b == pytest.approx(math.cosh(0.77) * s, rel=1e-14)
    assert sh_b == pytest.approx(math.sinh(0.77) * s, rel=1e-14)
    assert ch_j == pytest.approx(math.cosh(0.28) * s, rel=1e-14)
    assert sh_j == pytest.approx(math.sinh(0.28) * s, rel=1e-14)


def test_ground_limits_at_overflowing_fields():
    # eta**2 overflows above ~1.34e154; the T = 0 limits must not square it
    for eta in (1e155, -1e155, 1e300, -1e300):
        for J, gamma in ((1.0, 0.0), (-2.0, 0.5), (0.5, -1.0)):
            p = _params(J, gamma, eta, 0.0)
            assert kernel_inputs(p)[0][:4] == (1.0, 0.0, 0.0, 0.0)  # the field block alone
            m = pair_metrics(p)
            f = fidelity_closed_form(p)
            rho = ground_state(p)
            values = (*m.lambdas, m.concurrence, m.fef, f.c1, f.c2, f.phi_closed)
            assert all(math.isfinite(v) for v in values)
            assert np.all(np.isfinite(rho))
            assert 0.0 <= m.concurrence <= 1.0
            assert 0.25 <= m.fef <= 1.0
            assert 0.5 <= f.phi_closed <= 1.0
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
    # the largest eta whose square is finite keeps the squared classifier
    eta = math.sqrt(sys.float_info.max)
    assert kernel_inputs(_params(1.0, 0.5, eta, 0.0))[1] == 0.5 / math.sqrt(eta**2 + 0.25)


def _eight_exponential_hyperbolics(beta, b):
    """The scaled hyperbolics with two exponentials per member."""
    if beta == math.inf:
        return None
    xb = beta * b
    xj = beta
    m = max(xb, xj)
    if m == math.inf:
        return None
    ch = lambda x: 0.5 * (np.exp(x - m) + np.exp(-x - m))
    sh = lambda x: 0.5 * (np.exp(x - m) - np.exp(-x - m))
    return (ch(xb), ch(xj), sh(xb), sh(xj), m)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    J=st.builds(lambda sign, x: sign * x, st.sampled_from((1.0, -1.0)), st.floats(1e-3, 1e3)),
    gamma=st.floats(-1.0, 1.0),
    eta=st.floats(-1e3, 1e3),
    T=st.floats(5e-324, 1e6),
)
def test_scaled_hyperbolics_equal_the_eight_exponential_form(J, gamma, eta, T):
    # the unit form: beta = |J| / T (inf where it overflows) on hypot(eta, gamma)
    beta, b = abs(J) / T, math.hypot(eta, gamma)
    assert _scaled_hyperbolics(beta, b) == _eight_exponential_hyperbolics(beta, b)


# ---------------------------------------------------------------------------
# whole-domain properties


def _closed_form_values(p):
    m = pair_metrics(p)
    f = fidelity_closed_form(p)
    return (*m.lambdas, m.concurrence, m.fef, f.c1, f.c2, f.phi_closed)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    J=st.builds(lambda sign, x: sign * x, st.sampled_from((1.0, -1.0)), st.floats(1e-3, 1e3)),
    gamma=st.floats(-1.0, 1.0),
    eta=st.floats(-1e3, 1e3),
    T=st.one_of(st.just(0.0), st.floats(5e-324, 1e6)),
)
def test_closed_forms_finite_bounded_and_sign_blind(J, gamma, eta, T):
    # T reaches subnormal values, where beta * max(B, |J|) overflows and the
    # T -> 0 limits must take over instead of a NaN.  The physical bounds
    # hold up to a few ulps of rounding (c1 lands one ulp below 1/2 when hot).
    ulps = 4 * sys.float_info.epsilon
    p = _params(J, gamma, eta, T)
    values = _closed_form_values(p)
    assert all(math.isfinite(v) for v in values)
    rho = thermal_state(p) if T > 0.0 else ground_state(p)
    assert np.all(np.isfinite(rho))
    m = pair_metrics(p)
    assert -ulps <= m.concurrence <= 1.0 + ulps
    assert 0.25 - ulps <= m.fef <= 1.0 + ulps
    assert 0.5 - ulps <= fidelity_closed_form(p).phi_closed <= 1.0 + ulps
    for flipped in (
        _params(-J, gamma, eta, T),
        _params(J, -gamma, eta, T),
        _params(J, gamma, -eta, T),
    ):
        assert _closed_form_values(flipped) == values


def _signed(magnitudes):
    return st.builds(lambda sign, x: sign * x, st.sampled_from((1.0, -1.0)), magnitudes)


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0**x)


# the whole parameter domain: |gamma| in {0} U [1e-300, 1], |eta| in
# {0} U [1e-300, 1e300], both signs of J, gamma and eta
_J = _signed(_decades(-2.0, 2.0))
_GAMMA = _signed(st.one_of(st.just(0.0), _decades(-300.0, 0.0), st.floats(0.0, 1.0)))
_ETA = _signed(st.one_of(st.just(0.0), _decades(-300.0, 300.0)))


# |J| from 1e-300 up to the largest double
_J_WHOLE = _signed(st.one_of(_decades(-300.0, 308.0), st.floats(1e308, sys.float_info.max)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    J=_J_WHOLE,
    gamma=_GAMMA,
    eta=_ETA,
    on_boundary=st.booleans(),
    tau=st.one_of(st.just(0.0), _decades(-3.0, 2.0)),
)
@example(J=1e308, gamma=0.5, eta=10.0, on_boundary=False, tau=1.0)
def test_closed_forms_match_the_oracles_over_the_whole_domain(J, gamma, eta, on_boundary, tau):
    # one closed-form route at every T = tau |J| >= 0 and every |J| in
    # [1e-300, the largest double], held to the independent oracles of the
    # Gibbs or ground state, which also work in units of |J| but share no
    # code with the closed forms.  The closed forms see T / |J| alone, so
    # they are those at J = +-1 bit for bit.  Wootters' concurrence loses
    # digits on nearly rank-deficient states (~1e-8 measured at T = 0), the
    # FEF none.
    if on_boundary:
        eta = math.copysign(math.sqrt(1.0 - gamma * gamma), eta)
    assume(math.isfinite(tau * abs(J)))
    p = _params(J, gamma, eta, tau * abs(J))
    unit = _params(math.copysign(1.0, J), gamma, eta, p.T / abs(J))
    assert _closed_form_values(p) == _closed_form_values(unit)
    rho = thermal_state(p) if p.T > 0.0 else ground_state(p)
    m = pair_metrics(p)
    assert m.fef == pytest.approx(qcore.bell_fraction(rho), abs=1e-12)
    assert m.concurrence == pytest.approx(qcore.wootters_concurrence(rho), abs=1e-7)
    result = evaluate(p)
    assert result.phi_closed == pytest.approx(result.phi_simulated, abs=1e-9)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    J=_J_WHOLE,
    gamma=_GAMMA,
    eta=_ETA,
    T=st.one_of(st.just(0.0), st.just(5e-324), _decades(-324.0, 308.0)),
)
@example(J=1e308, gamma=0.5, eta=10.0, T=1e308)
def test_oracles_see_t_over_j_alone(J, gamma, eta, T):
    # the oracles at (J, T) are those at (sign J, T / |J|) bit for bit, the
    # absolute energies |J| times the unit ones, also where T / |J|
    # underflows to 0 (the ground state) or B = hypot(eta, gamma) |J| overflows
    assume(math.isfinite(T / abs(J)))
    p = _params(J, gamma, eta, T)
    unit = _params(math.copysign(1.0, J), gamma, eta, T / abs(J))
    spec, spec_unit = spectrum(p), spectrum(unit)
    assert all(np.array_equal(k, k_unit) for k, k_unit in zip(spec.kets, spec_unit.kets))
    assert spec.energies == tuple(abs(J) * e for e in spec_unit.energies)
    assert np.array_equal(ground_state(p), ground_state(unit))
    rho = thermal_state(p) if p.T > 0.0 else ground_state(p)
    rho_unit = thermal_state(unit) if unit.T > 0.0 else ground_state(unit)
    assert np.array_equal(rho, rho_unit)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(J=_J, gamma=_GAMMA, eta=_ETA, depth=st.floats(40.0, 1e3))
def test_closed_forms_tend_to_their_zero_temperature_values(J, gamma, eta, depth):
    # away from the boundary the thermal kernels, once beta |B - |J|| >= 40,
    # give what their T -> 0 inputs give
    p = _params(J, gamma, eta, 0.0)
    b = math.hypot(eta, gamma)
    assume(abs(b * b - 1.0) >= 1e-3)
    warm = _params(J, gamma, eta, abs(b * abs(J) - abs(J)) / depth)
    assert_allclose(_closed_form_values(warm), _closed_form_values(p), rtol=0.0, atol=1e-14)
