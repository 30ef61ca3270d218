import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xyswap import qcore, swapnet, teleport
from xyswap.xychain import ChainParams, ground_state, pair_metrics, thermal_state

from helpers import counted, random_density, random_ket, random_unitary


def test_pauli_matrices():
    assert_allclose(qcore.pauli(0), np.eye(2))
    assert_allclose(qcore.pauli(3), np.diag([1.0, -1.0]))
    assert_allclose(qcore.pauli(1), np.array([[0, 1], [1, 0]]))
    assert_allclose(qcore.pauli(2), np.array([[0, -1j], [1j, 0]]))
    for i in range(4):
        assert_allclose(qcore.pauli(i) @ qcore.pauli(i), np.eye(2), atol=1e-15)
    with pytest.raises(ValueError):
        qcore.pauli(4)
    with pytest.raises(ValueError):
        qcore.pauli(-1)


def test_bell_kets():
    s = 1.0 / math.sqrt(2.0)
    assert_allclose(qcore.bell_ket(0), [s, 0, 0, s])
    assert_allclose(qcore.bell_ket(1), [0, s, s, 0])
    assert_allclose(qcore.bell_ket(2), [0, s, -s, 0])
    assert_allclose(qcore.bell_ket(3), [s, 0, 0, -s])
    gram = np.array([[np.vdot(qcore.bell_ket(a), qcore.bell_ket(b)) for b in range(4)] for a in range(4)])
    assert_allclose(gram, np.eye(4), atol=1e-15)
    with pytest.raises(ValueError):
        qcore.bell_ket(4)


def test_ghz_kets():
    s = 1.0 / math.sqrt(2.0)
    assert_allclose(qcore.ghz_ket(0), [s, 0, 0, 0, 0, 0, 0, s])
    assert_allclose(qcore.ghz_ket(4), [0, 0, 0, s, -s, 0, 0, 0])
    basis = np.stack([qcore.ghz_ket(i) for i in range(8)])
    assert_allclose(basis @ basis.conj().T, np.eye(8), atol=1e-15)
    with pytest.raises(ValueError):
        qcore.ghz_ket(8)


def _bloch_ket(theta, phi):
    return np.array([math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)])


@pytest.mark.parametrize("index", [True, False, np.True_, np.False_], ids=repr)
@pytest.mark.parametrize("constructor", [qcore.pauli, qcore.bell_ket, qcore.ghz_ket], ids=lambda f: f.__name__)
def test_basis_constructors_reject_boolean_indices(constructor, index):
    # numpy reads a boolean index as a mask: pauli(True) would be a
    # (1, 4, 2, 2) stack and ghz_ket(True) a ket of norm 4
    with pytest.raises(ValueError, match="index must be in"):
        constructor(index)


def test_bloch_ket_poles_and_equator():
    # the design's kets are the poles and four equator points, each in the
    # canonical form cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> with theta
    # in [0, pi] and phi in [0, 2 pi)
    kets, _ = qcore.bloch_grid()
    angles = [(0.0, 0.0), (math.pi, 0.0)] + [(math.pi / 2, k * math.pi / 2) for k in (0, 2, 1, 3)]
    assert len(kets) == len(angles)
    for ket, (theta, phi) in zip(kets, angles):
        assert_allclose(ket, _bloch_ket(theta, phi), atol=1e-15)


def test_bloch_ket_angle_reduction():
    # each design ket is stored in canonical coordinates: its first amplitude
    # is real and non-negative, so the angles read back from it lie in
    # [0, pi] x [0, 2 pi) and rebuild it exactly; the angles folded by 2 pi,
    # or across the pole as (-theta, phi + pi), name the same direction
    kets, _ = qcore.bloch_grid()
    for ket in kets:
        assert ket[0].imag == 0.0 and ket[0].real >= 0.0
        theta = 2.0 * math.atan2(abs(ket[1]), ket[0].real)
        phi = float(np.angle(ket[1])) % (2.0 * math.pi)
        assert 0.0 <= theta <= math.pi and 0.0 <= phi < 2.0 * math.pi
        assert_allclose(ket, _bloch_ket(theta, phi), atol=1e-15)
        rho = qcore.ket_density(ket)
        assert_allclose(qcore.ket_density(_bloch_ket(theta + 2.0 * math.pi, phi)), rho, atol=1e-12)
        assert_allclose(qcore.ket_density(_bloch_ket(-theta, phi + math.pi)), rho, atol=1e-12)


def test_tensor():
    zero = np.array([1.0, 0.0], dtype=complex)
    one = np.array([0.0, 1.0], dtype=complex)
    assert_allclose(qcore.tensor(zero, one), [0, 1, 0, 0])
    assert_allclose(qcore.tensor(np.eye(2) / 2, np.eye(2) / 2), np.eye(4) / 4)
    rho = qcore.tensor(qcore.ket_density(qcore.bell_ket(0)), qcore.pauli(0) / 2)
    assert abs(np.trace(rho) - 1.0) < 1e-14


def test_partial_trace_bell_marginal():
    rho = qcore.ket_density(qcore.bell_ket(0))
    assert_allclose(qcore.partial_trace(rho, (0,)), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_recovery():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_density(rng, 2)
        b = random_density(rng, 4)
        prod = qcore.tensor(a, b)
        assert_allclose(qcore.partial_trace(prod, (1, 2)), b, atol=1e-12)
        assert_allclose(qcore.partial_trace(prod, (0,)), a, atol=1e-12)


def test_partial_trace_ghz_single_qubit_marginals():
    rho = qcore.ket_density(qcore.ghz_ket(0))
    for q in range(3):
        assert_allclose(qcore.partial_trace(rho, (q,)), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_rejects_bad_subsets():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError):
        qcore.partial_trace(rho, ())
    with pytest.raises(ValueError):
        qcore.partial_trace(rho, (0, 0))
    with pytest.raises(ValueError):
        qcore.partial_trace(rho, (2,))


def test_measure_basics():
    proj0 = np.array([[1, 0], [0, 0]], dtype=complex)
    prob, post = qcore.measure(np.eye(4, dtype=complex) / 4, proj0, (0,))
    assert abs(prob - 0.5) < 1e-14
    assert_allclose(post, qcore.tensor(proj0, np.eye(2, dtype=complex) / 2), atol=1e-14)

    ghz0 = qcore.ket_density(qcore.ghz_ket(0))
    prob, post = qcore.measure(ghz0, ghz0, (0, 1, 2))
    assert abs(prob - 1.0) < 1e-12
    assert_allclose(post, ghz0, atol=1e-12)

    proj7 = qcore.ket_density(qcore.ghz_ket(7))
    prob, post = qcore.measure(ghz0, proj7, (0, 1, 2))
    assert prob <= qcore.ZERO_PROB_THRESHOLD
    assert post is None


def test_measure_completeness():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = random_density(rng, 8)
        total = sum(
            qcore.measure(rho, qcore.ket_density(qcore.ghz_ket(i)), (0, 1, 2))[0]
            for i in range(8)
        )
        assert abs(total - 1.0) < 1e-10
        total = sum(
            qcore.measure(rho, qcore.ket_density(qcore.bell_ket(j)), (0, 2))[0]
            for j in range(4)
        )
        assert abs(total - 1.0) < 1e-10


def test_measure_rejects_bad_subset():
    with pytest.raises(ValueError):
        qcore.measure(np.eye(4, dtype=complex) / 4, np.eye(4, dtype=complex), (0,))


@pytest.mark.parametrize("proj", [2.0 * np.eye(2), -np.eye(2), qcore.pauli(1)], ids=["2I", "-I", "sigma_x"])
def test_measure_rejects_non_projectors(proj):
    # unchecked, they read as probability 2, as -1 and as an impossible branch
    with pytest.raises(ValueError, match="projector is not idempotent"):
        qcore.measure(np.eye(4, dtype=complex) / 4, proj, (0,))


def test_measure_rejects_non_density_states():
    # Hermitian with unit trace, but with eigenvalue -1: unchecked, the
    # branch reads as probability 2
    rho = np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="eigenvalue -1.0"):
        qcore.measure(rho, np.array([[1, 0], [0, 0]], dtype=complex), (1,))


def _without_warnings(fn, *args):
    """fn(*args), and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


def _raises_without_warnings(fn, arg, match):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=match):
            fn(arg)
    assert [str(w.message) for w in caught] == []


def test_huge_off_diagonal_state_is_a_value_error():
    # Hermitian with unit trace: the Hermitian part sums halves, not the
    # entries, so its eigenvalues +-9e307 come out finite and the check
    # reads the negative one
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 3] = rho[3, 0] = 9e307
    for fn in (qcore.wootters_concurrence, qcore.spin_flip_lambdas, qcore.validate_density):
        _raises_without_warnings(fn, rho, "eigenvalue -9e[+]307")


def test_identity_times_the_largest_decade_is_finite_or_a_value_error():
    big = np.eye(4) * 1e308
    (w, v), caught = _without_warnings(qcore.hermitian_eigensystem, big)
    assert caught == []
    assert np.array_equal(w, np.full(4, 1e308))
    assert np.array_equal(np.abs(v), np.eye(4))
    root, caught = _without_warnings(qcore.sqrtm_psd, big)
    assert caught == []
    assert_allclose(root, np.eye(4) * 1e154, rtol=1e-15)
    _raises_without_warnings(qcore.validate_density, big, "trace")
    _raises_without_warnings(qcore.validate_projector, big, "idempotent")


def test_eigenvalue_beyond_the_largest_double_is_a_value_error():
    # every entry is finite, the top eigenvalue 4e308 is not
    for fn in (qcore.hermitian_eigensystem, qcore.sqrtm_psd):
        _raises_without_warnings(fn, np.full((4, 4), 1e308), "beyond the largest double")


@pytest.mark.parametrize("rho", [np.full((4, 4), 1e308), np.diag([1e308] * 4 + [-1e308] * 4)],
                         ids=["full-4x4", "signed-diagonal-8x8"])
def test_partial_trace_that_overflows_is_a_value_error(rho):
    # every entry is finite, the traced-out sums of the reduced state are not
    _raises_without_warnings(lambda r: qcore.partial_trace(r, (0,)), rho, "non-finite")


def test_hermitian_eigensystem_random():
    rng = np.random.default_rng(17)
    for dim in (2, 4, 8):
        for _ in range(20):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = g + g.conj().T
            w, v = qcore.hermitian_eigensystem(h)
            assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-12 * max(1.0, np.abs(h).max()))
            assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)
            assert np.max(np.abs(h @ v - v * w)) < 1e-11 * max(1.0, np.abs(h).max())


def test_hermitian_eigensystem_degenerate_block():
    # degenerate diagonal with one coupled block; regression for a stalled
    # convergence test
    h = np.array(
        [
            [0.0536, 0, 0, 0],
            [0, 0.0827575507209675, -0.063, 0],
            [0, -0.063, 0.08275755072096748, 0],
            [0, 0, 0, 0.0536],
        ],
        dtype=complex,
    )
    w, v = qcore.hermitian_eigensystem(h)
    assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-14)


def test_hermitian_eigensystem_rejects_nonsquare():
    with pytest.raises(ValueError):
        qcore.hermitian_eigensystem(np.zeros((2, 3)))


def test_wootters_concurrence_pure_states():
    assert abs(qcore.wootters_concurrence(qcore.ket_density(qcore.bell_ket(2))) - 1.0) < 1e-12
    ket00 = np.zeros(4, dtype=complex)
    ket00[0] = 1.0
    assert qcore.wootters_concurrence(qcore.ket_density(ket00)) < 1e-12


def test_wootters_concurrence_werner():
    # p*Bell + (1-p)*I/4 has concurrence max(0, (3p-1)/2)
    bell = qcore.ket_density(qcore.bell_ket(0))
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = p * bell + (1.0 - p) * np.eye(4) / 4.0
        expect = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(qcore.wootters_concurrence(rho) - expect) < 1e-10


def test_wootters_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(23)
    for _ in range(15):
        rho = random_density(rng, 4)
        c0 = qcore.wootters_concurrence(rho)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        c1 = qcore.wootters_concurrence(u @ rho @ u.conj().T)
        assert abs(c0 - c1) < 1e-8


def test_bell_fraction():
    assert abs(qcore.bell_fraction(np.eye(4, dtype=complex) / 4) - 0.25) < 1e-14
    assert abs(qcore.bell_fraction(qcore.ket_density(qcore.bell_ket(1))) - 1.0) < 1e-14


def test_bell_fraction_product_states_bounded():
    rng = np.random.default_rng(29)
    for _ in range(30):
        rho = qcore.ket_density(qcore.tensor(random_ket(rng, 2), random_ket(rng, 2)))
        f = qcore.bell_fraction(rho)
        assert 0.0 <= f <= 0.5 + 1e-12


def test_bloch_grid_is_a_spherical_3_design():
    kets, wts = qcore.bloch_grid()
    assert abs(wts.sum() - 1.0) < 1e-15
    assert_allclose(np.linalg.norm(kets, axis=1), 1.0, atol=1e-15)
    n = np.stack(
        [np.einsum("nx,xy,ny->n", kets.conj(), qcore.pauli(i), kets).real for i in (1, 2, 3)],
        axis=1,
    )
    # Haar moments of the Bloch vector: 1/3 for squares, 0 for every other
    # monomial of degree 1..3
    for powers in itertools.product(range(4), repeat=3):
        if sum(powers) > 3:
            continue
        if sum(powers) == 0:
            want = 1.0
        else:
            want = 1.0 / 3.0 if sorted(powers) == [0, 0, 2] else 0.0
        got = float(wts @ np.prod(n**np.array(powers), axis=1))
        assert abs(got - want) < 1e-15, powers


def _bloch_average(f):
    """Average of f(ket) over the Bloch sphere on the design."""
    return float(sum(w * f(k) for k, w in zip(*qcore.bloch_grid())))


def test_bloch_average_normalization_and_symmetry():
    assert abs(_bloch_average(lambda k: 1.0) - 1.0) < 1e-13
    assert abs(_bloch_average(lambda k: abs(k[0]) ** 2) - 0.5) < 1e-13


def test_bloch_average_fourth_moment():
    # Haar second moment of the squared overlap in dimension 2 is 1/3
    phi0 = _bloch_ket(1.1, 2.3)
    val = _bloch_average(lambda k: abs(np.vdot(phi0, k)) ** 4)
    assert abs(val - 1.0 / 3.0) < 1e-13


def test_bloch_average_matches_monte_carlo():
    rng = np.random.default_rng(31)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g + g.conj().T
    f = lambda k: float(np.real(np.vdot(k, m @ k)) ** 2)
    quad = _bloch_average(f)
    n = 1_000_000
    z = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    samples = np.einsum("ni,ij,nj->n", z.conj(), m, z).real ** 2
    assert abs(quad - samples.mean()) < 3.0 * samples.std() / math.sqrt(n)


def test_validators():
    qcore.validate_ket(qcore.bell_ket(0), dim=4)
    with pytest.raises(ValueError):
        qcore.validate_ket(np.array([1.0, 1.0], dtype=complex), dim=2)
    with pytest.raises(ValueError):
        qcore.validate_ket(qcore.bell_ket(0), dim=2)

    qcore.validate_density(np.eye(4, dtype=complex) / 4, dim=4)
    with pytest.raises(ValueError):
        qcore.validate_density(np.eye(4, dtype=complex), dim=4)  # trace 4
    with pytest.raises(ValueError):
        qcore.validate_density(np.diag([1.5, -0.5, 0, 0]).astype(complex), dim=4)

    qcore.validate_projector(qcore.ket_density(qcore.ghz_ket(3)))
    with pytest.raises(ValueError):
        qcore.validate_projector(0.5 * qcore.ket_density(qcore.ghz_ket(3)))


def _nonfinite_density(bad):
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 1] = bad
    return rho


def _nonfinite_ket(bad):
    return np.array([bad, 1.0], dtype=complex)


def _nonfinite_projector(bad):
    proj = qcore.ket_density(qcore.ghz_ket(3))
    proj[0, 0] = bad
    return proj


_MIXED = np.eye(4, dtype=complex) / 4

# each entry point, called with one NaN or infinite entry in its state
_NONFINITE_CALLS = {
    "validate_density": lambda bad: qcore.validate_density(_nonfinite_density(bad), dim=4),
    "validate_ket": lambda bad: qcore.validate_ket(_nonfinite_ket(bad), dim=2),
    "validate_projector": lambda bad: qcore.validate_projector(_nonfinite_projector(bad)),
    "wootters_concurrence": lambda bad: qcore.wootters_concurrence(_nonfinite_density(bad)),
    "bell_fraction": lambda bad: qcore.bell_fraction(_nonfinite_density(bad)),
    "swap_triple": lambda bad: swapnet.swap_triple(_MIXED, _nonfinite_density(bad), _MIXED),
    "conditioned_state": lambda bad: teleport.conditioned_state(
        np.eye(8, dtype=complex) / 8, _nonfinite_ket(bad), 0, 1
    ),
    "measure": lambda bad: qcore.measure(_nonfinite_density(bad), qcore.ket_density(qcore.bell_ket(0)), (0, 1)),
    "partial_trace": lambda bad: qcore.partial_trace(_nonfinite_density(bad), (0,)),
    "embed_operator": lambda bad: qcore.embed_operator(_nonfinite_density(bad), (2, 0), 3),
    "hermitian_eigensystem": lambda bad: qcore.hermitian_eigensystem(_nonfinite_density(bad)),
    "sqrtm_psd": lambda bad: qcore.sqrtm_psd(_nonfinite_density(bad)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("entry", sorted(_NONFINITE_CALLS))
def test_nonfinite_states_raise_value_error_without_warning(entry, bad):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="non-finite"):
            _NONFINITE_CALLS[entry](bad)
    assert [str(w.message) for w in caught] == []


_PROJ0 = np.array([[1, 0], [0, 0]], dtype=complex)

# each entry point that takes qubit labels, called with one label
_LABELED_CALLS = {
    "embed_operator": lambda q: qcore.embed_operator(_PROJ0, (q,), 2),
    "partial_trace": lambda q: qcore.partial_trace(_MIXED, (q,)),
    "measure": lambda q: qcore.measure(_MIXED, _PROJ0, (q,)),
}


@pytest.mark.parametrize("label", [True, np.True_, 0.7, 1.0], ids=repr)
@pytest.mark.parametrize("entry", sorted(_LABELED_CALLS))
def test_qubit_labels_reject_booleans_and_non_integers(entry, label):
    # int(0.7) would act on qubit 0 and int(True) on qubit 1, unasked
    with pytest.raises(ValueError, match="index must be in"):
        _LABELED_CALLS[entry](label)
    _LABELED_CALLS[entry](np.int64(1))


def test_operations_return_valid_densities():
    rng = np.random.default_rng(37)
    for _ in range(10):
        rho = random_density(rng, 8)
        qcore.validate_density(qcore.partial_trace(rho, (0, 2)), dim=4)
        prob, post = qcore.measure(rho, qcore.ket_density(qcore.bell_ket(1)), (1, 2))
        if post is not None:
            qcore.validate_density(post, dim=8)


def test_spin_flip_lambdas():
    lam = qcore.spin_flip_lambdas(qcore.ket_density(qcore.bell_ket(0)))
    assert_allclose(lam, [1.0, 0.0, 0.0, 0.0], atol=1e-7)
    ket01 = np.zeros(4, dtype=complex)
    ket01[1] = 1.0
    lam = qcore.spin_flip_lambdas(qcore.ket_density(ket01))
    assert np.all(lam < 1e-7)


def _kron_spin_flip_lambdas(rho):
    """spin_flip_lambdas by the textbook route, independent of its one
    eigensystem: `validate_density`, then sigma_y x sigma_y formed by
    `np.kron`, two checked `sqrtm_psd` calls and the SVD of
    sqrt(rho_flipped) sqrt(rho)."""
    rho = np.asarray(rho, dtype=complex)
    qcore.validate_density(rho, dim=4)
    yy = np.kron(qcore.pauli(2), qcore.pauli(2))
    flipped = yy @ rho.conj() @ yy
    k = qcore.sqrtm_psd(flipped) @ qcore.sqrtm_psd(rho)
    return np.linalg.svd(k, compute_uv=False)


def _vdot_bell_fraction(rho):
    """bell_fraction as the largest of four per-ket vdots."""
    rho = np.asarray(rho, dtype=complex)
    return float(max(np.vdot(qcore.bell_ket(i), rho @ qcore.bell_ket(i)).real for i in range(4)))


def _assert_oracles_match_per_call_forms(rho, lambda_tol):
    got, want = qcore.spin_flip_lambdas(rho), _kron_spin_flip_lambdas(rho)
    assert np.abs(got - want).max() <= lambda_tol
    assert abs(qcore.bell_fraction(rho) - _vdot_bell_fraction(rho)) <= 1e-15


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_oracles_match_their_per_call_forms_on_random_states(seed, rank):
    _assert_oracles_match_per_call_forms(random_density(np.random.default_rng(seed), 4, rank), 1e-13)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    J=st.floats(0.1, 10.0),
    gamma=st.floats(0.0, 1.0),
    eta=st.floats(0.0, 5.0),
    T=st.floats(-3.0, 2.0).map(lambda x: 10.0**x),
)
def test_oracles_match_their_per_call_forms_on_gibbs_states(J, gamma, eta, T):
    for sj, sg, se in itertools.product((1.0, -1.0), repeat=3):
        p = ChainParams(J=sj * J, gamma=sg * gamma, eta=se * eta, T=T)
        rho = thermal_state(p)
        _assert_oracles_match_per_call_forms(rho, 1e-11)
        assert abs(qcore.wootters_concurrence(rho) - pair_metrics(p).concurrence) <= 1e-13


@settings(max_examples=200, derandomize=True, deadline=None)
@given(J=st.floats(0.1, 10.0), gamma=st.floats(0.0, 1.0), eta=st.floats(0.0, 5.0))
@example(J=1.0, gamma=0.6, eta=0.8)  # the boundary region, a rank-2 mixture
@example(J=1.0, gamma=0.0, eta=2.0)  # product kets in the field block
def test_spin_flip_lambdas_match_the_validated_route_on_ground_states(J, gamma, eta):
    for sj, sg, se in itertools.product((1.0, -1.0), repeat=3):
        p = ChainParams(J=sj * J, gamma=sg * gamma, eta=se * eta, T=0.0)
        rho = ground_state(p)
        assert np.abs(qcore.spin_flip_lambdas(rho) - _kron_spin_flip_lambdas(rho)).max() <= 1e-11
        assert abs(qcore.wootters_concurrence(rho) - pair_metrics(p).concurrence) <= 1e-13


def _assert_concurrences_match_the_closed_form(J, gamma, eta, T):
    for sj, sg, se in itertools.product((1.0, -1.0), repeat=3):
        p = ChainParams(J=sj * J, gamma=sg * gamma, eta=se * eta, T=T)
        rho = ground_state(p) if T == 0.0 else thermal_state(p)
        assert abs(qcore.wootters_concurrence(rho) - pair_metrics(p).concurrence) <= 1e-13, (sj, sg, se)


def test_concurrence_keeps_the_blocks_apart_where_their_eigenvalues_meet():
    # the exchange block's and the field block's near-zero eigenvalues lie
    # within eigh's error of each other here: decomposed as one 4x4 matrix,
    # eigh mixed their eigenvectors, and four of the sign combinations
    # strayed by 2.7e-10 and 1.2e-9
    _assert_concurrences_match_the_closed_form(4.587, 1.03e-8, 0.919, 0.238)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    J=st.floats(0.1, 10.0),
    gamma=st.floats(-12.0, 0.0).map(lambda x: 10.0**x),
    eta=st.floats(0.0, 5.0),
    T=st.just(0.0) | st.floats(-3.0, 2.0).map(lambda x: 10.0**x),
)
@example(J=4.587, gamma=1.03e-8, eta=0.919, T=0.238)
def test_concurrence_matches_the_closed_form_down_to_tiny_anisotropy(J, gamma, eta, T):
    _assert_concurrences_match_the_closed_form(J, gamma, eta, T)


_YY_MP = ((0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))


def _mp_spin_flip_lambdas(rho):
    """sqrt(eig(rho Y rho* Y)) at 50 digits, the stored entries taken as
    exact, descending."""
    import mpmath

    with mpmath.workdps(50):
        r, yy = mpmath.matrix(rho.tolist()), mpmath.matrix(_YY_MP)
        eig = mpmath.eig(r * (yy * r.conjugate() * yy), left=False, right=False)
        return sorted((float(mpmath.sqrt(max(mpmath.re(e), 0))) for e in eig), reverse=True)


def test_spin_flip_lambdas_match_a_50_digit_reference():
    rng = np.random.default_rng(61)
    for rank in (1, 2, 3, 4):
        for _ in range(12):
            rho = random_density(rng, 4, rank)
            assert np.abs(qcore.spin_flip_lambdas(rho) - _mp_spin_flip_lambdas(rho)).max() <= 1e-14


@pytest.mark.parametrize(
    "J, gamma, eta, T",
    [
        (9.413, 4.49e-8, 2.326, 0.0),  # a pure ground state, concurrence ~2e-8
        (4.487, 4.49e-8, 1.317, 0.00168),  # a Gibbs state pure to round-off
    ],
)
def test_spin_flip_lambdas_match_a_50_digit_reference_on_near_pure_pair_states(J, gamma, eta, T):
    # eigh gives the state's zero eigenvalues as ~eps, whose square roots
    # would put ~1e-8 into the roots; the Rayleigh quotients keep them at
    # the size of the state's own round-off
    for sj, sg, se in itertools.product((1.0, -1.0), repeat=3):
        p = ChainParams(J=sj * J, gamma=sg * gamma, eta=se * eta, T=T)
        rho = ground_state(p) if T == 0.0 else thermal_state(p)
        assert np.abs(qcore.spin_flip_lambdas(rho) - _mp_spin_flip_lambdas(rho)).max() <= 1e-20
        assert abs(qcore.wootters_concurrence(rho) - pair_metrics(p).concurrence) <= 1e-20


def test_concurrence_decomposes_each_state_once(monkeypatch):
    # one eigh of the state, for its check and the spin-flip product; the
    # Bell fraction keeps validate_density's eigvalsh
    calls = []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(calls, name, getattr(np.linalg, name)))
    for rho in (thermal_state(ChainParams(J=-1.3, gamma=0.4, eta=0.7, T=0.8)),
                random_density(np.random.default_rng(43), 4, 2)):
        calls.clear()
        qcore.wootters_concurrence(rho)
        assert calls == ["eigh"]
        calls.clear()
        qcore.bell_fraction(rho)
        assert calls == ["eigvalsh"]


def _state_with_smallest_eigenvalue(wmin, rotated):
    w = np.array([0.5, 0.3, 0.2 - wmin, wmin])
    if not rotated:
        return np.diag(w).astype(complex)
    u = random_unitary(np.random.default_rng(59), 4)
    rho = (u * w) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def _with_entry(rho, index, value):
    rho = rho.copy()
    rho[index] = value
    return rho


_BOUNDARY_STATES = {
    **{f"{'rotated' if rotated else 'diagonal'}, eigenvalue {wmin}": _state_with_smallest_eigenvalue(wmin, rotated)
       for wmin in (-0.5e-9, -2e-9) for rotated in (False, True)},
    "not Hermitian": _with_entry(_state_with_smallest_eigenvalue(0.0, True), (0, 1), 1e-9),
    "wrong trace": 1.01 * _state_with_smallest_eigenvalue(0.0, True),
    "nan entry": _with_entry(_state_with_smallest_eigenvalue(0.0, True), (2, 1), math.nan),
    "inf entry": _with_entry(_state_with_smallest_eigenvalue(0.0, True), (3, 3), math.inf),
}


def _rejection(fn, rho):
    """(message with the eigenvalue cut out, that eigenvalue or None), or
    None where fn accepts rho."""
    try:
        fn(rho)
    except ValueError as exc:
        m = re.fullmatch(r"(density operator has eigenvalue )(\S+)( < -1e-09)", str(exc))
        return (m[1] + m[3], float(m[2])) if m else (str(exc), None)
    return None


@pytest.mark.parametrize("case", sorted(_BOUNDARY_STATES))
def test_concurrence_rejects_what_validate_density_rejects(case):
    # the concurrence reads its eigenvalue check from eigh of the Hermitian
    # part, validate_density from eigvalsh: the verdicts and messages agree,
    # the eigenvalues in them up to rounding
    rho = _BOUNDARY_STATES[case]
    want = _rejection(lambda r: qcore.validate_density(r, dim=4), rho)
    got = _rejection(qcore.wootters_concurrence, rho)
    assert (got is None) == (want is None)
    assert (want is None) == (case.endswith("eigenvalue -5e-10"))
    if want is not None:
        assert got[0] == want[0]
        assert (got[1] is None) == (want[1] is None)
        if want[1] is not None:
            assert abs(got[1] - want[1]) <= 1e-15


def test_oracles_build_no_constants_per_call(monkeypatch):
    # the spin flip's signs and the Bell kets are built once, at import
    calls = []
    monkeypatch.setattr(np, "kron", counted(calls, "kron", np.kron))
    monkeypatch.setattr(qcore, "bell_ket", counted(calls, "bell_ket", qcore.bell_ket))
    rho = random_density(np.random.default_rng(41), 4)
    qcore.wootters_concurrence(rho)
    qcore.bell_fraction(rho)
    assert calls == []
    # the counters see the calls that do happen
    qcore.tensor(qcore.bell_ket(0), qcore.bell_ket(1))
    assert calls == ["bell_ket", "bell_ket", "kron"]
