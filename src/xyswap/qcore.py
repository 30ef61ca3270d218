"""Dense complex linear algebra and quantum-state primitives for small
qubit registers.

State vectors and operators are plain numpy arrays in the computational
basis, leftmost qubit label most significant.  Besides constructors and
tensor / partial-trace / measurement plumbing, the module carries
model-independent implementations of the two-qubit entanglement metrics
(spin-flip concurrence, maximal Bell-state overlap) and a fixed spherical
design.  These generic routines double as oracles for the closed
forms implemented in the model modules.
"""

import numpy as np

__all__ = [
    "ZERO_PROB_THRESHOLD",
    "EIGENVALUE_CLAMP",
    "pauli",
    "bell_ket",
    "ghz_ket",
    "ket_density",
    "tensor",
    "num_qubits",
    "validate_ket",
    "validate_density",
    "validate_projector",
    "embed_operator",
    "partial_trace",
    "measure",
    "hermitian_eigensystem",
    "sqrtm_psd",
    "spin_flip_lambdas",
    "wootters_concurrence",
    "bell_fraction",
    "bloch_grid",
]

# Measurement branches at or below this probability are reported as
# impossible (post-state None) instead of being renormalized.
ZERO_PROB_THRESHOLD = 1e-14

# Eigenvalues in [-EIGENVALUE_CLAMP, 0) are treated as round-off drift of a
# positive-semidefinite matrix and clamped to zero.
EIGENVALUE_CLAMP = 1e-9


_SIGMA = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

# sigma_y x sigma_y, the spin flip of two qubits, is antidiag(-1, 1, 1, -1):
# row i of Y M is this sign times row 3 - i of M
_YY_SIGNS = np.array([[-1.0], [1.0], [1.0], [-1.0]])
_EYE4 = np.eye(4, dtype=bool)


def _check_index(i, count, what):
    """Raise ValueError unless i is an integer in 0..count-1; bool and
    numpy.bool_, which numpy would read as a mask, are refused."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < count:
        raise ValueError(f"{what} index must be in 0..{count - 1}, got {i!r}")


def _pair_ket(dim, b, sign):
    """(|b> + sign |dim-1-b>)/sqrt2 in dimension dim."""
    ket = np.zeros(dim, dtype=complex)
    ket[b] = 1.0 / np.sqrt(2.0)
    ket[dim - 1 - b] = sign / np.sqrt(2.0)
    return ket


# Bell kets as rows, (basis index of the first branch, sign of the
# flipped partner) per row
_BELL_KETS = np.stack([_pair_ket(4, b, sign) for b, sign in ((0, 1.0), (1, 1.0), (1, -1.0), (0, -1.0))])
_BELL_BRAS = _BELL_KETS.conj()


def pauli(i):
    """Pauli matrix sigma^i, i in 0..3 (identity, x, y, z)."""
    _check_index(i, 4, "pauli")
    return _SIGMA[i].copy()


def bell_ket(i):
    """Two-qubit Bell basis ket number i.

    0: (|00>+|11>)/sqrt2   1: (|01>+|10>)/sqrt2
    2: (|01>-|10>)/sqrt2   3: (|00>-|11>)/sqrt2
    """
    _check_index(i, 4, "bell")
    return _BELL_KETS[i].copy()


def ghz_ket(i):
    """Three-qubit GHZ basis ket number i.

    Indices 0..3 are (|b> + |b_flipped>)/sqrt2 for b = 000, 001, 010, 011;
    indices 4..7 mirror 3..0 with a minus sign on the flipped branch:
    4: (|011>-|100>)/sqrt2 ... 7: (|000>-|111>)/sqrt2.
    """
    _check_index(i, 8, "ghz")
    return _pair_ket(8, i, 1.0) if i <= 3 else _pair_ket(8, 7 - i, -1.0)


def ket_density(ket):
    """Rank-one density operator |ket><ket|."""
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def tensor(*factors):
    """Kronecker product of kets or operators, left factor most significant."""
    if not factors:
        raise ValueError("tensor requires at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def num_qubits(dim):
    """Number of qubits for a Hilbert-space dimension (must be 2**n, n >= 1)."""
    n = int(dim).bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return n


def _checked(array, what, ndim, dim=None):
    """The checks every state, projector and operator argument shares: its
    shape (a vector for ndim 1, a square matrix for 2), finite entries,
    before any arithmetic on them could warn or reach LAPACK, a power-of-two
    size and, if given, the size `dim`.  Returns the array and its number of
    qubits."""
    array = np.asarray(array)
    if array.ndim != ndim or array.shape[0] != array.shape[-1]:
        raise ValueError(f"{what} must be {'one-dimensional' if ndim == 1 else 'a square matrix'}")
    if not np.isfinite(array).all():
        raise ValueError(f"{what} has a non-finite entry")
    n = num_qubits(array.shape[0])
    if dim is not None and array.shape[0] != dim:
        raise ValueError(f"{what} dimension {array.shape[0]} != expected {dim}")
    return array, n


def _check_qubits(qubits, n, what):
    """The qubit labels as a tuple of ints: at least one, each an integer in
    0..n-1 as `_check_index` has it, none twice."""
    qubits = tuple(qubits)
    if not qubits:
        raise ValueError(f"{what} must list at least one qubit")
    for q in qubits:
        _check_index(q, n, f"{what} qubit")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"{what} has duplicate qubits: {qubits}")
    return tuple(int(q) for q in qubits)


def validate_ket(ket, dim=None):
    """Raise ValueError unless ket is a normalized state vector."""
    ket, _ = _checked(ket, "ket", 1, dim)
    norm = float(np.vdot(ket, ket).real)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"ket is not normalized: |ket|^2 = {norm!r}")


def _check_spectrum(w, what):
    """Raise ValueError if the eigenvalues w of `what` go below
    -EIGENVALUE_CLAMP."""
    wmin = float(w.min())
    if wmin < -EIGENVALUE_CLAMP:
        raise ValueError(f"{what} has eigenvalue {wmin} < -{EIGENVALUE_CLAMP}")


def _density_checked(rho, dim):
    """`validate_density` up to its eigenvalue check: shape, finite
    entries, Hermitian and unit trace.  Returns the array."""
    rho, _ = _checked(rho, "density operator", 2, dim)
    # entries near the largest double overflow to inf or nan here, which the
    # negated comparisons reject
    with np.errstate(over="ignore", invalid="ignore"):
        asymmetry = abs(rho - rho.conj().T).max()
        tr = complex(rho.trace())
    if not asymmetry <= 1e-10:
        raise ValueError("density operator is not Hermitian")
    if not abs(tr - 1.0) <= 1e-10:
        raise ValueError(f"density operator trace {tr!r} != 1")
    return rho


def validate_density(rho, dim=None):
    """Raise ValueError unless rho is a valid density operator.

    Checks: square power-of-two shape, finite entries, Hermitian within
    1e-10 entrywise, unit trace within 1e-10, eigenvalues >= -1e-9.
    """
    _check_spectrum(np.linalg.eigvalsh(_density_checked(rho, dim)), "density operator")


def validate_projector(proj, dim=None):
    """Raise ValueError unless proj is an orthogonal projector."""
    proj, _ = _checked(proj, "projector", 2, dim)
    # as in `_density_checked`, an overflow fails a check instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        asymmetry = np.max(np.abs(proj - proj.conj().T))
        excess = np.max(np.abs(proj @ proj - proj))
    if not asymmetry <= 1e-10:
        raise ValueError("projector is not Hermitian")
    if not excess <= 1e-10:
        raise ValueError("projector is not idempotent")
    tr = float(np.trace(proj).real)
    if abs(tr - round(tr)) > 1e-9:
        raise ValueError(f"projector trace {tr} is not an integer")


def embed_operator(op, subset, n):
    """Extend an operator acting on the qubits listed in `subset` (in that
    order) to the full n-qubit register, identity elsewhere."""
    subset = _check_qubits(subset, n, "subset")
    op, _ = _checked(np.asarray(op, dtype=complex), "operator", 2, 2 ** len(subset))
    rest = [q for q in range(n) if q not in subset]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    order = list(subset) + rest  # qubit owned by each tensor axis of `full`
    perm = [order.index(q) for q in range(n)]
    t = full.reshape((2,) * (2 * n))
    t = t.transpose(perm + [n + p for p in perm])
    return t.reshape(2**n, 2**n)


def partial_trace(rho, keep):
    """Reduced state on the qubits in `keep`, returned in the given order.
    A reduced state whose sums overflow (finite entries near the largest
    double) is a ValueError."""
    rho, n = _checked(np.asarray(rho, dtype=complex), "density operator", 2)
    keep = _check_qubits(keep, n, "keep")
    rest = [q for q in range(n) if q not in keep]
    perm = list(keep) + rest
    axes = perm + [n + p for p in perm]
    t = rho.reshape((2,) * (2 * n)).transpose(axes)
    dk, dr = 2 ** len(keep), 2 ** len(rest)
    reduced = np.einsum("arbr->ab", t.reshape(dk, dr, dk, dr))
    if not np.isfinite(reduced).all():  # einsum overflows without a warning
        raise ValueError("reduced state has a non-finite entry")
    return reduced


def measure(rho, proj, subset):
    """Projective measurement branch.

    Applies the projector `proj` (acting on the qubits in `subset`) to the
    state `rho` and returns (probability, post_state) with the post-state
    renormalized and still on the full register.  Branches of probability
    <= ZERO_PROB_THRESHOLD return (probability, None).  A `rho` that
    `validate_density` rejects or a `proj` that `validate_projector` rejects
    is a ValueError.
    """
    rho = np.asarray(rho, dtype=complex)
    validate_density(rho)
    validate_projector(proj)
    return _measure(rho, embed_operator(proj, subset, num_qubits(rho.shape[0])))


def _measure(rho, full):
    """`measure`'s branch for a projector `full` already on the whole
    register, unchecked: for states and projectors built from checked
    parts."""
    prob = float(np.trace(full @ rho).real)
    if prob <= ZERO_PROB_THRESHOLD:
        return prob, None
    post = full @ rho @ full / prob
    post = 0.5 * (post + post.conj().T)
    return prob, post


def _eigensystem(a):
    """Eigenvalues (ascending) and column eigenvectors of the Hermitian part
    of a, unchecked.  Halving before the sum keeps entries up to the
    largest double finite."""
    h = 0.5 * a
    return np.linalg.eigh(h + h.conj().T)


def hermitian_eigensystem(matrix):
    """Eigenvalues (ascending) and column eigenvectors of the Hermitian part
    of a square matrix of power-of-two size, by LAPACK (numpy.linalg.eigh).
    An eigenvalue beyond the largest double is a ValueError."""
    a, _ = _checked(np.asarray(matrix, dtype=complex), "matrix", 2)
    w, v = _eigensystem(a)
    if not np.isfinite(w).all():
        raise ValueError("matrix has an eigenvalue beyond the largest double")
    return w, v


def sqrtm_psd(matrix):
    """Hermitian square root of a positive-semidefinite matrix, from the
    eigensystem of its Hermitian part; eigenvalues in [-EIGENVALUE_CLAMP, 0)
    count as zero, lower ones are a ValueError."""
    w, v = hermitian_eigensystem(matrix)
    _check_spectrum(w, "matrix")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def spin_flip_lambdas(rho):
    """Square roots of the spin-flip spectrum of a two-qubit state,
    descending.

    These are the eigenvalue square roots of rho Y rho* Y, Y = sigma_y x
    sigma_y, computed as the singular values of sqrt(Y rho* Y) sqrt(rho).
    Working on that product instead of its square keeps roots near zero at
    full absolute precision; squaring first would bury anything below
    sqrt(machine epsilon) in roundoff.

    One `eigh` per state: rho gets `validate_density`'s checks, with the
    eigenvalue check read from the eigensystem V W V^H of its Hermitian
    part, and that eigensystem gives the product too.  With R = V sqrt(W)
    (eigenvalues clipped at zero), sqrt(rho) = R V^H; Y is real, symmetric
    and unitary, so sqrt(Y rho* Y) = Y sqrt(rho)* Y = Y V* R^T Y, and the
    product is Y V* (R^T Y R) V^H.  Unitary factors leave singular values
    alone, which leaves R^T (Y R); Y = antidiag(-1, 1, 1, -1), so Y R is R
    with its rows reversed and signed.

    W in R is taken as the Rayleigh quotients v_i^H rho v_i, equal to eigh's
    eigenvalues in exact arithmetic.  eigh returns a zero eigenvalue as
    anything up to ~eps, and its square root would put ~1e-8 into the
    roots of a (near-)pure state; the quotients keep it at the size of the
    rounding in rho's own entries.

    The `eigh` runs on rho with its basis ordered by the connected
    components of its exact nonzero pattern, so that the matrix is
    block-diagonal and eigh's tridiagonal reduction splits at each block's
    edge; otherwise eigh can mix eigenvectors of two blocks whose near-zero
    eigenvalues lie within its error, and the mixed vectors' quotients
    carry the rounding of the other block's entries.  A state of one
    component keeps its basis order.
    """
    rho = _density_checked(np.asarray(rho, dtype=complex), 4)
    linked = rho != 0
    linked = linked | linked.T | _EYE4
    linked = linked @ linked  # paths of up to 2 steps, then 4
    order = (linked @ linked).argmax(1).argsort(kind="stable")  # by lowest index reached
    w, v = _eigensystem(rho.take(order, 0).take(order, 1))
    v[order] = v.copy()
    _check_spectrum(w, "density operator")
    q = (v.conj() * (rho @ v)).sum(0).real
    r = v * np.sqrt(np.maximum(q, 0.0))
    return np.linalg.svd(r.T @ (_YY_SIGNS * r[::-1]), compute_uv=False)


def wootters_concurrence(rho):
    """Concurrence of a two-qubit density operator (0 for separable, 1 for
    maximally entangled)."""
    lam = spin_flip_lambdas(rho)
    return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0))


def bell_fraction(rho):
    """Largest overlap of a two-qubit state with the four Bell kets, the
    overlaps <b_i|rho|b_i> taken in one contraction."""
    rho = np.asarray(rho, dtype=complex)
    validate_density(rho, dim=4)
    return float(np.einsum("ia,ab,ib->i", _BELL_BRAS, rho, _BELL_KETS).real.max())


# The six axis states |0>, |1>, |+-> and |+-i>: the octahedron is a
# spherical 3-design, so equal weights integrate every polynomial of
# degree <= 3 in the Bloch vector exactly (Delsarte, Goethals & Seidel
# 1977; Hardin & Sloane 1996).
_S = np.sqrt(0.5)
_BLOCH_KETS = np.array([[1, 0], [0, 1], [_S, _S], [_S, -_S], [_S, 1j * _S], [_S, -1j * _S]])
_BLOCH_WEIGHTS = np.full(6, 1.0 / 6.0)


def bloch_grid():
    """Design kets (6, 2) and weights (6,) for uniform averages over pure
    single-qubit states; exact for integrands of degree <= 3 in the Bloch
    vector, and the weights sum to one."""
    return _BLOCH_KETS.copy(), _BLOCH_WEIGHTS.copy()

