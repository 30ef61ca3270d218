"""Shared test utilities: random states, a call counter, independent
embeddings, the three-qubit tangle used to pin swap outputs, the teleport
branch data from its definition, and the margins through the public
closed forms with the point-by-point critical-temperature solver on them
that the array scan is checked against."""

import math

import numpy as np

from xyswap import critical, qcore
from xyswap.teleport import fidelity_closed_form, fidelity_coefficients
from xyswap.xychain import (
    ChainParams,
    bell_overlap,
    field_terms,
    pair_metrics,
    scaled_exponentials,
    spin_flip_roots,
)


def random_ket(rng, dim):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def random_density(rng, dim, rank=None):
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def counted(calls, name, fn):
    """fn, appending name to calls on every call."""
    def wrapped(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapped


def brute_embed(op, subset, n):
    """Embed `op` on qubit `subset` of an n-qubit register by explicit
    basis-index arithmetic (independent of any kron/permutation route)."""
    dim = 1 << n
    rest = [q for q in range(n) if q not in subset]
    out = np.zeros((dim, dim), dtype=complex)

    def bits_at(index, positions):
        val = 0
        for pos in positions:
            val = (val << 1) | ((index >> (n - 1 - pos)) & 1)
        return val

    for a in range(dim):
        for b in range(dim):
            if bits_at(a, rest) != bits_at(b, rest):
                continue
            out[a, b] = op[bits_at(a, subset), bits_at(b, subset)]
    return out


def qubit_swap_matrix(n, p, q):
    """Permutation matrix exchanging qubits p and q of an n-qubit register."""
    dim = 1 << n
    mat = np.zeros((dim, dim))
    for a in range(dim):
        bp = (a >> (n - 1 - p)) & 1
        bq = (a >> (n - 1 - q)) & 1
        b = a & ~((1 << (n - 1 - p)) | (1 << (n - 1 - q)))
        b |= bq << (n - 1 - p)
        b |= bp << (n - 1 - q)
        mat[b, a] = 1.0
    return mat


def three_tangle(psi):
    """Residual tangle of a pure three-qubit ket via the hyperdeterminant."""
    a = np.asarray(psi).reshape(2, 2, 2)
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * (a[0, 1, 1] * a[1, 0, 0] + a[1, 0, 1] * a[0, 1, 0] + a[1, 1, 0] * a[0, 0, 1])
        + a[0, 1, 1] * a[1, 0, 0] * (a[1, 0, 1] * a[0, 1, 0] + a[1, 1, 0] * a[0, 0, 1])
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = (
        a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
        + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    )
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def reference_branch_data(resources, mu, measure_qubit):
    """(q, vals) of `teleport._branch_data` from its definition, three
    einsums over the Bloch design: the Bell bra of input and A2 times the
    conjugated assisting ket (cos mu, sin mu) or (-sin mu, cos mu) on both
    sides of each channel, its receiver trace q[n, m, j, k], and
    vals[c, n, m, j, k] = <phi_n| s_c rho~ s_c |phi_n>.  Measuring C
    contracts the assisting bra with the channel's C axes instead of B's."""
    kets, _ = qcore.bloch_grid()
    bells = np.stack([qcore.bell_ket(j).reshape(2, 2) for j in range(4)])
    paulis = np.stack([qcore.pauli(c) for c in range(4)])
    c, s = math.cos(mu), math.sin(mu)
    assist = np.array([[c, s], [-s, c]], dtype=complex)
    # axes (m, A2, B, C) of the rows, then of the columns
    res = np.asarray(resources, dtype=complex).reshape(-1, 2, 2, 2, 2, 2, 2)
    if measure_qubit == "C":
        res = res.transpose(0, 1, 3, 2, 4, 6, 5)
    w = np.einsum("jxa,nx->nja", bells.conj(), kets)
    u = np.einsum("nja,kb->njkab", w, assist.conj())
    rho = np.einsum("njkab,mabcdef,njkde->nmjkcf", u, res, u.conj())
    q = np.einsum("nmjkcc->nmjk", rho).real
    sigma_phi = np.einsum("cxy,ny->cnx", paulis, kets)
    vals = np.einsum("nmjkxy,cnx,cny->cnmjk", rho, sigma_phi.conj(), sigma_phi).real
    return q, vals


def public_margin(kind, params):
    """The solver's signed margin of `kind` through the public closed forms
    `pair_metrics` and `fidelity_closed_form` (mu = pi/4), apart from the
    solver's own `critical._margin`."""
    if kind == 3:
        r = fidelity_closed_form(params)
        return r.c1 + 0.5 * r.c2 - 2.0 / 3.0
    m = pair_metrics(params)
    lams = m.lambdas
    return 2.0 * lams[0] - (((lams[0] + lams[1]) + lams[2]) + lams[3]) if kind == 1 else m.fef - 0.5


def public_margins(kind, gamma, eta, t):
    """`public_margin` at J = 1 on an array of temperatures t, from the
    public kernels of the closed forms on `scaled_exponentials` of 1 / t
    and `field_terms`; NaN where hypot(eta, gamma) / t overflows, where
    the scalar closed forms take their T -> 0 limit."""
    b, r = field_terms(gamma, eta)
    e = scaled_exponentials(1.0 / t, b)
    if kind == 1:
        return spin_flip_roots(e, r)[1]
    if kind == 2:
        return bell_overlap(e, r) - 0.5
    c1, c2 = fidelity_coefficients(e, r)
    return c1 + 0.5 * c2 - 2.0 / 3.0


def reference_critical(kind, gamma, eta, J=1.0, ceiling=None):
    """The critical-temperature solver with its descending scan evaluated
    one scalar closed form per temperature, in units of J: the margins
    depend on T / J alone, so they are taken at J = 1.  The scan starts
    at `ceiling`, in units of J as `critical._solve` takes it, or at the
    kind's default ceiling, and steps a hundredth of it by repeated
    subtraction down to the 1e-6 J floor.  Returns (result, messages),
    with the warnings it would log as formatted strings, their
    temperatures absolute."""
    critical._check_domain(gamma, eta, J)
    t_hi = critical._default_t_hi(kind, gamma, eta) if ceiling is None else ceiling
    messages = []

    def f(t):
        return public_margin(kind, ChainParams(J=1.0, gamma=gamma, eta=eta, T=t))

    def result(t_over_j, bracket, converged):
        return critical.CriticalResult(kind, gamma, eta, t_over_j, bracket, converged), messages

    floor = critical._T_FLOOR_OVER_J
    step = t_hi / 100
    f_hi = f(t_hi)
    if f_hi > 0.0:
        messages.append(
            "kind %d margin still positive at scan ceiling T = %.6g (gamma=%g, eta=%g)"
            % (kind, t_hi * J, gamma, eta)
        )
        return result(math.nan, None, False)

    # t_hi, then t_hi - step - step - ... while above the floor, then the floor
    below = np.subtract.accumulate(np.r_[t_hi, np.full(int(t_hi / step) + 1, step)])[1:]
    grid = np.r_[t_hi, below[below > floor], floor]
    margins = np.array([f(t) for t in grid[1:].tolist()])
    prev, cur = np.r_[f_hi, margins[:-1]], margins
    upward = (prev <= 0.0) & (0.0 < cur)
    crossings = np.count_nonzero(upward | ((prev >= 0.0) & (0.0 > cur)))
    first = None
    if upward.any():
        i = int(np.argmax(upward))
        first = (float(grid[i + 1]), float(grid[i]))

    if first is None:
        if f(0.0) <= 0.0:
            return result(0.0, (0.0, 0.0), True)
        messages.append(
            "kind %d margin positive at T = 0 but no crossing found above %.1e (gamma=%g, eta=%g)"
            % (kind, floor * J, gamma, eta)
        )
        return result(math.nan, None, False)

    if crossings > 1:
        messages.append(
            "kind %d margin crosses zero %d times (gamma=%g, eta=%g); keeping the largest root"
            % (kind, crossings, gamma, eta)
        )

    lo, hi = scalar_bisection(f, *first)
    return result(0.5 * (lo + hi), (lo, hi), True)


def scalar_bisection(f, lo, hi):
    """The bracket (lo, hi) narrowed by mid = 0.5 * (lo + hi) and the sign
    of f there, one midpoint at a time, until it is at most the solver's
    width wide or two neighbouring doubles."""
    width = critical._BRACKET_WIDTH_OVER_J
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent doubles, more than `width` apart above 2**26
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi
