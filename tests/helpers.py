"""Shared test utilities: random states, a call counter, independent
embeddings, the three-qubit tangle used to pin swap outputs, and the
margins through the public closed forms with the point-by-point
critical-temperature solver on them that the array scan is checked
against."""

import math
import sys

import numpy as np

from xyswap import critical
from xyswap.teleport import fidelity_closed_form
from xyswap.xychain import ChainParams, pair_metrics


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


def reference_critical(kind, gamma, eta, J=1.0, t_hi=None, step=None):
    """The critical-temperature solver with its descending scan evaluated
    one scalar closed form per temperature, in units of J: the margins
    depend on T / J alone, so they are taken at J = 1.  The scan steps
    0.05 down from a ceiling of at most 5, and a hundredth of the ceiling
    from a higher one, unless `step` is given.  Returns (result, messages),
    with the warnings it would log as formatted strings, their
    temperatures absolute."""
    critical._check_domain(gamma, eta, J)
    if t_hi is None:
        t_hi = critical._default_t_hi(kind, gamma, eta)
    else:
        t_hi = min(max(t_hi / J, critical._T_FLOOR_OVER_J), sys.float_info.max)
    messages = []

    def f(t):
        return public_margin(kind, ChainParams(J=1.0, gamma=gamma, eta=eta, T=t))

    def result(t_over_j, bracket, converged):
        return critical.CriticalResult(kind, gamma, eta, t_over_j, bracket, converged), messages

    floor = critical._T_FLOOR_OVER_J
    if step is None:
        step = critical._SCAN_STEP_OVER_J if t_hi <= 5.0 else t_hi / 100
    f_hi = f(t_hi)
    if f_hi > 0.0:
        messages.append(
            "kind %d margin still positive at scan ceiling T = %.6g (gamma=%g, eta=%g)"
            % (kind, t_hi * J, gamma, eta)
        )
        return result(math.nan, None, False)

    t_prev, f_prev = t_hi, f_hi
    first = None
    crossings = 0
    t = t_hi - step
    while True:
        t = max(t, floor)
        f_cur = f(t)
        upward = f_prev <= 0.0 < f_cur
        if upward or f_prev >= 0.0 > f_cur:
            crossings += 1
            if first is None and upward:
                first = (t, t_prev)
        t_prev, f_prev = t, f_cur
        if t == floor:
            break
        t = t - step

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
