"""Test-only routes and oracles of the chain, kept beside the tests that use them.

The library holds what the chain, its checks, the CLI and the benchmark
call; these helpers serve the tests alone:

- `weight_feq_residual`: the q-difference equation W(z) w(qz) + V(z) w(z) = 0
  of the weight, through the q-Pochhammer products;
- `moments_quad`: the moments by the trapezoid rule on `qseries.weight_grid`,
  an oracle for `qseries.moments`;
- `caratheodory_series`: F from the finite moment series, an oracle for
  `qseries.caratheodory`;
- `hermitian_residual`: max |c_-k - conj(c_k)| of a moment table;
- `epsilon_asymptotics`: the four boundary behaviours of eps_n and eps*_n;
- `elementary`: the reflection w_i, i = 0..5, by its index; w5, which
  the Weyl word does not use, is defined here;
- `bpoint_from_surface`: the dictionary from surface parameters and
  coordinates to the b-chart, the inverse of `weyl.surface_from_bpoint`;
- `lattice_q`: the point configuration's q = b3 b4 b5 b6 / (b1 b2 b7 b8),
  the reciprocal of the q that `weyl.surface_from_bpoint` forms.
"""

import mpmath as mp

from qpvi import weyl
from qpvi.errors import DomainError, PrecisionError
from qpvi.opuc import epsilon_eval, epsilon_star_eval
from qpvi.painleve import b_params
from qpvi.polys import negligible, peval, zero_bits
from qpvi.qseries import DEFAULT_NODES, MomentTable, vw_polys, weight_eval, weight_grid


def weight_feq_residual(p, z):
    """Relative residual of W(z) w(qz) + V(z) w(z) = 0."""
    V, W = vw_polys(p)
    lhs = peval(W, z) * weight_eval(p, p.q * z)
    rhs = -peval(V, z) * weight_eval(p, z)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def hermitian_residual(table):
    """max_k |c_-k - conj(c_k)| over k = 0..K."""
    return max(abs(table.cmom(-k) - mp.conj(table.cmom(k)))
               for k in range(table.K + 1))


def moments_quad(p, K, N=DEFAULT_NODES):
    """Moment table via the N-point trapezoid rule (oracle for `moments`).

    The rule aliases c_k onto c_{k +- N}, so the truncation error is of
    order r^(N-K) with r = max(|a|, |b|); the guard below rejects requests
    the grid cannot support at working precision.  The table carries no
    Szego coefficients, so `caratheodory` refuses it.
    """
    if K < 0 or N <= 2 * K:
        raise DomainError(f"need N > 2K, got N = {N}, K = {K}")
    r = max(abs(p.a), abs(p.b))
    if r > 0 and r ** (N - K) > mp.ldexp(1, 8 - mp.mp.prec):
        raise PrecisionError(
            f"N = {N} nodes cannot reach working precision for K = {K}")
    nodes, wvals, c0raw = weight_grid(p, N)
    if negligible(c0raw, 1):
        raise PrecisionError("total mass of the weight vanished numerically")
    cs = []
    for k in range(-K, K + 1):
        s = mp.fsum(wvals[m] * nodes[m] ** (-k) for m in range(N)) / N
        cs.append(s / c0raw)
    return MomentTable(params=p, c=tuple(cs))


def caratheodory_series(table, z):
    """F(z) = 1 + 2 sum_{k=1..K} c_k z^k for |z| < 1, with a tail guard."""
    z = mp.mpc(z)
    if not abs(z) < 1:  # nan fails too
        raise DomainError("moment series for F needs a finite z with |z| < 1")
    tail = 2 * abs(z) ** (table.K + 1) / (1 - abs(z))
    if tail > mp.ldexp(1, -zero_bits()):
        raise PrecisionError(
            f"series tail {mp.nstr(tail, 5)} too large at |z| = {mp.nstr(abs(z), 5)}")
    return table.cmom(0) + 2 * z * peval(table.c[table.K + 1:], z)


def epsilon_asymptotics(vt, n):
    """Relative deviations from the four boundary behaviours of eps, eps*.

    eps_n ~ 2 sigma_n z^n and eps*_n ~ 2 conj(alpha_{n+1}) sigma_n z^{n+1}
    as z -> 0; z eps_n -> 2 sigma_n alpha_{n+1} and eps*_n -> 2 sigma_n as
    z -> inf.  Deviations are O(|z|) resp. O(1/|z|), so the sample radii
    1e-4 and 1e4 bound the expected size.
    """
    s, a1 = vt.sigma[n], vt.alpha[n + 1]
    z0, zi = mp.mpc("1e-4"), mp.mpc("1e4")
    out = {
        "eps_origin": abs(epsilon_eval(vt, n, z0) / (2 * s * z0 ** n) - 1),
        "eps_infinity": abs(zi * epsilon_eval(vt, n, zi) / (2 * s * a1) - 1),
        "eps_star_origin": abs(
            epsilon_star_eval(vt, n, z0)
            / (2 * mp.conj(a1) * s * z0 ** (n + 1)) - 1),
        "eps_star_infinity": abs(epsilon_star_eval(vt, n, zi) / (2 * s) - 1),
    }
    return out


def _w5(pt):
    b = pt.b
    return weyl.BPoint(b=b[:4] + (b[5], b[4]) + b[6:], f=pt.f, g=pt.g)


_GENERATORS = (weyl._w0, weyl._w1, weyl._w2, weyl._w3, weyl._w4, _w5)


def elementary(i, pt):
    """Apply the reflection w_i, i = 0..5."""
    if not 0 <= i <= 5:
        raise DomainError(f"reflection index must be 0..5, got {i}")
    return _GENERATORS[i](pt)


def bpoint_from_surface(sp, coords):
    """Dictionary from surface parameters/coordinates to the b-chart (`b_params`)."""
    return weyl.BPoint(b=b_params(sp), f=coords.xi, g=coords.y)


def lattice_q(pt):
    """The lattice q = b3 b4 b5 b6 / (b1 b2 b7 b8) of a `weyl.BPoint`."""
    b = pt.b
    return b[2] * b[3] * b[4] * b[5] / (b[0] * b[1] * b[6] * b[7])
