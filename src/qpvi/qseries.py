"""q-Gamma weights on the unit circle and their moment/Caratheodory data.

The weight is built from q-Pochhammer infinite products,

    w(z) = (az; q)_inf (conj(a)/z; q)_inf / ((bz; q)_inf (conj(b)/z; q)_inf),

restricted here to 0 < q < 1 and |a|, |b| < 1 so that w is smooth and
strictly positive on |z| = 1.  It satisfies the first-order q-difference
equation

    W(z) w(qz) = -V(z) w(z),
    V(z) = (qz - conj(a))(bz - 1),   W(z) = (qz - conj(b))(1 - az),

and on the circle w = 1/|f_+|^2 with f_+ = (b e^{i t}; q)_inf / (a e^{i t}; q)_inf.

Equivalently w = |G|^2 on the circle with the Szego function

    G(z) = 1/f_+ = (az; q)_inf / (bz; q)_inf = sum_{n>=0} g_n z^n,

whose Taylor coefficients follow from the q-binomial theorem
(Gasper-Rahman, Basic Hypergeometric Series, 1.3):

    g_0 = 1,   g_{n+1} = g_n (b - a q^n) / (1 - q^{n+1}).

This series is the route the chain uses.  The trigonometric moments
c_k = int z^{-k} dmu(z), normalized so c_0 = 1, are

    c_k = sum_m g_{m+k} conj(g_m) / sum_m |g_m|^2,

and the Caratheodory function F(z) = int (zeta + z)/(zeta - z) dmu(zeta) is

    F(z) = 2 sum_m conj(g_m) S_m(z) / sum_m |g_m|^2 - 1,   S_m = g_m + z S_{m+1},

for |z| < 1, and F(z) = -conj F(1/conj z) outside the disk.  The series
needs no grid; its length grows like prec / log2(1/|b|).

Independent oracles, kept for the tests and checks: the weight itself
through the q-Pochhammer products (`weight_eval`), the trapezoid rule on
a uniform grid of the circle (`moments_quad`, `caratheodory_quad`), and
the finite moment series c_0 + 2 sum_{k=1..K} c_k z^k
(`caratheodory_series`).  F inherits a q-difference equation with an
extra polynomial part,

    W(z) F(qz) = -V(z) F(z) + U(z),   deg U <= 2,

and `fit_caratheodory_u` recovers U by least squares with a held-out
residual that certifies the identity.
"""

from dataclasses import dataclass

import mpmath as mp

from .errors import ConvergenceError, DomainError, PoleError, PrecisionError
from .polys import peval, pmul

__all__ = [
    "QWeightParams", "MomentTable", "qpoch_inf", "weight_eval", "fplus_eval",
    "vw_polys", "weight_feq_residual", "unit_modulus_residual",
    "szego_coefficients", "moments", "caratheodory", "moments_quad",
    "caratheodory_quad", "caratheodory_series", "fit_caratheodory_u",
]

DEFAULT_NODES = 512


@dataclass(frozen=True)
class QWeightParams:
    """Weight parameters (a, b, q), validated on construction."""

    a: mp.mpc
    b: mp.mpc
    q: mp.mpf

    def __post_init__(self):
        object.__setattr__(self, "a", mp.mpc(self.a))
        object.__setattr__(self, "b", mp.mpc(self.b))
        object.__setattr__(self, "q", mp.mpf(self.q))
        if not 0 < self.q < 1:
            raise DomainError(f"q must lie in (0, 1), got {mp.nstr(self.q, 8)}")
        if abs(self.a) >= 1 or abs(self.b) >= 1:
            raise DomainError("|a| and |b| must be < 1 for a smooth positive weight")


def qpoch_inf(z, q, tol=None):
    """(z; q)_inf = prod_{k>=0} (1 - z q^k).

    Truncates once |z q^k| drops below `tol` (default: a few bits under
    working precision); the neglected tail multiplies the result by
    1 + O(tol/(1-q)).
    """
    q = mp.mpf(q)
    if not 0 <= q < 1:
        raise ConvergenceError(f"q-Pochhammer product diverges for q = {mp.nstr(q, 8)}")
    if tol is None:
        tol = mp.mpf(2) ** (-(mp.mp.prec + 8))
    out = mp.mpc(1)
    zz = mp.mpc(z)
    it = 0
    while abs(zz) > tol:
        out *= 1 - zz
        zz *= q
        it += 1
        if it > 10 ** 6:
            raise ConvergenceError("q-Pochhammer product did not truncate")
    return out


def weight_eval(p, z):
    """w(z) for z != 0 off the zero set of the denominator products."""
    z = mp.mpc(z)
    if z == 0:
        raise DomainError("weight is undefined at z = 0")
    num = qpoch_inf(p.a * z, p.q) * qpoch_inf(mp.conj(p.a) / z, p.q)
    den = qpoch_inf(p.b * z, p.q) * qpoch_inf(mp.conj(p.b) / z, p.q)
    if abs(den) < mp.mpf(2) ** (-(mp.mp.prec // 2)):
        raise PoleError(f"weight pole near z = {mp.nstr(z, 8)}")
    return num / den


def fplus_eval(p, theta):
    """Szego function f_+ at z = e^{i theta}; w = 1/|f_+|^2 on the circle."""
    z = mp.e ** (1j * mp.mpf(theta))
    den = qpoch_inf(p.a * z, p.q)
    if abs(den) < mp.mpf(2) ** (-(mp.mp.prec // 2)):
        raise PoleError(f"f_+ pole near theta = {mp.nstr(theta, 8)}")
    return qpoch_inf(p.b * z, p.q) / den


def vw_polys(p):
    """Coefficient lists of V(z) = (qz - conj(a))(bz - 1), W(z) = (qz - conj(b))(1 - az)."""
    V = pmul([-mp.conj(p.a), p.q], [mp.mpc(-1), p.b])
    W = pmul([-mp.conj(p.b), p.q], [mp.mpc(1), -p.a])
    return V, W


def weight_feq_residual(p, z):
    """Relative residual of W(z) w(qz) + V(z) w(z) = 0."""
    V, W = vw_polys(p)
    lhs = peval(W, z) * weight_eval(p, p.q * z)
    rhs = -peval(V, z) * weight_eval(p, z)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def unit_modulus_residual(p, theta):
    """|w(e^{i theta}) |f_+|^2 - 1|."""
    z = mp.e ** (1j * mp.mpf(theta))
    return abs(weight_eval(p, z) * abs(fplus_eval(p, theta)) ** 2 - 1)


# Szego series longer than this are refused rather than summed
_MAX_TERMS = 10 ** 5


def szego_coefficients(p):
    """(g, mass): Taylor coefficients g_0..g_L of G(z) and mass = sum |g_n|^2.

    The recursion stops once the bound |g_n| r_n / (1 - r_n) on the tail
    sum_{m>n} |g_m| drops below 2^-(prec + 8).  Here
    r_n = (|b| + |a| q^n) / (1 - q^{n+1}) bounds every later ratio
    |g_{m+1} / g_m| because it decreases in n, and the bound holds only
    once r_n < 1.  As g_0 = 1 the mass is at least 1, so the tail is also
    small relative to it.  A coefficient that vanishes exactly (b = a q^n,
    e.g. a = b) ends the series: every later one vanishes too.
    """
    tol = mp.mpf(2) ** (-(mp.mp.prec + 8))
    absa, absb = abs(p.a), abs(p.b)
    g = [mp.mpc(1)]
    qn = mp.mpf(1)
    while True:
        qn1 = qn * p.q
        r = (absb + absa * qn) / (1 - qn1)
        if r < 1 and abs(g[-1]) * r / (1 - r) < tol:
            break
        if len(g) >= _MAX_TERMS:
            raise ConvergenceError(
                f"Szego series did not reach working precision in {_MAX_TERMS} terms")
        nxt = g[-1] * (p.b - p.a * qn) / (1 - qn1)
        if nxt == 0:
            break
        g.append(nxt)
        qn = qn1
    return tuple(g), mp.fdot(g, g, conjugate=True).real


@dataclass(frozen=True)
class MomentTable:
    """Normalized moments c_k, k = -K..K, with c_0 = 1.

    A table from `moments` carries the Szego coefficients `g` and their
    `mass`, from which `caratheodory` evaluates F.  A table from the
    trapezoid rule (`moments_quad`) records its node count `N` instead.
    """

    params: QWeightParams
    K: int
    c: tuple
    N: int = None
    g: tuple = None
    mass: mp.mpf = None

    def cmom(self, k):
        if abs(k) > self.K:
            raise DomainError(f"moment index {k} outside computed range +-{self.K}")
        return self.c[k + self.K]

    def hermitian_residual(self):
        return max(abs(self.cmom(-k) - mp.conj(self.cmom(k)))
                   for k in range(self.K + 1))

    def to_json_dict(self):
        return {
            "q": float(self.params.q),
            "a": [float(self.params.a.real), float(self.params.a.imag)],
            "b": [float(self.params.b.real), float(self.params.b.imag)],
            "K": self.K,
            "c": [[float(x.real), float(x.imag)] for x in self.c],
        }


def moments(p, K):
    """Moment table c_{-K}..c_K from the Szego coefficients.

    c_k = sum_m g_{m+k} conj(g_m) / mass for k > 0, c_{-k} = conj(c_k) and
    c_0 = 1 exactly.  The neglected tail of g moves each c_k by
    O(2^-(prec + 8) sum |g_m| / mass).
    """
    if K < 0:
        raise DomainError(f"need K >= 0, got K = {K}")
    g, mass = szego_coefficients(p)
    L = len(g)
    pos = [mp.mpc(mp.fdot(g[k:], g[:L - k], conjugate=True)) / mass
           for k in range(1, K + 1)]
    cs = [mp.conj(x) for x in reversed(pos)] + [mp.mpc(1)] + pos
    return MomentTable(params=p, K=K, c=tuple(cs), g=g, mass=mass)


def caratheodory(table, z):
    """F(z) from the Szego coefficients of a `moments` table; needs |z| != 1.

    Inside the disk F = 2 sum_m conj(g_m) S_m(z) / mass - 1 with
    S_m = g_m + z S_{m+1}, one pass over the series per point.  Outside it
    the measure is positive, so F(z) = -conj F(1/conj z).
    """
    z = mp.mpc(z)
    if abs(abs(z) - 1) < mp.mpf(2) ** -20:
        raise DomainError("Caratheodory evaluation requires |z| away from 1")
    if table.g is None:
        raise DomainError("moment table carries no Szego coefficients; "
                          "build it with qseries.moments")
    if abs(z) > 1:
        return -mp.conj(caratheodory(table, 1 / mp.conj(z)))
    s = mp.mpc(0)
    acc = mp.mpc(0)
    for gm in reversed(table.g):
        s = gm + z * s
        acc += mp.conj(gm) * s
    return 2 * acc / table.mass - 1


# quadrature grids are expensive to build and reused by the quadrature
# oracles; keyed by (params, node count, working precision)
_GRIDS = {}


def weight_grid(p, N=DEFAULT_NODES):
    """(nodes, weight values, raw mean) on the N-point uniform circle grid."""
    key = (p, N, mp.mp.prec)
    if key not in _GRIDS:
        nodes = [mp.e ** (2j * mp.pi * m / N) for m in range(N)]
        wvals = [weight_eval(p, z) for z in nodes]
        c0raw = mp.fsum(wvals) / N
        if len(_GRIDS) > 16:
            _GRIDS.clear()
        _GRIDS[key] = (nodes, wvals, c0raw)
    return _GRIDS[key]


def moments_quad(p, K, N=DEFAULT_NODES):
    """Moment table via the N-point trapezoid rule (oracle for `moments`).

    The rule aliases c_k onto c_{k +- N}, so the truncation error is of
    order r^(N-K) with r = max(|a|, |b|); the guard below rejects requests
    the grid cannot support at working precision.
    """
    if K < 0 or N <= 2 * K:
        raise DomainError(f"need N > 2K, got N = {N}, K = {K}")
    r = max(abs(p.a), abs(p.b))
    if r > 0 and r ** (N - K) > mp.mpf(2) ** (-(mp.mp.prec - 8)):
        raise PrecisionError(
            f"N = {N} nodes cannot reach working precision for K = {K}")
    nodes, wvals, c0raw = weight_grid(p, N)
    if abs(c0raw) < mp.mpf(2) ** (-(mp.mp.prec // 2)):
        raise PrecisionError("total mass of the weight vanished numerically")
    cs = []
    for k in range(-K, K + 1):
        s = mp.fsum(wvals[m] * nodes[m] ** (-k) for m in range(N)) / N
        cs.append(s / c0raw)
    return MomentTable(params=p, K=K, c=tuple(cs), N=N)


def caratheodory_quad(p, z, N=DEFAULT_NODES):
    """F(z) by quadrature against the Poisson-type kernel; needs |z| != 1."""
    z = mp.mpc(z)
    if abs(abs(z) - 1) < mp.mpf(2) ** -20:
        raise DomainError("Caratheodory evaluation requires |z| away from 1")
    nodes, wvals, c0raw = weight_grid(p, N)
    return mp.fsum(wvals[m] * (nodes[m] + z) / (nodes[m] - z)
                   for m in range(N)) / (N * c0raw)


def caratheodory_series(table, z):
    """F(z) = 1 + 2 sum_{k=1..K} c_k z^k for |z| < 1, with a tail guard."""
    z = mp.mpc(z)
    if abs(z) >= 1:
        raise DomainError("moment series for F converges only in |z| < 1")
    tail = 2 * abs(z) ** (table.K + 1) / (1 - abs(z))
    if tail > mp.mpf(2) ** (-(mp.mp.prec // 2)):
        raise PrecisionError(
            f"series tail {mp.nstr(tail, 5)} too large at |z| = {mp.nstr(abs(z), 5)}")
    return table.cmom(0) + 2 * mp.fsum(table.cmom(k) * z ** k
                                       for k in range(1, table.K + 1))


def fit_caratheodory_u(p, nfit=8, nheld=30, rfit=0.3):
    """Least-squares fit of the quadratic U in W(z) F(qz) = -V(z) F(z) + U(z).

    F comes from the Szego series of the weight.  Fits on `nfit` points of
    the circle |z| = rfit and reports the maximum relative residual on
    `nheld` fresh points at a different radius.
    Returns (U coefficients, held-out residual).
    """
    V, W = vw_polys(p)
    table = moments(p, 0)

    def lhs(z):
        return (peval(W, z) * caratheodory(table, p.q * z)
                + peval(V, z) * caratheodory(table, z))

    zs = [rfit * mp.e ** (2j * mp.pi * j / nfit) for j in range(nfit)]
    A = mp.matrix([[1, z, z ** 2] for z in zs])
    rhs = mp.matrix([lhs(z) for z in zs])
    sol, _ = mp.qr_solve(A, rhs)
    U = [sol[0], sol[1], sol[2]]
    resid = mp.mpf(0)
    for j in range(nheld):
        z = 1.23 * rfit * mp.e ** (2j * mp.pi * (j + mp.mpf("0.37")) / nheld)
        val = lhs(z)
        scale = max(abs(peval(W, z) * caratheodory(table, p.q * z)), abs(val), mp.mpf(1))
        resid = max(resid, abs(val - peval(U, z)) / scale)
    return U, resid
