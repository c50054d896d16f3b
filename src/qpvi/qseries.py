"""q-Gamma weights on the unit circle and their moment/Caratheodory data.

The weight is built from q-Pochhammer infinite products,

    w(z) = (az; q)_inf (conj(a)/z; q)_inf / ((bz; q)_inf (conj(b)/z; q)_inf),

restricted here to 0 < q < 1 and |a|, |b| < 1 so that w is smooth and
strictly positive on |z| = 1.  It satisfies the first-order q-difference
equation

    W(z) w(qz) = -V(z) w(z),
    V(z) = (qz - conj(a))(bz - 1),   W(z) = (qz - conj(b))(1 - az),

and w = |G|^2 on the circle with the Szego function

    G(z) = (az; q)_inf / (bz; q)_inf = sum_{n>=0} g_n z^n,

whose Taylor coefficients follow from the q-binomial theorem
(Gasper-Rahman, Basic Hypergeometric Series, 1.3):

    g_0 = 1,   g_{n+1} = g_n (b - a q^n) / (1 - q^{n+1}).

This series is the route the chain uses; its recursion, like the
q-Pochhammer products below, runs on `polys.GaussFloat`.  The
trigonometric moments
c_k = int z^{-k} dmu(z), normalized so c_0 = 1, are

    c_k = sum_m g_{m+k} conj(g_m) / sum_m |g_m|^2,

and the Caratheodory function F(z) = int (zeta + z)/(zeta - z) dmu(zeta) is

    F(z) = 2 sum_m conj(g_m) S_m(z) / sum_m |g_m|^2 - 1,   S_m = g_m + z S_{m+1},

for |z| < 1, and F(z) = -conj F(1/conj z) outside the disk.  The series
needs no grid; its length grows like prec / log2(1/|b|).

Independent oracles, kept for the checks and the benchmark: the weight
itself through the q-Pochhammer products (`weight_eval`, which check 12
compares with |G|^2 from the series on the circle), and F by the
trapezoid rule on a uniform grid of the circle (`weight_grid`,
`caratheodory_quad`).  The oracles only the tests use live beside them:
the moments by the same rule, F from the finite moment series
c_0 + 2 sum_{k=1..K} c_k z^k, and the q-difference equation of w.
F inherits a q-difference equation with an extra polynomial part,

    W(z) F(qz) + V(z) F(z) = U(z),   deg U <= 2,

for |z| < 1 and, with the same U, for |z| > 1/q, where z and qz lie on
one side of the circle.

With F = sum f_k z^k, f_0 = 1 and f_k = 2 c_k, it is a recurrence on the
moments: for every k >= 3,

    (W_0 q^k + V_0) f_k + (W_1 q^(k-1) + V_1) f_(k-1) + (W_2 q^(k-2) + V_2) f_(k-2) = 0,

and U is the first three coefficients of the left side.  Check 12 of
`qpvi.verify` applies the recurrence to the moment table.
"""

from dataclasses import dataclass

import mpmath as mp

from .errors import ConvergenceError, DomainError, PoleError
from .polys import TAIL_BITS, ExactPoly, autocorr, below, gauss_floats, json_complex, negligible

__all__ = [
    "QWeightParams", "MomentTable", "qpoch_inf", "weight_eval", "vw_polys",
    "szego_coefficients", "moments", "caratheodory", "caratheodory_quad",
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
        if not (abs(self.a) < 1 and abs(self.b) < 1):  # nan fails too
            raise DomainError("|a| and |b| must be < 1 for a smooth positive weight")


def qpoch_inf(z, q):
    """(z; q)_inf = prod_{k>=0} (1 - z q^k).

    Truncates once |z q^k| drops to tol = 2^-(prec + 8), a few bits under
    working precision, compared as an exact squared norm; the neglected
    tail multiplies the result by 1 + O(tol/(1-q)).  The product runs on
    `polys.GaussFloat` and is rounded once.
    """
    q = mp.mpf(q)
    if not 0 <= q < 1:
        raise ConvergenceError(f"q-Pochhammer product diverges for q = {mp.nstr(q, 8)}")
    tol2 = (1, -2 * (mp.mp.prec + TAIL_BITS))
    try:
        zz, gq, one = gauss_floats([z, q, 1])
    except ValueError:  # the exact conversion refuses inf and nan
        raise DomainError("q-Pochhammer product needs a finite z") from None
    out = one
    it = 0
    while below(tol2, zz.norm()):
        out = out * (one - zz)
        zz = zz * gq
        it += 1
        if it > 10 ** 6:
            raise ConvergenceError("q-Pochhammer product did not truncate")
    return out.mpc()


def weight_eval(p, z):
    """w(z) for finite z != 0 off the zero set of the denominator products."""
    z = mp.mpc(z)
    if z == 0:
        raise DomainError("weight is undefined at z = 0")
    num = qpoch_inf(p.a * z, p.q) * qpoch_inf(mp.conj(p.a) / z, p.q)
    den = qpoch_inf(p.b * z, p.q) * qpoch_inf(mp.conj(p.b) / z, p.q)
    if negligible(den, 1):
        raise PoleError(f"weight pole near z = {mp.nstr(z, 8)}")
    return num / den


def vw_polys(p):
    """Coefficient lists of V(z) = (qz - conj(a))(bz - 1), W(z) = (qz - conj(b))(1 - az)."""
    X = ExactPoly.of
    V = X([-mp.conj(p.a), p.q]) * X([mp.mpc(-1), p.b])
    W = X([-mp.conj(p.b), p.q]) * X([mp.mpc(1), -p.a])
    return V.rounded(), W.rounded()


# Szego series longer than this are refused rather than summed
_MAX_TERMS = 10 ** 5


def szego_coefficients(p):
    """The Taylor coefficients g_0..g_L of G(z), as a tuple.

    The recursion stops once the bound |g_n| r_n / (1 - r_n) on the tail
    sum_{m>n} |g_m| drops below 2^-(prec + 8).  Here r_n = num/den with
    num = |b| + |a| q^n and den = 1 - q^{n+1} bounds every later ratio
    |g_{m+1} / g_m| because it decreases in n, and the bound holds only
    once num < den; it is compared as |g_n|^2 num^2 < 2^-2(prec+8)
    (den - num)^2, on exact squared norms.  As g_0 = 1 the mass
    sum |g_n|^2 is at least 1, so the tail is also small relative to it.
    A coefficient that vanishes exactly (b = a q^n, e.g. a = b) ends the
    series: every later one vanishes too.  The recursion runs on `polys.GaussFloat`, and each
    g_n is rounded once.
    """
    bits = 2 * (mp.mp.prec + TAIL_BITS)
    a, b, q, one = gauss_floats([p.a, p.b, p.q, 1])
    absb = abs(b)
    aq, absaq, q1 = a, abs(a), q  # a q^n, |a| q^n, q^{n+1}
    g = [one]
    while True:
        den = one - q1
        num = absb + absaq
        gap = den - num
        if gap.re > 0 and below((g[-1] * num).norm(), gap.norm(), bits):
            break
        if len(g) >= _MAX_TERMS:
            raise ConvergenceError(
                f"Szego series did not reach working precision in {_MAX_TERMS} terms")
        nxt = g[-1] * (b - aq) / den
        if not nxt:
            break
        g.append(nxt)
        aq, absaq, q1 = aq * q, absaq * q, q1 * q
    return tuple(x.mpc() for x in g)


@dataclass(frozen=True)
class MomentTable:
    """Normalized moments c_k, k = -K..K, with c_0 = 1, where len(c) = 2K + 1.

    A table from `moments` carries the Szego coefficients `g` and their
    `mass`, from which `caratheodory` evaluates F.  A table built from
    moments alone, such as a quadrature oracle's, carries neither.
    """

    params: QWeightParams
    c: tuple
    g: tuple = None
    mass: mp.mpf = None

    def __post_init__(self):
        if len(self.c) % 2 == 0:
            raise DomainError(f"moment table needs c_-K..c_K, an odd length, got {len(self.c)}")
        # {(prec, rounding): (converted moments, growing LDL^H of (c_{k-j}))},
        # kept by `opuc.verblunsky_toeplitz`.  Not a field, so ==, hash and
        # repr ignore it; `dataclasses.replace` runs this again and starts empty
        object.__setattr__(self, "_toeplitz", {})

    @property
    def K(self):
        return len(self.c) // 2

    def cmom(self, k):
        if abs(k) > self.K:
            raise DomainError(f"moment index {k} outside computed range +-{self.K}")
        return self.c[k + self.K]

    def to_json_dict(self):
        return {
            "q": float(self.params.q),
            "a": json_complex(self.params.a),
            "b": json_complex(self.params.b),
            "K": self.K,
            "c": [json_complex(x) for x in self.c],
        }

    def to_csv_lines(self):
        yield "k,re_c,im_c"
        for k in range(-self.K, self.K + 1):
            ck = self.cmom(k)
            yield f"{k},{float(ck.real)!r},{float(ck.imag)!r}"


def moments(p, K):
    """Moment table c_{-K}..c_K from the Szego coefficients.

    c_k = sum_m g_{m+k} conj(g_m) / mass for k > 0, c_{-k} = conj(c_k) and
    c_0 = 1 exactly; the mass sum_m |g_m|^2 is lag 0 of the same exact
    autocorrelation.  The neglected tail of g moves each c_k by
    O(2^-(prec + 8) sum |g_m| / mass).
    """
    if K < 0:
        raise DomainError(f"need K >= 0, got K = {K}")
    g = szego_coefficients(p)
    lags = autocorr(g, K)
    mass = lags[0].real
    pos = [x / mass for x in lags[1:]]
    cs = [mp.conj(x) for x in reversed(pos)] + [mp.mpc(1)] + pos
    return MomentTable(params=p, c=tuple(cs), g=g, mass=mass)


def _off_circle(z):
    # z as an mpc, refused unless finite with |z| at least 2^-20 from 1
    z = mp.mpc(z)
    if not mp.isfinite(z) or abs(abs(z) - 1) < mp.ldexp(1, -20):
        raise DomainError("Caratheodory evaluation requires a finite z, |z| away from 1")
    return z


def caratheodory(table, z):
    """F(z) from the Szego coefficients of a `moments` table; needs a finite z, |z| != 1.

    Inside the disk F = 2 sum_m conj(g_m) S_m(z) / mass - 1 with
    S_m = g_m + z S_{m+1}, one pass over the series per point.  Outside it
    the measure is positive, so F(z) = -conj F(1/conj z).
    """
    z = _off_circle(z)
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


def caratheodory_quad(p, z, N=DEFAULT_NODES):
    """F(z) by quadrature against the Poisson-type kernel; needs a finite z, |z| != 1."""
    z = _off_circle(z)
    nodes, wvals, c0raw = weight_grid(p, N)
    return mp.fsum(wvals[m] * (nodes[m] + z) / (nodes[m] - z)
                   for m in range(N)) / (N * c0raw)
