"""Dense univariate polynomials over mpmath complex numbers.

A polynomial is a plain list of ``mpc`` coefficients, lowest degree first;
the empty list is zero.  2x2 polynomial matrices are 4-lists of such
coefficient lists in row-major order ``[e11, e12, e21, e22]``.  Everything
here is allocation-light and precision-agnostic: callers set
``mp.mp.prec`` (or use ``mp.workprec``) around these routines.
`json_complex` is the one JSON form of a complex number, ``[re, im]``.

Sums of products go through one exact kernel.  An mpf is a dyadic
rational, so a vector of mpf/mpc values converts exactly, once, to
Gaussian integers at a common binary exponent; products and sums of those
are exact Python integer arithmetic, and each result is rounded once
(`libmp.from_man_exp`) at the working precision and rounding mode.  On it
rest `dot` (the rounding of `mp.fdot`, without fdot's per-term object
handling), `pmul` (exact convolution), `pmax` (exact squared magnitudes,
one square root) and `autocorr`.  The kernel reads the mpmath 1.x raw
layouts ``x._mpf_ = (sign, man, exp, bc)`` and ``x._mpc_ = (re, im)``;
an inf or nan entry raises ValueError.

Long chains of arithmetic on a few values, such as a Painleve orbit, run
on `GaussFloat` beside the kernel: the same Gaussian integers with a binary
exponent, but cut back by a plain shift after each + - * / to the working
precision plus 10 guard bits, instead of mpmath's per-operation
normalization.  `gauss_floats` converts through the kernel's conversion,
and `GaussFloat.mpc` rounds back with the kernel's rounding.

The two dense solvers work on plain lists too: `lstsq` (Householder QR,
for the overdetermined fits) and `hpd_solve` (LDL^H, for Hermitian
positive definite systems such as Toeplitz moment matrices).  Both carry
10 guard bits and form every inner product with `dot`, and return values
rounded to working precision.
"""

from math import isqrt
from operator import add, mul

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero, mpf_sqrt

from .errors import DegreeError

__all__ = [
    "padd", "pscale", "pmul", "pmulz", "pq", "peval", "pstar", "pmax",
    "pdeg", "ptrim", "mat_mul", "mat_det", "mat_q", "mat_max", "json_complex",
    "dot", "autocorr", "lstsq", "hpd_solve", "GaussFloat", "gauss_floats",
]

_MPF, _MPC = mp.mpf, mp.mpc
_make_mpf, _make_mpc = mp.mp.make_mpf, mp.mp.make_mpc


def _gauss(xs):
    """(re, im, exp, cplx): x_k = (re_k + i im_k) 2^exp exactly, as Python ints.

    `cplx` tells whether any x_k is an mpc.  Values that are neither mpf
    nor mpc are converted by `mp.mpmathify` first.  The common exponent is
    the least exponent of the raw parts, zeros (exponent 0) included.
    """
    if not xs:
        return [], [], 0, False
    try:
        raw = [t for x in xs for t in x._mpc_]
        cplx = True
    except AttributeError:
        raw, cplx = [], False
        for x in xs:
            if type(x) is not _MPC and type(x) is not _MPF:
                x = mp.mpmathify(x)
            if type(x) is _MPC:
                raw += x._mpc_
                cplx = True
            else:
                raw += (x._mpf_, fzero)
    sign, man, exp, bc = zip(*raw)
    if min(bc) < 0:  # the raw forms of inf, -inf and nan have bc < 0
        raise ValueError("inf or nan entry in an exact dot product")
    e = min(exp)
    ints = [(-m if s else m) << (x - e) for s, m, x in zip(sign, man, exp)]
    return ints[0::2], ints[1::2], e, cplx


def _round(man, exp):
    """man 2^exp as a raw mpf, rounded once at the working precision and mode.

    Round-to-nearest, mpmath's default, is done inline: it is the rounding
    of `libmp.from_man_exp`, which takes most of the time of a short dot
    product.  Other modes call from_man_exp.
    """
    prec, rnd = mp.mp._prec_rounding
    if rnd != "n":
        return from_man_exp(man, exp, prec, rnd)
    if not man:
        return fzero
    sign = 0
    if man < 0:
        sign, man = 1, -man
    n = man.bit_length() - prec
    if n > 0:
        # the half bit of the cut, then ties to even
        t = man >> (n - 1)
        if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
            man = (t >> 1) + 1
        else:
            man = t >> 1
        exp += n
    tz = (man & -man).bit_length() - 1  # mpmath strips trailing zero bits
    if tz:
        man >>= tz
        exp += tz
    return (sign, man, exp, man.bit_length())


def _isum(x, y):
    return sum(map(mul, x, y))


class GaussFloat:
    """A complex number (re + i im) 2^e with Python-integer re and im.

    The number type of long chains of + - * / on a few values, such as a
    Painleve orbit.  Each operation is exact integer arithmetic on the
    Gaussian integers, then one right shift (a floor) cuts the larger of
    |re|, |im| to p bits: the result is within one unit of its last bit,
    2^e, of the exact one.  Operands carry the same p; the result takes the
    left operand's.  `gauss_floats` converts mpf/mpc values exactly, and
    `mpc` rounds back once at the working precision and rounding mode.
    `abs` is the magnitude from the exact squared norm by `math.isqrt`, a
    real GaussFloat; `norm` is that squared norm as an exact (man, exp).
    """

    __slots__ = ("re", "im", "e", "p")

    def __init__(self, re, im, e, p):
        self.re, self.im, self.e, self.p = re, im, e, p

    def __add__(self, other):
        d = self.e - other.e
        if d >= 0:
            return _cut((self.re << d) + other.re, (self.im << d) + other.im,
                        other.e, self.p)
        return _cut(self.re + (other.re << -d), self.im + (other.im << -d),
                    self.e, self.p)

    def __sub__(self, other):
        d = self.e - other.e
        if d >= 0:
            return _cut((self.re << d) - other.re, (self.im << d) - other.im,
                        other.e, self.p)
        return _cut(self.re - (other.re << -d), self.im - (other.im << -d),
                    self.e, self.p)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return _cut(a * c - b * d, a * d + b * c, self.e + other.e, self.p)

    def __rmul__(self, n):
        # n an int, as in 2 x
        return _cut(n * self.re, n * self.im, self.e, self.p)

    def __neg__(self):
        return GaussFloat(-self.re, -self.im, self.e, self.p)

    def __truediv__(self, other):
        # x conj(z) / |z|^2, the numerator shifted so the quotient keeps p bits
        a, b, c, d = self.re, self.im, other.re, other.im
        den = c * c + d * d
        if not den:
            raise ZeroDivisionError("GaussFloat division by zero")
        re, im = a * c + b * d, b * c - a * d
        s = max(self.p + den.bit_length() - (abs(re) | abs(im)).bit_length(), 0)
        return _cut((re << s) // den, (im << s) // den, self.e - other.e - s, self.p)

    def __bool__(self):
        return bool(self.re or self.im)

    def __abs__(self):
        return _cut(isqrt(self.re * self.re + self.im * self.im), 0, self.e, self.p)

    def norm(self):
        """|x|^2 exactly, as (man, exp): man 2^exp."""
        return self.re * self.re + self.im * self.im, 2 * self.e

    def mpc(self):
        """This value as an mpc, each part rounded once (`_round`)."""
        return _make_mpc((_round(self.re, self.e), _round(self.im, self.e)))


def _cut(re, im, e, p):
    n = (abs(re) | abs(im)).bit_length() - p
    if n > 0:
        return GaussFloat(re >> n, im >> n, e + n, p)
    return GaussFloat(re, im, e, p)


def gauss_floats(xs):
    """Each of xs (mpf, mpc or numbers) as an exact GaussFloat.

    Operations on the results keep mp.prec + 10 bits, the guard of the
    dense solvers below; inf and nan raise ValueError, as in `_gauss`.
    """
    p = mp.mp.prec + 10
    out = []
    for x in xs:
        (re,), (im,), e, _ = _gauss([x])
        out.append(GaussFloat(re, im, e, p))
    return out


def dot(A, B, conjugate=False):
    """sum_k A_k B_k, or sum_k A_k conj(B_k): exact, then rounded once.

    Returns what `mp.fdot` returns for the same arguments wherever fdot sums
    exactly: an mpf when every entry is real, else an mpc.  fdot's running
    sum drops a product that lies more than 2 prec bits below its last bit,
    or the sum itself when a product lies that far above it; this kernel
    keeps every bit.  A and B have equal length.
    """
    return _gdot(_gauss(A), _gauss(B), conjugate)


def _gdot(A, B, conjugate=False):
    # `dot` of two vectors already converted by `_gauss`
    ar, ai, ea, ca = A
    br, bi, eb, cb = B
    e = ea + eb
    if not (ca or cb):
        return _make_mpf(_round(_isum(ar, br), e))
    if conjugate:
        re = _isum(ar, br) + _isum(ai, bi)
        im = _isum(ai, br) - _isum(ar, bi)
    else:
        re = _isum(ar, br) - _isum(ai, bi)
        im = _isum(ar, bi) + _isum(ai, br)
    return _make_mpc((_round(re, e), _round(im, e)))


def autocorr(x, K):
    """[sum_m x_{m+k} conj(x_m) for k = 0..K], each exact, then rounded once.

    Lag k equals `dot(x[k:], x[:len(x) - k], conjugate=True)` as an mpc;
    the vector is converted once for all lags.
    """
    re, im, e, _ = _gauss(x)
    out = []
    for k in range(K + 1):
        r, i = re[k:], im[k:]
        out.append(_make_mpc((_round(_isum(r, re) + _isum(i, im), 2 * e),
                              _round(_isum(i, re) - _isum(r, im), 2 * e))))
    return out


def padd(p, r, s=1):
    """p + s*r, aligned by degree."""
    n, m = len(p), len(r)
    if s == 1:
        head = [x + y for x, y in zip(p, r)]
        tail = [+y for y in r[n:]]
    elif s == -1:
        head = [x - y for x, y in zip(p, r)]
        tail = [-y for y in r[n:]]
    else:
        head = [x + s * y for x, y in zip(p, r)]
        tail = [s * y for y in r[n:]]
    return head + [+x for x in p[m:]] + tail


def pscale(p, s):
    return [s * x for x in p]


def pmul(p, r):
    """p * r by exact convolution, each coefficient rounded once."""
    if not p or not r:
        return []
    pr, pi, ep, _ = _gauss(p)
    rr, ri, er, _ = _gauss(r)
    rr, ri = rr[::-1], ri[::-1]
    n, m, e = len(p), len(r), ep + er
    out = []
    for k in range(n + m - 1):
        lo, hi = max(0, k - m + 1), min(k, n - 1) + 1
        # p_j r_{k-j} for j = lo..hi-1; r_{k-j} sits at m-1-k+j reversed
        a, b = pr[lo:hi], pi[lo:hi]
        c, d = rr[m - 1 - k + lo:m - 1 - k + hi], ri[m - 1 - k + lo:m - 1 - k + hi]
        out.append(_make_mpc((_round(_isum(a, c) - _isum(b, d), e),
                              _round(_isum(a, d) + _isum(b, c), e))))
    return out


def pmulz(p, k=1):
    """Multiply by z^k."""
    return [mp.mpc(0)] * k + list(p) if p else []


def pq(p, q):
    """Substitute z -> q z."""
    return [x * q ** i for i, x in enumerate(p)]


def peval(p, z):
    return mp.fsum(x * z ** i for i, x in enumerate(p)) if p else mp.mpc(0)


def pstar(p, n):
    """Reversal with conjugation: z^n conj(p)(1/zbar), for deg p <= n."""
    if len(p) > n + 1:
        raise DegreeError(f"cannot star a degree-{len(p) - 1} polynomial at order {n}")
    out = [mp.mpc(0)] * (n + 1)
    for i, x in enumerate(p):
        out[n - i] = mp.conj(x)
    return out


def pmax(p):
    """max_k |p_k|: exact squared magnitudes, one correctly rounded square root."""
    if not p:
        return mp.mpf(0)
    re, im, e, _ = _gauss(p)
    top = max(map(add, map(mul, re, re), map(mul, im, im)))
    prec, rnd = mp.mp._prec_rounding
    return _make_mpf(mpf_sqrt(from_man_exp(top, 2 * e), prec, rnd))


def pdeg(p, tol=0):
    """Largest index with |coefficient| > tol, or -1 for zero."""
    for i in range(len(p) - 1, -1, -1):
        if abs(p[i]) > tol:
            return i
    return -1


def ptrim(p, tol):
    """Drop trailing coefficients of magnitude <= tol."""
    return p[: pdeg(p, tol) + 1]


def mat_mul(X, Y):
    x11, x12, x21, x22 = X
    y11, y12, y21, y22 = Y
    return [padd(pmul(x11, y11), pmul(x12, y21)),
            padd(pmul(x11, y12), pmul(x12, y22)),
            padd(pmul(x21, y11), pmul(x22, y21)),
            padd(pmul(x21, y12), pmul(x22, y22))]


def mat_det(X):
    return padd(pmul(X[0], X[3]), pmul(X[1], X[2]), -1)


def mat_q(X, q):
    return [pq(e, q) for e in X]


def mat_max(X):
    return max(pmax(e) for e in X)


def json_complex(z):
    """[re, im] as Python floats."""
    return [float(z.real), float(z.imag)]


def lstsq(rows, rhs):
    """Least-squares solution x of rows x = rhs by Householder QR.

    `rows` holds the m >= k rows of an m x k matrix, `rhs` its m right-hand
    sides.  Column j is reflected onto p_j e_j with the complex-phase choice
    p_j = -sqrt(s) a_jj/|a_jj| (-sqrt(s) when a_jj = 0), s being the squared
    norm of the column's remaining part, so a lead with zero real part
    needs no special case.  A column whose remaining part is not above
    eps times its own norm is numerically dependent on the ones before it
    and raises ZeroDivisionError.
    """
    m, k = len(rows), len(rows[0])
    with mp.extraprec(10):
        cols = [[mp.mpc(r[j]) for r in rows] for j in range(k)]
        b = [mp.mpc(x) for x in rhs]
        norms = [dot(c, c, conjugate=True).real for c in cols]
        diag = []
        for j in range(k):
            v = cols[j][j:]
            s = dot(v, v, conjugate=True).real
            if not s > mp.eps * norms[j]:
                raise ZeroDivisionError(f"column {j} is numerically dependent")
            r, ajj = mp.sqrt(s), v[0]
            p = -r * ajj / abs(ajj) if ajj else -r
            # H = I - kappa v v^H maps the column to p e_j; with this p,
            # kappa = 1/(s - conj(p) a_jj) = 1/(s + r |a_jj|) is real
            kappa = 1 / (s + r * abs(ajj))
            v[0] = ajj - p
            for c in cols[j + 1:] + [b]:
                y = dot(c[j:], v, conjugate=True) * kappa
                for i in range(j, m):
                    c[i] -= v[i - j] * y
            diag.append(p)
        x = [mp.mpc(0)] * k
        for i in range(k - 1, -1, -1):
            ri = [cols[j][i] for j in range(i + 1, k)]
            x[i] = (b[i] - dot(ri, x[i + 1:])) / diag[i]
    return [+xi for xi in x]


def hpd_solve(M, rhs):
    """Solve M x = rhs for Hermitian positive definite M by LDL^H.

    Reads the lower triangle of M (a list of rows) and the real part of its
    diagonal.  M = L D L^H with L unit lower triangular and D real; a pivot
    d_j not above eps M_jj is not positive at working precision and raises
    ZeroDivisionError, so an indefinite or singular M is refused.
    """
    n = len(M)
    tol = mp.eps
    with mp.extraprec(10):
        L = [[] for _ in range(n)]  # L[i] holds L_i0 .. L_i(i-1)
        d = []
        for j in range(n):
            # the multipliers of column j, converted once for all its rows
            w = _gauss([mp.conj(L[j][k]) * d[k] for k in range(j)])
            mjj = mp.re(M[j][j])
            dj = mjj - mp.re(_gdot(_gauss(L[j]), w))
            if not dj > tol * mjj:
                raise ZeroDivisionError(f"LDL^H pivot {j} is not positive")
            d.append(dj)
            for i in range(j + 1, n):
                L[i].append((M[i][j] - _gdot(_gauss(L[i]), w)) / dj)
        z = []
        for i in range(n):
            z.append(rhs[i] - dot(L[i], z))
        x = [mp.mpc(0)] * n
        for i in range(n - 1, -1, -1):
            x[i] = z[i] / d[i] - dot(x[i + 1:], [L[k][i] for k in range(i + 1, n)],
                                     conjugate=True)
    return [+xi for xi in x]
