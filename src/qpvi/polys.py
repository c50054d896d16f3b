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
handling), `pmul` (exact convolution), `pq` (x_k q^k with exact powers of
q's mantissa), `pmax` (exact squared magnitudes, one square root),
`autocorr` and `mat_qdiff_residual` (the coefficient residual of a
2x2 q-difference system, formed exactly).  The kernel reads the mpmath
1.x raw layouts ``x._mpf_ = (sign, man, exp, bc)`` and
``x._mpc_ = (re, im)``; an inf or nan entry raises ValueError.

Chains of arithmetic on a few values run on `GaussFloat` beside the
kernel: the same Gaussian integers with a binary exponent, but cut back by
a plain shift after each + - * / to the working precision plus
`GUARD_BITS`, instead of mpmath's per-operation normalization.  The
weights chain runs on it: the Szego series and q-Pochhammer products
(`qseries`), the Szego recursion (`opuc`), the closed A_n (`laxpair`), and
`extract_coords`, `matrix_step` and the orbit (`painleve`), each
converting its mpf/mpc inputs once with `gauss_floats` and rounding each
output once with `GaussFloat.mpc`.

One dense solver runs on GaussFloat too: `LDLFactor`, LDL^H for
Hermitian positive definite matrices such as Toeplitz moment matrices,
grown one bordered row at a time, so a factor of order n extends the one
of order n - 1.  Each entry is an exact Gaussian-integer sum cut once.
`hpd_solve` grows it over a matrix given as lists and solves, and `lstsq`
hands it the normal equations of an overdetermined fit, formed exactly
and rounded once.

Every precision guard of the package reads its threshold from the policy
after the imports, and keeps its own comparison (< or <=) and scale: the
zero level 2^-zero_bits() = 2^-(prec//2) of a scale (`negligible`, or
2 zero_bits() bits through `below` on squared norms); the certificate
level `residual_tol()` = 2^-(prec//3); the series tail 2^-(prec + 8),
`TAIL_BITS` = 8, of `qpoch_inf` and `szego_coefficients`; `GUARD_BITS` =
10, twice over in `LDLFactor`; and mp.eps for `alpha_nonzero` and the
pivots of `LDLFactor`.
"""

from math import isqrt
from operator import add, mul

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero, mpf_sqrt

from .errors import DegreeError

__all__ = [
    "padd", "pscale", "pmul", "pq", "peval", "pstar", "pmax", "mat_mul", "mat_det",
    "mat_q", "mat_max", "mat_qdiff_residual", "json_complex", "dot", "autocorr",
    "lstsq", "hpd_solve", "LDLFactor", "GaussFloat", "gauss_floats", "gauss_dot", "below",
    "largest",
    "GUARD_BITS", "TAIL_BITS", "zero_bits", "negligible", "residual_tol",
]

_MPF, _MPC = mp.mpf, mp.mpc
_make_mpf, _make_mpc = mp.mp.make_mpf, mp.mp.make_mpc

# the precision policy of the module docstring
GUARD_BITS, TAIL_BITS = 10, 8


def zero_bits():
    return mp.mp.prec // 2


def negligible(x, scale):
    return abs(x) < mp.ldexp(scale, -zero_bits())


def residual_tol():
    return mp.mpf(2) ** (-(mp.mp.prec // 3))


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
    real GaussFloat; `norm` is that squared norm as an exact (man, exp),
    which `below` and `largest` compare.  p = math.inf cuts nothing, so
    + - * and `**` are exact.
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

    def __pow__(self, k):
        # the exact k-th power (k >= 0), then one cut
        re, im = 1, 0
        for _ in range(k):
            re, im = re * self.re - im * self.im, re * self.im + im * self.re
        return _cut(re, im, self.e * k, self.p)

    def conj(self):
        return GaussFloat(self.re, -self.im, self.e, self.p)

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
    if re or im:
        return GaussFloat(re, im, e, p)
    return GaussFloat(0, 0, 0, p)  # else a zero's exponent drifts with each * and /


def gauss_floats(xs, p=None):
    """Each of xs (mpf, mpc or numbers) as an exact GaussFloat.

    Operations on the results keep p bits, by default mp.prec + GUARD_BITS.
    Each value converts as `_gauss`
    converts a one-entry vector; inf and nan raise ValueError.
    """
    if p is None:
        p = mp.mp.prec + GUARD_BITS
    out = []
    for x in xs:
        if type(x) is not _MPC and type(x) is not _MPF:
            x = mp.mpmathify(x)
        (s, m, e, bc), (t, n, f, bd) = x._mpc_ if type(x) is _MPC else (x._mpf_, fzero)
        if bc < 0 or bd < 0:
            raise ValueError("inf or nan entry in an exact conversion")
        g = min(e, f)
        out.append(GaussFloat((-m if s else m) << (e - g), (-n if t else n) << (f - g), g, p))
    return out


def below(n, m, bits=0):
    """n < 2^-bits m, for exact nonnegative (man, exp) pairs such as norms."""
    d = n[1] + bits - m[1]
    return n[0] << d < m[0] if d >= 0 else n[0] < m[0] << -d


def largest(xs):
    """The GaussFloat of greatest magnitude among xs (the first of equals)."""
    best, top = xs[0], xs[0].norm()
    for x in xs[1:]:
        n = x.norm()
        if below(top, n):
            best, top = x, n
    return best


def gauss_dot(xs, B):
    """sum_k xs_k B_k for GaussFloats xs and mpf/mpc B of equal length:
    exact, then one cut to the precision of xs."""
    e = min(x.e for x in xs)
    re = [x.re << (x.e - e) for x in xs]
    im = [x.im << (x.e - e) for x in xs]
    br, bi, eb, _ = _gauss(B)
    return _cut(_isum(re, br) - _isum(im, bi), _isum(re, bi) + _isum(im, br),
                e + eb, xs[0].p)


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
    return ([x + s * y for x, y in zip(p, r)] + [+x for x in p[m:]]
            + [s * y for y in r[n:]])


def pscale(p, s):
    return [s * x for x in p]


def _exact(p):
    # p as an exact polynomial (re, im, e): p_k = (re_k + i im_k) 2^e
    return _gauss(p)[:3]


def _xmul(X, Y):
    # the exact product of two exact polynomials
    (xr, xi, ex), (yr, yi, ey) = X, Y
    yr, yi = yr[::-1], yi[::-1]
    n, m = len(xr), len(yr)
    re, im = [], []
    for k in range(n + m - 1):
        lo, hi = max(0, k - m + 1), min(k, n - 1) + 1
        # x_j y_{k-j} for j = lo..hi-1; y_{k-j} sits at m-1-k+j reversed
        a, b = xr[lo:hi], xi[lo:hi]
        c, d = yr[m - 1 - k + lo:m - 1 - k + hi], yi[m - 1 - k + lo:m - 1 - k + hi]
        re.append(_isum(a, c) - _isum(b, d))
        im.append(_isum(a, d) + _isum(b, c))
    return re, im, ex + ey


def _xadd(X, Y, s=1):
    # X + s Y exactly, s = +-1, aligned by degree and exponent
    (xr, xi, ex), (yr, yi, ey) = X, Y
    e = min(ex, ey)
    dx, dy = ex - e, ey - e
    re = [v << dx for v in xr] + [0] * (len(yr) - len(xr))
    im = [v << dx for v in xi] + [0] * (len(yr) - len(xr))
    for k, (u, v) in enumerate(zip(yr, yi)):
        re[k] += s * (u << dy)
        im[k] += s * (v << dy)
    return re, im, e


def _xpq(X, q):
    # X(qz) exactly: x_k q^k with q^k an exact power of q's mantissa
    xr, xi, ex = X
    (qr,), (qi,), eq, _ = _gauss([q])
    top = min(0, (len(xr) - 1) * eq)  # x_k q^k sits at exponent ex + k eq
    re, im, pr, pi = [], [], 1, 0
    for k, (a, b) in enumerate(zip(xr, xi)):
        d = k * eq - top
        re.append((a * pr - b * pi) << d)
        im.append((a * pi + b * pr) << d)
        pr, pi = pr * qr - pi * qi, pr * qi + pi * qr
    return re, im, ex + top


def _xmax(X):
    # max_k |X_k| from the exact squared magnitudes, one correctly rounded sqrt
    re, im, e = X
    if not re:
        return mp.mpf(0)
    top = max(map(add, map(mul, re, re), map(mul, im, im)))
    prec, rnd = mp.mp._prec_rounding
    return _make_mpf(mpf_sqrt(from_man_exp(top, 2 * e), prec, rnd))


def _rounded(X):
    # the coefficients of an exact polynomial, each part rounded once
    re, im, e = X
    return [_make_mpc((_round(a, e), _round(b, e))) for a, b in zip(re, im)]


def pmul(p, r):
    """p * r by exact convolution, each coefficient rounded once."""
    if not p or not r:
        return []
    return _rounded(_xmul(_exact(p), _exact(r)))


def pq(p, q):
    """Substitute z -> q z: x_k q^k exactly, each coefficient rounded once."""
    return _rounded(_xpq(_exact(p), q))


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
    return _xmax(_exact(p))


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


def mat_qdiff_residual(V, q, A, x, y):
    """Worst row of the coefficient residual of V(z) X(qz) = A(z) X(z).

    X = (x, y) is a column of polynomials and A = [e11, e12, e21, e22]; row
    i reads max_k |(V X_i(qz) - A_i1 x - A_i2 y)_k| / (1 + max_k |(V X_i(qz))_k|).
    Every polynomial is formed exactly from the inputs, each converted
    once (x_k q^k with q^k an exact power of q's mantissa), and each
    maximum is rounded once.
    """
    V, x, y = _exact(V), _exact(x), _exact(y)
    e11, e12, e21, e22 = [_exact(e) for e in A]
    worst = 0
    for xi, a, b in ((x, e11, e12), (y, e21, e22)):
        lhs = _xmul(V, _xpq(xi, q))
        rhs = _xadd(_xmul(a, x), _xmul(b, y))
        worst = max(worst, _xmax(_xadd(lhs, rhs, -1)) / (1 + _xmax(lhs)))
    return worst


def json_complex(z):
    """[re, im] as Python floats."""
    return [float(z.real), float(z.imag)]


def lstsq(rows, rhs):
    """Least-squares solution x of rows x = rhs by its normal equations.

    `rows` holds the m >= k rows of an m x k matrix A, `rhs` its m
    right-hand sides.  A^H A and A^H rhs are exact `dot` sums, each rounded
    once, solved by `hpd_solve`: its pivot test d_j <= eps (A^H A)_jj is
    |r_jj|^2 <= eps |a_j|^2 in a QR of A, so a column numerically dependent
    on the ones before it raises ZeroDivisionError.
    """
    cols = [_gauss([r[j] for r in rows]) for j in range(len(rows[0]))]
    b = _gauss(rhs)
    M = [[_gdot(cj, ci, True) for cj in cols[:i + 1]] for i, ci in enumerate(cols)]
    return hpd_solve(M, [_gdot(b, ci, True) for ci in cols])


def _fms(b, xs, ys, conjugate=False):
    """b - sum_k xs_k ys_k, or b - sum_k xs_k conj(ys_k), for GaussFloats:
    exact, then one cut to b's precision."""
    es = [x.e + y.e for x, y in zip(xs, ys)]
    e = min(es + [b.e])
    re, im = b.re << (b.e - e), b.im << (b.e - e)
    for x, y, f in zip(xs, ys, es):
        yi = -y.im if conjugate else y.im
        re -= (x.re * y.re - x.im * yi) << (f - e)
        im -= (x.re * yi + x.im * y.re) << (f - e)
    return _cut(re, im, e, b.p)


class LDLFactor:
    """M = L D L^H for Hermitian positive definite M, grown one bordered row at a time.

    `grow` takes row i of M's lower triangle, M_i0 .. M_ii as GaussFloats
    from `entries`, and appends row i of the unit lower triangular L (its
    entries L_i0 .. L_i(i-1) in `L[i]`) and the real pivot d_i to `d`.  The
    rows before i are the factor of M's leading i x i block, so the factor
    of a growing matrix is extended, never recomputed: row i costs O(i^2),
    and n rows O(n^3) in all.  Bordering solves conj(L) u = row by forward
    substitution, so u_j = L_ij d_j, and d_i = M_ii - sum_j u_j conj(L_ij);
    each entry is an exact sum cut once (`_fms`).  A pivot d_i not above
    eps Re M_ii, with eps read at the working precision and compared
    exactly, is not positive at that precision and raises ZeroDivisionError;
    the factor keeps the rows it has.
    """

    __slots__ = ("L", "d")

    def __init__(self):
        self.L, self.d = [], []

    @staticmethod
    def entries(xs):
        """xs as exact GaussFloats whose operations keep prec + 2 GUARD_BITS bits.

        The Toeplitz oracle's alpha_n is a cancellation of moments up to
        2^51 times larger in perfbench's `weights` requests; the second
        GUARD_BITS keep its error under that of an elimination on mpc
        rounding each part to nearest at prec + GUARD_BITS.
        """
        return gauss_floats(xs, mp.mp.prec + 2 * GUARD_BITS)

    def grow(self, row):
        u = []
        for j, Lj in enumerate(self.L):
            u.append(_fms(row[j], u, Lj, True))
        Li = [x / dj for x, dj in zip(u, self.d)]
        di = _fms(row[-1], u, Li, True)
        # d_i <= eps Re M_ii with eps = 2^(1 - prec), on exact integers
        m, f = row[-1].re, row[-1].e + 1 - mp.mp.prec
        e = min(di.e, f)
        if di.re << (di.e - e) <= m << (f - e):
            raise ZeroDivisionError(f"LDL^H pivot {len(self.d)} is not positive")
        self.L.append(Li)
        self.d.append(GaussFloat(di.re, 0, di.e, di.p))

    def back(self, w):
        """x with L^H x = w, for the leading len(w) x len(w) block of L."""
        n = len(w)
        x = [None] * n
        for i in range(n - 1, -1, -1):
            x[i] = _fms(w[i], x[i + 1:], [self.L[k][i] for k in range(i + 1, n)], True)
        return x


def hpd_solve(M, rhs):
    """Solve M x = rhs for Hermitian positive definite M by LDL^H.

    Reads the lower triangle of M (a list of rows) and the real part of its
    diagonal, converts each entry once (`LDLFactor.entries`) and grows an
    `LDLFactor` over the rows: an indefinite or singular M raises
    ZeroDivisionError.  Then L z = rhs and L^H x = D^-1 z, each entry an
    exact sum cut once; x is rounded once at the working precision.
    """
    F = LDLFactor()
    for i, row in enumerate(M):
        F.grow(F.entries(row[:i + 1]))
    z = []
    for b, Li in zip(F.entries(rhs), F.L):
        z.append(_fms(b, z, Li))
    return [x.mpc() for x in F.back([zi / di for zi, di in zip(z, F.d)])]
