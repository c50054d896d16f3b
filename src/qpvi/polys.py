"""Dense univariate polynomials over mpmath complex numbers.

A polynomial is a plain list of ``mpc`` coefficients, lowest degree first;
the empty list is zero.  2x2 polynomial matrices are 4-lists of such
coefficient lists in row-major order ``[e11, e12, e21, e22]``.  Everything
here is allocation-light and precision-agnostic: callers set
``mp.mp.prec`` (or use ``mp.workprec``) around these routines.
`json_complex` is the one JSON form of a complex number, ``[re, im]``.
"""

import mpmath as mp

from .errors import DegreeError

__all__ = [
    "padd", "pscale", "pmul", "pmulz", "pq", "peval", "pstar", "pmax",
    "pdeg", "ptrim", "mat_mul", "mat_det", "mat_q", "mat_max", "json_complex",
]


def padd(p, r, s=1):
    """p + s*r, aligned by degree."""
    n = max(len(p), len(r))
    return [(p[i] if i < len(p) else mp.mpc(0))
            + s * (r[i] if i < len(r) else mp.mpc(0)) for i in range(n)]


def pscale(p, s):
    return [s * x for x in p]


def pmul(p, r):
    if not p or not r:
        return []
    out = [mp.mpc(0)] * (len(p) + len(r) - 1)
    for i, pi in enumerate(p):
        for j, rj in enumerate(r):
            out[i + j] += pi * rj
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
    return max((abs(x) for x in p), default=mp.mpf(0))


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
