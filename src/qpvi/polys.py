"""Dense univariate polynomials over mpmath complex numbers.

A polynomial is a plain list of ``mpc`` coefficients, lowest degree first;
the empty list is zero.  2x2 polynomial matrices are 4-lists of such
coefficient lists in row-major order ``[e11, e12, e21, e22]``.  Everything
here is allocation-light and precision-agnostic: callers set
``mp.mp.prec`` (or use ``mp.workprec``) around these routines.
`json_complex` is the one JSON form of a complex number, ``[re, im]``.

The two dense solvers work on plain lists too: `lstsq` (Householder QR,
for the overdetermined fits) and `hpd_solve` (LDL^H, for Hermitian
positive definite systems such as Toeplitz moment matrices).  Both carry
10 guard bits and form every inner product with `mp.fdot`, as mpmath's
own `qr_solve` does, and return values rounded to working precision.
"""

import mpmath as mp

from .errors import DegreeError

__all__ = [
    "padd", "pscale", "pmul", "pmulz", "pq", "peval", "pstar", "pmax",
    "pdeg", "ptrim", "mat_mul", "mat_det", "mat_q", "mat_max", "json_complex",
    "lstsq", "hpd_solve",
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
        norms = [mp.fdot(c, c, conjugate=True).real for c in cols]
        diag = []
        for j in range(k):
            v = cols[j][j:]
            s = mp.fdot(v, v, conjugate=True).real
            if not s > mp.eps * norms[j]:
                raise ZeroDivisionError(f"column {j} is numerically dependent")
            r, ajj = mp.sqrt(s), v[0]
            p = -r * ajj / abs(ajj) if ajj else -r
            # H = I - kappa v v^H maps the column to p e_j; with this p,
            # kappa = 1/(s - conj(p) a_jj) = 1/(s + r |a_jj|) is real
            kappa = 1 / (s + r * abs(ajj))
            v[0] = ajj - p
            for c in cols[j + 1:] + [b]:
                y = mp.fdot(c[j:], v, conjugate=True) * kappa
                for i in range(j, m):
                    c[i] -= v[i - j] * y
            diag.append(p)
        x = [mp.mpc(0)] * k
        for i in range(k - 1, -1, -1):
            ri = [cols[j][i] for j in range(i + 1, k)]
            x[i] = (b[i] - mp.fdot(ri, x[i + 1:])) / diag[i]
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
            w = [mp.conj(L[j][k]) * d[k] for k in range(j)]
            mjj = mp.re(M[j][j])
            dj = mjj - mp.re(mp.fdot(L[j], w))
            if not dj > tol * mjj:
                raise ZeroDivisionError(f"LDL^H pivot {j} is not positive")
            d.append(dj)
            for i in range(j + 1, n):
                L[i].append((M[i][j] - mp.fdot(L[i], w)) / dj)
        z = []
        for i in range(n):
            z.append(rhs[i] - mp.fdot(L[i], z))
        x = [mp.mpc(0)] * n
        for i in range(n - 1, -1, -1):
            x[i] = z[i] / d[i] - mp.fdot(x[i + 1:], [L[k][i] for k in range(i + 1, n)],
                                         conjugate=True)
    return [+xi for xi in x]
