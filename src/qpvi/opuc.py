"""Monic orthogonal polynomials on the unit circle and their recursion data.

Given normalized moments c_k, the monic orthogonal polynomials phi_n and
the second-kind family psi_n satisfy the coupled recursions

    phi_{n+1} = z phi_n + alpha_{n+1} phi*_n,
    psi_{n+1} = z psi_n - alpha_{n+1} psi*_n,
    alpha_{n+1} = -<z phi_n, 1> / sigma_n,
    sigma_{n+1} = (1 - |alpha_{n+1}|^2) sigma_n,       sigma_0 = 1,

where p* is the conjugate reversal of degree n and <., .> is the moment
bilinear form <z^j, z^k> = c_{k-j}.  The table stores alpha_0 := 1 at
index 0 so that alpha_n for n >= 1 are the recursion coefficients.

The combination eps_n = psi_n + F phi_n (and eps*_n = psi*_n - F phi*_n)
with the Caratheodory function F decays like 2 sigma_n z^n at the origin
and stays bounded at infinity; these are the second solution column used
by the spectral matrices in `laxpair`.
"""

from dataclasses import dataclass

import mpmath as mp

from .errors import DegenerateError, DomainError, SingularMeasureError
from .polys import (ExactPoly, LDLFactor, _fms, below, dot, gauss_floats, json_complex, peval,
                    pstar, rounding_key, zero_bits)
# caratheodory_quad stays bound here as the quadrature oracle of F;
# perfbench/selftest.py wraps this binding
from .qseries import caratheodory, caratheodory_quad  # noqa: F401

__all__ = [
    "VerblunskyTable", "inner_poly", "verblunsky_from_moments",
    "verblunsky_toeplitz", "orthogonality_residual", "wronskian_residuals",
    "epsilon_eval", "epsilon_star_eval",
]


def inner_poly(table, p, r):
    """<p, r> = sum_{j,k} p_j conj(r_k) c_{k-j} in the moment bilinear form.

    The sum over j for each k, then the sum over k, are exact `dot`s rounded
    once each; for r = [1], as in the recursion, that is one rounding.
    """
    if max(len(p), len(r)) - 1 > table.K:
        raise DomainError("moment table too short for this inner product")
    inner = [dot(p, [table.cmom(k - j) for j in range(len(p))]) for k in range(len(r))]
    return dot(inner, r, conjugate=True)


@dataclass(frozen=True)
class VerblunskyTable:
    """Verblunsky coefficients alpha_0..alpha_N with norms and polynomials."""

    moments: "MomentTable"
    alpha: tuple
    sigma: tuple
    phi: tuple
    psi: tuple

    @property
    def N(self):
        return len(self.alpha) - 1

    def phi_star(self, n):
        return pstar(list(self.phi[n]), n)

    def psi_star(self, n):
        return pstar(list(self.psi[n]), n)

    def alpha_nonzero(self, n):
        """alpha_n, or DegenerateError when it is zero at working precision.

        Every |alpha_n| < 1 is known to about an ulp of 1, so a small
        alpha_n keeps the bits it has above eps (for |a| ~ 1e-4 the
        alpha_n decay like |a|^n yet alpha_11 ~ 1e-29 keeps over 90 bits);
        only |alpha_n| <= eps carries none.
        """
        if abs(self.alpha[n]) <= mp.eps:
            raise DegenerateError(f"alpha_{n} is zero at working precision")
        return self.alpha[n]

    def to_json_dict(self):
        return {
            "N": self.N,
            "alpha": [json_complex(x) for x in self.alpha],
            "sigma": [float(s) for s in self.sigma],
            "phi": [[json_complex(x) for x in p] for p in self.phi],
        }

    def to_csv_lines(self):
        yield "n,re_alpha,im_alpha,sigma"
        for n in range(self.N + 1):
            yield (f"{n},{float(self.alpha[n].real)!r},"
                   f"{float(self.alpha[n].imag)!r},{float(self.sigma[n])!r}")


def verblunsky_from_moments(table, N):
    """Run the Szego recursion to order N from a moment table.

    phi_n, psi_n, alpha_n and sigma_n are carried on `polys.GaussFloat`
    and rounded once each into the table; <z phi_n, 1> = sum_k phi_n,k
    c_-(k+1) is an exact sum against the moments, converted once, cut
    once.  The floor cut is not odd, so the sum is cut as itself, 0 minus
    its terms over the negated moments, and then negated.
    """
    if N < 0 or table.K < N + 1:
        raise DomainError(f"need K >= N + 1 moments, got K = {table.K}, N = {N}")
    floor = (1, -2 * zero_bits())  # 1 - |alpha|^2 must stay above the zero level
    ncs = [-x for x in gauss_floats([table.cmom(-j) for j in range(1, N + 1)])]
    one, zero = gauss_floats([1, 0])
    phi, psi, alpha, sigma = [[one]], [[one]], [one], [one]
    for n in range(N):
        a = -_fms(zero, phi[n], ncs[:n + 1]) / sigma[n]
        gap = one - a * a.conj()
        if gap.re <= 0 or not below(floor, gap.norm()):
            raise SingularMeasureError(
                f"|alpha_{n + 1}| reached 1; measure is numerically singular")
        alpha.append(a)
        sigma.append(gap * sigma[n])
        # p_{n+1} = z p_n + s a p*_n: the top coefficient is z p_n's alone
        for p, s in ((phi, a), (psi, -a)):
            zp = [zero] + p[n]
            p.append([x + s * y.conj() for x, y in zip(zp, reversed(p[n]))] + [zp[-1]])
    return VerblunskyTable(moments=table,
                           alpha=tuple(x.mpc() for x in alpha),
                           sigma=tuple(x.mpc().real for x in sigma),
                           phi=tuple(tuple(x.mpc() for x in p) for p in phi),
                           psi=tuple(tuple(x.mpc() for x in p) for p in psi))


def verblunsky_toeplitz(table, n):
    """alpha_n from the Toeplitz normal equations (independent of the recursion).

    Solves c_{k-n} + sum_{j<n} y_j c_{k-j} = 0, k = 0..n-1, for the monic
    least-squares polynomial and reads alpha_n = phi_n(0) = y_0.  The
    matrix T_n = (c_{k-j}) is Hermitian positive definite for a positive
    measure and is solved by dense LDL^H elimination on its entries
    (`polys.LDLFactor`), never by Levinson or Szego, so this route stays
    independent of the recursion.  Its D is sigma_0..sigma_{n-1} (Simon,
    OPUC vol. 1, 1.5).

    T_n is the leading block of T_{n+1}, so the table keeps one factor per
    working precision and rounding mode and grows it to row n: a sweep
    over orders 1..N costs O(N^3) in all.  Row n of L is conj(D^-1 L^-1
    rhs), so y = L^-H conj(L_n) is one back substitution.  Order n grows
    the factor of T_{n+1}, and a pivot that is not positive at working
    precision raises SingularMeasureError.
    """
    if n < 1:
        raise DomainError("Toeplitz route needs n >= 1")
    if table.K < n:
        raise DomainError(f"need K >= {n} moments")
    key = rounding_key()
    if key not in table._toeplitz:
        table._toeplitz.clear()
        table._toeplitz[key] = (LDLFactor.entries(table.c), LDLFactor())
    c, F = table._toeplitz[key]
    try:
        for i in range(len(F.d), n + 1):
            F.grow([c[table.K + i - j] for j in range(i + 1)])
    except ZeroDivisionError as exc:
        raise SingularMeasureError("Toeplitz system is not positive definite") from exc
    return -F.back([x.conj() for x in F.L[n]])[0].mpc()


def orthogonality_residual(vt, upto=None):
    """max |<phi_m, phi_n> - delta_{mn} sigma_n| over m <= n <= upto."""
    upto = vt.N if upto is None else upto
    table = vt.moments
    worst = mp.mpf(0)
    for n in range(upto + 1):
        for m in range(n + 1):
            val = inner_poly(table, list(vt.phi[m]), list(vt.phi[n]))
            if m == n:
                val -= vt.sigma[n]
            worst = max(worst, abs(val))
    return worst


def wronskian_residuals(vt, n):
    """Coefficientwise residuals of the three bilinear identities at order n.

    phi_{n+1} psi_n - psi_{n+1} phi_n           = 2 alpha_{n+1} sigma_n z^n
    phi*_{n+1} psi*_n - psi*_{n+1} phi*_n       = 2 conj(alpha_{n+1}) sigma_n z^{n+1}
    phi_n psi*_n + psi_n phi*_n                 = 2 sigma_n z^n

    Each side is formed exactly (`polys.ExactPoly`) and each worst
    coefficient rounded once.
    """
    if n + 1 > vt.N:
        raise DomainError(f"table holds orders up to {vt.N}")
    X = ExactPoly.of
    ph, ps, ph1, ps1 = X(vt.phi[n]), X(vt.psi[n]), X(vt.phi[n + 1]), X(vt.psi[n + 1])
    phs, pss = X(vt.phi_star(n)), X(vt.psi_star(n))
    phs1, pss1 = X(pstar(vt.phi[n + 1], n + 1)), X(pstar(vt.psi[n + 1], n + 1))
    a, two_s = vt.alpha[n + 1], X([0] * n + [2 * vt.sigma[n]])  # 2 sigma_n z^n

    r1 = ph1 * ps - ps1 * ph - X([a]) * two_s
    r2 = phs1 * pss - pss1 * phs - X([0, mp.conj(a)]) * two_s
    r3 = ph * pss + ps * phs - two_s
    return r1.max(), r2.max(), r3.max()


def epsilon_eval(vt, n, z):
    """eps_n(z) = psi_n(z) + F(z) phi_n(z) for |z| != 1.

    F comes from the Szego coefficients of vt's moment table.
    """
    F = caratheodory(vt.moments, z)
    return peval(vt.psi[n], z) + F * peval(vt.phi[n], z)


def epsilon_star_eval(vt, n, z):
    """eps*_n(z) = psi*_n(z) - F(z) phi*_n(z), F as in `epsilon_eval`."""
    F = caratheodory(vt.moments, z)
    return peval(vt.psi_star(n), z) - F * peval(vt.phi_star(n), z)
