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

from .errors import DomainError, SingularMeasureError
from .polys import padd, peval, pmax, pmul, pmulz, pscale, pstar
# caratheodory_quad stays bound here as the quadrature oracle of F;
# perfbench/selftest.py wraps this binding
from .qseries import caratheodory, caratheodory_quad  # noqa: F401

__all__ = [
    "star", "VerblunskyTable", "inner_poly", "verblunsky_from_moments",
    "verblunsky_toeplitz", "orthogonality_residual", "wronskian_residuals",
    "epsilon_eval", "epsilon_star_eval", "epsilon_asymptotics",
]

star = pstar


def inner_poly(table, p, r):
    """<p, r> = sum_{j,k} p_j conj(r_k) c_{k-j} in the moment bilinear form."""
    if max(len(p), len(r)) - 1 > table.K:
        raise DomainError("moment table too short for this inner product")
    return mp.fsum(p[j] * mp.conj(r[k]) * table.cmom(k - j)
                   for j in range(len(p)) for k in range(len(r)))


@dataclass(frozen=True)
class VerblunskyTable:
    """Verblunsky coefficients alpha_0..alpha_N with norms and polynomials."""

    moments: "MomentTable"
    N: int
    alpha: tuple
    sigma: tuple
    phi: tuple
    psi: tuple

    @property
    def params(self):
        return self.moments.params

    def phi_star(self, n):
        return pstar(list(self.phi[n]), n)

    def psi_star(self, n):
        return pstar(list(self.psi[n]), n)

    def to_json_dict(self):
        return {
            "N": self.N,
            "alpha": [[float(x.real), float(x.imag)] for x in self.alpha],
            "sigma": [float(s) for s in self.sigma],
            "phi": [[[float(x.real), float(x.imag)] for x in p] for p in self.phi],
        }

    def to_csv_lines(self):
        yield "n,re_alpha,im_alpha,sigma"
        for n in range(self.N + 1):
            yield (f"{n},{float(self.alpha[n].real)!r},"
                   f"{float(self.alpha[n].imag)!r},{float(self.sigma[n])!r}")


def verblunsky_from_moments(table, N):
    """Run the Szego recursion to order N from a moment table."""
    if N < 0 or table.K < N + 1:
        raise DomainError(f"need K >= N + 1 moments, got K = {table.K}, N = {N}")
    phi = [[mp.mpc(1)]]
    psi = [[mp.mpc(1)]]
    alpha = [mp.mpc(1)]
    sigma = [mp.mpf(1)]
    for n in range(N):
        zphi = pmulz(phi[n])
        a_next = -inner_poly(table, zphi, [mp.mpc(1)]) / sigma[n]
        gap = 1 - abs(a_next) ** 2
        if gap <= mp.mpf(2) ** (-(mp.mp.prec // 2)):
            raise SingularMeasureError(
                f"|alpha_{n + 1}| reached 1; measure is numerically singular")
        alpha.append(a_next)
        sigma.append(gap * sigma[n])
        phi.append(padd(zphi, pscale(pstar(phi[n], n), a_next)))
        psi.append(padd(pmulz(psi[n]), pscale(pstar(psi[n], n), -a_next)))
    return VerblunskyTable(moments=table, N=N,
                           alpha=tuple(alpha), sigma=tuple(sigma),
                           phi=tuple(tuple(p) for p in phi),
                           psi=tuple(tuple(p) for p in psi))


def verblunsky_toeplitz(table, n):
    """alpha_n from the Toeplitz normal equations (independent of the recursion).

    Solves c_{k-n} + sum_{j<n} y_j c_{k-j} = 0, k = 0..n-1, for the monic
    least-squares polynomial and reads alpha_n = phi_n(0) = y_0.
    """
    if n < 1:
        raise DomainError("Toeplitz route needs n >= 1")
    if table.K < n:
        raise DomainError(f"need K >= {n} moments")
    M = mp.matrix(n, n)
    rhs = mp.matrix(n, 1)
    for k in range(n):
        for j in range(n):
            M[k, j] = table.cmom(k - j)
        rhs[k] = table.cmom(k - n)
    try:
        y = mp.lu_solve(M, rhs)
    except ZeroDivisionError as exc:
        raise SingularMeasureError("Toeplitz system is singular") from exc
    return -y[0]


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
    """
    if n + 1 > vt.N:
        raise DomainError(f"table holds orders up to {vt.N}")
    ph, ps = list(vt.phi[n]), list(vt.psi[n])
    ph1, ps1 = list(vt.phi[n + 1]), list(vt.psi[n + 1])
    phs, pss = vt.phi_star(n), vt.psi_star(n)
    phs1, pss1 = pstar(ph1, n + 1), pstar(ps1, n + 1)
    a, s = vt.alpha[n + 1], vt.sigma[n]

    r1 = padd(pmul(ph1, ps), pmul(ps1, ph), -1)
    r1[n] -= 2 * a * s
    r2 = padd(pmul(phs1, pss), pmul(pss1, phs), -1)
    r2[n + 1] -= 2 * mp.conj(a) * s
    r3 = padd(pmul(ph, pss), pmul(ps, phs))
    r3[n] -= 2 * s
    return pmax(r1), pmax(r2), pmax(r3)


def epsilon_eval(p, vt, n, z):
    """eps_n(z) = psi_n(z) + F(z) phi_n(z) for |z| != 1.

    F comes from the Szego coefficients of vt's moment table, so `p` must
    be the weight of that table.
    """
    F = caratheodory(vt.moments, z)
    return peval(list(vt.psi[n]), z) + F * peval(list(vt.phi[n]), z)


def epsilon_star_eval(p, vt, n, z):
    """eps*_n(z) = psi*_n(z) - F(z) phi*_n(z), F as in `epsilon_eval`."""
    F = caratheodory(vt.moments, z)
    return peval(vt.psi_star(n), z) - F * peval(vt.phi_star(n), z)


def epsilon_asymptotics(p, vt, n, small=None, large=None):
    """Relative deviations from the four boundary behaviours of eps, eps*.

    eps_n ~ 2 sigma_n z^n and eps*_n ~ 2 conj(alpha_{n+1}) sigma_n z^{n+1}
    as z -> 0; z eps_n -> 2 sigma_n alpha_{n+1} and eps*_n -> 2 sigma_n as
    z -> inf.  Deviations are O(|z|) resp. O(1/|z|), so the sample radii
    bound the expected size.
    """
    small = mp.mpf("1e-4") if small is None else small
    large = mp.mpf("1e4") if large is None else large
    s, a1 = vt.sigma[n], vt.alpha[n + 1]
    z0 = mp.mpc(small)
    zi = mp.mpc(large)
    out = {
        "eps_origin": abs(epsilon_eval(p, vt, n, z0) / (2 * s * z0 ** n) - 1),
        "eps_infinity": abs(zi * epsilon_eval(p, vt, n, zi) / (2 * s * a1) - 1),
        "eps_star_origin": abs(
            epsilon_star_eval(p, vt, n, z0)
            / (2 * mp.conj(a1) * s * z0 ** (n + 1)) - 1),
        "eps_star_infinity": abs(epsilon_star_eval(p, vt, n, zi) / (2 * s) - 1),
    }
    return out
