"""Spectral matrices for the q-difference equation of the orthogonal family.

The column vector (phi_n, phi*_n) is carried from z to qz by a 2x2
polynomial matrix: with V, W the weight polynomials,

    V(z) phi_n(qz)  = P(z) phi_n(z)  + Q(z)  phi*_n(z),   deg P <= 2, deg Q <= 1,
    V(z) phi*_n(qz) = Ps(z) phi*_n(z) + Qs(z) phi_n(z),   Qs = z * (linear),

and the same matrix moves the second-kind column with a sign twist,

    -W(z) eps_n(qz)  = P(z) eps_n(z)  - Q(z)  eps*_n(z),
    -W(z) eps*_n(qz) = Ps(z) eps*_n(z) - Qs(z) eps_n(z).

Every coefficient of A_n is fixed by alpha_n, alpha_{n+1}, the weight and
s_n, the z^{n-1} coefficient of phi_n (Simon, OPUC vol. 1, sec. 1.5).
Writing Q = -alpha_{n+1} Theta_n and Qs = -z conj(alpha_{n+1}) Theta*_n,

    Theta_n  = (a - b q^{n+1}) z + (conj(b) q^n - conj(a)) alpha_n / alpha_{n+1},
    Theta*_n = (a q - b q^{n+1}) (conj(alpha_n)/conj(alpha_{n+1})) z
               + (conj(b) q^{n+1} - conj(a)),

and, with V_1, Q_1, Qs_1 the z^1 coefficients of V, Q, Qs,

    P  = conj(b) q^n + (V_1 q^n + b q^n (1 - q) s_n - Q_1 conj(alpha_n)) z
         + b q^{n+1} z^2,
    Ps = conj(a) + (V_1 + (q - 1) conj(a) conj(s_n) - Qs_1 alpha_n) z + a q z^2.

`fit_spectral_matrix` builds A_n from these forms on `polys.GaussFloat`
and certifies it on every call by the coefficient residual of both phi
rows, formed exactly (`polys.mat_qdiff_residual`).  The least-squares
fit of the five unknown coefficients of each row (`lstsq_spectral_matrix`)
is kept as their independent oracle for the checks and tests: `polys.lstsq`
forms its normal equations exactly and solves them with `hpd_solve`.  Its
n = 1 system is rank-deficient on coefficients alone and is augmented
with the Taylor coefficients of z^1..z^{n+2} of the eps identities, where
eps_n = psi_n + F phi_n with F = 1 + 2 sum_{k>=1} c_k z^k truncated at
degree n + 2: those coefficients need only c_1..c_{n+2}, which every
table with K >= N + 1 holds.  The pointwise eps identities
(`epsilon_column_residuals`) check either route independently.

A_n = [[P, Q], [Qs, Ps]] together with

    B_n = [[z, alpha_{n+1}], [conj(alpha_{n+1}) z, 1]]

satisfies the compatibility identity A_{n+1}(z) B_n(z) = B_n(qz) A_n(z),
and det A_n is the fixed multiple -q^n of V(z) W(z).  Both are checked
coefficientwise on `polys.ExactPoly`, each side formed exactly from the
rounded A_n and only the worst coefficient rounded: `check_fundamental`
for the first and `det_residual`, |det A_n + q^n V W| / (q^n max|V W|),
for the second.

Theta_n and Theta*_n need alpha_{n+1} != 0.  For small |a| the alpha_n
decay like |a|^n yet keep most of their bits, so they are refused only
when alpha_{n+1} is zero at working precision
(`VerblunskyTable.alpha_nonzero`).
"""

from dataclasses import dataclass

import mpmath as mp

from .errors import DegreeError, FitError
from .opuc import epsilon_eval, epsilon_star_eval
from .polys import (ExactPoly, gauss_floats, json_complex, lstsq, mat_qdiff_residual, peval,
                    residual_tol)
from .qseries import vw_polys

__all__ = [
    "SpectralFit", "fit_spectral_matrix", "lstsq_spectral_matrix",
    "build_B", "check_fundamental", "det_residual",
    "epsilon_column_residuals",
]

@dataclass(frozen=True)
class SpectralFit:
    """A_n with its linear factors Theta_n, Theta*_n and phi-row residual."""

    n: int
    e11: tuple
    e12: tuple
    e21: tuple
    e22: tuple
    theta: tuple
    theta_star: tuple
    residual: mp.mpf

    @property
    def matrix(self):
        return [list(self.e11), list(self.e12), list(self.e21), list(self.e22)]

    def to_json_dict(self):
        def poly(p):
            return [json_complex(x) for x in p]
        return {"n": self.n, "e11": poly(self.e11), "e12": poly(self.e12),
                "e21": poly(self.e21), "e22": poly(self.e22),
                "theta": poly(self.theta), "theta_star": poly(self.theta_star),
                "residual": float(self.residual)}


def _mpcs(xs):
    return [x.mpc() for x in xs]


def _check_order(vt, n):
    if n < 1 or n + 1 > vt.N:
        raise DegreeError(f"fit needs 1 <= n <= {vt.N - 1}, got {n}")
    return vt.alpha_nonzero(n + 1)


def _certify(p, V, vt, n, P, Q, Ps, Qs, theta, theta_star):
    """SpectralFit of A_n = [[P, Q], [Qs, Ps]] after the coefficient residual
    of both phi rows; FitError unless it is <= `residual_tol()`."""
    tol = residual_tol()
    resid = mat_qdiff_residual(V, p.q, [P, Q, Qs, Ps], vt.phi[n], vt.phi_star(n))
    if not resid <= tol:
        raise FitError(f"A_{n} fit residual {mp.nstr(resid, 5)} exceeds {mp.nstr(tol, 5)}")
    return SpectralFit(n=n, e11=tuple(P), e12=tuple(Q), e21=tuple(Qs),
                       e22=tuple(Ps), theta=tuple(theta),
                       theta_star=tuple(theta_star), residual=resid)


def fit_spectral_matrix(p, vt, n):
    """A_n in closed form from alpha_n, alpha_{n+1}, phi_n and the weight.

    The coefficients are formed on GaussFloat from the converted inputs
    and rounded once each.  Returns a SpectralFit; raises FitError if
    either phi row misses its identity by more than `residual_tol()`
    relative to the coefficient scale.  That residual certifies the closed
    form on every call.
    """
    a1 = _check_order(vt, n)
    V = vw_polys(p)[0]
    a, b, q, an, a1 = gauss_floats([p.a, p.b, p.q, vt.alpha[n], a1])
    qn = q ** n
    bq1 = b * qn * q
    r = an / a1
    theta = [(b.conj() * qn - a.conj()) * r, a - bq1]
    theta_star = [bq1.conj() - a.conj(), (a * q - bq1) * r.conj()]
    s, V1, one = gauss_floats([vt.phi[n][n - 1], V[1], 1])
    Q = [-a1 * x for x in theta]
    Qs = [-a1.conj() * x for x in theta_star]  # Qs / z
    P = [b.conj() * qn, V1 * qn + b * qn * (one - q) * s - Q[1] * an.conj(), b * qn * q]
    Ps = [a.conj(), V1 + (q - one) * a.conj() * s.conj() - Qs[0] * an, a * q]
    return _certify(p, V, vt, n, _mpcs(P), _mpcs(Q), _mpcs(Ps), [mp.mpc(0)] + _mpcs(Qs),
                    _mpcs(theta), _mpcs(theta_star))


def _coeff_rows(target, lhs, first, second, first_degs, second_degs):
    """Coefficient-matching rows: lhs_i = sum over shifted copies of the bases."""
    rows, rhs = [], []
    for i in range(target + 1):
        row = []
        for k in first_degs:
            row.append(first[i - k] if 0 <= i - k < len(first) else mp.mpc(0))
        for k in second_degs:
            row.append(second[i - k] if 0 <= i - k < len(second) else mp.mpc(0))
        rows.append(row)
        rhs.append(lhs[i] if i < len(lhs) else mp.mpc(0))
    return rows, rhs


def _eps_taylor(vt, n, D):
    """Taylor coefficients of z^0..z^D of eps_n and eps*_n at the origin."""
    X = ExactPoly.of
    F = X([1] + [2 * vt.moments.cmom(k) for k in range(1, D + 1)])
    eps = X(vt.psi[n]) + F * X(vt.phi[n])
    eps_star = X(vt.psi_star(n)) - F * X(vt.phi_star(n))
    return eps[:D + 1].rounded(), eps_star[:D + 1].rounded()


def lstsq_spectral_matrix(p, vt, n):
    """Least-squares fit of A_n from the phi-row identities: the oracle of
    `fit_spectral_matrix`, for the checks and tests.

    Returns a SpectralFit under the default residual gate, `residual_tol()`.
    """
    a1 = _check_order(vt, n)
    V, W = vw_polys(p)
    q = p.q
    ph = list(vt.phi[n])
    st = vt.phi_star(n)

    # first row: V(z) phi(qz) = P phi + Q phi*
    X = ExactPoly.of
    rows1, rhs1 = _coeff_rows(n + 2, (X(V) * X(ph).at_q(q)).rounded(), ph, st,
                              range(3), range(2))
    # second row: V(z) phi*(qz) = Ps phi* + Qs phi, Qs = z*(linear)
    rows2, rhs2 = _coeff_rows(n + 2, (X(V) * X(st).at_q(q)).rounded(), st, ph,
                              range(3), range(1, 3))

    if n < 2:
        # coefficients alone are rank-deficient: add z^1..z^D of
        # -W eps(qz) = P eps - Q eps*  and  -W eps*(qz) = Ps eps* - Qs eps,
        # exact through degree D = n + 2 with F truncated there
        D = n + 2
        e, es = _eps_taylor(vt, n, D)
        mW = X([-x for x in W])
        for rows, rhs, first, second, lhs, degs in (
                (rows1, rhs1, e, es, (mW * X(e).at_q(q)).rounded(), range(2)),
                (rows2, rhs2, es, e, (mW * X(es).at_q(q)).rounded(), range(1, 3))):
            extra, extra_rhs = _coeff_rows(D, lhs, first, [-x for x in second],
                                           range(3), degs)
            rows += extra[1:]
            rhs += extra_rhs[1:]

    sol1 = lstsq(rows1, rhs1)
    sol2 = lstsq(rows2, rhs2)
    Q = sol1[3:]
    Qs = [mp.mpc(0)] + sol2[3:]
    return _certify(p, V, vt, n, sol1[:3], Q, sol2[:3], Qs,
                    [-1 / a1 * x for x in Q], [-1 / mp.conj(a1) * x for x in Qs[1:]])


def build_B(vt, n):
    """B_n carrying (phi_n, phi*_n) to order n + 1."""
    a = vt.alpha[n + 1]
    return [[mp.mpc(0), mp.mpc(1)], [a], [mp.mpc(0), mp.conj(a)], [mp.mpc(1)]]


def check_fundamental(fit_n, fit_next, Bn, q):
    """Relative coefficient residual of A_{n+1}(z) B_n(z) = B_n(qz) A_n(z).

    Both sides are formed exactly (`polys.ExactPoly`); the worst
    coefficient of their difference is taken relative to the worst
    coefficient of either side.
    """
    def times(X, Y):
        return [X[0] * Y[0] + X[1] * Y[2], X[0] * Y[1] + X[1] * Y[3],
                X[2] * Y[0] + X[3] * Y[2], X[2] * Y[1] + X[3] * Y[3]]

    B = [ExactPoly.of(e) for e in Bn]
    L = times([ExactPoly.of(e) for e in fit_next.matrix], B)
    R = times([e.at_q(q) for e in B], [ExactPoly.of(e) for e in fit_n.matrix])
    diff = max((x - y).max() for x, y in zip(L, R))
    return diff / max(x.max() for x in L + R)


def det_residual(fit, p):
    """|det A_n + q^n V W| / (q^n max|V W|), coefficientwise.

    det A_n = P Ps - Q Qs and q^n V W are formed exactly
    (`polys.ExactPoly`), so the residual vanishes exactly when det A_n is
    -q^n V W; no coefficient is divided by another, so a small coefficient
    of V W needs no cut-off.
    """
    P, Q, Qs, Ps = map(ExactPoly.of, fit.matrix)
    V, W = map(ExactPoly.of, vw_polys(p))
    qnVW = ExactPoly.of([p.q]) ** fit.n * V * W
    return (P * Ps - Q * Qs + qnVW).max() / qnVW.max()


def epsilon_column_residuals(p, vt, fit, zs=None):
    """Pointwise residuals of the eps-column identities for an A_n."""
    if zs is None:
        zs = [mp.mpf("0.28") * mp.e ** (2j * mp.pi * k / 5 + 0.3j) for k in range(5)]
    V, W = vw_polys(p)
    n, q = fit.n, p.q
    worst = mp.mpf(0)
    for z in zs:
        e = epsilon_eval(vt, n, z)
        es = epsilon_star_eval(vt, n, z)
        wz = peval(W, z)
        lhs1 = -wz * epsilon_eval(vt, n, q * z)
        rhs1 = peval(fit.matrix[0], z) * e - peval(fit.matrix[1], z) * es
        lhs2 = -wz * epsilon_star_eval(vt, n, q * z)
        rhs2 = peval(fit.matrix[3], z) * es - peval(fit.matrix[2], z) * e
        worst = max(worst,
                    abs(lhs1 - rhs1) / max(abs(lhs1), abs(rhs1)),
                    abs(lhs2 - rhs2) / max(abs(lhs2), abs(rhs2)))
    return worst

