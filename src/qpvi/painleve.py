"""The discrete Painleve step induced by raising the polynomial order.

The fitted spectral matrix A_n, viewed up to diagonal conjugation, is
coordinatized by a point (y, xi) on a rational surface:

    y  = the root of the off-diagonal entry e12,
    xi = (y - c1)(y - c2) / e11(y) = e22(y) / (kappa1 kappa2 (y - c3)(y - c4)),

with parameters (kappa1, kappa2, theta1, theta2; c1..c4) subject to

    kappa1 kappa2 c1 c2 c3 c4 = theta1 theta2.

Raising n by one multiplies (kappa1, theta1) by q and moves (y, xi) by an
explicit birational involution-free map: y' = S/(yT) with S, T quadratics
in xi, and xi' a ratio of four linear forms in xi.  `phi_orbit` runs k
steps: the parameter-only coefficients of S, T and xi' are computed once
and advanced by a power of q per step, so an orbit neither re-derives nor
re-validates the parameters at every step; `phi_step` is the orbit of one
step.  Parameters are validated where they are built: `SurfaceParams`
checks the constraint, and `phi_orbit` returns its parameters through that
constructor, so every orbit is checked at both ends.  The same step is
realized on matrices by a polynomial gauge transform
A -> B(qz) A(z) adj(B(z)) / (z Delta) in `matrix_step`, so the three
routes (recompute at n+1, phi_step, matrix_step) must agree.

The map blows down exactly eight parameter-dependent points; steps landing
on them raise IndeterminacyError naming the nearest one.
"""

from dataclasses import dataclass

import mpmath as mp

from .errors import (ConsistencyError, ConstraintError, DegenerateError,
                     DomainError, GaugeError, IndeterminacyError,
                     SingularGaugeError)
from .polys import pdeg, peval, pmax, pscale, ptrim, mat_mul, mat_q

__all__ = [
    "SurfaceParams", "SurfaceCoords", "params_from_weight", "y_closed",
    "extract_coords", "phi_orbit", "phi_step", "matrix_step",
    "factorization_residuals", "blown_up_points",
]


def _tiny():
    return mp.mpf(2) ** (-(mp.mp.prec // 2))


@dataclass(frozen=True)
class SurfaceParams:
    """Surface parameters on the constraint variety."""

    k1: mp.mpc
    k2: mp.mpc
    t1: mp.mpc
    t2: mp.mpc
    c: tuple
    q: mp.mpc

    def __post_init__(self):
        object.__setattr__(self, "k1", mp.mpc(self.k1))
        object.__setattr__(self, "k2", mp.mpc(self.k2))
        object.__setattr__(self, "t1", mp.mpc(self.t1))
        object.__setattr__(self, "t2", mp.mpc(self.t2))
        object.__setattr__(self, "c", tuple(mp.mpc(x) for x in self.c))
        object.__setattr__(self, "q", mp.mpc(self.q))
        if self.q == 0:
            raise ConstraintError("q must be nonzero")
        if len(self.c) != 4:
            raise ConstraintError("need exactly four c parameters")
        res = self.constraint_residual()
        if res > _tiny():
            raise ConstraintError(
                f"kappa1 kappa2 c1 c2 c3 c4 = theta1 theta2 violated by {mp.nstr(res, 5)}")

    def constraint_residual(self):
        lhs = self.k1 * self.k2 * self.c[0] * self.c[1] * self.c[2] * self.c[3]
        rhs = self.t1 * self.t2
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs))

    def step(self):
        """Parameter flow of one Painleve step: (kappa1, theta1) -> q (kappa1, theta1)."""
        return SurfaceParams(k1=self.q * self.k1, k2=self.k2,
                             t1=self.q * self.t1, t2=self.t2,
                             c=self.c, q=self.q)

    def to_json_dict(self):
        def c2(z):
            return [float(z.real), float(z.imag)]
        return {"kappa1": c2(self.k1), "kappa2": c2(self.k2),
                "theta1": c2(self.t1), "theta2": c2(self.t2),
                "c": [c2(x) for x in self.c], "q": c2(self.q)}


@dataclass(frozen=True)
class SurfaceCoords:
    """A point (y, xi) on the surface."""

    y: mp.mpc
    xi: mp.mpc


def params_from_weight(p, n):
    """Surface parameters attached to the weight at order n.

    kappa1 = b q^{n+1}, kappa2 = a q, theta1 = conj(b) q^n, theta2 = conj(a),
    c = (conj(a)/q, conj(b)/q, 1/b, 1/a); the constraint then holds exactly.
    """
    if abs(p.a) < _tiny() or abs(p.b) < _tiny():
        raise DegenerateError("c parameters require a != 0 and b != 0")
    return SurfaceParams(
        k1=p.b * p.q ** (n + 1), k2=p.a * p.q,
        t1=mp.conj(p.b) * p.q ** n, t2=mp.conj(p.a),
        c=(mp.conj(p.a) / p.q, mp.conj(p.b) / p.q, 1 / p.b, 1 / p.a),
        q=p.q)


def y_closed(p, vt, n):
    """Closed form of y_n through the Verblunsky coefficients."""
    den = (p.a - p.b * p.q ** (n + 1)) * vt.alpha[n + 1]
    if abs(den) < _tiny():
        raise DegenerateError("y_n closed form degenerates")
    return (mp.conj(p.a) - mp.conj(p.b) * p.q ** n) * vt.alpha[n] / den


def blown_up_points(sp):
    """The eight blown-up points as (label, y, xi); mp.inf marks infinity."""
    c1, c2, c3, c4 = sp.c
    return [
        ("(y, xi) = (c1, 0)", c1, mp.mpc(0)),
        ("(y, xi) = (c2, 0)", c2, mp.mpc(0)),
        ("(y, xi) = (c3, inf)", c3, mp.inf),
        ("(y, xi) = (c4, inf)", c4, mp.inf),
        ("(y, xi) = (0, c1 c2/theta1)", mp.mpc(0), c1 * c2 / sp.t1),
        ("(y, xi) = (0, c1 c2/theta2)", mp.mpc(0), c1 * c2 / sp.t2),
        ("(y, xi) = (inf, 1/kappa1)", mp.inf, 1 / sp.k1),
        ("(y, xi) = (inf, q/kappa2)", mp.inf, sp.q / sp.k2),
    ]


def _chordal(u, v):
    if u == mp.inf and v == mp.inf:
        return mp.mpf(0)
    if v == mp.inf:
        u, v = v, u
    if u == mp.inf:
        return 1 / mp.sqrt(1 + abs(v) ** 2)
    return abs(u - v) / mp.sqrt((1 + abs(u) ** 2) * (1 + abs(v) ** 2))


def _nearest_base_point(sp, y, xi):
    best = min(blown_up_points(sp),
               key=lambda t: _chordal(y, t[1]) + _chordal(xi, t[2]))
    return best[0]


def extract_coords(A, sp, tol=None):
    """(y, xi) of a spectral matrix, certified by the second xi expression.

    A is a 2x2 polynomial matrix [e11, e12, e21, e22]; y and both xi
    expressions are invariant under diagonal conjugation, so no gauge
    normalization is needed here.
    """
    if tol is None:
        tol = mp.mpf(2) ** (-(mp.mp.prec // 3))
    e11, e12, e21, e22 = A
    e12 = ptrim(list(e12), _tiny() * (pmax(e12) + 1))
    if pdeg(e12) != 1:
        raise GaugeError(f"e12 must have exact degree 1, got degree {pdeg(e12)}")
    y = -e12[0] / e12[1]
    c1, c2, c3, c4 = sp.c
    e11y = peval(e11, y)
    if abs(e11y) < _tiny() * (pmax(e11) + 1):
        raise IndeterminacyError(
            "e11(y) vanishes; matrix sits at " + _nearest_base_point(sp, y, mp.inf))
    xi = (y - c1) * (y - c2) / e11y
    den = sp.k1 * sp.k2 * (y - c3) * (y - c4)
    if abs(den) < _tiny():
        raise IndeterminacyError(
            "xi cross-check degenerates at " + _nearest_base_point(sp, y, xi))
    xi2 = peval(e22, y) / den
    if abs(xi - xi2) > tol * max(abs(xi), abs(xi2), mp.mpf(1)):
        raise ConsistencyError(
            f"xi expressions disagree: {mp.nstr(xi, 8)} vs {mp.nstr(xi2, 8)}")
    return SurfaceCoords(y=y, xi=xi)


def _st_coefficients(sp):
    # the parameter-only products of S and T, in the order `_st_terms` reads
    # them; one step multiplies them by q^2, q^2, 1, q, q, 1, q, q, q, q
    k1, k2, t1, t2 = sp.k1, sp.k2, sp.t1, sp.t2
    c1, c2, c3, c4 = sp.c
    q = sp.q
    m = q * k1 * k2
    s1 = c1 + c2 + c3 + c4
    s3 = c1 * c2 * (c3 + c4) + (c1 + c2) * c3 * c4
    return (-m * t1, q * q * k1 * t1, k2 * t2, m * s3, 2 * q * t1 * t2,
            -q * t2, -k1 * k2 * k2, 2 * m, m * s1, -q * q * k1)


def _st_terms(cf, c, y, xi):
    # S and T, three terms each in powers of xi, at one point; the two
    # share (y - c1)(y - c2), xi^2 (y - c3)(y - c4) and q^2 k1 t1 + k2 t2
    sa, p1, p2, sb, sc, sd, ta, tb, tc, td = cf
    c1, c2, c3, c4 = c
    a12 = (y - c1) * (y - c2)
    xa34 = xi * xi * (y - c3) * (y - c4)
    p = p1 + p2
    y2 = y * y
    S = (sa * xa34, xi * (p * y2 - sb * y + sc), sd * a12)
    T = (ta * xa34, xi * (tb * y2 - tc * y + p), td * a12)
    return S, T


def _indeterminate(what, sp, k1, t1, y, xi):
    # the error of a step from (y, xi) under sp with (kappa1, theta1) moved on
    here = SurfaceParams(k1=k1, k2=sp.k2, t1=t1, t2=sp.t2, c=sp.c, q=sp.q)
    return IndeterminacyError(what + _nearest_base_point(here, y, xi))


def phi_orbit(coords, sp, k):
    """k Painleve steps: returns (coords after k steps, their params).

    y' = S/(yT) with S, T the quadratics in xi of `_st_terms`, and
    xi' = (c1 c2 / (q kappa1 theta1 xi)) f1 f2 / (g1 g2) with f1, f2, g1,
    g2 linear in xi.  The parameter-only coefficients are computed once;
    since a step multiplies kappa1 and theta1 by q, each then advances by
    one multiplication by q, q^2, 1/q or 1/q^2.  The returned parameters
    go through the `SurfaceParams` constructor, so the constraint is
    checked at both ends of the orbit; in between the flow scales both of
    its sides by q.  Near-vanishing denominators are rejected relative to
    the term magnitudes, so that catastrophic cancellation is reported
    instead of silently amplified; the error names the base point nearest
    to the failing step, under that step's parameters.
    """
    if k < 0:
        raise DomainError("need k >= 0 steps")
    y, xi = coords.y, coords.xi
    k1, k2, t1, t2 = sp.k1, sp.k2, sp.t1, sp.t2
    c1, c2, c3, c4 = c = sp.c
    q = sp.q
    tiny = _tiny()
    cf = _st_coefficients(sp)
    q2 = q * q
    iq = 1 / q
    iq2 = iq * iq
    w = q / k2
    aw = abs(w)
    r1 = q * t1 / (c1 * k2)
    r2 = q * t1 / (c2 * k2)
    r3 = t2 / (q * c3 * k1)
    r4 = t2 / (q * c4 * k1)
    pref = c1 * c2 / (q * k1 * t1)

    for j in range(k):
        if j:
            sa, p1, p2, sb, sc, sd, ta, tb, tc, td = cf
            cf = (sa * q2, p1 * q2, p2, sb * q, sc * q, sd,
                  ta * q, tb * q, tc * q, td * q)
            r1, r2, r3, r4 = r1 * q, r2 * q, r3 * iq, r4 * iq
            pref = pref * iq2
        Sterms, Tterms = _st_terms(cf, c, y, xi)
        yT = y * mp.fsum(Tterms)
        ay = abs(y)
        scale = ay * max(abs(t) for t in Tterms)
        if scale == 0 or abs(yT) < tiny * scale:
            raise _indeterminate("y T cancels to working precision near ",
                                sp, k1, t1, y, xi)
        if xi == 0 or t1 == 0:
            raise _indeterminate("xi = 0; step hit ", sp, k1, t1, y, xi)
        g1 = xi * (y - c4) - w * (y - r3)
        g2 = xi * (y - c3) - w * (y - r4)
        gscale = (abs(xi) + aw) * (1 + ay)
        if abs(g1) < tiny * gscale or abs(g2) < tiny * gscale:
            raise _indeterminate("xi' denominator factor vanishes; step hit ",
                                sp, k1, t1, y, xi)
        f1 = xi * (y - r1) - w * (y - c2)
        f2 = xi * (y - r2) - w * (y - c1)
        y, xi = (mp.fsum(Sterms) / yT,
                 pref * (f1 * f2) / (xi * (g1 * g2)))
        k1, t1 = q * k1, q * t1
    return (SurfaceCoords(y=y, xi=xi),
            SurfaceParams(k1=k1, k2=k2, t1=t1, t2=t2, c=c, q=q))


def phi_step(coords, sp):
    """One Painleve step: returns (new coords, stepped params); see `phi_orbit`."""
    return phi_orbit(coords, sp, 1)


def matrix_step(A, sp, tol=None):
    """One Painleve step on the matrix itself: A -> B(qz) A(z) adj B(z) / (z Delta).

    A must carry degree-1 e12 and e21 = z (gamma z + beta); it is first
    diagonally conjugated so e12 is monic, then B is assembled from beta.
    Every entry of the product must be divisible by z, which is checked.
    """
    if tol is None:
        tol = mp.mpf(2) ** (-(mp.mp.prec // 3))
    q, k1, k2, t1, t2 = sp.q, sp.k1, sp.k2, sp.t1, sp.t2
    e11, e12, e21, e22 = [list(e) for e in A]
    e12 = ptrim(e12, _tiny() * (pmax(e12) + 1))
    if pdeg(e12) != 1 or abs(e12[1]) < _tiny() * (pmax(e12) + 1):
        raise GaugeError("e12 must have exact degree 1 to normalize the gauge")
    lc = e12[1]
    e12n = pscale(e12, 1 / lc)
    e21n = pscale(e21, lc)
    if e21n and abs(e21n[0]) > _tiny() * (pmax(e21n) + 1):
        raise GaugeError("e21 must vanish at z = 0")
    beta = e21n[1] if len(e21n) > 1 else mp.mpc(0)

    delta = (q * k1 - k2) * (q * t1 - t2) + q * beta
    dscale = max(abs((q * k1 - k2) * (q * t1 - t2)), abs(q * beta), mp.mpf(1))
    if abs(delta) < _tiny() * dscale:
        raise SingularGaugeError("gauge matrix B is singular: Delta ~ 0")
    B = [[mp.mpc(0), q * k1 - k2], [q], [mp.mpc(0), -beta], [q * t1 - t2]]
    adjB = [[q * t1 - t2], [-q], [mp.mpc(0), beta], [mp.mpc(0), q * k1 - k2]]
    M = mat_mul(mat_mul(mat_q(B, q), [e11, e12n, e21n, e22]), adjB)
    out = []
    for e in M:
        if e and abs(e[0]) > tol * (pmax(e) + 1):
            raise ConsistencyError(
                "conjugated matrix is not divisible by z; gauge data inconsistent")
        out.append(pscale(e[1:], 1 / delta))
    return out, sp.step()


def factorization_residuals(coords, sp):
    """Relative residuals of the four factorizations of S - c_i y T.

    These identities hold only on the constraint variety; off it the cross
    terms in xi do not cancel.
    """
    y, xi = coords.y, coords.xi
    k1, k2, t1, t2 = sp.k1, sp.k2, sp.t1, sp.t2
    c1, c2, c3, c4 = sp.c
    q = sp.q
    Sterms, Tterms = _st_terms(_st_coefficients(sp), sp.c, y, xi)
    S = mp.fsum(Sterms)
    T = mp.fsum(Tterms)
    scale = max(max(abs(t) for t in Sterms),
                max(abs(t) for t in Tterms) * max(abs(ci) * abs(y) for ci in sp.c))
    out = []
    for ci, cj in ((c1, c2), (c2, c1)):
        lhs = S - ci * y * T
        rhs = ((xi * (ci * k2 * y - q * t1) - q * ci * (y - cj))
               * (k1 * k2 * xi * (y - c3) * (y - c4)
                  - (1 / ci) * (q * ci * k1 * y - t2) * (y - ci)))
        out.append(abs(lhs - rhs) / max(scale, abs(lhs), abs(rhs)))
    for ci, cj in ((c3, c4), (c4, c3)):
        lhs = S - ci * y * T
        rhs = ((xi * (y - cj) - (1 / (k1 * k2 * ci)) * (q * ci * k1 * y - t2))
               * (k1 * k2 * xi * (y - ci) * (ci * k2 * y - q * t1)
                  - q * k1 * k2 * ci * (y - c1) * (y - c2)))
        out.append(abs(lhs - rhs) / max(scale, abs(lhs), abs(rhs)))
    return tuple(out)
