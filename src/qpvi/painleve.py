"""The discrete Painleve step induced by raising the polynomial order.

The spectral matrix A_n, viewed up to diagonal conjugation, is
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
re-validates the parameters at every step.  It returns the end point
alone; `phi_step` pairs the orbit of one step with `SurfaceParams.step`,
the one route of the (kappa1, theta1) flow.  The orbit's loop runs on
polys' triple kernel: `polys.GaussFloat` values (Python integers with a
binary exponent, 10 guard bits) as plain (re, im, e) tuples, cut as
GaussFloat cuts them; GaussFloat arithmetic runs in the loop only on the
slow path of its guards.  It rounds the end point once to the working
precision.  `extract_coords`, `matrix_step` and the four pencil
factorizations of check 09 (`factorization_residuals`, S and T through
the orbit's `_st_terms`) run on GaussFloat; of check 11's three routes to
the step, `phi_step` and `weyl.composite_closed` run on it and the
reflection word stays in mpmath (see `weyl`).  Parameters are
validated where they are built: `SurfaceParams` checks the constraint on
exact products and then refuses kappa1, kappa2, theta1 or a c_i equal to
0, the parameters the step and the factorizations divide by (theta2 = 0
with those nonzero already violates the constraint).  The same step is
realized on matrices by a polynomial gauge transform
A -> B(qz) A(z) adj(B(z)) / (z Delta) in `matrix_step`, so the three
routes (recompute at n+1, phi_step, matrix_step) must agree.

The map blows down exactly eight parameter-dependent points (`b_params`);
steps landing on them raise IndeterminacyError naming the nearest one.
"""

import math
from dataclasses import dataclass

import mpmath as mp

from .errors import (ConsistencyError, ConstraintError, DegenerateError, DegreeError,
                     DomainError, GaugeError, IndeterminacyError,
                     SingularGaugeError)
from .polys import (GaussFloat, as_mpc, below, gauss_floats, is_zero, json_complex, largest,
                    negligible, peval, residual_tol, t_add, t_div, t_mul, t_mul_sub, t_product,
                    t_sub, t_sum3, t_top, zero_bits)

__all__ = [
    "SurfaceParams", "SurfaceCoords", "params_from_weight", "y_closed",
    "extract_coords", "phi_orbit", "phi_step", "matrix_step",
    "factorization_residuals", "b_params", "blown_up_points",
]


@dataclass(frozen=True)
class SurfaceParams:
    """Surface parameters on the constraint variety, with kappa1, kappa2,
    theta1 and c1..c4 nonzero."""

    k1: mp.mpc
    k2: mp.mpc
    t1: mp.mpc
    t2: mp.mpc
    c: tuple
    q: mp.mpc

    def __post_init__(self):
        object.__setattr__(self, "k1", as_mpc(self.k1))
        object.__setattr__(self, "k2", as_mpc(self.k2))
        object.__setattr__(self, "t1", as_mpc(self.t1))
        object.__setattr__(self, "t2", as_mpc(self.t2))
        object.__setattr__(self, "c", tuple(as_mpc(x) for x in self.c))
        object.__setattr__(self, "q", as_mpc(self.q))
        if is_zero(self.q):
            raise ConstraintError("q must be nonzero")
        if len(self.c) != 4:
            raise ConstraintError("need exactly four c parameters")
        try:
            d, m = self._constraint_norms()
        except ValueError:  # the exact conversion refuses inf and nan
            raise ConstraintError("surface parameters must be finite") from None
        if below(m, d, -2 * zero_bits()):  # residual above the zero level
            raise ConstraintError(
                "kappa1 kappa2 c1 c2 c3 c4 = theta1 theta2 violated by "
                f"{mp.nstr(self.constraint_residual(), 5)}")
        names = ("kappa1", "kappa2", "theta1", "c1", "c2", "c3", "c4")
        zeros = [n for n, x in zip(names, (self.k1, self.k2, self.t1, *self.c)) if is_zero(x)]
        if zeros:
            raise DegenerateError(" = 0, ".join(zeros) + " = 0: the step divides by "
                                  "kappa1, kappa2, theta1 and c1..c4")

    def _constraint_norms(self):
        # |lhs - rhs|^2 and max(|lhs|, |rhs|)^2 exactly, as (man, exp); q is
        # converted too, so that every parameter is checked finite
        k1, k2, c1, c2, c3, c4, t1, t2, _ = gauss_floats(
            [self.k1, self.k2, *self.c, self.t1, self.t2, self.q], p=math.inf)
        lhs, rhs = k1 * k2 * c1 * c2 * c3 * c4, t1 * t2
        return (lhs - rhs).norm(), largest([lhs, rhs]).norm()

    def constraint_residual(self):
        """|lhs - rhs| / max(|lhs|, |rhs|) of the constraint, from exact norms."""
        (d, e), (m, f) = self._constraint_norms()
        return mp.sqrt(mp.ldexp(mp.mpf(d), e) / mp.ldexp(mp.mpf(m), f)) if m else mp.mpf(0)

    def step(self):
        """Parameter flow of one Painleve step: (kappa1, theta1) -> q (kappa1, theta1)."""
        return SurfaceParams(k1=self.q * self.k1, k2=self.k2,
                             t1=self.q * self.t1, t2=self.t2,
                             c=self.c, q=self.q)

    def to_json_dict(self):
        return {"kappa1": json_complex(self.k1), "kappa2": json_complex(self.k2),
                "theta1": json_complex(self.t1), "theta2": json_complex(self.t2),
                "c": [json_complex(x) for x in self.c], "q": json_complex(self.q)}


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
    if negligible(p.a, 1) or negligible(p.b, 1):
        raise DegenerateError("c parameters require a != 0 and b != 0")
    return SurfaceParams(
        k1=p.b * p.q ** (n + 1), k2=p.a * p.q,
        t1=mp.conj(p.b) * p.q ** n, t2=mp.conj(p.a),
        c=(mp.conj(p.a) / p.q, mp.conj(p.b) / p.q, 1 / p.b, 1 / p.a),
        q=p.q)


def y_closed(p, vt, n):
    """Closed form of y_n through the Verblunsky coefficients.

    Needs 0 <= n < vt.N.  Refused when a - b q^{n+1} cancels relative to
    its two terms, or when alpha_{n+1} is zero at working precision.
    """
    if not 0 <= n < vt.N:
        raise DegreeError(f"y_n needs 0 <= n <= {vt.N - 1}, got {n}")
    bq = p.b * p.q ** (n + 1)
    lam = p.a - bq
    if abs(lam) <= mp.ldexp(abs(p.a) + abs(bq), -zero_bits()):
        raise DegenerateError("a - b q^(n+1) cancels; y_n closed form degenerates")
    den = lam * vt.alpha_nonzero(n + 1)
    return (mp.conj(p.a) - mp.conj(p.b) * p.q ** n) * vt.alpha[n] / den


def b_params(sp):
    """The b-chart parameters b1..b8 of the eight blown-up points:
    (c1, c2, c3, c4, c1 c2/theta1, c1 c2/theta2, 1/kappa1, q/kappa2)."""
    c1, c2, c3, c4 = sp.c
    return (c1, c2, c3, c4, c1 * c2 / sp.t1, c1 * c2 / sp.t2, 1 / sp.k1, sp.q / sp.k2)


def blown_up_points(sp):
    """The eight blown-up points as (label, y, xi); mp.inf marks infinity."""
    b1, b2, b3, b4, b5, b6, b7, b8 = b_params(sp)
    return [
        ("(y, xi) = (c1, 0)", b1, mp.mpc(0)),
        ("(y, xi) = (c2, 0)", b2, mp.mpc(0)),
        ("(y, xi) = (c3, inf)", b3, mp.inf),
        ("(y, xi) = (c4, inf)", b4, mp.inf),
        ("(y, xi) = (0, c1 c2/theta1)", mp.mpc(0), b5),
        ("(y, xi) = (0, c1 c2/theta2)", mp.mpc(0), b6),
        ("(y, xi) = (inf, 1/kappa1)", mp.inf, b7),
        ("(y, xi) = (inf, q/kappa2)", mp.inf, b8),
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


def _trimmed(p, bits):
    # p without its trailing coefficients of magnitude <= 2^-(bits/2) max |p_k|
    top = largest(p).norm() if p else None
    while p and not below(top, p[-1].norm(), -bits):
        p = p[:-1]
    return p


def _entries(A):
    # A's entries on GaussFloat; the exact conversion refuses inf and nan
    try:
        return [gauss_floats(e) for e in A]
    except ValueError:
        raise DomainError("matrix entries must be finite") from None


def extract_coords(A, sp):
    """(y, xi) of a spectral matrix, certified by the second xi expression.

    A is a 2x2 polynomial matrix [e11, e12, e21, e22]; y and both xi
    expressions are invariant under diagonal conjugation, so no gauge
    normalization is needed here.  Everything is evaluated on GaussFloat
    by Horner's rule, and y and xi are rounded once each.
    """
    bits = 2 * zero_bits()  # |x| <= 2^-zero_bits() |s| as |x|^2 <= 2^-bits |s|^2
    e11, e12, _, e22 = _entries(A)
    k1, k2, c1, c2, c3, c4, one, gtol = gauss_floats([sp.k1, sp.k2, *sp.c, 1, residual_tol()])
    # thresholds relative to each entry's own scale: for small |a| the
    # off-diagonal entries carry a factor alpha_{n+1} far below 1
    e12 = _trimmed(e12, bits)
    if len(e12) != 2:
        raise GaugeError(f"e12 must have exact degree 1, got degree {len(e12) - 1}")
    y = -e12[0] / e12[1]
    e11y = peval(e11, y)
    if not below(largest(e11).norm(), e11y.norm(), -bits):
        raise IndeterminacyError(
            "e11(y) vanishes; matrix sits at " + _nearest_base_point(sp, y.mpc(), mp.inf))
    xi = (y - c1) * (y - c2) / e11y
    den = k1 * k2 * (y - c3) * (y - c4)
    if below(den.norm(), (1, 0), bits):
        raise IndeterminacyError(
            "xi cross-check degenerates at " + _nearest_base_point(sp, y.mpc(), xi.mpc()))
    xi2 = peval(e22, y) / den
    if below((gtol * largest([xi, xi2, one])).norm(), (xi - xi2).norm()):
        raise ConsistencyError(
            f"xi expressions disagree: {mp.nstr(xi.mpc(), 8)} vs {mp.nstr(xi2.mpc(), 8)}")
    return SurfaceCoords(y=y.mpc(), xi=xi.mpc())


def _st_coefficients(k1, k2, t1, t2, c, q):
    # the parameter-only products of S and T, in the order `_st_terms` reads
    # them; one step multiplies them by q^2, q^2, 1, q, q, 1, q, q, q, q
    c1, c2, c3, c4 = c
    m = q * k1 * k2
    s1 = c1 + c2 + c3 + c4
    s3 = c1 * c2 * (c3 + c4) + (c1 + c2) * c3 * c4
    return (-m * t1, q * q * k1 * t1, k2 * t2, m * s3, 2 * q * t1 * t2,
            -q * t2, -k1 * k2 * k2, 2 * m, m * s1, -q * q * k1)


def _st_terms(cf, d, y, xi, p):
    # S and T, three terms each in powers of xi, at one point, from the
    # differences d = (y - c1, .., y - c4); the two share (y - c1)(y - c2),
    # xi^2 (y - c3)(y - c4) and q^2 k1 t1 + k2 t2.  Every value is a
    # (re, im, e) triple of the triple kernel, cut to p bits
    sa, h1, h2, sb, sc, sd, ta, tb, tc, td = cf
    d1, d2, d3, d4 = d
    a12 = t_mul(d1, d2, p)
    xa34 = t_product((xi, xi, d3, d4), p)
    h = t_add(h1, h2, p)
    y2 = t_mul(y, y, p)
    S = (t_mul(sa, xa34, p), t_mul(xi, t_add(t_mul_sub(h, y2, sb, y, p), sc, p), p),
         t_mul(sd, a12, p))
    T = (t_mul(ta, xa34, p), t_mul(xi, t_add(t_mul_sub(tb, y2, tc, y, p), h, p), p),
         t_mul(td, a12, p))
    return S, T


def _indeterminate(what, sp, j, y, xi, p):
    # the error of step j from the triples (y, xi), named under sp stepped j times
    for _ in range(j):
        sp = sp.step()
    return IndeterminacyError(
        what + _nearest_base_point(sp, GaussFloat(*y, p).mpc(), GaussFloat(*xi, p).mpc()))


def phi_orbit(coords, sp, k):
    """k Painleve steps: returns the coords after k steps.

    y' = S/(yT) with S, T the quadratics in xi of `_st_terms`, and
    xi' = (c1 c2 / (q kappa1 theta1 xi)) f1 f2 / (g1 g2) with f1, f2, g1,
    g2 linear in xi.  The parameters are converted once to
    `polys.GaussFloat` at the working precision plus 10 guard bits, and the
    parameter-only coefficients computed once; since a step multiplies
    kappa1 and theta1 by q, each then advances by one multiplication by q,
    q^2, 1/q or 1/q^2.  The loop runs on polys' triple kernel, each value
    an (re, im, e) triple cut as the GaussFloat operation it stands for
    would cut it.  The differences y - c_i are formed once per step and
    shared by S, T, g1, g2, f1 and f2.  Each of h y^2 - sb y and
    tb y^2 - tc y, xi^2 (y - c3)(y - c4), g1, g2, f1, f2, the sums S and T
    and the products pref f1 f2 and xi g1 g2 of xi' is exact and cut once
    (`polys.t_mul_sub`, `t_product`, `t_sum3`).  The point is converted
    once, carried between steps at the guard precision and rounded once at
    the end, at the working precision and rounding mode: k chained
    `phi_step` calls round it after every step, and the map grows those
    roundings by a factor of a few per step, so the orbit lands nearer the
    exact one than the chained calls.  The parameters after k steps are k
    `SurfaceParams.step` calls away; the orbit does not form them.

    Near-vanishing denominators are rejected relative to the term
    magnitudes, compared through exact squared norms, so that catastrophic
    cancellation is reported instead of silently amplified; the error
    names the base point nearest to the failing step, under that step's
    parameters (`SurfaceParams.step`, on the error path only).  In front of
    each of the two magnitude guards, y T and g1, g2, a pre-test bounds the
    guarded squared norm from below and the scale from above by bit
    lengths alone (`polys.t_top`); where the bounds already clear the
    margin the step goes on, and elsewhere the exact test decides, on the
    triples wrapped as GaussFloats.  So every decision is the exact test's.
    """
    if k < 0:
        raise DomainError("need k >= 0 steps")
    zb = zero_bits()
    bits = 2 * zb  # |x| < 2^-zb |s| as |x|^2 < 2^-bits |s|^2
    gk1, gk2, gt1, gt2, c1, c2, c3, c4, gq, one = gauss_floats(
        [sp.k1, sp.k2, sp.t1, sp.t2, *sp.c, sp.q, 1])
    cf = _st_coefficients(gk1, gk2, gt1, gt2, (c1, c2, c3, c4), gq)
    iq = one / gq
    w = gq / gk2
    aw = abs(w)
    r1 = gq * gt1 / (c1 * gk2)
    r2 = gq * gt1 / (c2 * gk2)
    r3 = gt2 / (gq * c3 * gk1)
    r4 = gt2 / (gq * c4 * gk1)
    pref = c1 * c2 / (gq * gk1 * gt1)
    try:
        gy, gxi = gauss_floats([coords.y, coords.xi])
    except ValueError:  # the exact conversion refuses inf and nan
        raise DomainError("orbit coordinates must be finite") from None

    p = gy.p
    cf = [x.triple() for x in cf]
    q, q2, iq, iq2, w, c1, c2, c3, c4, r1, r2, r3, r4, pref, y, xi = (x.triple() for x in (
        gq, gq * gq, iq, iq * iq, w, c1, c2, c3, c4, r1, r2, r3, r4, pref, gy, gxi))
    top_w = t_top(aw.triple())
    for j in range(k):
        if j:
            sa, h1, h2, sb, sc, sd, ta, tb, tc, td = cf
            cf = (t_mul(sa, q2, p), t_mul(h1, q2, p), h2, t_mul(sb, q, p), t_mul(sc, q, p), sd,
                  t_mul(ta, q, p), t_mul(tb, q, p), t_mul(tc, q, p), t_mul(td, q, p))
            r1, r2 = t_mul(r1, q, p), t_mul(r2, q, p)
            r3, r4 = t_mul(r3, iq, p), t_mul(r4, iq, p)
            pref = t_mul(pref, iq2, p)
        d = d1, d2, d3, d4 = t_sub(y, c1, p), t_sub(y, c2, p), t_sub(y, c3, p), t_sub(y, c4, p)
        Sterms, Tterms = _st_terms(cf, d, y, xi, p)
        T0, T1, T2 = Tterms
        yT = t_mul(y, t_sum3(T0, T1, T2, p), p)
        top_y = t_top(y)
        # pre-test: |yT|^2 >= 2^(2 top - 2) and |y|^2 max|T_i|^2 < 2^(2 top_y + 2 top_T + 2)
        if (not (yT[0] or yT[1])
                or t_top(yT) - top_y - max(t_top(T0), t_top(T1), t_top(T2)) < 2 - zb):
            ny = GaussFloat(*y, p).norm()
            nt = largest([GaussFloat(*t, p) for t in Tterms]).norm()
            scale = (ny[0] * nt[0], ny[1] + nt[1])
            if not scale[0] or below(GaussFloat(*yT, p).norm(), scale, bits):
                raise _indeterminate("y T cancels to working precision near ",
                                     sp, j, y, xi, p)
        if not (xi[0] or xi[1]):
            raise _indeterminate("xi = 0; step hit ", sp, j, y, xi, p)
        g1 = t_mul_sub(xi, d4, w, t_sub(y, r3, p), p)
        g2 = t_mul_sub(xi, d3, w, t_sub(y, r4, p), p)
        # pre-test: |g_i|^2 >= 2^(2 top - 2) and the scale, a product of
        # values below 2^(max(top_xi, top_w) + 1.5) and 2^(max(top_y, 0) + 1.5),
        # is below 2^(2 max(top_xi, top_w) + 2 max(top_y, 0) + 6)
        if (not (g1[0] or g1[1]) or not (g2[0] or g2[1])
                or min(t_top(g1), t_top(g2)) - max(t_top(xi), top_w) - max(top_y, 0) < 4 - zb):
            gscale = ((abs(GaussFloat(*xi, p)) + aw) * (one + abs(GaussFloat(*y, p)))).norm()
            if (below(GaussFloat(*g1, p).norm(), gscale, bits)
                    or below(GaussFloat(*g2, p).norm(), gscale, bits)):
                raise _indeterminate("xi' denominator factor vanishes; step hit ",
                                     sp, j, y, xi, p)
        f1 = t_mul_sub(xi, t_sub(y, r1, p), w, d2, p)
        f2 = t_mul_sub(xi, t_sub(y, r2, p), w, d1, p)
        y, xi = (t_div(t_sum3(*Sterms, p), yT, p),
                 t_div(t_product((pref, f1, f2), p), t_product((xi, g1, g2), p), p))
    return SurfaceCoords(y=GaussFloat(*y, p).mpc(), xi=GaussFloat(*xi, p).mpc())


def phi_step(coords, sp):
    """One Painleve step: returns (new coords, stepped params); see `phi_orbit`."""
    return phi_orbit(coords, sp, 1), sp.step()


def _lin(u, P, v, R):
    # u P(z) + v z R(z) for GaussFloat coefficient lists, P nonempty
    out = [u * x for x in P]
    for k, x in enumerate(R, 1):
        if k < len(out):
            out[k] = out[k] + v * x
        else:
            out.append(v * x)
    return out


def matrix_step(A, sp):
    """One Painleve step on the matrix itself: A -> B(qz) A(z) adj B(z) / (z Delta).

    A must carry degree-1 e12 and e21 = z (gamma z + beta); it is first
    diagonally conjugated so e12 is monic, then B is assembled from beta.
    Every entry of the product must be divisible by z, which is checked
    relative to the entry's scale at `residual_tol()`.  The normalization,
    Delta and both products run on GaussFloat, and each entry is rounded
    once.
    """
    bits = 2 * zero_bits()  # |x| < 2^-zero_bits() |s| as |x|^2 < 2^-bits |s|^2
    e11, e12, e21, e22 = _entries(A)
    q, k1, k2, t1, t2, zero, one, gtol = gauss_floats(
        [sp.q, sp.k1, sp.k2, sp.t1, sp.t2, 0, 1, residual_tol()])
    e12 = _trimmed(e12, bits)
    if len(e12) != 2:
        raise GaugeError("e12 must have exact degree 1 to normalize the gauge")
    lc = e12[1]
    e12n = [x / lc for x in e12]
    e21n = [x * lc for x in e21]
    if e21n and below((abs(largest(e21n)) + one).norm(), e21n[0].norm(), -bits):
        raise GaugeError("e21 must vanish at z = 0")
    beta = e21n[1] if len(e21n) > 1 else zero

    c, d = q * k1 - k2, q * t1 - t2
    cd, qb = c * d, q * beta
    delta = cd + qb
    if below(delta.norm(), largest([cd, qb, one]).norm(), bits):
        raise SingularGaugeError("gauge matrix B is singular: Delta ~ 0")
    # B(qz) = [[c q z, q], [-beta q z, d]] and adj B = [[d, -q], [beta z, c z]]
    X = [_lin(q, e21n, c * q, e11), _lin(q, e22, c * q, e12n),
         _lin(d, e21n, -beta * q, e11), _lin(d, e22, -beta * q, e12n)]
    M = [_lin(d, X[0], beta, X[1]), _lin(-q, X[0], c, X[1]),
         _lin(d, X[2], beta, X[3]), _lin(-q, X[2], c, X[3])]
    out = []
    for e in M:
        if e and below((gtol * (abs(largest(e)) + one)).norm(), e[0].norm()):
            raise ConsistencyError(
                "conjugated matrix is not divisible by z; gauge data inconsistent")
        out.append([(x / delta).mpc() for x in e[1:]])
    return out, sp.step()


def factorization_residuals(coords, sp):
    """Relative residuals of the four factorizations of S - c_i y T.

    These identities hold only on the constraint variety; off it the cross
    terms in xi do not cancel.  Each residual is |lhs - rhs| over the
    largest of |lhs|, |rhs|, the S terms and the T terms times |y| max |c_i|.
    This runs on GaussFloat, S and T through the orbit's `_st_terms` on
    the triple kernel: the inputs are converted once and each residual is
    rounded once.
    """
    try:
        y, xi = gauss_floats([coords.y, coords.xi])
    except ValueError:  # the exact conversion refuses inf and nan
        raise DomainError("coordinates must be finite") from None
    k1, k2, t1, t2, c1, c2, c3, c4, q = gauss_floats([sp.k1, sp.k2, sp.t1, sp.t2, *sp.c, sp.q])
    c = (c1, c2, c3, c4)
    d = d1, d2, d3, d4 = [y - x for x in c]  # y - c_i
    p = y.p
    Sterms, Tterms = (
        [GaussFloat(*t, p) for t in terms] for terms in _st_terms(
            [x.triple() for x in _st_coefficients(k1, k2, t1, t2, c, q)],
            [x.triple() for x in d], y.triple(), xi.triple(), p))
    S0, S1, S2 = Sterms
    T0, T1, T2 = Tterms
    S, T = S0 + S1 + S2, T0 + T1 + T2
    scale = [largest(Sterms), largest(Tterms) * largest(c) * y]
    k12, qt1, k2y, qk1y = k1 * k2, q * t1, k2 * y, q * k1 * y
    pairs = []
    for ci, di, dj in ((c1, d1, d2), (c2, d2, d1)):
        lhs = S - ci * y * T
        rhs = ((xi * (ci * k2y - qt1) - q * ci * dj)
               * (k12 * xi * d3 * d4 - (ci * qk1y - t2) * di / ci))
        pairs.append((lhs, rhs))
    for ci, di, dj in ((c3, d3, d4), (c4, d4, d3)):
        lhs = S - ci * y * T
        rhs = ((xi * dj - (ci * qk1y - t2) / (k12 * ci))
               * (k12 * xi * di * (ci * k2y - qt1) - q * k12 * ci * d1 * d2))
        pairs.append((lhs, rhs))
    return tuple((abs(lhs - rhs) / abs(largest(scale + [lhs, rhs]))).mpc().real
                 for lhs, rhs in pairs)
