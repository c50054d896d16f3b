"""Picard-lattice arithmetic and the birational realization of the step.

The lattice side is exact integer linear algebra on Z^10 with the
Lorentzian pairing <u, v> = u0 v0 - sum_{i>=1} ui vi.  The anticanonical
class delta = 3 E0 - sum E_i splits into four components D0..D3, and the
orthogonal complement of their span contains an affine D5 root basis
alpha_0..alpha_5 with delta = alpha0 + alpha1 + 2 alpha2 + 2 alpha3 +
alpha4 + alpha5.  The 10x10 matrix `phi_pic` (columns are the images of
E0..E9) is an isometry fixing delta and alpha0..alpha3, permuting the D_i
in two 2-cycles, and translating alpha4 -> alpha4 - delta,
alpha5 -> alpha5 + delta: a lattice translation.

The geometric side realizes that translation as a word in maps acting on
eight parameters b1..b8 and a point (f, g) of the surface.  The
reflections w0..w5 are involutions: w1, w4, w5 permute parameters; w2, w3
are de Jonquieres moves in f resp. g; w0 acts in a P^2 chart reached
through f = y/(x - a1 z), g = z/x.  The inversion sigma, f -> c_f/f and
g -> c_g/g with c_f, c_g built from b, is not an involution: sigma^2
multiplies b1..b4 and g by the lattice q (`BPoint.q`) and b5..b8 and f
by q^2, so the reversed word inverts phi only up to that rescaling.  The
reduced word

    phi = sigma w4 w3 w2 w0 w1 w2 w3 w4     (rightmost factor first)

reproduces the Painleve step of `painleve.phi_step` under the dictionary
`painleve.b_params`, with f = xi, g = y.  Note the lattice/point-configuration
convention q = b3 b4 b5 b6/(b1 b2 b7 b8) is the reciprocal of the weight
convention used elsewhere.

Check 11 of `qpvi.verify` compares three routes to the step: the word
(`composite_map`), its closed forms (`composite_closed`) and
`painleve.phi_step`.  The closed forms and phi_step run on
`polys.GaussFloat`.  The word and its reflections stay in mpmath
arithmetic, so that one of the three routes does not share that kernel.
"""

from dataclasses import dataclass

import mpmath as mp

from .errors import ChartError, DomainError, IndeterminacyError
from .painleve import SurfaceCoords, SurfaceParams, b_params
from .polys import as_mpc, below, gauss_floats, is_zero, negligible, zero_bits

__all__ = [
    "ip", "pic_constants", "phi_pic", "apply_pic", "is_isometry",
    "check_translation", "BPoint", "elementary", "sigma_inversion",
    "composite_map", "composite_closed", "bpoint_from_surface",
    "surface_from_bpoint",
]


# ---------------------------------------------------------------------------
# integer lattice


def _E(i):
    v = [0] * 10
    v[i] = 1
    return tuple(v)


def _lin(*terms):
    out = [0] * 10
    for k, v in terms:
        for i in range(10):
            out[i] += k * v[i]
    return tuple(out)


def ip(u, v):
    """Lorentzian intersection pairing on Z^10."""
    return u[0] * v[0] - sum(u[i] * v[i] for i in range(1, 10))


def pic_constants():
    """delta, the D-components, the root basis, and the F-divisor dictionary."""
    delta = _lin((3, _E(0)), *[(-1, _E(i)) for i in range(1, 10)])
    D = (_lin((1, _E(8)), (-1, _E(9))),
         _lin((1, _E(0)), (-1, _E(6)), (-1, _E(7)), (-1, _E(8))),
         _lin((1, _E(0)), (-1, _E(1)), (-1, _E(2)), (-1, _E(3))),
         _lin((1, _E(0)), (-1, _E(4)), (-1, _E(5)), (-1, _E(8))))
    alpha = (_lin((1, _E(0)), (-1, _E(1)), (-1, _E(8)), (-1, _E(9))),
             _lin((1, _E(2)), (-1, _E(3))),
             _lin((1, _E(1)), (-1, _E(2))),
             _lin((1, _E(0)), (-1, _E(1)), (-1, _E(4)), (-1, _E(6))),
             _lin((1, _E(6)), (-1, _E(7))),
             _lin((1, _E(4)), (-1, _E(5))))
    F = (_E(2), _E(3), _lin((1, _E(0)), (-1, _E(1)), (-1, _E(8))), _E(9),
         _E(4), _E(5), _E(6), _E(7))
    return {"delta": delta, "D": D, "alpha": alpha, "F": F}


def phi_pic():
    """The translation matrix; column j is the image of E_j."""
    return ((6, 2, 2, 2, 3, 0, 0, 3, 2, 1),
            (-2, 0, -1, -1, -1, 0, 0, -1, -1, 0),
            (-2, -1, 0, -1, -1, 0, 0, -1, -1, 0),
            (-2, -1, -1, 0, -1, 0, 0, -1, -1, 0),
            (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
            (-3, -1, -1, -1, -2, 0, 0, -1, -1, -1),
            (-3, -1, -1, -1, -1, 0, 0, -2, -1, -1),
            (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
            (-2, -1, -1, -1, -1, 0, 0, -1, 0, 0),
            (-1, 0, 0, 0, -1, 0, 0, -1, 0, 0))


def apply_pic(M, v):
    return tuple(sum(M[i][j] * v[j] for j in range(10)) for i in range(10))


def is_isometry(M):
    im = [apply_pic(M, _E(j)) for j in range(10)]
    return all(ip(im[i], im[j]) == ip(_E(i), _E(j))
               for i in range(10) for j in range(10))


def check_translation():
    """Exact integer verification that `phi_pic` acts as the lattice translation.

    Returns a dict of named boolean checks; `all` aggregates them.
    """
    M = phi_pic()
    k = pic_constants()
    delta, D, al = k["delta"], k["D"], k["alpha"]
    sub = lambda u, v: tuple(a - b for a, b in zip(u, v))
    add = lambda u, v: tuple(a + b for a, b in zip(u, v))
    adjacent = {(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)}
    checks = {
        "isometry": is_isometry(M),
        "fixes_delta": apply_pic(M, delta) == delta,
        "fixes_alpha_0_3": all(apply_pic(M, al[i]) == al[i] for i in range(4)),
        "alpha4_minus_delta": apply_pic(M, al[4]) == sub(al[4], delta),
        "alpha5_plus_delta": apply_pic(M, al[5]) == add(al[5], delta),
        "d_two_cycles": (apply_pic(M, D[0]) == D[2] and apply_pic(M, D[1]) == D[3]
                         and apply_pic(M, D[2]) == D[0] and apply_pic(M, D[3]) == D[1]),
        "image_of_E2": apply_pic(M, _E(2)) == _lin(
            (2, _E(0)), (-1, _E(1)), (-1, _E(3)), (-1, _E(5)), (-1, _E(6)),
            (-1, _E(8))),
        "delta_null": ip(delta, delta) == 0,
        "delta_root_sum": delta == _lin((1, al[0]), (1, al[1]), (2, al[2]),
                                        (2, al[3]), (1, al[4]), (1, al[5])),
        "root_norms": all(ip(a, a) == -2 for a in al),
        "dynkin_d5": all(
            (ip(al[i], al[j]) == (1 if (i, j) in adjacent else 0))
            for i in range(6) for j in range(i + 1, 6)),
        "delta_orthogonal_to_D": all(ip(delta, d) == 0 for d in D),
    }
    checks["all"] = all(checks.values())
    return checks


# ---------------------------------------------------------------------------
# birational realization


@dataclass(frozen=True)
class BPoint:
    """Parameters b1..b8 and a point (f, g) of the family of surfaces."""

    b: tuple
    f: mp.mpc
    g: mp.mpc

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(as_mpc(x) for x in self.b))
        object.__setattr__(self, "f", as_mpc(self.f))
        object.__setattr__(self, "g", as_mpc(self.g))
        # both tests read the raw parts: inf and nan have bc < 0
        if len(self.b) != 8 or any(map(is_zero, self.b)):
            raise DomainError("need eight nonzero parameters b1..b8")
        if any(bc < 0 for x in (*self.b, self.f, self.g) for _, _, _, bc in x._mpc_):
            raise DomainError("need finite parameters b1..b8 and point (f, g)")

    @property
    def q(self):
        num, den = _lattice_products(self.b)
        return den / num


def _lattice_products(b):
    # (b1 b2 b7 b8, b3 b4 b5 b6): the lattice q is their ratio, either way up
    return b[0] * b[1] * b[6] * b[7], b[2] * b[3] * b[4] * b[5]


def _w1(pt):
    b = pt.b
    return BPoint(b=(b[1], b[0]) + b[2:], f=pt.f, g=pt.g)


def _w4(pt):
    b = pt.b
    return BPoint(b=b[:6] + (b[7], b[6]), f=pt.f, g=pt.g)


def _w5(pt):
    b = pt.b
    return BPoint(b=b[:4] + (b[5], b[4]) + b[6:], f=pt.f, g=pt.g)


def _w2(pt):
    b1, b2, b3, b4, b5, b6, b7, b8 = pt.b
    if negligible(pt.g - b1, abs(pt.g) + 1):
        raise IndeterminacyError("w2 is indeterminate on g = b1")
    return BPoint(b=(b3, b2, b1, b4, b5 * b3 / b1, b6 * b3 / b1, b7, b8),
                  f=pt.f * (pt.g - b3) / (pt.g - b1), g=pt.g)


def _w3(pt):
    b1, b2, b3, b4, b5, b6, b7, b8 = pt.b
    if negligible(pt.f - b5, abs(pt.f) + 1):
        raise IndeterminacyError("w3 is indeterminate on f = b5")
    return BPoint(b=(b1, b2, b3 * b5 / b7, b4 * b5 / b7, b7, b6, b5, b8),
                  f=pt.f, g=(b5 / b7) * pt.g * (pt.f - b7) / (pt.f - b5))


def _w0(pt):
    """Quadratic involution in the P^2 chart f = y/(x - a1 z), g = z/x."""
    b1, b2, b3, b4, b5, b6, b7, b8 = pt.b
    a1, a2, a3, a8 = 1 / b3, 1 / b1, 1 / b2, b4
    a4, a5 = -b3 / b7, -b3 / b8
    x, z = mp.mpc(1), pt.g
    if negligible(x - a1 * z, abs(z) + 1):
        raise ChartError("point sits on the line x = a1 z of the chart")
    y = pt.f * (x - a1 * z)
    xp = x * (x - a1 * z)
    yp = y * (x - z / a8)
    zp = z * (x - a1 * z)
    na1, na8 = 1 / a8, 1 / a1
    na4, na5 = a1 * a8 * a4, a1 * a8 * a5
    nb3 = 1 / na1
    nb = (1 / a2, 1 / a3, nb3, na8, b5, b6, -nb3 / na4, -nb3 / na5)
    if negligible(xp, 2) or negligible(xp - na1 * zp, abs(zp) + 1):
        raise ChartError("image leaves the chart of the quadratic involution")
    return BPoint(b=nb, f=yp / (xp - na1 * zp), g=zp / xp)


def sigma_inversion(pt):
    """The inversion f -> c_f/f, g -> c_g/g, with the parameters it induces.

    Not an involution: applied twice it multiplies b1..b4 and g by
    q = `BPoint.q` and b5..b8 and f by q^2.
    """
    b1, b2, b3, b4, b5, b6, b7, b8 = pt.b
    if negligible(pt.f, 2) or negligible(pt.g, 2):
        raise IndeterminacyError("inversion is indeterminate on f g = 0")
    cg = b3 * b4 * b5 / b8
    cf = b3 * b4 * b5 ** 2 * b6 / (b1 * b2 * b8)
    nb = (cg / b3, cg / b4, cg / b1, cg / b2,
          cf / b7, cf / b8, cf / b5, cf / b6)
    return BPoint(b=nb, f=cf / pt.f, g=cg / pt.g)


_GENERATORS = (_w0, _w1, _w2, _w3, _w4, _w5)


def elementary(i, pt):
    """Apply the reflection w_i, i = 0..5."""
    if not 0 <= i <= 5:
        raise DomainError(f"reflection index must be 0..5, got {i}")
    return _GENERATORS[i](pt)


def composite_map(pt):
    """phi = sigma w4 w3 w2 w0 w1 w2 w3 w4, rightmost factor applied first."""
    for step in (_w4, _w3, _w2, _w1, _w0, _w2, _w3, _w4, sigma_inversion):
        pt = step(pt)
    return pt


def _negligible(x, scale):
    # `negligible` on GaussFloats: |x| < 2^-zero_bits() |scale| on exact squared norms
    return below(x.norm(), scale.norm(), 2 * zero_bits())


def composite_closed(pt):
    """Closed forms (fbar, gbar) of the composite's action on the point.

    Computed on GaussFloat from the parameters and the point, each
    converted once; fbar and gbar are rounded once each.  Each guard is
    `negligible` on its scale, |x| < 2^-zero_bits() |scale|, compared on
    exact squared norms.
    """
    b1, b2, b3, b4, b5, b6, b7, b8, f, g, one, two = gauss_floats([*pt.b, pt.f, pt.g, 1, 2])
    if _negligible(f, two) or _negligible(g, two):
        raise IndeterminacyError("closed forms are indeterminate on f g = 0")
    r1, r2 = b1 * b8 / b5, b2 * b8 / b5
    u = b3 * b4 * b5 * b5 / (b1 * b2 * b8)
    den = ((f * (g - b3) - (b8 * g - b3 * b5))
           * (f * (g - b4) - (b8 * g - b4 * b5)))
    if _negligible(den, abs(f * g) + one):
        raise IndeterminacyError("fbar denominator vanishes")
    fbar = (u * b6 / f * ((f * (g - r1) - b8 * (g - b1))
                          * (f * (g - r2) - b8 * (g - b2))) / den)
    fb5 = f - b5
    if _negligible(fb5, abs(f) + one):
        raise IndeterminacyError("gbar is indeterminate on f = b5")
    G = g * (f - b8) / fb5
    Gr1, Gr2 = G - r1, G - r2
    for v in (Gr1, Gr2):
        if _negligible(v, abs(G) + one):
            raise IndeterminacyError("gbar hits a parameter line")
    fP = f * ((G - b3) / Gr1) * ((G - b4) / Gr2)
    if _negligible(fP - b5, abs(f) + one):
        raise IndeterminacyError("gbar denominator vanishes")
    gbar = b1 * b2 * b8 / (b5 * g) * (fb5 / (f - b8)) * (fP - u) / (fP - b5)
    return fbar.mpc(), gbar.mpc()


def bpoint_from_surface(sp, coords):
    """Dictionary from surface parameters/coordinates to the b-chart (`b_params`)."""
    return BPoint(b=b_params(sp), f=coords.xi, g=coords.y)


def surface_from_bpoint(pt):
    """Inverse dictionary, from the b-chart to surface parameters/coordinates."""
    b1, b2, b3, b4, b5, b6, b7, b8 = pt.b
    num, den = _lattice_products(pt.b)
    q = num / den
    sp = SurfaceParams(k1=1 / b7, k2=q / b8, t1=b1 * b2 / b5, t2=b1 * b2 / b6,
                       c=(b1, b2, b3, b4), q=q)
    return sp, SurfaceCoords(y=pt.g, xi=pt.f)
