import random
from types import SimpleNamespace

import mpmath as mp
import pytest
from mpmath.libmp import fzero, mpf_mul
from mpmath.libmp.libmpc import mpc_mul

from qpvi import continuum, laxpair, painleve, polys, verify, weyl
from qpvi.errors import (ConsistencyError, ConstraintError, DegenerateError, DegreeError,
                         DomainError, GaugeError, IndeterminacyError, QpviError,
                         SingularGaugeError)
from qpvi.polys import ExactPoly


def coords_at(ref_params, ctx, n):
    sp = painleve.params_from_weight(ref_params, n)
    co = painleve.extract_coords(ctx.fits()[n].matrix, sp)
    return sp, co


# Test oracle: the step written out with every parameter product formed at
# the point, as S, T and xi' read before `phi_orbit` shared them.

def oracle_st_terms(coords, sp):
    y, xi = coords.y, coords.xi
    k1, k2, t1, t2 = sp.k1, sp.k2, sp.t1, sp.t2
    c1, c2, c3, c4 = sp.c
    q = sp.q
    s1 = c1 + c2 + c3 + c4
    s3 = c1 * c2 * c3 + c1 * c2 * c4 + c1 * c3 * c4 + c2 * c3 * c4
    S = [-q * k1 * k2 * t1 * xi ** 2 * (y - c3) * (y - c4),
         xi * ((q ** 2 * k1 * t1 + k2 * t2) * y ** 2 - q * k1 * k2 * s3 * y
               + 2 * q * t1 * t2),
         -q * t2 * (y - c1) * (y - c2)]
    T = [-k1 * k2 ** 2 * xi ** 2 * (y - c3) * (y - c4),
         xi * (2 * q * k1 * k2 * y ** 2 - q * k1 * k2 * s1 * y
               + (q ** 2 * k1 * t1 + k2 * t2)),
         -q ** 2 * k1 * (y - c1) * (y - c2)]
    return S, T


def oracle_phi_step(coords, sp):
    return oracle_step_coords(coords, sp), sp.step()


def oracle_step_coords(coords, sp):
    y, xi = coords.y, coords.xi
    k1, k2, t1, t2 = sp.k1, sp.k2, sp.t1, sp.t2
    c1, c2, c3, c4 = sp.c
    q = sp.q
    Sterms, Tterms = oracle_st_terms(coords, sp)
    y_new = mp.fsum(Sterms) / (y * mp.fsum(Tterms))
    f1 = xi * (y - q * t1 / (c1 * k2)) - (q / k2) * (y - c2)
    f2 = xi * (y - q * t1 / (c2 * k2)) - (q / k2) * (y - c1)
    g1 = xi * (y - c4) - (q / k2) * (y - t2 / (q * c3 * k1))
    g2 = xi * (y - c3) - (q / k2) * (y - t2 / (q * c4 * k1))
    xi_new = (c1 * c2 / (q * k1 * t1 * xi)) * (f1 * f2) / (g1 * g2)
    return painleve.SurfaceCoords(y=y_new, xi=xi_new)


def oracle_factorization_residuals(coords, sp):
    y, xi = coords.y, coords.xi
    k1, k2, t1, t2 = sp.k1, sp.k2, sp.t1, sp.t2
    c1, c2, c3, c4 = sp.c
    q = sp.q
    Sterms, Tterms = oracle_st_terms(coords, sp)
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


def generic_points(count):
    """(params, coords) from the samplers of checks 09 and 11, alternately."""
    out = []
    for i in range(count):
        if i % 2:
            out.append(weyl.surface_from_bpoint(verify._composite_point(0, i // 2)))
        else:
            out.append(verify._factorization_point(0, i // 2))
    return out


def rel(a, b):
    return abs(a - b) / abs(b)


def chained(coords, sp, k):
    for _ in range(k):
        coords, sp = painleve.phi_step(coords, sp)
    return coords, sp


def step_back(pt):
    """The inverse of `weyl.composite_map`: its involutions in reverse order."""
    pt = weyl.sigma_inversion(pt)
    for i in (4, 3, 2, 0, 1, 2, 3, 4):
        pt = weyl.elementary(i, pt)
    return pt


def preimage(sp_j, y, xi, j):
    """(coords, params) whose orbit reaches (y, xi) under sp_j after j steps.

    The point is stepped back through the reversed Weyl word; that word
    lands on a copy of the surface scaled by y, c -> lam (y, c),
    xi -> lam^2 xi, which is undone.
    """
    pt = weyl.bpoint_from_surface(sp_j, painleve.SurfaceCoords(y=y, xi=xi))
    for _ in range(j):
        pt = step_back(pt)
    lam = pt.b[0] / sp_j.c[0]
    q = sp_j.q
    sp = painleve.SurfaceParams(k1=sp_j.k1 / q ** j, k2=sp_j.k2, t1=sp_j.t1 / q ** j,
                                t2=sp_j.t2, c=sp_j.c, q=q)
    return painleve.SurfaceCoords(y=pt.g / lam, xi=pt.f / lam ** 2), sp


def guard_params():
    """Parameters of step 2 for the mid-orbit guard tests (q = 1/2)."""
    q = mp.mpf("0.5")
    c = (mp.mpc("0.7", "0.2"), mp.mpc("-0.4", "0.9"),
         mp.mpc("1.3", "-0.3"), mp.mpc("0.6", "0.5"))
    k2, t1 = mp.mpc("0.8", "-0.4"), mp.mpc("0.275", "0.075")
    t2 = mp.mpf("1.1") * t1
    k1 = t1 * t2 / (k2 * c[0] * c[1] * c[2] * c[3])
    return painleve.SurfaceParams(k1=k1, k2=k2, t1=t1, t2=t2, c=c, q=q)


class TestSurfaceParams:
    def test_constraint_enforced(self):
        with mp.workprec(128):
            c = (mp.mpc("0.4"), mp.mpc("0.7"), mp.mpc("1.3"), mp.mpc("0.9"))
            with pytest.raises(ConstraintError):
                painleve.SurfaceParams(k1=mp.mpc("0.2"), k2=mp.mpc("0.3"),
                                       t1=mp.mpc("0.11"), t2=mp.mpc("0.5"),
                                       c=c, q=mp.mpf("0.5"))

    @pytest.mark.parametrize("field", ["k1", "t2", "c", "q"])
    def test_nonfinite_rejected(self, field):
        # the exact conversion of the constraint check refuses nan and inf
        with mp.workprec(128):
            good = {"k1": mp.mpc("0.2"), "k2": mp.mpc("0.3"), "t1": mp.mpc("0.12"),
                    "t2": mp.mpc("0.5"), "c": tuple(mp.mpc(1) for _ in range(4)),
                    "q": mp.mpf("0.5")}
            painleve.SurfaceParams(**good)
            for x in (mp.nan, mp.inf):
                value = (x,) + good["c"][1:] if field == "c" else x
                with pytest.raises(ConstraintError) as err:
                    painleve.SurfaceParams(**{**good, field: value})
                assert str(err.value) == "surface parameters must be finite"

    def test_weight_dictionary(self, ref_params, prec192):
        n = 4
        sp = painleve.params_from_weight(ref_params, n)
        a, b, q = ref_params.a, ref_params.b, ref_params.q
        assert abs(sp.k1 - b * q**(n + 1)) < 1e-50
        assert abs(sp.k2 - a * q) < 1e-50
        assert abs(sp.t1 - mp.conj(b) * q**n) < 1e-50
        assert abs(sp.t2 - mp.conj(a)) < 1e-50
        assert sp.constraint_residual() < 1e-50

    def test_step_flow(self, ref_params, prec192):
        sp = painleve.params_from_weight(ref_params, 2)
        sp2 = sp.step()
        assert abs(sp2.k1 - sp.q * sp.k1) < 1e-50
        assert abs(sp2.t1 - sp.q * sp.t1) < 1e-50
        assert sp2.k2 == sp.k2 and sp2.t2 == sp.t2 and sp2.c == sp.c
        # stepped parameters match the dictionary at n + 1
        sp3 = painleve.params_from_weight(ref_params, 3)
        assert abs(sp2.k1 - sp3.k1) < 1e-50 and abs(sp2.t1 - sp3.t1) < 1e-50

    def test_blown_up_points(self, ref_params, prec192):
        sp = painleve.params_from_weight(ref_params, 3)
        pts = painleve.blown_up_points(sp)
        assert len(pts) == 8
        ys = [p[1] for p in pts]
        xis = [p[2] for p in pts]
        assert sum(1 for y in ys if y == mp.inf) == 2
        assert sum(1 for y in ys if y == 0) == 2
        assert sum(1 for x in xis if x == mp.inf) == 2
        assert sum(1 for x in xis if x == 0) == 2


class TestCoordinates:
    def test_y_closed_form(self, ref_params, ctx, prec192):
        for n in (2, 5, 8):
            sp, co = coords_at(ref_params, ctx, n)
            yc = painleve.y_closed(ref_params, ctx.vt(), n)
            assert abs(co.y - yc) < 1e-40 * (1 + abs(yc))

    def test_y_closed_order_range(self, ref_params, ctx, prec192):
        # y_n reads alpha_{n+1}: the table's last order and negative n are refused
        vt = ctx.vt()
        for n in (vt.N, -1):
            with pytest.raises(DegreeError):
                painleve.y_closed(ref_params, vt, n)

    def test_gauge_invariance(self, ref_params, ctx, prec192):
        # conjugating A by a constant diagonal rescales e12/e21 but leaves
        # (y, xi) unchanged
        n = 3
        sp, co = coords_at(ref_params, ctx, n)
        A = ctx.fits()[n].matrix
        lam = mp.mpc("1.7", "-0.4")
        B = [A[0], [lam * x for x in A[1]], [x / lam for x in A[2]], A[3]]
        co2 = painleve.extract_coords(B, sp)
        assert abs(co.y - co2.y) < 1e-40
        assert abs(co.xi - co2.xi) < 1e-40 * (1 + abs(co.xi))


class TestStep:
    def test_three_routes_agree(self, ref_params, ctx, prec192):
        for n in (2, 3, 7):
            sp, co = coords_at(ref_params, ctx, n)
            # route one: extraction at n + 1 from the recursion chain
            spn, con = coords_at(ref_params, ctx, n + 1)
            # route two: rational step on (y, xi)
            co2, sp2 = painleve.phi_step(co, sp)
            # route three: matrix step then extraction
            At, sp3 = painleve.matrix_step(ctx.fits()[n].matrix, sp)
            co3 = painleve.extract_coords(At, sp3)
            for other in (co2, co3):
                assert abs(other.y - con.y) < 1e-35 * (1 + abs(con.y))
                assert abs(other.xi - con.xi) < 1e-35 * (1 + abs(con.xi))
            assert sp2.constraint_residual() < 1e-40

    def test_matrix_step_invariants(self, ref_params, ctx, prec192):
        n = 3
        sp = painleve.params_from_weight(ref_params, n)
        A = ctx.fits()[n].matrix
        At, sp2 = painleve.matrix_step(A, sp)
        q = ref_params.q
        # det gains one factor of q
        def det(M):
            P, Q, Qs, Ps = map(ExactPoly.of, M)
            return P * Ps - Q * Qs
        d, dt = det(A), det(At)
        assert (dt - ExactPoly.of([q]) * d).max() < 1e-40 * d.max()
        # normalized gauge: e12 = w z - q, so w ytilde = q
        assert abs(At[1][0] + q) < 1e-40
        co2 = painleve.extract_coords(At, sp2)
        assert abs(At[1][1] * co2.y - q) < 1e-40
        # corner spectra move from (k1, t1 | k2, t2) to (q k1, q t1 | k2, t2)
        assert abs(At[0][-1] - q * sp.k1) < 1e-40
        assert abs(At[0][0] - q * sp.t1) < 1e-40
        assert abs(At[3][-1] - sp.k2) < 1e-40
        assert abs(At[3][0] - sp.t2) < 1e-40

    def test_base_point_guard(self, ref_params, prec192):
        sp = painleve.params_from_weight(ref_params, 3)
        co = painleve.SurfaceCoords(y=sp.c[0], xi=mp.mpc(0))
        with pytest.raises(IndeterminacyError):
            painleve.phi_step(co, sp)

    def test_matches_oracle(self, prec192):
        for sp, co in generic_points(50):
            got, sp2 = painleve.phi_step(co, sp)
            want, sp3 = oracle_phi_step(co, sp)
            assert rel(got.y, want.y) <= 1e-50 and rel(got.xi, want.xi) <= 1e-50
            assert sp2 == sp3


class TestOrbit:
    @pytest.mark.parametrize("prec", [53, 128, 192])
    def test_generic_orbit_matches_chained_steps(self, prec):
        # the parameters also equal k `SurfaceParams.step` calls, a route
        # that shares no code with the orbit's raw flow
        with mp.workprec(prec):
            for sp, co in generic_points(10):
                got, sp2 = painleve.phi_orbit(co, sp, 6)
                want, sp3 = chained(co, sp, 6)
                assert rel(got.y, want.y) <= 2 ** -(prec - 16)
                assert rel(got.xi, want.xi) <= 2 ** -(prec - 16)
                sp4 = sp
                for _ in range(6):
                    sp4 = sp4.step()
                assert sp2 == sp3 == sp4

    def test_flow_rounds_as_mpc_product(self):
        # kappa1 = theta1 nearly real under a complex q: the real part of
        # q kappa1 is a difference of two products 2^-136 apart, which
        # mpmath rounds as the larger one plus a sticky bit, one unit from
        # the correct rounding of the exact difference; the orbit's flow
        # still returns what `SurfaceParams.step` returns
        with mp.workprec(128):
            q = mp.mpc(mp.mpf(3) / 5, mp.mpf(4) / 5)
            k1 = mp.mpc(1 + mp.mpf(554) / 7, mp.mpf(554) / 7 * mp.mpf(2) ** -136)
            sp = painleve.SurfaceParams(k1=k1, k2=1, t1=k1, t2=1, c=(1, 1, 1, 1), q=q)
            exact = ExactPoly.of([q]) * ExactPoly.of([k1])
            assert exact.rounded()[0] != q * k1
            co = painleve.SurfaceCoords(y=mp.mpc("0.3", "0.2"), xi=mp.mpc("0.7", "-0.1"))
            _, sp1 = painleve.phi_orbit(co, sp, 1)
            assert sp1 == sp.step()
            assert sp1.k1 == sp1.t1 == q * k1

    @pytest.mark.parametrize("prec", [53, 128, 192])
    @pytest.mark.parametrize("rnd", "nfcdu")
    def test_real_flow_rounds_as_mpc_mul(self, prec, rnd):
        # real q, kappa1 and theta1 advance by mpf_mul on the real parts,
        # which rounds as mpc_mul does: over random mantissas and exponents,
        # and through the orbit, under every rounding mode
        rng = random.Random(f"real-flow:{prec}:{rnd}")
        co = painleve.SurfaceCoords(y=mp.mpc("0.3", "0.2"), xi=mp.mpc("0.7", "-0.1"))
        with mp.workprec(prec):
            mp.mp._prec_rounding[1] = rnd
            try:
                for _ in range(300):
                    a, b = (mp.mpc(mp.ldexp(rng.getrandbits(prec) * rng.choice((1, -1)),
                                            rng.randint(-prec - 40, -prec + 40)))
                            for _ in range(2))
                    assert ((mpf_mul(a.real._mpf_, b.real._mpf_, prec, rnd), fzero)
                            == mpc_mul(a._mpc_, b._mpc_, prec, rnd))
                for _ in range(5):
                    q, k1, t1 = (mp.mpf(rng.uniform(0.2, 1.8)) / 3 for _ in range(3))
                    sp = painleve.SurfaceParams(k1=k1, k2=1, t1=t1, t2=k1 / t1,
                                                c=(1, 1, 1, 1), q=q)
                    _, sp3 = painleve.phi_orbit(co, sp, 3)
                    want = sp.k1._mpc_, sp.t1._mpc_
                    for _ in range(3):
                        want = tuple(mpc_mul(sp.q._mpc_, x, prec, rnd) for x in want)
                    assert (sp3.k1._mpc_, sp3.t1._mpc_) == want
            finally:
                mp.mp._prec_rounding[1] = "n"

    @pytest.mark.parametrize("q, calls", [(mp.mpc("0.6", "0.8"), 6), (mp.mpc("0.6"), 0)])
    def test_complex_q_goes_through_mpc_mul(self, monkeypatch, q, calls):
        # kappa1 and theta1 real: a complex q still flows through mpc_mul
        count = [0]

        def counted(*args):
            count[0] += 1
            return mpc_mul(*args)
        monkeypatch.setattr(painleve, "mpc_mul", counted)
        with mp.workprec(128):
            sp = painleve.SurfaceParams(k1=mp.mpf("0.7"), k2=1, t1=mp.mpf("0.7"), t2=1,
                                        c=(1, 1, 1, 1), q=q)
            co = painleve.SurfaceCoords(y=mp.mpc("0.3", "0.2"), xi=mp.mpc("0.7", "-0.1"))
            _, sp3 = painleve.phi_orbit(co, sp, 3)
            assert count[0] == calls
            assert sp3 == sp.step().step().step()

    def test_weight_orbit_matches_600_bit_reference(self, ref_params, ctx, prec192):
        # the plain-mpmath step at 600 bits from the same 192-bit point and
        # parameters; the map grows errors about 4.5-fold per step, and the
        # 14-step orbit, rounded once at the end, lands 2^-172.7 from the
        # reference, no farther than 14 chained steps rounded at each
        sp, co = coords_at(ref_params, ctx, 1)
        got, sp2 = painleve.phi_orbit(co, sp, 14)
        steps, sp3 = chained(co, sp, 14)
        assert sp2 == sp3
        with mp.workprec(600):
            want, here = co, SimpleNamespace(k1=sp.k1, k2=sp.k2, t1=sp.t1, t2=sp.t2,
                                             c=sp.c, q=sp.q)
            for _ in range(14):
                want = oracle_step_coords(want, here)
                here.k1, here.t1 = here.q * here.k1, here.q * here.t1
            assert rel(got.y, want.y) <= 2 ** -171 and rel(got.xi, want.xi) <= 2 ** -171
            assert rel(got.y, want.y) <= rel(steps.y, want.y)
            assert rel(got.xi, want.xi) <= rel(steps.xi, want.xi)

    def test_continuum_orbit_matches_chained_steps(self):
        # near the identity y - c_i is O(eps), which costs log2(1/eps) bits
        lp, w = continuum.reference_limit()
        with mp.workprec(128):
            eps = mp.mpf("0.01")
            sp = continuum.discrete_step_params(lp, eps, w["t0"])
            co = painleve.SurfaceCoords(y=1 + eps * w["u0"], xi=w["v0"])
            got, sp2 = painleve.phi_orbit(co, sp, 69)
            want, sp3 = chained(co, sp, 69)
            assert rel(got.y, want.y) <= 2 ** -112 / eps
            assert rel(got.xi, want.xi) <= 2 ** -112 / eps
            assert sp2 == sp3

    @pytest.mark.parametrize("prec", [128, 192])
    def test_study_orbit_matches_384_bit_run(self, prec):
        # the eps = 0.0025 orbit of the continuum study, from the same
        # decimal inputs at prec and at 384 bits
        def endpoint(bits):
            with mp.workprec(bits):
                lp, w = continuum.reference_limit()
                eps = mp.mpf("0.0025")
                sp = continuum.discrete_step_params(lp, eps, w["t0"])
                co = painleve.SurfaceCoords(y=1 + eps * w["u0"], xi=w["v0"])
                return painleve.phi_orbit(co, sp, 277)[0]
        got, want = endpoint(prec), endpoint(384)
        with mp.workprec(384):
            assert rel(got.y, want.y) <= 2 ** -(prec - 16) / mp.mpf("0.0025")
            assert rel(got.xi, want.xi) <= 2 ** -(prec - 16) / mp.mpf("0.0025")

    def test_zero_theta1(self):
        # theta1 = 0 stays 0 under the flow, and the constraint then needs
        # kappa1 = 0; the step divides by both, so the parameters are refused
        with mp.workprec(128), pytest.raises(DegenerateError, match="kappa1 = 0, theta1 = 0"):
            painleve.SurfaceParams(k1=0, k2=1, t1=0, t2=1, c=(1, 2, 3, 4), q=mp.mpf("0.5"))

    @pytest.mark.parametrize("k2, c, zero", [(0, (1, 2, 3, 4), "kappa2 = 0"),
                                             (1, (0, 2, 3, 4), "c1 = 0")])
    def test_zero_divisor_parameter(self, k2, c, zero):
        # with theta2 = 0 the constraint holds whatever kappa2 and c1 are
        with mp.workprec(128), pytest.raises(DegenerateError, match=zero):
            painleve.SurfaceParams(k1=1, k2=k2, t1=1, t2=0, c=c, q=mp.mpf("0.5"))

    # each zero divisor with theta2 = 0, so that the constraint holds; a zero
    # theta1 needs a zero on the left of the constraint too
    ZERO_DIVISORS = {"kappa1": dict(k1=0), "kappa2": dict(k2=0),
                     "kappa1 = 0, theta1": dict(k1=0, t1=0),
                     "c1": dict(c=(0, 2, 3, 4)), "c2": dict(c=(1, 0, 3, 4)),
                     "c3": dict(c=(1, 2, 0, 4)), "c4": dict(c=(1, 2, 3, 0))}

    @pytest.mark.parametrize("zeros", ZERO_DIVISORS)
    def test_each_zero_divisor_refused_at_construction(self, zeros):
        args = dict(k1=2, k2=3, t1=5, t2=0, c=(1, 2, 3, 4), q=mp.mpf("0.5"))
        args.update(self.ZERO_DIVISORS[zeros])
        with mp.workprec(128), pytest.raises(DegenerateError) as exc:
            painleve.SurfaceParams(**args)
        assert str(exc.value) == (f"{zeros} = 0: the step divides by "
                                  "kappa1, kappa2, theta1 and c1..c4")

    def test_zero_theta2_violates_the_constraint(self):
        # with the seven divisors nonzero, theta2 = 0 cannot satisfy the constraint
        with mp.workprec(128), pytest.raises(ConstraintError, match="violated by 1"):
            painleve.SurfaceParams(k1=2, k2=3, t1=5, t2=0, c=(1, 2, 3, 4), q=mp.mpf("0.5"))

    @pytest.mark.parametrize("bad", [mp.nan, mp.inf, mp.mpc(0, -mp.inf)])
    def test_non_finite_coordinates(self, ref_params, ctx, prec192, bad):
        sp, co = coords_at(ref_params, ctx, 2)
        for start in (painleve.SurfaceCoords(y=bad, xi=co.xi),
                      painleve.SurfaceCoords(y=co.y, xi=bad)):
            with pytest.raises(DomainError, match="finite"):
                painleve.phi_orbit(start, sp, 3)
            with pytest.raises(DomainError, match="finite"):
                painleve.phi_step(start, sp)

    def test_zero_and_negative_length(self, ref_params, ctx, prec192):
        sp, co = coords_at(ref_params, ctx, 2)
        assert painleve.phi_orbit(co, sp, 0) == (co, sp)
        with pytest.raises(DomainError):
            painleve.phi_orbit(co, sp, -1)

    def test_guard_names_base_point_of_failing_step(self, prec192):
        # parameters of step j, chosen so that c1 c2/theta2 lies 10 % from
        # c1 c2/theta1 at step j but not at step 0
        j = 2
        sp_j = guard_params()
        c, t1 = sp_j.c, sp_j.t1
        # a point of T = 0 near the base point (0, c1 c2/theta1) of step j
        y = mp.mpc("0.015625", "0.0078125")
        _, T = oracle_st_terms(painleve.SurfaceCoords(y=y, xi=mp.mpc(1)), sp_j)
        xi = min(mp.polyroots(T), key=lambda r: abs(r - c[0] * c[1] / t1))
        # its preimage j steps back
        co, sp = preimage(sp_j, y, xi, j)
        reached, _ = painleve.phi_orbit(co, sp, j)
        assert rel(reached.y, y) < 1e-50 and rel(reached.xi, xi) < 1e-50
        label = "(y, xi) = (0, c1 c2/theta1)"
        assert painleve._nearest_base_point(sp_j, y, xi) == label
        assert painleve._nearest_base_point(sp, y, xi) != label
        with pytest.raises(IndeterminacyError) as err:
            painleve.phi_orbit(co, sp, j + 2)
        assert str(err.value) == "y T cancels to working precision near " + label

    def test_xi_zero_guard_mid_orbit(self):
        # the line f1 = 0, xi (y - q theta1/(c1 kappa2)) = (q/kappa2)(y - c2),
        # is blown down to (c1, 0); with dyadic entries f1 is exactly 0, so
        # step 0 lands on xi = 0, while c4 = 4/7 keeps y off c1 by a
        # rounding, so that T does not vanish there
        with mp.workprec(128):
            h = mp.mpf("0.5")
            sp = painleve.SurfaceParams(k1=h, k2=1, t1=1, t2=h,
                                        c=(1, mp.mpf("0.25"), 7, mp.mpf(4) / 7), q=h)
            co = painleve.SurfaceCoords(y=mp.mpc("0.75"), xi=mp.mpc(1))
            co1, sp1 = painleve.phi_step(co, sp)
            assert co1.xi == 0 and co1.y != 1
            with pytest.raises(IndeterminacyError) as err:
                painleve.phi_orbit(co, sp, 2)
            label = painleve._nearest_base_point(sp1, co1.y, co1.xi)
            assert label == "(y, xi) = (c1, 0)"
            assert str(err.value) == "xi = 0; step hit " + label

    def test_denominator_guard_mid_orbit(self, prec192):
        # a point of g1 = xi (y - c4) - (q/kappa2)(y - r3) = 0 at step j,
        # r3 = theta2/(q c3 kappa1), reached from j steps back
        j = 2
        sp_j = guard_params()
        c3, c4 = sp_j.c[2], sp_j.c[3]
        w, r3 = sp_j.q / sp_j.k2, sp_j.t2 / (sp_j.q * c3 * sp_j.k1)
        y = mp.mpc("0.3", "0.4")
        xi = w * (y - r3) / (y - c4)
        co, sp = preimage(sp_j, y, xi, j)
        reached, _ = painleve.phi_orbit(co, sp, j)
        assert rel(reached.y, y) < 1e-50 and rel(reached.xi, xi) < 1e-50
        with pytest.raises(IndeterminacyError) as err:
            painleve.phi_orbit(co, sp, j + 1)
        label = painleve._nearest_base_point(sp_j, y, xi)
        assert str(err.value) == "xi' denominator factor vanishes; step hit " + label

    def test_top_bounds_the_squared_norm(self):
        # the bounds of the guards' pre-test: 2^(2 top - 2) <= |x|^2 < 2^(2 top + 1)
        rng = random.Random(3)
        edges = [(1, 0, 0), (0, -1, 5), (2 ** 40, 2 ** 40 - 1, -7), (2 ** 40 - 1, 2 ** 40 - 1, 3),
                 (-(2 ** 138 - 1), 2 ** 138 - 1, -200)]
        draws = [(rng.getrandbits(rng.randint(1, 140)) * rng.choice([1, -1]),
                  rng.getrandbits(rng.randint(0, 140)) * rng.choice([1, -1]),
                  rng.randint(-300, 300)) for _ in range(500)]
        for re, im, e in edges + draws:
            if not (re or im):
                continue
            x = polys.GaussFloat(re, im, e, 148)
            top = painleve._top(x)
            assert not polys.below(x.norm(), (1, 2 * top - 2)), (re, im, e)
            assert polys.below(x.norm(), (1, 2 * top + 1)), (re, im, e)

    @pytest.mark.parametrize("shift, fails", [(-2, False), (2, True)])
    @pytest.mark.parametrize("guard", ["yT", "g1", "g2"])
    def test_guard_margin(self, prec192, guard, shift, fails):
        """Each magnitude guard of step j with its quantity at
        2^-(zero_bits() + shift) of its scale: |T| of max |T_i| (the y
        cancels), or |g_i| of (|xi| + |q/kappa2|)(1 + |y|).  Four times
        above the zero level the orbit goes on; four times below it raises
        the pinned class and message."""
        j = 2
        sp_j = guard_params()
        c1, c2, c3, c4 = sp_j.c
        level = mp.ldexp(1, -(polys.zero_bits() + shift))
        y = mp.mpc("0.3", "0.4")
        if guard == "yT":
            _, T = oracle_st_terms(painleve.SurfaceCoords(y=y, xi=mp.mpc(1)), sp_j)
            root = max(mp.polyroots(T), key=abs)
            scale = max(abs(T[0] * root ** 2), abs(T[1] * root), abs(T[2]))
            xi = root + level * scale / abs(2 * T[0] * root + T[1])
            _, T = oracle_st_terms(painleve.SurfaceCoords(y=y, xi=xi), sp_j)
            ratio = abs(mp.fsum(T)) / max(abs(t) for t in T)
            message = "y T cancels to working precision near "
        else:
            w = sp_j.q / sp_j.k2
            ci, cj = (c3, c4) if guard == "g1" else (c4, c3)
            r = sp_j.t2 / (sp_j.q * ci * sp_j.k1)
            xi0 = w * (y - r) / (y - cj)  # g = xi (y - cj) - w (y - r) = 0
            xi = xi0 + level * (abs(xi0) + abs(w)) * (1 + abs(y)) / abs(y - cj)
            ratio = abs(xi * (y - cj) - w * (y - r)) / ((abs(xi) + abs(w)) * (1 + abs(y)))
            message = "xi' denominator factor vanishes; step hit "
        assert abs(ratio / level - 1) < 1e-6
        co, sp = preimage(sp_j, y, xi, j)
        reached, _ = painleve.phi_orbit(co, sp, j)
        assert rel(reached.y, y) < 1e-50 and rel(reached.xi, xi) < 1e-50
        if not fails:
            painleve.phi_orbit(co, sp, j + 1)
            return
        with pytest.raises(IndeterminacyError) as err:
            painleve.phi_orbit(co, sp, j + 1)
        assert str(err.value) == message + painleve._nearest_base_point(sp_j, y, xi)

    def test_orbit_forms_no_mpc_product(self, monkeypatch):
        """A 277-step orbit forms no mpc product.  It used to form 554, two
        per step, for the (kappa1, theta1) flow; that flow now applies
        mpmath's raw `mpc_mul` to the parts."""
        count = [0]
        mpc = type(mp.mpc(1))
        mul, rmul = mpc.__mul__, mpc.__rmul__

        def counted(f):
            def g(a, b):
                count[0] += 1
                return f(a, b)
            return g
        lp, w = continuum.reference_limit()
        with mp.workprec(128):
            eps = mp.mpf("0.0025")
            sp = continuum.discrete_step_params(lp, eps, w["t0"])
            co = painleve.SurfaceCoords(y=1 + eps * w["u0"], xi=w["v0"])
            monkeypatch.setattr(mpc, "__mul__", counted(mul))
            monkeypatch.setattr(mpc, "__rmul__", counted(rmul))
            painleve.phi_orbit(co, sp, 277)
        assert count[0] == 0

    def test_off_constraint_params_rejected(self, ref_params, ctx, prec192):
        sp, co = coords_at(ref_params, ctx, 3)
        object.__setattr__(sp, "t2", 2 * sp.t2)  # past the constructor's check
        for k in (0, 1, 5):
            with pytest.raises(ConstraintError):
                painleve.phi_orbit(co, sp, k)
        with pytest.raises(ConstraintError):
            painleve.phi_step(co, sp)


class TestGuards:
    """The guards of `extract_coords` and `matrix_step`: error class,
    message, and the threshold 2^-(prec//2) from either side."""

    @staticmethod
    def fit3(ref_params, ctx):
        return painleve.params_from_weight(ref_params, 3), ctx.fits()[3].matrix

    def test_e12_degree(self, ref_params, ctx, prec192):
        sp, (e11, e12, e21, e22) = self.fit3(ref_params, ctx)
        for f in (mp.mpf("0.99"), mp.mpf("1.01")):
            # e12[1] at f times the trimming threshold 2^-96 max |e12_k|
            A = [e11, [e12[0], e12[0] * f * mp.mpf(2) ** -96], e21, e22]
            if f < 1:
                with pytest.raises(GaugeError) as err:
                    painleve.extract_coords(A, sp)
                assert str(err.value) == "e12 must have exact degree 1, got degree 0"
                with pytest.raises(GaugeError) as err:
                    painleve.matrix_step(A, sp)
                assert str(err.value) == "e12 must have exact degree 1 to normalize the gauge"
            else:
                for route in (painleve.extract_coords, painleve.matrix_step):
                    try:
                        route(A, sp)
                    except QpviError as exc:
                        assert not isinstance(exc, GaugeError)

    def test_e11_vanishes_at_y(self, ref_params, ctx, prec192):
        sp, (_, _, e21, e22) = self.fit3(ref_params, ctx)
        y = mp.mpf("0.75")
        for f in (mp.mpf("0.99"), mp.mpf("1.01")):
            # e11(y) at f times 2^-96 max |e11_k|, with max |e11_k| = 1
            A = [[-y + f * mp.mpf(2) ** -96, mp.mpc(1)], [-y, mp.mpc(1)], e21, e22]
            with pytest.raises(QpviError) as err:
                painleve.extract_coords(A, sp)
            if f < 1:
                label = painleve._nearest_base_point(sp, y, mp.inf)
                assert str(err.value) == "e11(y) vanishes; matrix sits at " + label
            else:
                assert not str(err.value).startswith("e11(y) vanishes")

    @pytest.mark.parametrize("bad", [mp.nan, mp.inf, mp.mpc(0, -mp.inf)])
    def test_non_finite_entry(self, ref_params, ctx, prec192, bad, monkeypatch):
        # refused by the conversion, before any GaussFloat arithmetic
        def refuse(*args):
            raise AssertionError("GaussFloat arithmetic reached")
        sp, A = self.fit3(ref_params, ctx)
        for i in range(4):
            B = [list(e) for e in A]
            B[i][-1] = bad
            with monkeypatch.context() as m:
                for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
                    m.setattr(polys.GaussFloat, op, refuse)
                for route in (painleve.extract_coords, painleve.matrix_step):
                    with pytest.raises(DomainError, match="must be finite"):
                        route(B, sp)

    def test_xi_denominator_vanishes(self, ref_params, ctx, prec192):
        sp, (e11, _, e21, e22) = self.fit3(ref_params, ctx)
        with pytest.raises(IndeterminacyError) as err:
            painleve.extract_coords([e11, [-sp.c[2], mp.mpc(1)], e21, e22], sp)
        assert str(err.value).startswith("xi cross-check degenerates at (y, xi) = ")

    def test_xi_expressions_disagree(self, ref_params, ctx, prec192):
        sp, (e11, e12, e21, e22) = self.fit3(ref_params, ctx)
        with pytest.raises(ConsistencyError) as err:
            painleve.extract_coords([e11, e12, e21, [mp.mpf("1.01") * x for x in e22]], sp)
        assert str(err.value).startswith("xi expressions disagree: ")

    def test_e21_must_vanish_at_zero(self, ref_params, ctx, prec192):
        sp, (e11, e12, e21, e22) = self.fit3(ref_params, ctx)
        with pytest.raises(GaugeError) as err:
            painleve.matrix_step([e11, e12, [mp.mpc("0.5")] + list(e21[1:]), e22], sp)
        assert str(err.value) == "e21 must vanish at z = 0"

    def test_singular_gauge(self, ref_params, ctx, prec192):
        # beta chosen so that Delta = (q k1 - k2)(q t1 - t2) + q beta = 0
        sp, (e11, e12, e21, e22) = self.fit3(ref_params, ctx)
        beta = -(sp.q * sp.k1 - sp.k2) * (sp.q * sp.t1 - sp.t2) / sp.q
        A = [e11, e12, [mp.mpc(0), beta / e12[1], e21[2]], e22]
        with pytest.raises(SingularGaugeError) as err:
            painleve.matrix_step(A, sp)
        assert str(err.value) == "gauge matrix B is singular: Delta ~ 0"

    def test_not_divisible_by_z(self, ref_params, ctx, prec192, monkeypatch):
        # e21(0) = 2^-100 passes the e21 guard, but leaves z^0 terms of
        # about 2^-100 in the product: under the default gate 2^-64, above
        # a gate of 2^-150
        sp, (e11, e12, e21, e22) = self.fit3(ref_params, ctx)
        A = [e11, e12, [mp.mpf(2) ** -100 / e12[1]] + list(e21[1:]), e22]
        painleve.matrix_step(A, sp)
        monkeypatch.setattr(painleve, "residual_tol", lambda: mp.mpf(2) ** -150)
        with pytest.raises(ConsistencyError) as err:
            painleve.matrix_step(A, sp)
        assert str(err.value) == ("conjugated matrix is not divisible by z; "
                                  "gauge data inconsistent")


class TestFactorizations:
    def test_on_constraint(self, ref_params, ctx, prec192):
        for n in (2, 5):
            sp, co = coords_at(ref_params, ctx, n)
            for r in painleve.factorization_residuals(co, sp):
                assert r < 1e-40

    def test_matches_oracle(self, prec192):
        for sp, co in generic_points(50):
            cf = painleve._st_coefficients(sp.k1, sp.k2, sp.t1, sp.t2, sp.c, sp.q)
            S, T = painleve._st_terms(cf, [co.y - x for x in sp.c], co.y, co.xi)
            S0, T0 = oracle_st_terms(co, sp)
            assert rel(mp.fsum(S), mp.fsum(S0)) <= 1e-50
            assert rel(mp.fsum(T), mp.fsum(T0)) <= 1e-50
            for r, r0 in zip(painleve.factorization_residuals(co, sp),
                             oracle_factorization_residuals(co, sp)):
                assert abs(r - r0) <= 1e-50

    def test_generic_coordinates(self, ref_params, prec192):
        # the identities hold for any (y, xi), not only on the orbit
        sp = painleve.params_from_weight(ref_params, 4)
        co = painleve.SurfaceCoords(y=mp.mpc("0.37", "0.21"), xi=mp.mpc("-0.9", "0.55"))
        for r in painleve.factorization_residuals(co, sp):
            assert r < 1e-40
