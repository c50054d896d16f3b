import mpmath as mp
import pytest

from qpvi import continuum, laxpair, painleve, verify, weyl
from qpvi.errors import ConstraintError, DomainError, IndeterminacyError
from qpvi.polys import mat_det, padd, pmax, pscale


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
    return painleve.SurfaceCoords(y=y_new, xi=xi_new), sp.step()


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


class TestSurfaceParams:
    def test_constraint_enforced(self):
        with mp.workprec(128):
            c = (mp.mpc("0.4"), mp.mpc("0.7"), mp.mpc("1.3"), mp.mpc("0.9"))
            with pytest.raises(ConstraintError):
                painleve.SurfaceParams(k1=mp.mpc("0.2"), k2=mp.mpc("0.3"),
                                       t1=mp.mpc("0.11"), t2=mp.mpc("0.5"),
                                       c=c, q=mp.mpf("0.5"))

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

    def test_gauge_invariance(self, ref_params, ctx, prec192):
        # conjugating A by a constant diagonal rescales e12/e21 but leaves
        # (y, xi) unchanged
        n = 3
        sp, co = coords_at(ref_params, ctx, n)
        A = ctx.fits()[n].matrix
        lam = mp.mpc("1.7", "-0.4")
        B = [A[0], pscale(A[1], lam), pscale(A[2], 1 / lam), A[3]]
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
        d, dt = mat_det(A), mat_det(At)
        assert pmax(padd(dt, pscale(d, q), -1)) < 1e-40 * pmax(d)
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
    @pytest.mark.parametrize("prec", [128, 192])
    def test_generic_orbit_matches_chained_steps(self, prec):
        with mp.workprec(prec):
            for sp, co in generic_points(10):
                got, sp2 = painleve.phi_orbit(co, sp, 6)
                want, sp3 = chained(co, sp, 6)
                assert rel(got.y, want.y) <= 2 ** -(prec - 16)
                assert rel(got.xi, want.xi) <= 2 ** -(prec - 16)
                assert sp2 == sp3

    def test_weight_orbit_matches_chained_steps(self, ref_params, ctx, prec192):
        sp, co = coords_at(ref_params, ctx, 1)
        got, sp2 = painleve.phi_orbit(co, sp, 14)
        want, sp3 = chained(co, sp, 14)
        assert rel(got.y, want.y) <= 2 ** -176 and rel(got.xi, want.xi) <= 2 ** -176
        assert sp2 == sp3

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

    def test_zero_and_negative_length(self, ref_params, ctx, prec192):
        sp, co = coords_at(ref_params, ctx, 2)
        assert painleve.phi_orbit(co, sp, 0) == (co, sp)
        with pytest.raises(DomainError):
            painleve.phi_orbit(co, sp, -1)

    def test_guard_names_base_point_of_failing_step(self, prec192):
        # parameters of step j, chosen so that c1 c2/theta2 lies 10 % from
        # c1 c2/theta1 at step j but not at step 0
        q, j = mp.mpf("0.5"), 2
        c = (mp.mpc("0.7", "0.2"), mp.mpc("-0.4", "0.9"),
             mp.mpc("1.3", "-0.3"), mp.mpc("0.6", "0.5"))
        k2, t1 = mp.mpc("0.8", "-0.4"), mp.mpc("0.275", "0.075")
        t2 = mp.mpf("1.1") * t1
        k1 = t1 * t2 / (k2 * c[0] * c[1] * c[2] * c[3])
        sp_j = painleve.SurfaceParams(k1=k1, k2=k2, t1=t1, t2=t2, c=c, q=q)
        sp = painleve.SurfaceParams(k1=k1 / q ** j, k2=k2, t1=t1 / q ** j, t2=t2,
                                    c=c, q=q)
        # a point of T = 0 near the base point (0, c1 c2/theta1) of step j
        y = mp.mpc("0.015625", "0.0078125")
        _, T = oracle_st_terms(painleve.SurfaceCoords(y=y, xi=mp.mpc(1)), sp_j)
        xi = min(mp.polyroots(T), key=lambda r: abs(r - c[0] * c[1] / t1))
        # its preimage j steps back, through the reversed Weyl word; that
        # word lands on a copy of the surface scaled by y, c -> lam (y, c),
        # xi -> lam^2 xi, which is undone
        pt = weyl.bpoint_from_surface(sp_j, painleve.SurfaceCoords(y=y, xi=xi))
        for _ in range(j):
            pt = step_back(pt)
        lam = pt.b[0] / c[0]
        co = painleve.SurfaceCoords(y=pt.g / lam, xi=pt.f / lam ** 2)
        reached, _ = painleve.phi_orbit(co, sp, j)
        assert rel(reached.y, y) < 1e-50 and rel(reached.xi, xi) < 1e-50
        label = "(y, xi) = (0, c1 c2/theta1)"
        assert painleve._nearest_base_point(sp_j, y, xi) == label
        assert painleve._nearest_base_point(sp, y, xi) != label
        with pytest.raises(IndeterminacyError) as err:
            painleve.phi_orbit(co, sp, j + 2)
        assert str(err.value) == "y T cancels to working precision near " + label

    def test_off_constraint_params_rejected(self, ref_params, ctx, prec192):
        sp, co = coords_at(ref_params, ctx, 3)
        object.__setattr__(sp, "t2", 2 * sp.t2)  # past the constructor's check
        for k in (0, 1, 5):
            with pytest.raises(ConstraintError):
                painleve.phi_orbit(co, sp, k)
        with pytest.raises(ConstraintError):
            painleve.phi_step(co, sp)


class TestFactorizations:
    def test_on_constraint(self, ref_params, ctx, prec192):
        for n in (2, 5):
            sp, co = coords_at(ref_params, ctx, n)
            for r in painleve.factorization_residuals(co, sp):
                assert r < 1e-40

    def test_matches_oracle(self, prec192):
        for sp, co in generic_points(50):
            S, T = painleve._st_terms(painleve._st_coefficients(sp), sp.c,
                                      co.y, co.xi)
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
