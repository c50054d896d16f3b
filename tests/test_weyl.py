import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qpvi import painleve, verify, weyl
from qpvi.errors import ChartError, DomainError, IndeterminacyError

vec = st.lists(st.integers(-6, 6), min_size=10, max_size=10).map(tuple)


def random_bpoint(seed, prec=128):
    rng = random.Random(f"test:weyl:{seed}")

    def z():
        r = mp.mpf(rng.uniform(0.4, 1.5))
        t = mp.mpf(rng.uniform(0, 2)) * mp.pi
        return r * mp.exp(1j * t)

    with mp.workprec(prec):
        return weyl.BPoint(b=tuple(z() for _ in range(8)), f=z(), g=z())


def close(x, y, tol=1e-30):
    return abs(x - y) <= tol * (1 + abs(x) + abs(y))


def points_close(p1, p2, tol=1e-30):
    return (all(close(a, b, tol) for a, b in zip(p1.b, p2.b))
            and close(p1.f, p2.f, tol) and close(p1.g, p2.g, tol))


class TestLattice:
    def test_all_checks(self):
        res = weyl.check_translation()
        for name, ok in res.items():
            assert ok, name

    def test_matrix_is_isometry(self):
        assert weyl.is_isometry(weyl.phi_pic())

    @given(vec, vec)
    @settings(max_examples=60, deadline=None)
    def test_pairing_preserved(self, u, v):
        M = weyl.phi_pic()
        assert weyl.ip(weyl.apply_pic(M, u), weyl.apply_pic(M, v)) == weyl.ip(u, v)

    def test_constants(self):
        k = weyl.pic_constants()
        d = k["delta"]
        assert weyl.ip(d, d) == 0
        # delta = alpha0 + alpha1 + 2 alpha2 + 2 alpha3 + alpha4 + alpha5
        mult = (1, 1, 2, 2, 1, 1)
        acc = [0] * 10
        for m, a in zip(mult, k["alpha"]):
            acc = [x + m * y for x, y in zip(acc, a)]
        assert tuple(acc) == tuple(d)
        assert len(k["F"]) == 8
        for a in k["alpha"]:
            assert weyl.ip(a, a) == -2


class TestBirational:
    def test_bpoint_validation(self):
        with mp.workprec(64):
            with pytest.raises(DomainError):
                weyl.BPoint(b=(mp.mpc(0),) + tuple(mp.mpc(1) for _ in range(7)),
                            f=mp.mpc(1), g=mp.mpc(1))

    def test_generator_index_range(self):
        pt = random_bpoint(0)
        with pytest.raises(DomainError):
            weyl.elementary(7, pt)

    def test_involutions(self):
        with mp.workprec(128):
            for seed in range(3):
                pt = random_bpoint(seed)
                for i in range(6):
                    assert points_close(weyl.elementary(i, weyl.elementary(i, pt)), pt), i

    def test_sigma_squared_is_rescale(self):
        # sigma^2 acts as the gauge (f, g, b) -> (s^2 f, s g, b[:4] s, b[4:] s^2)
        with mp.workprec(128):
            pt = random_bpoint(11)
            pt2 = weyl.sigma_inversion(weyl.sigma_inversion(pt))
            s = pt2.b[0] / pt.b[0]
            for j in range(4):
                assert close(pt2.b[j], s * pt.b[j])
            for j in range(4, 8):
                assert close(pt2.b[j], s**2 * pt.b[j])
            assert close(pt2.f, s**2 * pt.f)
            assert close(pt2.g, s * pt.g)

    def test_q_invariance(self):
        with mp.workprec(128):
            pt = random_bpoint(5)
            for i in range(6):
                assert close(weyl.elementary(i, pt).q, pt.q)
            assert close(weyl.sigma_inversion(pt).q, pt.q)

    def test_composite_routes_agree(self):
        with mp.workprec(128):
            for seed in (2, 9):
                pt = random_bpoint(seed)
                out = weyl.composite_map(pt)
                fbar, gbar = weyl.composite_closed(pt)
                assert close(out.f, fbar, 1e-25)
                assert close(out.g, gbar, 1e-25)
                # parameter translation: b5 and b7 each gain a factor q
                assert close(out.b[4], pt.b[4] * pt.q)
                assert close(out.b[6], pt.b[6] * pt.q)
                for j in (0, 1, 2, 3, 5, 7):
                    assert close(out.b[j], pt.b[j])

    def test_composite_matches_surface_step(self):
        with mp.workprec(128):
            pt = random_bpoint(17)
            sp, co = weyl.surface_from_bpoint(pt)
            co2, sp2 = painleve.phi_step(co, sp)
            out = weyl.composite_map(pt)
            assert close(out.f, co2.xi, 1e-25)
            assert close(out.g, co2.y, 1e-25)

    def test_guards(self):
        with mp.workprec(64):
            ones = tuple(mp.mpc(j + 2) for j in range(8))
            pt = weyl.BPoint(b=ones, f=mp.mpc("0.5"), g=ones[0])
            with pytest.raises(IndeterminacyError):
                weyl.elementary(2, pt)  # g = b1
            pt = weyl.BPoint(b=ones, f=ones[4], g=mp.mpc("0.5"))
            with pytest.raises(IndeterminacyError):
                weyl.elementary(3, pt)  # f = b5
            pt = weyl.BPoint(b=ones, f=mp.mpc("0.5"), g=ones[2])
            with pytest.raises(ChartError):
                weyl.elementary(0, pt)  # g = b3 leaves the affine chart
            pt = weyl.BPoint(b=ones, f=mp.mpc(0), g=mp.mpc("0.5"))
            with pytest.raises(IndeterminacyError):
                weyl.sigma_inversion(pt)


class TestDictionary:
    def test_surface_round_trip(self, ref_params, ctx, prec192):
        n = 3
        sp = painleve.params_from_weight(ref_params, n)
        co = painleve.extract_coords(ctx.fits()[n].matrix, sp)
        pt = weyl.bpoint_from_surface(sp, co)
        sp2, co2 = weyl.surface_from_bpoint(pt)
        for x, y in ((sp.k1, sp2.k1), (sp.k2, sp2.k2), (sp.t1, sp2.t1),
                     (sp.t2, sp2.t2), (sp.q, sp2.q), (co.y, co2.y), (co.xi, co2.xi)):
            assert close(x, y, 1e-40)
        for cx, cy in zip(sp.c, sp2.c):
            assert close(cx, cy, 1e-40)
        # the point's translation multiplier is the reciprocal of the weight
        # base: theta1 -> q theta1 makes b5 = c1 c2 / theta1 grow by 1/q
        assert close(pt.q * ref_params.q, mp.mpf(1), 1e-40)


def test_check_11_runs_at_context_precision(ctx, monkeypatch):
    seen = set()
    composite = weyl.composite_map

    def spy(pt):
        seen.add(mp.mp.prec)
        return composite(pt)
    monkeypatch.setattr(weyl, "composite_map", spy)
    assert verify.check_11_composite(ctx).passed
    assert seen == {ctx.prec}
