import itertools
import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qpvi import painleve, verify, weyl
from qpvi.errors import ChartError, DomainError, IndeterminacyError
from test_benchmark_contract import _load

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
            ones = tuple(mp.mpc(1) for _ in range(7))
            for b in ((mp.mpc(0),) + ones, ones[:3] + (mp.mpc(0, 0),) + ones[3:], ones):
                with pytest.raises(DomainError) as err:
                    weyl.BPoint(b=b, f=mp.mpc(1), g=mp.mpc(1))
                assert str(err.value) == "need eight nonzero parameters b1..b8"
            # a part may be zero, and so may the point
            weyl.BPoint(b=(mp.mpc(0, 1), mp.mpc(1, 0)) + ones[:6], f=mp.mpc(0), g=mp.mpc(0))

    @pytest.mark.parametrize("bad", ["b", "f", "g"])
    def test_nonfinite_bpoint_rejected(self, bad):
        with mp.workprec(64):
            good = {"b": tuple(mp.mpc(1) for _ in range(8)), "f": mp.mpc(1), "g": mp.mpc(1)}
            for x in (mp.nan, mp.inf, mp.mpc(1, mp.nan), mp.mpc(0, mp.nan), mp.mpc(-mp.inf, 0)):
                value = (x,) + good["b"][1:] if bad == "b" else x
                with pytest.raises(DomainError) as err:
                    weyl.BPoint(**{**good, bad: value})
                assert str(err.value) == "need finite parameters b1..b8 and point (f, g)"

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

    def test_word_factors_at_check_11_point(self):
        # w_i^2 = id for the six reflections; sigma^2 scales b1..b4 and g by
        # the lattice q and b5..b8 and f by q^2, as the module docstring says
        with mp.workprec(192):
            pt = verify._composite_point(0, 1)
            for i in range(6):
                assert points_close(weyl.elementary(i, weyl.elementary(i, pt)), pt,
                                    1e-50), i
            q = pt.q
            scaled = weyl.BPoint(b=tuple(x * q for x in pt.b[:4])
                                 + tuple(x * q ** 2 for x in pt.b[4:]),
                                 f=pt.f * q ** 2, g=pt.g * q)
            assert points_close(weyl.sigma_inversion(weyl.sigma_inversion(pt)),
                                scaled, 1e-50)
            assert not close(q, 1)

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


def test_closed_forms_match_600_bit_run():
    """At 192 bits fbar and gbar keep 188 bits against a 600-bit run of the
    same inputs, the worst case of the mpmath arithmetic on these draws; on
    GaussFloat the worst is 192.3 bits."""
    worst = mp.inf
    # perfbench's `steps` requests: the sampler of checks 09 and 11
    for req in itertools.islice(_load("workloads").steps_requests(7), 200):
        got = []
        for prec in (192, 600):
            with mp.workprec(prec):
                zs = [mp.mpc(z) for z in req]
                got.append(weyl.composite_closed(weyl.BPoint(b=tuple(zs[:8]), f=zs[8], g=zs[9])))
        with mp.workprec(600):
            for x, want in zip(*got):
                worst = min(worst, -mp.log(abs(x - want) / abs(want), 2))
    assert worst >= 188.0


@pytest.mark.parametrize("build", ["BPoint", "SurfaceParams"])
def test_constructors_round_only_wider_values(build):
    """Built under workprec(53) from 300-bit values, BPoint and SurfaceParams
    hold their 53-bit roundings; built from those roundings, they hold
    them bit for bit."""
    def fields(xs):
        # the fields that take xs[k] as given, in the order of xs
        if build == "BPoint":
            pt = weyl.BPoint(b=tuple(xs[:8]), f=xs[8], g=xs[9])
            return [*pt.b, pt.f, pt.g]
        sp = painleve.SurfaceParams(k1=xs[0], k2=xs[1], t1=xs[2], t2=xs[0] * xs[1] / xs[2],
                                    c=(1, 1, 1, 1), q=xs[3])
        return [sp.k1, sp.k2, sp.t1, sp.q]

    with mp.workprec(300):
        wide = [mp.mpc(1, j) / 3 for j in range(1, 11)]
    with mp.workprec(53):
        narrow = [mp.mpc(x) for x in wide]
        assert all(t[3] <= 53 for x in narrow for t in x._mpc_)
        for xs in (wide, narrow):
            got = fields(xs)
            assert [x._mpc_ for x in got] == [x._mpc_ for x in narrow[:len(got)]]


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

    def test_one_b_chart_dictionary(self, ref_params, ctx, prec192):
        # the b-point and the finite coordinates of the blown-up points read
        # the same eight parameters, bit for bit
        sp = painleve.params_from_weight(ref_params, 3)
        co = painleve.extract_coords(ctx.fits()[3].matrix, sp)
        b = painleve.b_params(sp)
        assert [x._mpc_ for x in weyl.bpoint_from_surface(sp, co).b] == [x._mpc_ for x in b]
        finite = [v for _, y, xi in painleve.blown_up_points(sp) for v in (y, xi)
                  if v != 0 and v != mp.inf]
        assert [x._mpc_ for x in finite] == [x._mpc_ for x in b]


def test_check_11_runs_at_context_precision(ctx, monkeypatch):
    seen = set()
    composite = weyl.composite_map

    def spy(pt):
        seen.add(mp.mp.prec)
        return composite(pt)
    monkeypatch.setattr(weyl, "composite_map", spy)
    assert verify.check_11_composite(ctx).passed
    assert seen == {ctx.prec}
