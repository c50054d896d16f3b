import json

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qpvi import qseries
from qpvi.errors import ConvergenceError, DomainError, PoleError, PrecisionError
from qpvi.polys import ExactPoly, dot, peval


def mpc_close(x, y, tol):
    return abs(x - y) <= tol


class TestQPochhammer:
    @given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(0.05, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_product_law(self, re, im, q):
        # (z; q)_inf = (1 - z) (qz; q)_inf
        z = mp.mpc(re, im)
        lhs = qseries.qpoch_inf(z, q)
        rhs = (1 - z) * qseries.qpoch_inf(q * z, q)
        assert mpc_close(lhs, rhs, 1e-12 * (1 + abs(lhs)))

    def test_empty_product_at_zero(self):
        assert qseries.qpoch_inf(mp.mpc(0), mp.mpf("0.5")) == 1

    def test_divergence_guard(self):
        with pytest.raises(ConvergenceError):
            qseries.qpoch_inf(mp.mpc(1), mp.mpf("1.0"))

    @pytest.mark.parametrize("z", [mp.nan, mp.inf, mp.mpc("0.2", mp.nan)])
    def test_non_finite_argument(self, z):
        with pytest.raises(DomainError, match="finite"):
            qseries.qpoch_inf(z, mp.mpf("0.5"))


class TestWeight:
    def test_param_validation(self):
        with pytest.raises(DomainError):
            qseries.QWeightParams(a=mp.mpc("1.2"), b=mp.mpc("0.5"), q=mp.mpf("0.5"))
        with pytest.raises(DomainError):
            qseries.QWeightParams(a=mp.mpc("0.3"), b=mp.mpc("0.5"), q=mp.mpf("1.5"))
        with pytest.raises(DomainError):
            qseries.QWeightParams(a=mp.mpc("0.3"), b=mp.mpc("0.5"), q=mp.mpf("0"))

    @pytest.mark.parametrize("field", ["a", "b", "q"])
    def test_nan_rejected(self, field):
        good = {"a": mp.mpc("0.3"), "b": mp.mpc("0.5"), "q": mp.mpf("0.5")}
        with pytest.raises(DomainError):
            qseries.QWeightParams(**{**good, field: mp.nan})

    def test_positive_on_circle(self, ref_params, prec192):
        for j in range(7):
            z = mp.exp(1j * mp.mpf(2 * j + 1) / 7)
            w = qseries.weight_eval(ref_params, z)
            assert abs(mp.im(w)) < 1e-40
            assert mp.re(w) > 0

    def test_zero_argument_rejected(self, ref_params):
        with pytest.raises(DomainError):
            qseries.weight_eval(ref_params, mp.mpc(0))

    @pytest.mark.parametrize("z", [mp.nan, mp.inf, mp.mpc(0, -mp.inf)])
    def test_non_finite_argument(self, ref_params, z):
        with pytest.raises(DomainError, match="finite"):
            qseries.weight_eval(ref_params, z)

    def test_szego_function_factorization(self, ref_params, prec192):
        # w(e^{i theta}) = |G(e^{i theta})|^2: products against the Szego series
        g = qseries.szego_coefficients(ref_params)
        for j in range(9):
            z = mp.expj(mp.mpf(2 * j + 1) / 9)
            G2 = abs(mp.polyval(g[::-1], z)) ** 2
            assert abs(qseries.weight_eval(ref_params, z) - G2) / G2 < 1e-40

    def test_functional_equation(self, ref_params, prec192):
        # W(z) w(qz) = -V(z) w(z) away from poles and zeros
        for z in (mp.mpc("0.9", "0.2"), mp.mpc("-0.4", "1.1"), mp.mpc("1.3", "-0.7")):
            r = qseries.weight_feq_residual(ref_params, z)
            assert r < 1e-40

    def test_vw_degrees(self, ref_params):
        V, W = qseries.vw_polys(ref_params)
        assert len(V) == 3 and len(W) == 3
        # V(z) = (qz - conj(a)) (bz - 1), W(z) = (qz - conj(b)) (1 - az)
        assert mpc_close(V[2], ref_params.q * ref_params.b, 1e-30)
        assert mpc_close(W[2], -ref_params.q * ref_params.a, 1e-30)


class TestMoments:
    def test_normalization_and_symmetry(self, table, prec192):
        assert table.cmom(0) == 1
        assert table.hermitian_residual() < 1e-45

    def test_index_range(self, table):
        with pytest.raises(DomainError):
            table.cmom(table.K + 1)

    @pytest.mark.parametrize("n", [0, 2, 4])
    def test_even_length_refused(self, ref_params, n):
        # c_0 sits at the centre of c_-K..c_K: an even length has none
        with pytest.raises(DomainError, match=f"got {n}$"):
            qseries.MomentTable(params=ref_params, c=tuple(mp.mpc(k + 1) for k in range(n)))

    def test_grid_too_small(self, ref_params):
        with pytest.raises(DomainError):
            qseries.moments_quad(ref_params, K=40, N=64)

    def test_aliasing_guard(self, ref_params):
        # N just above 2K but far too small for the precision: the tail
        # estimate r^(N-K) must trip the guard
        with mp.workprec(192):
            with pytest.raises(PrecisionError):
                qseries.moments_quad(ref_params, K=30, N=62)

    def test_json_round_trip(self, table):
        d = table.to_json_dict()
        s = json.dumps(d, sort_keys=True)
        back = json.loads(s)
        assert back["K"] == table.K
        assert len(back["c"]) == 2 * table.K + 1
        assert back["c"][table.K] == [1.0, 0.0]


class TestCaratheodory:
    def test_series_matches_quadrature(self, ref_params, table, prec192):
        # radii small enough that the crude tail bound 2 |z|^(K+1) / (1 - |z|)
        # clears the guard at K = 48
        for z in (mp.mpc("0.2", "0.1"), mp.mpc("-0.15", "0.12"), mp.mpc("0.05", "-0.18")):
            fs = qseries.caratheodory_series(table, z)
            fq = qseries.caratheodory_quad(ref_params, z)
            assert abs(fs - fq) < 1e-30

    def test_unit_circle_rejected(self, ref_params):
        with pytest.raises(DomainError):
            qseries.caratheodory_quad(ref_params, mp.exp(1j * mp.mpf("0.3")))

    def test_tail_guard(self, table):
        with pytest.raises(PrecisionError):
            qseries.caratheodory_series(table, mp.mpc("0.97"))

    def test_u_from_recurrence(self, ref_params, table, prec192):
        # W(z) F(qz) + V(z) F(z) is the polynomial U of degree two whose
        # coefficients are the first three of the product on the moments;
        # F from the Szego series, with z and qz both inside the circle or
        # both outside (|z| > 1/q = 2)
        V, W = qseries.vw_polys(ref_params)
        q = ref_params.q
        F = ExactPoly.of([1] + [2 * table.cmom(k) for k in range(1, table.K + 1)])
        U = (ExactPoly.of(W) * F.at_q(q) + ExactPoly.of(V) * F)[:3].rounded()
        for z in (mp.mpc("0.3", "0.1"), mp.mpc("-0.5", "0.6"),
                  mp.mpc("2.5", "1.2"), mp.mpc("-3", "-1")):
            wf = peval(W, z) * qseries.caratheodory(table, q * z)
            val = wf + peval(V, z) * qseries.caratheodory(table, z)
            assert abs(val - peval(U, z)) <= 1e-40 * max(abs(wf), abs(val), 1)


def _weight(a, b, q):
    return qseries.QWeightParams(a=mp.mpc(*a), b=mp.mpc(*b), q=mp.mpf(q))


class TestSzegoSeries:
    def test_coefficients_match_products(self, ref_params, prec192):
        # sum g_n z^n = (az; q)_inf / (bz; q)_inf, and |G|^2 = w on the circle
        g = qseries.szego_coefficients(ref_params)
        a, b, q = ref_params.a, ref_params.b, ref_params.q
        for z in (mp.mpc("0.4", "0.3"), mp.exp(1j * mp.mpf("0.7"))):
            G = mp.polyval(g[::-1], z)
            want = qseries.qpoch_inf(a * z, q) / qseries.qpoch_inf(b * z, q)
            assert abs(G - want) < 1e-50
        z = mp.exp(1j * mp.mpf("2.1"))
        assert abs(abs(mp.polyval(g[::-1], z)) ** 2 - qseries.weight_eval(ref_params, z)) < 1e-50
        assert abs(qseries.moments(ref_params, K=4).mass - mp.fsum(abs(x) ** 2 for x in g)) < 1e-50

    def test_mass_is_the_exact_sum_of_squares(self, ref_params, prec192):
        # lag 0 of the autocorrelation is sum |g_n|^2, rounded once: the bits
        # of the exact dot product
        g = qseries.szego_coefficients(ref_params)
        mass = qseries.moments(ref_params, K=4).mass
        assert mass._mpf_ == dot(g, g, conjugate=True).real._mpf_

    def test_moments_match_quadrature_reference(self, ref_params, table, prec192):
        quad = qseries.moments_quad(ref_params, K=20)
        assert max(abs(table.cmom(k) - quad.cmom(k)) for k in range(-20, 21)) <= 1e-50

    @pytest.mark.parametrize("a, b", [(("0.4",), ("0.1", "0.3")),   # real a
                                      (("0.3", "0.2"), ("0",))])     # b = 0
    def test_moments_match_quadrature(self, a, b, prec192):
        p = _weight(a, b, "0.3")
        series, quad = qseries.moments(p, K=20), qseries.moments_quad(p, K=20, N=192)
        assert quad.K == series.K == 20 and quad.g is None
        assert max(abs(x - y) for x, y in zip(series.c, quad.c)) <= 1e-50

    def test_caratheodory_matches_quadrature(self, ref_params, table, prec192):
        for z in (mp.mpc("0.2", "0.1"), mp.mpc("-0.5", "0.4"),    # inside
                  mp.mpc("2", "-1"), mp.mpc("-0.3", "4")):        # outside
            assert abs(qseries.caratheodory(table, z)
                       - qseries.caratheodory_quad(ref_params, z)) <= 1e-50

    def test_degenerate_weight_is_exact(self, ref_params, prec192):
        p = qseries.QWeightParams(a=ref_params.a, b=ref_params.a, q=ref_params.q)
        t = qseries.moments(p, K=6)
        assert t.g == (1,) and t.mass == 1
        assert all(t.cmom(k) == 0 for k in range(-6, 7) if k != 0)

    def test_caratheodory_guards(self, ref_params, table):
        with pytest.raises(DomainError):
            qseries.caratheodory(table, mp.exp(1j * mp.mpf("0.3")))
        # a table without Szego coefficients, as moments_quad returns
        bare = qseries.MomentTable(params=ref_params, c=(mp.mpc(1),))
        with pytest.raises(DomainError):
            qseries.caratheodory(bare, mp.mpc("0.2"))

    @pytest.mark.parametrize("z", [mp.nan, mp.inf, mp.mpc("0.2", mp.nan), mp.mpc(-mp.inf, 0)])
    def test_caratheodory_non_finite(self, table, z):
        # every |z| guard compares false on nan, and inf maps to 1/conj(z) = 0;
        # the two oracles of F refuse it as the series route does
        with pytest.raises(DomainError, match="finite"):
            qseries.caratheodory(table, z)
        with pytest.raises(DomainError, match="finite"):
            qseries.caratheodory_quad(table.params, z)
        with pytest.raises(DomainError, match="finite"):
            qseries.caratheodory_series(table, z)

    def test_iteration_cap(self, ref_params, monkeypatch):
        monkeypatch.setattr(qseries, "_MAX_TERMS", 20)
        with pytest.raises(ConvergenceError):
            qseries.moments(ref_params, K=4)

    @pytest.mark.parametrize("a, b", [(("0.3", "0.2"), ("0.9",)),   # |b| = 0.9
                                      (("0", "0.85"), ("0.5",))])    # |a| = 0.85
    def test_whole_domain_stable_under_precision(self, a, b):
        # both weights were rejected by the 512-node grid at 192 bits
        def cs(prec):
            with mp.workprec(prec):
                return qseries.moments(_weight(a, b, "0.5"), K=48).c
        lo, hi = cs(192), cs(384)
        with mp.workprec(384):
            assert max(abs(x - y) for x, y in zip(lo, hi)) <= 1e-50
