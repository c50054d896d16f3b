import mpmath as mp
import pytest

from qpvi import laxpair, opuc, painleve, polys, qseries
from qpvi.errors import DegenerateError, DegreeError, FitError
from qpvi.polys import ExactPoly


@pytest.fixture(scope="module")
def complex_b():
    """(params, table, closed A_1..A_10, least-squares A_1..A_10) of a weight
    with non-real b, the `qpvi verify-all --b 0.2,0.6` weight."""
    with mp.workprec(192):
        p = qseries.QWeightParams(a=mp.mpc("0.3", "0.2"), b=mp.mpc("0.2", "0.6"),
                                  q=mp.mpf("0.5"))
        vt = opuc.verblunsky_from_moments(qseries.moments(p, K=14), N=12)
        return (p, vt, {n: laxpair.fit_spectral_matrix(p, vt, n) for n in range(1, 11)},
                {n: laxpair.lstsq_spectral_matrix(p, vt, n) for n in range(1, 11)})


ROUTES = [laxpair.fit_spectral_matrix, laxpair.lstsq_spectral_matrix]


def _entry_gap(closed, fitted):
    """Worst relative gap between the entries of two A_n, each entry at its scale."""
    return max(_gap(x, y) / ExactPoly.of(y).max()
               for x, y in zip(closed.matrix, fitted.matrix))


def _gap(x, y):
    """max_k |x_k - y_k|, formed exactly."""
    return (ExactPoly.of(x) - ExactPoly.of(y)).max()


class TestFit:
    def test_residual_gate(self, fits, oracle_fits):
        for fit in (*fits.values(), *oracle_fits.values()):
            assert fit.residual < 1e-45

    # the closed route builds Theta_n, Theta*_n and the corners from the
    # closed forms, so these three tests run on the least-squares fit
    def test_theta_closed_forms(self, fits, oracle_fits, complex_b, prec192):
        _, _, closed_b, oracle_b = complex_b
        for closed, fits_p, orders in ((fits, oracle_fits, (1, 2, 5, 9)),
                                       (closed_b, oracle_b, (1, 2, 5))):
            for n in orders:
                fit = fits_p[n]
                assert _gap(fit.theta, closed[n].theta) < 1e-40
                assert _gap(fit.theta_star, closed[n].theta_star) < 1e-40

    def test_corner_entries(self, ref_params, vt, oracle_fits, prec192):
        a, b, q = ref_params.a, ref_params.b, ref_params.q
        for n in (1, 3, 7):
            fit = oracle_fits[n]
            assert abs(fit.e11[-1] - b * q**(n + 1)) < 1e-40
            assert abs(fit.e11[0] - mp.conj(b) * q**n) < 1e-40
            assert abs(fit.e22[-1] - a * q) < 1e-40
            assert abs(fit.e22[0] - mp.conj(a)) < 1e-40

    def test_offdiagonal_structure(self, vt, oracle_fits, prec192):
        for n in (2, 6):
            fit = oracle_fits[n]
            # e12 = -alpha_{n+1} Theta_n, e21 = -z conj(alpha_{n+1}) Theta*_n
            assert abs(fit.e12[0] + vt.alpha[n + 1] * fit.theta[0]) < 1e-40
            assert fit.e21[0] == 0
            assert abs(fit.e21[1] + mp.conj(vt.alpha[n + 1]) * fit.theta_star[0]) < 1e-40

    def test_closed_matches_least_squares(self, fits, oracle_fits, complex_b, prec192):
        _, _, closed_b, oracle_b = complex_b
        for n in range(1, 11):
            assert _entry_gap(fits[n], oracle_fits[n]) < 1e-45
            assert _entry_gap(closed_b[n], oracle_b[n]) < 1e-45

    def test_hot_path_solves_nothing(self, ref_params, vt, complex_b, monkeypatch,
                                     prec192):
        def refuse(rows, rhs):
            raise AssertionError("fit_spectral_matrix reached lstsq")
        monkeypatch.setattr(laxpair, "lstsq", refuse)
        monkeypatch.setattr(polys, "lstsq", refuse)
        for p, vt_p in ((ref_params, vt), complex_b[:2]):
            for n in range(1, 11):
                assert laxpair.fit_spectral_matrix(p, vt_p, n).residual < 1e-45
        with pytest.raises(AssertionError):
            laxpair.lstsq_spectral_matrix(ref_params, vt, 1)

    def test_index_range(self, ref_params, vt):
        for route in ROUTES:
            with pytest.raises(DegreeError):
                route(ref_params, vt, 0)
            with pytest.raises(DegreeError):
                route(ref_params, vt, vt.N)

    def test_unattainable_tolerance(self, ref_params, vt, prec192, monkeypatch):
        # both routes gate on the default residual_tol()
        monkeypatch.setattr(laxpair, "residual_tol", lambda: mp.mpf(10) ** -200)
        for route in ROUTES:
            with pytest.raises(FitError):
                route(ref_params, vt, 3)

    def test_epsilon_columns(self, ref_params, vt, fits, oracle_fits, complex_b,
                             prec192):
        # the pointwise eps identities are used by neither route; at n = 1
        # the least-squares fit is built from their Taylor coefficients
        for fits_p in (fits, oracle_fits):
            for n in (1, 5):
                assert laxpair.epsilon_column_residuals(ref_params, vt, fits_p[n]) < 1e-40
        p, vt_b, closed_b, oracle_b = complex_b
        for fits_p in (closed_b, oracle_b):
            assert laxpair.epsilon_column_residuals(p, vt_b, fits_p[1]) < 1e-40


class TestCompatibility:
    def test_fundamental_relation(self, ref_params, vt, fits, prec192):
        for n in (1, 2, 6):
            B = laxpair.build_B(vt, n)
            r = laxpair.check_fundamental(fits[n], fits[n + 1], B, ref_params.q)
            assert r < 1e-40

    def test_determinant(self, ref_params, fits, prec192):
        # det A_n = -q^n V W
        for n in (1, 4, 8):
            assert laxpair.det_residual(fits[n], ref_params) < 1e-40


# weights of the benchmark's `weights` stream (seed/request 4/204, 9/30,
# 12/241, 16/346, 18/272, 25/192, 31/95, 108/10) whose alpha_n decay like
# |a|^n and fall below 2^-96, yet keep 90+ correct bits
SMALL_ALPHA = [
    (complex(-0.00012411562719816783, 0.00015095046388548898),
     complex(-0.22887083041254422, 0.3284581002379719), 0.25380324811852484),
    (complex(0.00016800733412229355, -0.00011081906878033364),
     complex(-0.0530719769007586, -0.02368250266340268), 0.21227993753862992),
    (complex(-2.7951852684698884e-05, -0.00014908747736622525),
     complex(0.09078290697007266, 0.09080404501783622), 0.3601117572003184),
    (complex(3.848256917826299e-05, 7.172863047380802e-05),
     complex(0.33449486196616685, -0.03641772403320895), 0.21264276696679396),
    (complex(-0.002098587166408872, 0.0002691305147002206),
     complex(-0.00637477770911022, -0.0022435756666608206), 0.23409286231781645),
    (complex(-0.0002884139195428116, -0.0003298131893135433),
     complex(0.02035914722345632, 0.12124183557351104), 0.2974756534184784),
    (complex(4.2797007284438186e-05, -0.00021153682743495645),
     complex(0.13369210559010486, -0.14868154456403715), 0.3625382842170848),
    (complex(4.288617316082853e-05, 0.00010333206144028777),
     complex(-0.42064143977510704, -0.0204575569420122), 0.29125693657251817),
]


def _rel(got, want):
    return abs(got - want) / abs(want)


class TestSmallAlpha:
    @pytest.mark.parametrize("a,b,q", SMALL_ALPHA)
    def test_chain_under_benchmark_gates(self, a, b, q, prec192):
        # moments -> Szego -> Toeplitz -> A_1..A_10 -> three step routes
        p = qseries.QWeightParams(a=mp.mpc(a), b=mp.mpc(b), q=mp.mpf(q))
        table = qseries.moments(p, K=14)
        vt = opuc.verblunsky_from_moments(table, N=12)
        assert abs(vt.alpha[11]) < 2 ** -96
        toeplitz = max(abs(opuc.verblunsky_toeplitz(table, n) - vt.alpha[n])
                       for n in range(1, 13))
        assert toeplitz <= 1e-20
        fits = {n: laxpair.fit_spectral_matrix(p, vt, n) for n in range(1, 11)}
        # e12 and e21 carry alpha_{n+1} ~ |a|^(n+1): the fit's absolute
        # error of about 1e-58 becomes a relative one of up to 1e-28 there
        for n in range(1, 11):
            assert _entry_gap(fits[n], laxpair.lstsq_spectral_matrix(p, vt, n)) < 1e-25
        for n in range(1, 9):
            sp = painleve.params_from_weight(p, n)
            cur = painleve.extract_coords(fits[n].matrix, sp)
            direct = painleve.extract_coords(fits[n + 1].matrix, sp.step())
            stepped, _ = painleve.phi_step(cur, sp)
            Am, _ = painleve.matrix_step(fits[n].matrix, sp)
            mat = painleve.extract_coords(Am, sp.step())
            for got in (stepped, mat):
                assert _rel(got.y, direct.y) <= 1e-10
                assert _rel(got.xi, direct.xi) <= 1e-10
            assert _rel(painleve.y_closed(p, vt, n), cur.y) <= 1e-10

    def test_equal_parameters_degenerate(self, prec192):
        # a = b: the weight is 1 and every alpha_n is exactly 0
        p = qseries.QWeightParams(a=mp.mpc("0.3", "0.2"), b=mp.mpc("0.3", "0.2"),
                                  q=mp.mpf("0.5"))
        vt = opuc.verblunsky_from_moments(qseries.moments(p, K=5), N=4)
        for route in ROUTES:
            with pytest.raises(DegenerateError):
                route(p, vt, 1)
        with pytest.raises(DegenerateError):
            painleve.y_closed(p, vt, 1)
