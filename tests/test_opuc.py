import hashlib

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from helpers import epsilon_asymptotics
from qpvi import opuc, qseries
from qpvi.errors import DegreeError, DomainError, SingularMeasureError
from qpvi.polys import pstar

# frozen oracle values: reference weight, first Verblunsky coefficients
# computed independently from the Toeplitz linear system
ALPHA_ORACLE = {
    1: mp.mpc("-0.421169964177008", "-0.3153201432919679"),
    2: mp.mpc("-0.11359829145004764", "0.10152426862459601"),
    3: mp.mpc("0.0013579307467761206", "0.04760061379491872"),
}
SIGMA1_ORACLE = mp.mpf("0.7231890685094706")


coeff = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(lambda t: mp.mpc(*t))


class TestStar:
    @given(st.lists(coeff, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_involution(self, p):
        n = len(p) - 1
        q = pstar(pstar(p, n), n)
        assert all(a == b for a, b in zip(p, q))

    def test_degree_overflow(self):
        with pytest.raises(DegreeError):
            pstar([mp.mpc(1), mp.mpc(2)], 0)

    def test_padding(self):
        # star at degree 2 of the constant 1 is z^2
        p = pstar([mp.mpc(1)], 2)
        assert p == [mp.mpc(0), mp.mpc(0), mp.mpc(1)]


class TestRecursion:
    def test_alpha_oracle(self, vt):
        for n, val in ALPHA_ORACLE.items():
            assert abs(vt.alpha[n] - val) < 1e-15

    def test_sigma_oracle(self, vt):
        assert abs(vt.sigma[1] - SIGMA1_ORACLE) < 1e-15
        # sigma is a strictly decreasing positive sequence
        for n in range(1, vt.N + 1):
            assert 0 < vt.sigma[n] < vt.sigma[n - 1]

    def test_bits_pinned(self, table, prec192):
        # the raw parts of alpha, sigma and phi at the reference weight, N = 22
        # and 192 bits, bit for bit: a change to how the recursion sums
        # <z phi_n, 1> must keep them
        vt = opuc.verblunsky_from_moments(table, 22)
        raw = (tuple(x._mpc_ for x in vt.alpha), tuple(x._mpf_ for x in vt.sigma),
               tuple(tuple(x._mpc_ for x in p) for p in vt.phi))
        assert hashlib.sha256(repr(raw).encode()).hexdigest() == (
            "ca390777a5384184d3ea8fd6c37a334ea8c8a87c3c4162336572a11c02d6de6e")
        assert vt.alpha[22]._mpc_ == (
            (1, 3870161470138804679067349346706977073712784770588168401171, -224, 192),
            (0, 3581595876793258669227634463796972144799518967713020880023, -225, 192))
        assert vt.sigma[22]._mpf_ == (
            0, 2211408734921868404586632896190579256220674510112463215221, -191, 191)

    def test_toeplitz_agreement(self, table, vt, prec192):
        for n in (1, 4, 9):
            assert abs(opuc.verblunsky_toeplitz(table, n) - vt.alpha[n]) < 1e-45

    def test_monic_and_phi_star(self, vt):
        for n in range(vt.N + 1):
            assert vt.phi[n][n] == 1
            assert vt.phi_star(n)[0] == mp.conj(vt.phi[n][n])

    def test_orthogonality(self, vt, prec192):
        assert opuc.orthogonality_residual(vt, upto=8) < 1e-45

    def test_moment_window_check(self, table):
        with pytest.raises(DomainError):
            opuc.verblunsky_from_moments(table, N=table.K)

    def test_singular_measure(self, ref_params):
        # all moments equal to one is the point mass at z = 1: the first
        # reflection coefficient lands on the unit circle
        with mp.workprec(128):
            sing = qseries.MomentTable(params=ref_params, c=tuple(mp.mpc(1) for _ in range(9)))
            with pytest.raises(SingularMeasureError):
                opuc.verblunsky_from_moments(sing, N=2)

    def test_singular_measure_threshold(self, ref_params):
        # alpha_1 = -c_{-1}; 1 - |alpha_1|^2 at f times 2^-(prec//2)
        with mp.workprec(128):
            for f, singular in (("0.99", True), ("1.01", False)):
                r = mp.mpc(mp.sqrt(1 - mp.mpf(f) * mp.mpf(2) ** -64))
                table = qseries.MomentTable(params=ref_params,
                                            c=(mp.mpc(0), r, mp.mpc(1), r, mp.mpc(0)))
                if singular:
                    with pytest.raises(SingularMeasureError) as err:
                        opuc.verblunsky_from_moments(table, N=1)
                    assert str(err.value) == ("|alpha_1| reached 1; measure is "
                                              "numerically singular")
                else:
                    opuc.verblunsky_from_moments(table, N=1)


class TestSecondKind:
    def test_wronskians(self, vt, prec192):
        for n in range(0, 9):
            for r in opuc.wronskian_residuals(vt, n):
                assert r < 1e-45

    def test_epsilon_asymptotics(self, vt, prec192):
        devs = epsilon_asymptotics(vt, 4)
        for k, v in devs.items():
            assert v < 1e-3, k

    def test_epsilon_te_values(self, vt, prec192):
        # eps and eps_star reproduce 2 sigma_n z^n at a generic small point
        n, z = 3, mp.mpc("0.01", "0.005")
        e = opuc.epsilon_eval(vt, n, z)
        assert abs(e / (2 * vt.sigma[n] * z**n) - 1) < 1e-2
