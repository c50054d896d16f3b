import random

import mpmath as mp
import pytest

from qpvi import opuc, qseries
from qpvi.errors import SingularMeasureError
from qpvi.polys import hpd_solve, lstsq

# mp.qr_solve and mp.lu_solve appear here only as oracles for the list kernels


def _rc(rng):
    return mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))


class TestLstsq:
    @pytest.mark.parametrize("m", range(5, 16))
    def test_matches_qr_solve(self, m, prec192):
        rng = random.Random(f"lstsq:{m}")
        rows = [[_rc(rng) for _ in range(5)] for _ in range(m)]
        rhs = [_rc(rng) for _ in range(m)]
        want, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
        got = lstsq(rows, rhs)
        assert max(abs(got[j] - want[j]) for j in range(5)) <= 1e-50

    def test_zero_real_lead(self, prec192):
        # mpmath reflects with sign(Re a_jj), which is 0 here; the
        # complex-phase reflector needs no special case
        rng = random.Random("lstsq:lead")
        rows = [[_rc(rng) for _ in range(5)] for _ in range(9)]
        rows[0][0] = mp.mpc(0, "0.7")
        rhs = [_rc(rng) for _ in range(9)]
        with pytest.raises(ZeroDivisionError):
            mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
        x = lstsq(rows, rhs)
        # the residual is orthogonal to every column: the normal equations hold
        r = [mp.fdot(row, x) - b for row, b in zip(rows, rhs)]
        assert max(abs(mp.fdot(r, [row[j] for row in rows], conjugate=True))
                   for j in range(5)) <= 1e-50
        # and the answer is the one qr_solve gives once Re a_00 is nonzero
        # on an equivalent system: multiplying row 0 by -i rotates the lead
        rot = [[-1j * v for v in rows[0]]] + rows[1:]
        want, _ = mp.qr_solve(mp.matrix(rot), mp.matrix([-1j * rhs[0]] + rhs[1:]))
        assert max(abs(x[j] - want[j]) for j in range(5)) <= 1e-50

    def test_singular_column(self, prec192):
        rng = random.Random("lstsq:singular")
        rows = [[_rc(rng) for _ in range(3)] for _ in range(6)]
        for row in rows:
            row[2] = 2 * row[0] - row[1]
        with pytest.raises(ZeroDivisionError):
            lstsq(rows, [_rc(rng) for _ in range(6)])


WEIGHTS = [(("0.3", "0.2"), ("0.5", "0")), (("-0.4", "0.1"), ("0.2", "0.6")),
           (("0.1", "-0.7"), ("-0.6", "0.3"))]


def _toeplitz(table, n):
    return [[table.cmom(k - j) for j in range(n)] for k in range(n)]


class TestHpdSolve:
    @pytest.mark.parametrize("a,b", WEIGHTS)
    def test_matches_lu_solve_on_toeplitz(self, a, b, prec192):
        p = qseries.QWeightParams(a=mp.mpc(*a), b=mp.mpc(*b), q=mp.mpf("0.5"))
        table = qseries.moments(p, K=14)
        for n in (1, 6, 14):
            M = _toeplitz(table, n)
            rhs = [table.cmom(k - n) for k in range(n)]
            want = mp.lu_solve(mp.matrix(M), mp.matrix(rhs))
            got = hpd_solve(M, rhs)
            assert max(abs(got[j] - want[j]) for j in range(n)) <= 1e-50

    def test_singular(self, prec192):
        M = [[mp.mpc(1), mp.mpc(1)], [mp.mpc(1), mp.mpc(1)]]
        with pytest.raises(ZeroDivisionError):
            hpd_solve(M, [mp.mpc(1), mp.mpc(0)])

    def test_indefinite(self, ref_params, prec192):
        # |c_1| > c_0: a Hermitian Toeplitz matrix of no positive measure
        c1 = mp.mpc("1.5", "0.5")
        table = qseries.MomentTable(params=ref_params, K=2,
                                    c=(mp.mpc(0), mp.conj(c1), mp.mpc(1), c1, mp.mpc(0)))
        M = _toeplitz(table, 2)
        assert M[0][1] == mp.conj(M[1][0])
        with pytest.raises(ZeroDivisionError):
            hpd_solve(M, [mp.mpc(1), mp.mpc(0)])
        with pytest.raises(SingularMeasureError):
            opuc.verblunsky_toeplitz(table, 2)
