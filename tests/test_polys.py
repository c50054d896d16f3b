import dataclasses
import inspect
import random
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import ctx_mp_python
from mpmath.libmp import from_man_exp, fzero, mpf_mul, mpf_neg, mpf_pos, mpf_sum

import qpvi
from qpvi import continuum, laxpair, opuc, painleve, polys, qseries, weyl
from qpvi.errors import SingularMeasureError
from qpvi.polys import autocorr, dot, hpd_solve, lstsq, padd, pmax, pmul
from test_domain_sweep import _context as sweep_context

# mp.qr_solve, mp.lu_solve and mp.fdot appear here only as oracles for the
# list kernels


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


def _fit_systems(monkeypatch, ctx):
    """The systems `lstsq_spectral_matrix` (n = 1, augmented by the eps
    rows, and n = 15) hands to `lstsq`."""
    systems = []

    def spy(rows, rhs):
        systems.append((rows, rhs))
        return lstsq(rows, rhs)
    monkeypatch.setattr(laxpair, "lstsq", spy)
    with mp.workprec(ctx.prec):
        for n in (1, 15):
            laxpair.lstsq_spectral_matrix(ctx.params, ctx.vt(), n)
    return systems


class TestNormalEquations:
    # the reference weight and sweep weight (|a|, |b|, q) = (0.5, 0.85, 0.95),
    # whose fits square the worst condition numbers of the checks: these
    # systems land within 2^-164.4 of the 768-bit solution (2^-158.9 at n = 3)
    @pytest.mark.parametrize("weight", ["reference", "sweep4"])
    def test_fit_systems_within_2_150(self, monkeypatch, ctx, weight):
        if weight == "sweep4":
            ctx = sweep_context(4)
        systems = _fit_systems(monkeypatch, ctx)
        # n = 1: 4 coefficient rows and 3 eps rows per phi row; n = 15: 18
        assert [(len(r), len(r[0])) for r, _ in systems] == [(7, 5), (7, 5), (18, 5), (18, 5)]
        for rows, rhs in systems:
            with mp.workprec(ctx.prec):
                got = lstsq(rows, rhs)
            with mp.workprec(4 * ctx.prec):
                A = mp.matrix([[mp.mpc(v) for v in r] for r in rows])
                AH = A.transpose_conj()
                want = mp.lu_solve(AH * A, AH * mp.matrix([mp.mpc(v) for v in rhs]))
                err = max(abs(got[j] - want[j]) for j in range(len(got)))
                assert err <= mp.ldexp(1, -150) * max(abs(w) for w in want)


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

    @pytest.mark.parametrize("a,b", WEIGHTS)
    def test_bit_identical_to_per_row_conversion(self, a, b, prec192):
        # one factor of T_14, each row converted as it is grown and each entry
        # on its own: its leading rows solve every leading block to the bits
        # of hpd_solve, which converts and factors that block afresh
        p = qseries.QWeightParams(a=mp.mpc(*a), b=mp.mpc(*b), q=mp.mpf("0.5"))
        table = qseries.moments(p, K=14)
        F = polys.LDLFactor()
        for i, row in enumerate(_toeplitz(table, 14)):
            F.grow([F.entries([x])[0] for x in row[:i + 1]])
        for n in (1, 6, 14):
            rhs = [table.cmom(k - n) for k in range(n)]
            z = []
            for bk, Lk in zip(F.entries(rhs), F.L):
                z.append(polys._fms(bk, z, Lk))
            want = F.back([zk / dk for zk, dk in zip(z, F.d)])
            assert ([x._mpc_ for x in hpd_solve(_toeplitz(table, n), rhs)]
                    == [x.mpc()._mpc_ for x in want])

    def test_within_the_mpc_eliminations_error(self, prec192):
        # against a 768-bit lu_solve; 1.37e-58 relative is the worst error of
        # the LDL^H elimination on mpc at prec + 10 bits that the growing
        # factor replaced
        worst = 0
        for a, b in WEIGHTS:
            p = qseries.QWeightParams(a=mp.mpc(*a), b=mp.mpc(*b), q=mp.mpf("0.5"))
            table = qseries.moments(p, K=14)
            for n in (1, 6, 14):
                M = _toeplitz(table, n)
                rhs = [table.cmom(k - n) for k in range(n)]
                got = hpd_solve(M, rhs)
                with mp.workprec(768):
                    want = mp.lu_solve(mp.matrix(M), mp.matrix(rhs))
                    err = (max(abs(got[j] - want[j]) for j in range(n))
                           / max(abs(want[j]) for j in range(n)))
                worst = max(worst, err)
        assert worst <= mp.mpf("1.37e-58")

    def test_singular(self, prec192):
        M = [[mp.mpc(1), mp.mpc(1)], [mp.mpc(1), mp.mpc(1)]]
        with pytest.raises(ZeroDivisionError):
            hpd_solve(M, [mp.mpc(1), mp.mpc(0)])

    def test_indefinite(self, ref_params, prec192):
        # |c_1| > c_0: a Hermitian Toeplitz matrix of no positive measure
        c1 = mp.mpc("1.5", "0.5")
        table = qseries.MomentTable(params=ref_params,
                                    c=(mp.mpc(0), mp.conj(c1), mp.mpc(1), c1, mp.mpc(0)))
        M = _toeplitz(table, 2)
        assert M[0][1] == mp.conj(M[1][0])
        with pytest.raises(ZeroDivisionError):
            hpd_solve(M, [mp.mpc(1), mp.mpc(0)])
        with pytest.raises(SingularMeasureError):
            opuc.verblunsky_toeplitz(table, 2)


class TestGrowingFactor:
    """The Toeplitz oracle's LDL^H, grown per moment table."""

    @staticmethod
    def _weight(a, b):
        return qseries.QWeightParams(a=mp.mpc(*a), b=mp.mpc(*b), q=mp.mpf("0.5"))

    @pytest.mark.parametrize("a,b", WEIGHTS)
    def test_sweep_equals_fresh_tables(self, a, b, prec192):
        p = self._weight(a, b)
        table = qseries.moments(p, K=14)
        swept = [opuc.verblunsky_toeplitz(table, n) for n in range(1, 15)]
        for n, got in enumerate(swept, 1):
            fresh = opuc.verblunsky_toeplitz(qseries.moments(p, K=14), n)
            assert got._mpc_ == fresh._mpc_

    def test_precision_switch_starts_afresh(self, prec192):
        p = self._weight(*WEIGHTS[1])
        table = qseries.moments(p, K=12)
        for n in range(1, 13):
            opuc.verblunsky_toeplitz(table, n)
        with mp.workprec(768):
            swept = [opuc.verblunsky_toeplitz(table, n) for n in range(1, 13)]
            fresh = [opuc.verblunsky_toeplitz(dataclasses.replace(table), n)
                     for n in range(1, 13)]
        assert [x._mpc_ for x in swept] == [x._mpc_ for x in fresh]

    def test_indefinite_past_order_1(self, ref_params, prec192):
        # |c_1| < 1 but (c_{k-j}) of order 3 has the eigenvalue 1 - 1.5 < 0
        c2 = mp.mpc("1.5")
        table = qseries.MomentTable(
            params=ref_params, c=(c2, mp.mpc(0), mp.mpc(1), mp.mpc(0), c2))
        assert opuc.verblunsky_toeplitz(table, 1) == 0
        with pytest.raises(SingularMeasureError):
            opuc.verblunsky_toeplitz(table, 2)
        assert opuc.verblunsky_toeplitz(table, 1) == 0

    def test_replaced_table_starts_empty(self, prec192):
        p = self._weight(*WEIGHTS[0])
        table = qseries.moments(p, K=6)
        before = opuc.verblunsky_toeplitz(table, 6)
        cs = list(table.c)
        cs[0], cs[-1] = cs[0] * mp.mpf("1.01"), cs[-1] * mp.mpf("1.01")  # c_-6, c_6
        moved = dataclasses.replace(table, c=tuple(cs))
        got = opuc.verblunsky_toeplitz(moved, 6)
        fresh = qseries.MomentTable(params=p, c=tuple(cs))
        assert got != before
        assert got._mpc_ == opuc.verblunsky_toeplitz(fresh, 6)._mpc_

    def test_sweep_grows_each_row_once(self, monkeypatch, prec192):
        # orders 1..12 need rows 0..12 of the factor; refactoring at every
        # order would grow 2 + 3 + ... + 13 = 90 rows
        rows = [0]
        grow = polys.LDLFactor.grow

        def counted(self, row):
            rows[0] += 1
            return grow(self, row)
        monkeypatch.setattr(polys.LDLFactor, "grow", counted)
        table = qseries.moments(self._weight(*WEIGHTS[2]), K=14)
        for _ in range(2):
            for n in range(1, 13):
                opuc.verblunsky_toeplitz(table, n)
        assert rows[0] == 13


# --- the exact kernel: dot, pmul, pmax, autocorr, padd ---------------------

# (working precision, mantissa bits, exponent spread).  In each, every
# product's bits lie within 2 prec bits of every other's, the window in
# which mp.fdot's running sum is exact; the last spans +-400 bits.
WINDOWS = [(53, 20, 16), (192, 53, 40), (1000, 100, 400)]


def _real(draw, bits, spread):
    man = draw(st.integers(-(2 ** bits - 1), 2 ** bits - 1))
    return mp.mp.make_mpf(from_man_exp(man, draw(st.integers(-spread, spread))))


@st.composite
def vectors(draw, n, bits, spread, kinds=("mpf", "mpc", "zero")):
    """Lists of n mpf, mpc and exact zeros, exponents in +-spread."""
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            out.append(draw(st.sampled_from([mp.mpf(0), mp.mpc(0)])))
        elif kind == "mpf":
            out.append(_real(draw, bits, spread))
        else:
            out.append(mp.mpc(_real(draw, bits, spread), _real(draw, bits, spread)))
    return out


@st.composite
def dot_cases(draw, windows=WINDOWS):
    prec, bits, spread = draw(st.sampled_from(windows))
    n = draw(st.integers(0, 40))
    return (prec, draw(vectors(n, bits, spread)), draw(vectors(n, bits, spread)),
            draw(st.booleans()), draw(st.booleans()))


def _bits(x):
    return x._mpc_ if isinstance(x, mp.mpc) else (x._mpf_, fzero)


def _exact_dot(A, B, conjugate):
    """fdot's exact products, summed with no window, rounded once: raw (re, im)."""
    re, im = [], []
    for a, b in zip(A, B):
        ar, ai = mp.mpc(a)._mpc_
        br, bi = mp.mpc(mp.conj(b) if conjugate else b)._mpc_
        re += [mpf_mul(ar, br), mpf_neg(mpf_mul(ai, bi))]
        im += [mpf_mul(ar, bi), mpf_mul(ai, br)]
    prec, rnd = mp.mp._prec_rounding
    return mpf_pos(mpf_sum(re), prec, rnd), mpf_pos(mpf_sum(im), prec, rnd)


class TestDot:
    @settings(max_examples=150, deadline=None)
    @given(dot_cases())
    def test_equals_fdot_bitwise(self, case):
        prec, A, B, conjugate, extra = case
        with mp.workprec(prec), mp.extraprec(10 if extra else 0):
            got, want = dot(A, B, conjugate), mp.fdot(A, B, conjugate=conjugate)
        assert type(got) is type(want) and _bits(got) == _bits(want)

    @settings(max_examples=100, deadline=None)
    @given(dot_cases(windows=[(53, 53, 400), (192, 192, 400)]))
    def test_exact_beyond_fdots_window(self, case):
        # with +-400-bit exponents at 53 bits fdot may drop a product; dot
        # is the exact sum rounded once everywhere
        prec, A, B, conjugate, extra = case
        with mp.workprec(prec), mp.extraprec(10 if extra else 0):
            assert _bits(dot(A, B, conjugate)) == _exact_dot(A, B, conjugate)

    def test_fdot_drops_what_dot_keeps(self):
        tiny = mp.ldexp(1, -500)
        A = [mp.mpf(1), tiny, mp.mpf(-1)]
        with mp.workprec(53):
            assert mp.fdot(A, [1, 1, 1]) == 0
            assert dot(A, [1, 1, 1]) == tiny

    @pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan, mp.mpc(1, mp.inf)])
    def test_non_finite_raises(self, bad):
        for call in (lambda: dot([1, bad], [1, 1]), lambda: pmul([bad], [1]),
                     lambda: pmax([1, bad]), lambda: autocorr([1, bad], 1)):
            with pytest.raises(ValueError):
                call()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda n: vectors(n, 60, 30, ("mpc",))),
           st.integers(0, 12))
    def test_autocorr_is_dot_per_lag(self, x, K):
        with mp.workprec(60):
            got = autocorr(x, K)
            for k in range(K + 1):
                want = mp.mpc(dot(x[k:], x[:max(len(x) - k, 0)], conjugate=True))
                assert got[k]._mpc_ == want._mpc_


def _old_pmul(p, r):
    out = [mp.mpc(0)] * (len(p) + len(r) - 1)
    for i, pi in enumerate(p):
        for j, rj in enumerate(r):
            out[i + j] += pi * rj
    return out


@st.composite
def poly_pairs(draw, prec=53):
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return draw(vectors(n, prec, 20)), draw(vectors(m, prec, 20))


class TestPolyKernels:
    @settings(max_examples=150, deadline=None)
    @given(poly_pairs())
    def test_pmul_is_the_exact_product_rounded_once(self, pr):
        p, r = pr
        with mp.workprec(4 * 53):
            exact = _old_pmul(p, r)
        with mp.workprec(53):
            got = pmul(p, r)
            assert [x._mpc_ for x in got] == [(+x)._mpc_ for x in exact]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 30).flatmap(lambda n: vectors(n, 53, 200)))
    def test_pmax_within_half_an_ulp(self, p):
        with mp.workprec(53):
            got = pmax(p)
        with mp.workprec(4 * 53):
            want = max((abs(x) for x in p), default=mp.mpf(0))
            if want == 0:
                assert got == 0
                return
            _, _, exp, bc = got._mpf_
            assert abs(got - want) <= mp.ldexp(1, exp + bc - 53 - 1)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: vectors(n, 53, 20)),
           st.integers(0, 12).flatmap(lambda n: vectors(n, 53, 20)),
           st.sampled_from([1, -1, mp.mpc("0.3", "-1.7")]))
    def test_padd_is_bit_identical_to_the_padded_sum(self, p, r, s):
        # inputs at working precision, as everywhere in the package
        n = max(len(p), len(r))
        with mp.workprec(53):
            want = [(p[i] if i < len(p) else mp.mpc(0)) + s * (r[i] if i < len(r) else mp.mpc(0))
                    for i in range(n)]
            got = padd(p, r, s)
        assert [mp.mpc(x)._mpc_ for x in got] == [mp.mpc(x)._mpc_ for x in want]


# --- GaussFloat: the number type of the Painleve orbit ----------------------

# (working precision, exponent spread); operands carry prec + 10 bits
GAUSS_PRECS = [(53, 40), (128, 100), (192, 150), (1000, 400)]


@st.composite
def gauss_cases(draw):
    prec, spread = draw(st.sampled_from(GAUSS_PRECS))
    x, y = draw(vectors(2, prec, spread))
    return prec, x, y, draw(st.sampled_from("+-*/"))


def _apply(op, x, y):
    return {"+": lambda: x + y, "-": lambda: x - y, "*": lambda: x * y,
            "/": lambda: x / y}[op]()


def _value(g):
    """A GaussFloat as an exact mpc, at any working precision."""
    return mp.mp.make_mpc((from_man_exp(g.re, g.e), from_man_exp(g.im, g.e)))


class TestGaussFloat:
    @settings(max_examples=400, deadline=None)
    @given(gauss_cases())
    def test_within_one_ulp_of_mpmath(self, case):
        # the exact value by mpmath at a precision that holds it (+ - *) or
        # far past the guard precision (/), against one unit of the p-th bit
        prec, x, y, op = case
        with mp.workprec(prec):
            gx, gy = polys.gauss_floats([x, y])
        assert gx.p == gy.p == prec + 10
        if op == "/" and y == 0:
            with pytest.raises(ZeroDivisionError):
                gx / gy
            return
        got = _apply(op, gx, gy)
        assert got.p == prec + 10
        # p bits, or p + 1 where the floor carries a negative part to -2^p
        assert max(abs(got.re), abs(got.im)).bit_length() <= got.p + 1
        with mp.workprec(4 * prec + 8 * 400):
            want = _apply(op, mp.mpc(x), mp.mpc(y))
            err = max(abs(_value(got).real - want.real), abs(_value(got).imag - want.imag))
            assert err < mp.ldexp(1, got.e)
            if want == 0:
                assert not got

    def test_zeros(self):
        with mp.workprec(128):
            x, zero = polys.gauss_floats([mp.mpc(1, 2) / 3, 0])
        assert not zero and x and not (x - x) and not (zero * x) and not (zero / x)
        assert _value(zero + x) == _value(x) == _value(x - zero)
        # a zero result carries exponent 0, so that a chain through zeros
        # (the Szego recursion of a = b) keeps its integers short
        assert (zero / x).e == (zero * x * x).e == (x - x).e == 0
        with pytest.raises(ZeroDivisionError):
            x / zero

    @pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan, mp.mpc(1, mp.inf)])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError):
            polys.gauss_floats([1, bad])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2 ** 300, 2 ** 300), st.integers(-2 ** 300, 2 ** 300),
           st.integers(-600, 600), st.sampled_from([53, 128, 192, 1000]),
           st.sampled_from("nfcdu"))
    def test_rounds_back_as_round(self, re, im, e, prec, rnd):
        # the one rounding of a result is `_round` of each part, which is
        # from_man_exp in every mode
        with mp.workprec(prec):
            mp.mp._prec_rounding[1] = rnd
            try:
                got = polys.GaussFloat(re, im, e, prec + 10).mpc()
                assert got._mpc_ == (polys._round(re, e), polys._round(im, e))
                assert got._mpc_ == (from_man_exp(re, e, prec, rnd),
                                     from_man_exp(im, e, prec, rnd))
            finally:
                mp.mp._prec_rounding[1] = "n"

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(GAUSS_PRECS).flatmap(
        lambda ps: st.tuples(st.just(ps[0]), vectors(1, ps[0], ps[1]))))
    def test_converts_exactly(self, case):
        prec, (x,) = case
        with mp.workprec(prec):
            (g,) = polys.gauss_floats([x])
            assert g.mpc() == x
        assert _value(g) == x

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(GAUSS_PRECS).flatmap(
        lambda ps: st.tuples(st.just(ps[0]), vectors(1, ps[0], ps[1]))))
    def test_abs_and_norm(self, case):
        prec, (x,) = case
        with mp.workprec(prec):
            (g,) = polys.gauss_floats([x])
        man, exp = g.norm()
        with mp.workprec(4 * prec + 8 * 400):
            assert mp.ldexp(man, exp) == mp.re(x) ** 2 + mp.im(x) ** 2
            a = abs(g)
            assert a.im == 0 and abs(_value(a).real - abs(mp.mpc(x))) < mp.ldexp(1, a.e)


# --- what the kernel reads from mpmath -------------------------------------

class TestMpmathLayout:
    """The raw forms and the rounding that polys' exact kernel relies on.

    Tested on mpmath's pure-Python backend; the gmpy2 backend stores the
    same tuples with gmpy2 integers and is untested here.
    """

    def test_version(self):
        assert mp.__version__.split(".")[0] == "1"

    def test_raw_layouts(self):
        with mp.workprec(53):
            assert mp.mpf(3)._mpf_ == (0, 3, 0, 2)
            assert mp.mpf(-0.75)._mpf_ == (1, 3, -2, 2)
            assert mp.mpc(1, -2)._mpc_ == ((0, 1, 0, 1), (1, 1, 1, 1))
            assert mp.mp._prec_rounding == [53, "n"]
            z = mp.mp.make_mpc(((0, 1, 0, 1), (1, 1, 1, 1)))
            assert z == mp.mpc(1, -2) and mp.mp.make_mpf((0, 3, 0, 2)) == 3
        with mp.workprec(192):
            assert mp.mp._prec_rounding == [192, "n"]

    def test_special_values(self):
        # zero is (0, 0, 0, 0); inf, -inf and nan have man 0 and bc < 0
        assert mp.mpf(0)._mpf_ == fzero == (0, 0, 0, 0)
        assert mp.inf._mpf_ == (0, 0, -456, -2)
        assert (-mp.inf)._mpf_ == (1, 0, -789, -3)
        assert mp.nan._mpf_ == (0, 0, -123, -1)

    def test_from_man_exp_rounds_to_nearest_even(self):
        assert from_man_exp(0b1011, 0, 3, "n") == (0, 3, 2, 2)    # tie, up to even
        assert from_man_exp(0b1001, 0, 3, "n") == (0, 1, 3, 1)    # tie, down to even
        assert from_man_exp(0b10011, 0, 3, "n") == (0, 5, 2, 3)   # above the tie
        assert from_man_exp(-0b1011, 5, 3, "n") == (1, 3, 7, 2)
        assert from_man_exp(0b1100, 0) == (0, 3, 2, 2)            # exact, trailing zeros stripped

    @settings(max_examples=500, deadline=None)
    @given(st.integers(-2 ** 900, 2 ** 900), st.integers(-2000, 2000),
           st.sampled_from([1, 2, 3, 53, 192, 700]), st.sampled_from("nfcdu"))
    def test_kernel_rounding_is_from_man_exp(self, man, exp, prec, rnd):
        # mpf arithmetic, fdot and the kernel read the mode from _prec_rounding
        with mp.workprec(prec):
            mp.mp._prec_rounding[1] = rnd
            try:
                assert polys._round(man, exp) == from_man_exp(man, exp, prec, rnd)
            finally:
                mp.mp._prec_rounding[1] = "n"


# --- the weights chain runs on the kernel ----------------------------------

def test_weights_chain_calls_no_fdot(monkeypatch):
    """moments K=14 -> Szego N=12 -> Toeplitz n=1..12 -> A_1..A_10 -> three
    step routes, and lstsq, with mp.fdot refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("mp.fdot reached")
    monkeypatch.setattr(mp, "fdot", refuse)
    monkeypatch.setattr(type(mp.mp), "fdot", refuse)
    with mp.workprec(192):
        p = qseries.QWeightParams(a=mp.mpc("-0.41", "0.27"), b=mp.mpc("0.12", "-0.58"),
                                  q=mp.mpf("0.33"))
        table = qseries.moments(p, K=14)
        vt = opuc.verblunsky_from_moments(table, N=12)
        for n in range(1, 13):
            assert abs(opuc.verblunsky_toeplitz(table, n) - vt.alpha[n]) < 1e-50
        fits = {n: laxpair.fit_spectral_matrix(p, vt, n) for n in range(1, 11)}
        for n in range(1, 9):
            sp = painleve.params_from_weight(p, n)
            direct = painleve.extract_coords(fits[n + 1].matrix, sp.step())
            stepped, _ = painleve.phi_step(painleve.extract_coords(fits[n].matrix, sp), sp)
            Am, _ = painleve.matrix_step(fits[n].matrix, sp)
            for got in (stepped, painleve.extract_coords(Am, sp.step())):
                assert abs(got.y - direct.y) <= 1e-40 * abs(direct.y)
                assert abs(got.xi - direct.xi) <= 1e-40 * abs(direct.xi)
        x = lstsq([[1, 0], [1, 1], [1, 2]], [mp.mpc(1), mp.mpc(2), mp.mpc(3)])
        assert abs(x[0] - 1) < 1e-50 and abs(x[1] - 1) < 1e-50
    with pytest.raises(AssertionError):
        mp.fdot([1], [1])
    for path in Path(qpvi.__file__).parent.glob("*.py"):
        assert "fdot(" not in path.read_text(), path.name


def test_weights_chain_multiplication_count(monkeypatch):
    """The chain of `test_weights_chain_calls_no_fdot` at its weight forms
    64 mpc products through mpmath's operators, for the parameters of the
    q-PVI steps; the Toeplitz oracle's pivot tests formed 78 mpf products
    more before they compared exact integers.  The mpc chain formed 1,035
    and 1,349."""
    count = [0]

    def counted(f):
        def g(*args):
            count[0] += 1
            return f(*args)
        return g
    for name in ("mpf_mul", "mpc_mul"):
        monkeypatch.setattr(ctx_mp_python, name, counted(getattr(ctx_mp_python, name)))
    with mp.workprec(192):
        p = qseries.QWeightParams(a=mp.mpc("-0.41", "0.27"), b=mp.mpc("0.12", "-0.58"),
                                  q=mp.mpf("0.33"))
        table = qseries.moments(p, K=14)
        vt = opuc.verblunsky_from_moments(table, N=12)
        for n in range(1, 13):
            opuc.verblunsky_toeplitz(table, n)
        fits = {n: laxpair.fit_spectral_matrix(p, vt, n) for n in range(1, 11)}
        for n in range(1, 9):
            sp = painleve.params_from_weight(p, n)
            painleve.extract_coords(fits[n + 1].matrix, sp.step())
            painleve.phi_step(painleve.extract_coords(fits[n].matrix, sp), sp)
            Am, _ = painleve.matrix_step(fits[n].matrix, sp)
            painleve.extract_coords(Am, sp.step())
    assert 0 < count[0] <= 64


class TestPolicy:
    """One precision policy: the levels live in `polys` and nowhere else."""

    POLICY = (polys.zero_bits, polys.negligible, polys.residual_tol)

    def test_fractions_only_in_the_policy(self):
        for path in sorted(Path(qpvi.__file__).parent.glob("*.py")):
            text = path.read_text()
            if path.name == "polys.py":
                for fn in self.POLICY:
                    assert inspect.getsource(fn) in text
                    text = text.replace(inspect.getsource(fn), "")
            for pattern in ("prec //", "mp.mpf(2) **"):
                assert pattern not in text, (path.name, pattern)

    def test_second_copies_gone(self):
        for path in Path(qpvi.__file__).parent.glob("*.py"):
            text = path.read_text()
            for name in ("_tiny", "_near_zero", "theta_closed", "theta_star_closed",
                         "Householder", "fit_caratheodory_u"):
                assert name not in text, (path.name, name)
            # one dense solver: lstsq hands its normal equations to hpd_solve,
            # the one block of guard precision
            if path.name == "polys.py":
                assert text.count(inspect.getsource(polys.hpd_solve)) == 1
                text = text.replace(inspect.getsource(polys.hpd_solve), "")
            assert "extraprec" not in text, path.name
        assert "tol" not in inspect.signature(painleve.extract_coords).parameters
        assert "hpd_solve(" in inspect.getsource(polys.lstsq)

    def test_removed_options(self):
        # each gate reads residual_tol(), the sizes come from the tables'
        # own tuples, and Th1 follows from the linear constraint
        def params(fn):
            return list(inspect.signature(fn).parameters)

        def fields(cls):
            return [f.name for f in dataclasses.fields(cls)]

        assert params(painleve.matrix_step) == ["A", "sp"]
        assert params(laxpair.lstsq_spectral_matrix) == ["p", "vt", "n"]
        assert params(weyl.check_translation) == []
        assert fields(continuum.LimitParams) == ["K1", "K2", "Th2", "C"]
        assert not hasattr(continuum.LimitParams, "from_theta2")
        assert fields(qseries.MomentTable) == ["params", "c", "g", "mass"]
        assert fields(opuc.VerblunskyTable) == ["moments", "alpha", "sigma", "phi", "psi"]
        assert not hasattr(opuc, "star")

    def test_levels_at_192_bits(self):
        with mp.workprec(192):
            assert mp.ldexp(1, -polys.zero_bits()) == mp.mpf(2) ** -96
            assert polys.residual_tol() == mp.mpf(2) ** -64
            assert (polys.GUARD_BITS, polys.TAIL_BITS) == (10, 8)
            # the zero level is strict, and scales with its argument
            for scale in (1, 2, mp.mpf("0.75")):
                edge = scale * mp.mpf(2) ** -96
                assert polys.negligible(edge * mp.mpf("0.99"), scale)
                assert not polys.negligible(edge, scale)
                assert not polys.negligible(mp.mpc(0, edge * mp.mpf("1.01")), scale)
