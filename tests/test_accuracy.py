"""Each layer of the weights chain against its formulas in plain mpmath.

The reference evaluates the same formulas from the same inputs (the
192-bit moment table, Verblunsky table, A_n and surface parameters of the
tested route) at 4x the working precision, so each test measures the
rounding of one layer, not the errors it inherits.  The weights are the
five of the domain sweep and the eight SMALL_ALPHA weights.  Every gate
is the worst error the mpc implementation of the layer had on these
weights, rounded up to a power of two.  The alpha_n are compared in
absolute terms: the recursion knows them to about an ulp of 1.  The q-PVI
orbit, last, is gated against 512-bit runs (see there).
"""

from types import SimpleNamespace

import mpmath as mp
import pytest

from qpvi import continuum, laxpair, opuc, painleve, qseries
from qpvi.errors import ConstraintError
from test_domain_sweep import SWEEP, _context
from test_laxpair import SMALL_ALPHA
from test_painleve import generic_points, oracle_step_coords

PREC = 192
REF = 4 * PREC


def _weights():
    out = [_context(i).params for i in range(len(SWEEP))]
    with mp.workprec(PREC):
        out += [qseries.QWeightParams(a=mp.mpc(a), b=mp.mpc(b), q=mp.mpf(q))
                for a, b, q in SMALL_ALPHA]
    return out


WEIGHTS = _weights()
IDS = [f"sweep{i}" for i in range(len(SWEEP))] + [f"small{i}" for i in range(len(SMALL_ALPHA))]


@pytest.fixture(scope="module", params=range(len(WEIGHTS)), ids=IDS)
def chain(request):
    """(params, table, Verblunsky table, A_1..A_10) of one weight at 192 bits."""
    with mp.workprec(PREC):
        p = WEIGHTS[request.param]
        table = qseries.moments(p, K=14)
        vt = opuc.verblunsky_from_moments(table, N=12)
        fits = {n: laxpair.fit_spectral_matrix(p, vt, n) for n in range(1, 11)}
        return p, table, vt, fits


# --- references: the formulas in plain mpmath, called at REF bits ---------

def ref_szego(p, length):
    g, qn = [mp.mpc(1)], mp.mpf(1)
    for _ in range(length - 1):
        g.append(g[-1] * (p.b - p.a * qn) / (1 - qn * p.q))
        qn *= p.q
    return g


def ref_tail_stop(p, g):
    """The series length the tail rule asks for, with the 192-bit tolerance."""
    tol = mp.mpf(2) ** -(PREC + 8)
    for n, gn in enumerate(g):
        r = (abs(p.b) + abs(p.a) * p.q ** n) / (1 - p.q ** (n + 1))
        if r < 1 and abs(gn) * r / (1 - r) < tol:
            return n + 1
    return None


def ref_alpha(table, N):
    phi, sigma, alpha = [mp.mpc(1)], mp.mpf(1), [mp.mpc(1)]
    for n in range(N):
        zphi = [mp.mpc(0)] + phi
        a = -mp.fsum(x * table.cmom(-j) for j, x in enumerate(zphi)) / sigma
        alpha.append(a)
        sigma *= 1 - abs(a) ** 2
        phi = [x + a * mp.conj(y) for x, y in zip(zphi, phi[::-1])] + [zphi[-1]]
    return alpha


def ref_fit(p, vt, n):
    a, b, q = p.a, p.b, p.q
    an, a1, s = vt.alpha[n], vt.alpha[n + 1], vt.phi[n][n - 1]
    qn, r = q ** n, vt.alpha[n] / vt.alpha[n + 1]
    V1 = -(q + mp.conj(a) * b)
    theta = [(mp.conj(b) * qn - mp.conj(a)) * r, a - b * qn * q]
    theta_star = [mp.conj(b) * qn * q - mp.conj(a), (a * q - b * qn * q) * mp.conj(r)]
    Q = [-a1 * x for x in theta]
    Qs = [mp.mpc(0)] + [-mp.conj(a1) * x for x in theta_star]
    P = [mp.conj(b) * qn, V1 * qn + b * qn * (1 - q) * s - Q[1] * mp.conj(an), b * qn * q]
    Ps = [mp.conj(a), V1 + (q - 1) * mp.conj(a) * mp.conj(s) - Qs[1] * an, a * q]
    return [P, Q, Qs, Ps]


def _peval(p, z):
    return mp.fsum(x * z ** k for k, x in enumerate(p))


def ref_coords(A, sp):
    e11, e12, _, e22 = A
    c1, c2, c3, c4 = sp.c
    y = -e12[0] / e12[1]
    xi = (y - c1) * (y - c2) / _peval(e11, y)
    return y, xi


def _conv(p, r):
    return [mp.fsum(p[j] * r[k - j] for j in range(len(p)) if 0 <= k - j < len(r))
            for k in range(len(p) + len(r) - 1)]


def _padd(p, r):
    n = max(len(p), len(r))
    return [(p[k] if k < len(p) else 0) + (r[k] if k < len(r) else 0) for k in range(n)]


def _matmul(X, Y):
    return [_padd(_conv(X[0], Y[0]), _conv(X[1], Y[2])),
            _padd(_conv(X[0], Y[1]), _conv(X[1], Y[3])),
            _padd(_conv(X[2], Y[0]), _conv(X[3], Y[2])),
            _padd(_conv(X[2], Y[1]), _conv(X[3], Y[3]))]


def ref_matrix_step(A, sp):
    e11, e12, e21, e22 = A
    q, k1, k2, t1, t2 = sp.q, sp.k1, sp.k2, sp.t1, sp.t2
    lc = e12[1]
    e12n, e21n = [x / lc for x in e12], [x * lc for x in e21]
    beta = e21n[1]
    c, d = q * k1 - k2, q * t1 - t2
    delta = c * d + q * beta
    Bq = [[0, c * q], [q], [0, -beta * q], [d]]
    adjB = [[d], [-q], [0, beta], [0, c]]
    M = _matmul(_matmul(Bq, [e11, e12n, e21n, e22]), adjB)
    return [[x / delta for x in e[1:]] for e in M]


def ref_constraint(sp):
    lhs = sp.k1 * sp.k2 * sp.c[0] * sp.c[1] * sp.c[2] * sp.c[3]
    rhs = sp.t1 * sp.t2
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


# --- per-layer errors --------------------------------------------------------

def _entry_err(got, want):
    # worst coefficient error of a polynomial relative to its largest coefficient
    return (max(abs(x - y) for x, y in zip(got, want))
            / max(abs(y) for y in want))


def szego_error(p):
    with mp.workprec(PREC):
        g = qseries.szego_coefficients(p)
    with mp.workprec(REF):
        want = ref_szego(p, len(g))
        return (max(abs(x - y) / abs(y) for x, y in zip(g, want)),
                ref_tail_stop(p, ref_szego(p, len(g) + 4)) == len(g))


def alpha_error(table, vt):
    with mp.workprec(REF):
        return max(abs(x - y) for x, y in zip(vt.alpha, ref_alpha(table, vt.N)))


def fit_error(p, vt, fits):
    with mp.workprec(REF):
        return max(_entry_err(got, want)
                   for n, fit in fits.items()
                   for got, want in zip(fit.matrix, ref_fit(p, vt, n)))


def _steps(p):
    """(n, params at n, params at n + 1) for n = 1..8."""
    for n in range(1, 9):
        with mp.workprec(PREC):
            sp = painleve.params_from_weight(p, n)
            yield n, sp, sp.step()


def coords_error(p, fits):
    worst = 0
    for n, sp, sp1 in _steps(p):
        for sp_n, A_n in ((sp, fits[n].matrix), (sp1, fits[n + 1].matrix)):
            with mp.workprec(PREC):
                got = painleve.extract_coords(A_n, sp_n)
            with mp.workprec(REF):
                y, xi = ref_coords(A_n, sp_n)
                worst = max(worst, abs(got.y - y) / abs(y), abs(got.xi - xi) / abs(xi))
    return worst


def matrix_step_error(p, fits):
    worst = 0
    for n, sp, _ in _steps(p):
        A = fits[n].matrix
        with mp.workprec(PREC):
            got, _ = painleve.matrix_step(A, sp)
        with mp.workprec(REF):
            want = ref_matrix_step(A, sp)
            worst = max(worst, max(_entry_err(x, y) for x, y in zip(got, want)))
    return worst


def constraint_results(p):
    """(worst residual error, verdicts agree) over the weight's parameters at
    n = 1..8 and copies with theta2 moved by 2^-95 and 2^-97 of itself,
    either side of the gate 2^-96."""
    worst, agree = 0, True
    for n in range(1, 9):
        with mp.workprec(PREC):
            sp = painleve.params_from_weight(p, n)
            cases = [sp.t2] + [sp.t2 * (1 + mp.mpf(2) ** -k) for k in (95, 97)]
        for t2 in cases:
            with mp.workprec(PREC):
                try:
                    painleve.SurfaceParams(k1=sp.k1, k2=sp.k2, t1=sp.t1, t2=t2, c=sp.c, q=sp.q)
                    accepted = True
                except ConstraintError:
                    accepted = False
                moved = painleve.SurfaceParams(k1=sp.k1, k2=sp.k2, t1=sp.t1, t2=sp.t2,
                                               c=sp.c, q=sp.q)
                object.__setattr__(moved, "t2", t2)  # past the constructor's check
                got = moved.constraint_residual()
            with mp.workprec(REF):
                want = ref_constraint(moved)
                worst = max(worst, abs(got - want))
                agree = agree and accepted == (want <= mp.mpf(2) ** -(PREC // 2))
    return worst, agree


# gates: the worst error of the mpc implementation of each layer over the
# 13 weights, rounded up to a power of two; in bits (szego, alpha, fit,
# coords, matrix step, constraint) it kept 186.998, 121.8, 190.1, 187.9,
# 177.9 and 190.7, and the GaussFloat layers keep 190.6, 134.4, 192.1,
# 192.1, 185.7 and 286.9
SZEGO_GATE = 2.0 ** -186
ALPHA_GATE = 2.0 ** -121
FIT_GATE = 2.0 ** -190
COORDS_GATE = 2.0 ** -187
MATRIX_STEP_GATE = 2.0 ** -177
CONSTRAINT_GATE = 2.0 ** -190


def test_szego_series(chain):
    err, length_ok = szego_error(chain[0])
    assert err <= SZEGO_GATE and length_ok


def test_szego_recursion(chain):
    _, table, vt, _ = chain
    assert alpha_error(table, vt) <= ALPHA_GATE


def test_closed_lax_matrices(chain):
    p, _, vt, fits = chain
    assert fit_error(p, vt, fits) <= FIT_GATE


def test_extract_coords(chain):
    assert coords_error(chain[0], chain[3]) <= COORDS_GATE


def test_matrix_step(chain):
    assert matrix_step_error(chain[0], chain[3]) <= MATRIX_STEP_GATE


def test_constraint_verdict(chain):
    worst, agree = constraint_results(chain[0])
    assert agree and worst <= CONSTRAINT_GATE


# --- the q-PVI orbit --------------------------------------------------------
# Against 512-bit runs.  Each gate is about ten times the worst error of the
# orbit before its terms were fused (an exact a b - c d, product or
# three-term sum, cut once): 7.2e-33 for the three study orbits and
# 1.6e-58 for the 200 generic ones.

STUDY_ORBIT_GATE = 1e-31
GENERIC_ORBIT_GATE = 2e-57


def _orbit_rel(got, want):
    return max(abs(g - w) / abs(w) for g, w in zip(got, want))


def test_study_orbits():
    # the discrete orbits of `limit_check` at 128 bits against the same
    # study, configuration included, at 512 bits: (u, v) = ((y - 1)/eps, xi)
    runs = {}
    for prec in (128, 512):
        with mp.workprec(prec):
            lp, w = continuum.reference_limit()
            runs[prec] = [continuum.discrete_orbit(lp, mp.mpf(e), w["t0"], w["t1"], w["u0"],
                                                   w["v0"])[2:] for e in continuum.STUDY_EPS]
    with mp.workprec(512):
        assert max(map(_orbit_rel, runs[128], runs[512])) <= STUDY_ORBIT_GATE


def test_generic_orbits():
    # 3-step orbits at 192 bits from the samplers of checks 09 and 11,
    # against the plain-mpmath step at 512 bits from the same inputs
    worst = 0
    with mp.workprec(192):
        for sp, co in generic_points(200):
            got, _ = painleve.phi_orbit(co, sp, 3)
            with mp.workprec(512):
                want, here = co, SimpleNamespace(k1=sp.k1, k2=sp.k2, t1=sp.t1, t2=sp.t2,
                                                 c=sp.c, q=sp.q)
                for _ in range(3):
                    want = oracle_step_coords(want, here)
                    here.k1, here.t1 = here.q * here.k1, here.q * here.t1
                worst = max(worst, _orbit_rel((got.y, got.xi), (want.y, want.xi)))
    assert worst <= GENERIC_ORBIT_GATE
