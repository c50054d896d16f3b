"""End-to-end verification suite.

Thirteen numbered checks walk the full chain: recursion-level identities
of the orthogonal family, the closed-form spectral matrices against their
least-squares fit, compatibility and determinant structure, the three
independent routes to the Painleve step, the factorization and lattice
certificates of the translation structure, the geometric composite, the
weight-level functional identities, and the continuum limit order.  Each check returns
a CheckResult with the measured residual and its gate; `run_all` executes
all of them off one shared cache of moment/recursion/fit data.
"""

import random
from dataclasses import asdict, dataclass, replace

import mpmath as mp

from . import continuum, laxpair, opuc, painleve, qseries, weyl
from .painleve import SurfaceCoords
from .polys import ExactPoly, peval

__all__ = ["CheckResult", "VerificationContext", "run_all", "CRITERIA", "COMPOSITE_TOL"]

# kept as strings so the values are parsed at the context precision
REFERENCE = {"a": ("0.3", "0.2"), "b": ("0.5", "0"), "q": "0.5"}
# the gate of check 11, which `qpvi weyl` applies to its own samples too
COMPOSITE_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    value: float
    tol: float
    detail: str = ""

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"[{mark}] {self.index:2d} {self.name}: "
                f"value={self.value:.3e} tol={self.tol:.1e}{extra}")

    def to_json_dict(self):
        return asdict(self)


class VerificationContext:
    """Shared cache: moments, recursion table, the closed-form A_n and their
    least-squares oracle."""

    def __init__(self, params=None, prec=192, seed=0):
        self.prec = prec
        self.seed = seed
        with mp.workprec(prec):
            self.params = params if params is not None else qseries.QWeightParams(
                a=mp.mpc(*map(mp.mpf, REFERENCE["a"])),
                b=mp.mpc(*map(mp.mpf, REFERENCE["b"])),
                q=mp.mpf(REFERENCE["q"]))

    _table = None
    _vt = None
    _fits = None
    _oracle_fits = None

    def table(self):
        if self._table is None:
            with mp.workprec(self.prec):
                self._table = qseries.moments(self.params, K=48)
        return self._table

    def vt(self):
        if self._vt is None:
            with mp.workprec(self.prec):
                self._vt = opuc.verblunsky_from_moments(self.table(), N=22)
        return self._vt

    def fits(self):
        if self._fits is None:
            with mp.workprec(self.prec):
                vt = self.vt()
                self._fits = {n: laxpair.fit_spectral_matrix(self.params, vt, n)
                              for n in range(1, 17)}
        return self._fits

    def oracle_fits(self):
        if self._oracle_fits is None:
            with mp.workprec(self.prec):
                vt = self.vt()
                self._oracle_fits = {n: laxpair.lstsq_spectral_matrix(self.params, vt, n)
                                     for n in range(1, 17)}
        return self._oracle_fits


def _result(index, name, value, tol, detail=""):
    value = float(value)
    return CheckResult(index=index, name=name, passed=bool(value <= tol),
                       value=value, tol=tol, detail=detail)


def check_01_degenerate_weight(ctx):
    """a = b collapses the weight to 1 and every alpha_n to 0.

    The Szego series of a = b is g = [1], so the alpha_n come out exactly 0.
    """
    with mp.workprec(ctx.prec):
        p = qseries.QWeightParams(a=ctx.params.a, b=ctx.params.a, q=ctx.params.q)
        vt = opuc.verblunsky_from_moments(qseries.moments(p, K=21), N=20)
        worst = max(abs(vt.alpha[n]) for n in range(1, 21))
    return _result(1, "degenerate weight a=b", worst, 1e-25)


def check_02_orthogonality(ctx):
    with mp.workprec(ctx.prec):
        worst = opuc.orthogonality_residual(ctx.vt(), upto=20)
    return _result(2, "orthogonality and norms", worst, 1e-18)


def check_03_toeplitz(ctx):
    with mp.workprec(ctx.prec):
        vt, table = ctx.vt(), ctx.table()
        worst = max(abs(opuc.verblunsky_toeplitz(table, n) - vt.alpha[n])
                    for n in range(1, 21))
    return _result(3, "recursion vs Toeplitz solve", worst, 1e-20)


def check_04_wronskians(ctx):
    with mp.workprec(ctx.prec):
        worst = max(max(opuc.wronskian_residuals(ctx.vt(), n))
                    for n in range(0, 21))
    return _result(4, "bilinear Wronskian identities", worst, 1e-18)


def check_05_closed_factors(ctx):
    """The closed-form A_n against the least-squares fit: the four entries
    relative to their scale, Theta_n, Theta*_n and the corners."""
    with mp.workprec(ctx.prec):
        p = ctx.params
        worst = mp.mpf(0)
        for n in range(1, 16):
            f, closed = ctx.oracle_fits()[n], ctx.fits()[n]
            entries = max((ExactPoly.of(x) - ExactPoly.of(y)).max() / ExactPoly.of(y).max()
                          for x, y in zip(closed.matrix, f.matrix))
            tdiff = max(abs(x - y) for x, y in zip(f.theta, closed.theta))
            sdiff = max(abs(x - y) for x, y in zip(f.theta_star, closed.theta_star))
            corners = max(abs(f.e11[2] - p.b * p.q ** (n + 1)),
                          abs(f.e11[0] - mp.conj(p.b) * p.q ** n),
                          abs(f.e22[2] - p.a * p.q),
                          abs(f.e22[0] - mp.conj(p.a)))
            worst = max(worst, entries, tdiff, sdiff, corners)
    return _result(5, "closed A_n vs least-squares fit", worst, 1e-15)


def check_06_compatibility(ctx):
    with mp.workprec(ctx.prec):
        vt, fits = ctx.vt(), ctx.fits()
        worst = max(laxpair.check_fundamental(fits[n], fits[n + 1],
                                              laxpair.build_B(vt, n), ctx.params.q)
                    for n in range(1, 16))
    return _result(6, "compatibility A B = B A", worst, 1e-15)


def check_07_determinant(ctx):
    """det A_n = -q^n V W for n = 1..15, coefficientwise and exact:
    `laxpair.det_residual`, |det A_n + q^n V W| / (q^n max|V W|)."""
    with mp.workprec(ctx.prec):
        worst = max(laxpair.det_residual(ctx.fits()[n], ctx.params) for n in range(1, 16))
    return _result(7, "det A_n = -q^n V W", worst, 1e-15)


def check_08_three_routes(ctx):
    with mp.workprec(ctx.prec):
        p, vt, fits = ctx.params, ctx.vt(), ctx.fits()
        worst = mp.mpf(0)
        for n in range(1, 13):
            sp = painleve.params_from_weight(p, n)
            cur = painleve.extract_coords(fits[n].matrix, sp)
            direct = painleve.extract_coords(fits[n + 1].matrix, sp.step())
            stepped, _ = painleve.phi_step(cur, sp)
            Am, _ = painleve.matrix_step(fits[n].matrix, sp)
            mat = painleve.extract_coords(Am, sp.step())
            for got in (stepped, mat):
                worst = max(worst,
                            abs(got.y - direct.y) / abs(direct.y),
                            abs(got.xi - direct.xi) / abs(direct.xi))
            # y from the least-squares A_n: from the closed A_n, -Q_0/Q_1 is
            # y_closed by construction
            fit_y = painleve.extract_coords(ctx.oracle_fits()[n].matrix, sp).y
            worst = max(worst, abs(painleve.y_closed(p, vt, n) - fit_y) / abs(fit_y))
    return _result(8, "three-route step agreement", worst, 1e-10)


def _z(rng):
    # a random complex number with modulus in [0.4, 1.5] and uniform phase
    r = 0.4 + 1.1 * rng.random()
    ph = 2 * mp.pi * rng.random()
    return r * mp.e ** (1j * ph)


def _factorization_point(seed, i):
    """(params, coords) of the i-th generic sample of check 09, at working precision."""
    rng = random.Random(f"{seed}:fact:{i}")
    k1, k2, t1 = _z(rng), _z(rng), _z(rng)
    c = (_z(rng), _z(rng), _z(rng), _z(rng))
    t2 = k1 * k2 * c[0] * c[1] * c[2] * c[3] / t1
    sp = painleve.SurfaceParams(k1=k1, k2=k2, t1=t1, t2=t2, c=c, q=_z(rng))
    return sp, SurfaceCoords(y=_z(rng), xi=_z(rng))


def _factorization_sample(prec, seed, i):
    with mp.workprec(prec):
        sp, coords = _factorization_point(seed, i)
        return float(max(painleve.factorization_residuals(coords, sp)))


def check_09_factorizations(ctx):
    worst = max(_factorization_sample(ctx.prec, ctx.seed, i) for i in range(20))
    return _result(9, "pencil factorizations on constraint variety", worst, 1e-25)


def check_10_picard(ctx):
    checks = weyl.check_translation()
    failed = sorted(k for k, v in checks.items() if not v)
    return _result(10, "integer lattice translation", 0.0 if checks["all"] else 1.0,
                   0.0, detail="exact" if checks["all"] else f"failed: {failed}")


def _composite_point(seed, i):
    """The i-th generic b-point of check 11, at working precision."""
    rng = random.Random(f"{seed}:weyl:{i}")
    return weyl.BPoint(b=tuple(_z(rng) for _ in range(8)), f=_z(rng), g=_z(rng))


def _composite_sample(prec, seed, i):
    with mp.workprec(prec):
        pt = _composite_point(seed, i)
        out = weyl.composite_map(pt)
        fbar, gbar = weyl.composite_closed(pt)
        sp, coords = weyl.surface_from_bpoint(pt)
        stepped, _ = painleve.phi_step(coords, sp)
        expect_b = (pt.b[0], pt.b[1], pt.b[2], pt.b[3], pt.b[4] / sp.q,
                    pt.b[5], pt.b[6] / sp.q, pt.b[7])
        rel = max(
            abs(out.f - stepped.xi) / abs(stepped.xi),
            abs(out.g - stepped.y) / abs(stepped.y),
            abs(fbar - stepped.xi) / abs(stepped.xi),
            abs(gbar - stepped.y) / abs(stepped.y),
            max(abs(x - y) / abs(y) for x, y in zip(out.b, expect_b)))
        return float(rel)


def check_11_composite(ctx):
    worst = max(_composite_sample(ctx.prec, ctx.seed, i) for i in range(100))
    return _result(11, "reflection word vs closed forms vs step", worst, COMPOSITE_TOL)


def check_12_weight_identities(ctx):
    """w = |G|^2 on the circle, w from the q-Pochhammer products and G from
    the Szego series; and the F recurrence on the K = 48 moment table.

    With F = [1, 2 c_1, ..., 2 c_K], the coefficients z^3..z^K of
    W(z) F(qz) + V(z) F(z), formed exactly (`polys.ExactPoly`), vanish;
    their worst modulus is taken relative to
    the whole coefficient scale, as `polys.mat_qdiff_residual` does, since
    the high c_k can vanish exactly (b = 0).
    """
    with mp.workprec(ctx.prec):
        p, table = ctx.params, ctx.table()
        worst_circle = mp.mpf(0)
        for j in range(100):
            z = mp.expj(2 * mp.pi * j / 100 + mp.mpf("0.1"))
            G2 = abs(peval(table.g, z)) ** 2
            worst_circle = max(worst_circle, abs(qseries.weight_eval(p, z) - G2) / G2)
        V, W = qseries.vw_polys(p)
        F = ExactPoly.of([1] + [2 * table.cmom(k) for k in range(1, table.K + 1)])
        lhs, rhs = ExactPoly.of(W) * F.at_q(p.q), ExactPoly.of(V) * F
        resid_f = (lhs + rhs)[3:table.K + 1].max() / (1 + max(lhs.max(), rhs.max()))
        passed = worst_circle <= 1e-25 and resid_f <= 1e-15
    res = _result(12, "weight and Caratheodory q-identities",
                  max(worst_circle, resid_f), 1e-15,
                  detail=f"w = |G|^2 {float(worst_circle):.1e} (tol 1e-25), "
                         f"F recurrence z^3..z^{table.K} {float(resid_f):.1e} (tol 1e-15)")
    return replace(res, passed=bool(passed))


def check_13_continuum(ctx):
    """The continuum gap is first order in eps: `LimitReport.passed`."""
    rep = continuum.limit_check(prec=ctx.prec)
    errs = ", ".join(f"{float(e):.2e}" for e in rep.errors)
    res = _result(13, "continuum limit order", abs(rep.fitted_order - 1),
                  continuum.ORDER_TOL,
                  detail=f"errors [{errs}], fitted order "
                         f"{float(rep.fitted_order):.4f}, decreasing required")
    return replace(res, passed=bool(rep.passed))


CRITERIA = (
    check_01_degenerate_weight, check_02_orthogonality, check_03_toeplitz,
    check_04_wronskians, check_05_closed_factors, check_06_compatibility,
    check_07_determinant, check_08_three_routes, check_09_factorizations,
    check_10_picard, check_11_composite, check_12_weight_identities,
    check_13_continuum,
)


def run_all(params=None, prec=192, seed=0):
    ctx = VerificationContext(params=params, prec=prec, seed=seed)
    return [crit(ctx) for crit in CRITERIA]
