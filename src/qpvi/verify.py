"""End-to-end verification suite.

Thirteen numbered checks walk the full chain: recursion-level identities
of the orthogonal family, the fitted spectral matrices and their closed
forms, compatibility and determinant structure, the three independent
routes to the Painleve step, the factorization and lattice certificates
of the translation structure, the geometric composite, the weight-level
functional identities, and the continuum limit order.  Each check returns
a CheckResult with the measured residual and its gate; `run_all` executes
all of them off one shared cache of moment/recursion/fit data.
"""

import random
from dataclasses import dataclass, replace

import mpmath as mp

from . import continuum, laxpair, opuc, painleve, qseries, weyl
from .painleve import SurfaceCoords

__all__ = ["CheckResult", "VerificationContext", "run_all", "CRITERIA"]

# kept as strings so the values are parsed at the context precision
REFERENCE = {"a": ("0.3", "0.2"), "b": ("0.5", "0"), "q": "0.5"}


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
        return {"index": self.index, "name": self.name, "passed": self.passed,
                "value": self.value, "tol": self.tol, "detail": self.detail}


class VerificationContext:
    """Shared cache: moments, recursion table, and fitted matrices."""

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
    with mp.workprec(ctx.prec):
        p, vt = ctx.params, ctx.vt()
        worst = mp.mpf(0)
        for n in range(1, 16):
            f = ctx.fits()[n]
            tdiff = max(abs(x - y) for x, y in
                        zip(f.theta, laxpair.theta_closed(p, vt, n)))
            sdiff = max(abs(x - y) for x, y in
                        zip(f.theta_star, laxpair.theta_star_closed(p, vt, n)))
            corners = max(abs(f.e11[2] - p.b * p.q ** (n + 1)),
                          abs(f.e11[0] - mp.conj(p.b) * p.q ** n),
                          abs(f.e22[2] - p.a * p.q),
                          abs(f.e22[0] - mp.conj(p.a)))
            worst = max(worst, tdiff, sdiff, corners)
    return _result(5, "linear factors vs closed forms", worst, 1e-15)


def check_06_compatibility(ctx):
    with mp.workprec(ctx.prec):
        vt, fits = ctx.vt(), ctx.fits()
        worst = max(laxpair.check_fundamental(fits[n], fits[n + 1],
                                              laxpair.build_B(vt, n), ctx.params.q)
                    for n in range(1, 16))
    return _result(6, "compatibility A B = B A", worst, 1e-15)


def check_07_determinant(ctx):
    with mp.workprec(ctx.prec):
        p = ctx.params
        worst_spread = mp.mpf(0)
        worst_mag = mp.mpf(0)
        signs = set()
        for n in range(1, 16):
            const, spread = laxpair.det_ratio_constant(ctx.fits()[n], p)
            worst_spread = max(worst_spread, spread)
            worst_mag = max(worst_mag, abs(abs(const) - p.q ** n) / p.q ** n)
            signs.add(mp.nstr(const / p.q ** n, 3))
        passed_mag = worst_mag <= 1e-12
    res = _result(7, "det A = const q^n V W", worst_spread, 1e-15,
                  detail=f"const/q^n = {sorted(signs)}, |const| gap {float(worst_mag):.1e}")
    return CheckResult(index=res.index, name=res.name,
                       passed=res.passed and passed_mag, value=res.value,
                       tol=res.tol, detail=res.detail)


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
            worst = max(worst, abs(painleve.y_closed(p, vt, n) - cur.y) / abs(cur.y))
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
        qw = (pt.b[0] * pt.b[1] * pt.b[6] * pt.b[7]) / (
            pt.b[2] * pt.b[3] * pt.b[4] * pt.b[5])
        out = weyl.composite_map(pt)
        fbar, gbar = weyl.composite_closed(pt)
        sp, coords = weyl.surface_from_bpoint(pt)
        stepped, _ = painleve.phi_step(coords, sp)
        expect_b = (pt.b[0], pt.b[1], pt.b[2], pt.b[3], pt.b[4] / qw,
                    pt.b[5], pt.b[6] / qw, pt.b[7])
        rel = max(
            abs(out.f - stepped.xi) / abs(stepped.xi),
            abs(out.g - stepped.y) / abs(stepped.y),
            abs(fbar - stepped.xi) / abs(stepped.xi),
            abs(gbar - stepped.y) / abs(stepped.y),
            max(abs(x - y) / abs(y) for x, y in zip(out.b, expect_b)))
        return float(rel)


def check_11_composite(ctx):
    worst = max(_composite_sample(ctx.prec, ctx.seed, i) for i in range(100))
    return _result(11, "reflection word vs closed forms vs step", worst, 1e-10)


def check_12_weight_identities(ctx):
    with mp.workprec(ctx.prec):
        p = ctx.params
        worst_circle = max(
            qseries.unit_modulus_residual(p, 2 * mp.pi * j / 100 + mp.mpf("0.1"))
            for j in range(100))
        _, resid_u = qseries.fit_caratheodory_u(p)
        passed = worst_circle <= 1e-25 and resid_u <= 1e-15
    return CheckResult(index=12, name="weight and Caratheodory q-identities",
                       passed=bool(passed), value=float(max(worst_circle, resid_u)),
                       tol=1e-15,
                       detail=f"circle {float(worst_circle):.1e} (tol 1e-25), "
                              f"F-equation {float(resid_u):.1e} (tol 1e-15)")


def check_13_continuum(ctx):
    """The continuum gap is first order in eps: |fitted order - 1| <= 0.05."""
    rep = continuum.limit_check(prec=ctx.prec)
    errs = ", ".join(f"{float(e):.2e}" for e in rep.errors)
    res = _result(13, "continuum limit order", abs(rep.fitted_order - 1), 0.05,
                  detail=f"errors [{errs}], fitted order "
                         f"{float(rep.fitted_order):.4f}, decreasing required")
    return replace(res, passed=res.passed and rep.decreasing)


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
