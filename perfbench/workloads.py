"""The four benchmark workloads: seeded inputs, set-up, requests and oracles.

Each workload is one client in a closed loop.  Its inputs come from a
`random.Random` generator seeded by the workload name and the run seed, so
a seed always yields the same request stream.  A request calls the public
functions of `qpvi` and checks the result against an independent oracle,
with the gates of the acceptance suite in `qpvi.verify`.
"""

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

import mpmath as mp

from qpvi import continuum, laxpair, opuc, painleve, qseries, verify, weyl

PREC = 192

# `weights`: distinct weights.  The 512-node grid is rejected with
# PrecisionError once max(|a|, |b|) exceeds about 0.774 (K = 14 at 192
# bits), so the moduli stop at 0.75 and no request fails.  The grid cost
# grows like 1/log(1/q); q is kept in [0.2, 0.4] so that a run fits the
# time budget.
WEIGHT_RADIUS = 0.75
WEIGHT_Q = (0.2, 0.4)


@dataclass(frozen=True)
class Outcome:
    """Result of one request: worst oracle residual, gate verdict, digits."""

    residual: float
    passed: bool
    output: str


def _outcome(gates, values):
    """Outcome from (residual, gate) pairs; `values` fingerprint the result."""
    residual = max(float(r) for r, _ in gates)
    passed = all(r <= gate for r, gate in gates)
    return Outcome(residual=residual, passed=bool(passed),
                   output=" ".join(mp.nstr(v, 30) for v in values))


def _rel(got, want):
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# weights: the cold path, one new weight (and one new grid) per request


def weights_requests(seed):
    """Distinct weights, in pairs whose q mirror each other about the middle.

    A pair draws one offset from the middle of WEIGHT_Q and serves the q
    below, then the q above.  Each q is uniform over the range, but the
    grid cost (which grows like 1/log(1/q)) of the few requests a run
    holds hardly depends on the seed.  a and b have uniform modulus in
    [0, WEIGHT_RADIUS] and uniform phase.
    """
    rng = random.Random(f"weights:{seed}")
    lo, hi = WEIGHT_Q
    while True:
        offset = (hi - lo) / 2 * rng.random()
        for q in ((lo + hi) / 2 - offset, (lo + hi) / 2 + offset):
            a = cmath.rect(WEIGHT_RADIUS * rng.random(), 2 * math.pi * rng.random())
            b = cmath.rect(WEIGHT_RADIUS * rng.random(), 2 * math.pi * rng.random())
            yield a, b, q


def weights_request(_fixture, req):
    """moments -> Szego -> Toeplitz oracle -> A_1..A_10 -> three step routes."""
    a, b, q = req
    with mp.workprec(PREC):
        p = qseries.QWeightParams(a=mp.mpc(a), b=mp.mpc(b), q=mp.mpf(q))
        table = qseries.moments(p, K=14)
        vt = opuc.verblunsky_from_moments(table, N=12)
        toeplitz = max(abs(opuc.verblunsky_toeplitz(table, n) - vt.alpha[n])
                       for n in range(1, 13))
        fits = {n: laxpair.fit_spectral_matrix(p, vt, n) for n in range(1, 11)}
        routes = mp.mpf(0)
        for n in range(1, 9):
            sp = painleve.params_from_weight(p, n)
            cur = painleve.extract_coords(fits[n].matrix, sp)
            direct = painleve.extract_coords(fits[n + 1].matrix, sp.step())
            stepped, _ = painleve.phi_step(cur, sp)
            Am, _ = painleve.matrix_step(fits[n].matrix, sp)
            mat = painleve.extract_coords(Am, sp.step())
            for got in (stepped, mat):
                routes = max(routes, _rel(got.y, direct.y), _rel(got.xi, direct.xi))
        return _outcome([(toeplitz, 1e-20), (routes, 1e-10)],
                        [toeplitz, routes, vt.alpha[12], direct.y, direct.xi])


# ---------------------------------------------------------------------------
# spectral: the warm path, point evaluations against one cached grid


def spectral_fixture():
    """The reference weight with the tables verify-all uses: K=48, N=22, A_1..A_16."""
    ctx = verify.VerificationContext(prec=PREC)
    return ctx.params, ctx.vt(), ctx.fits()


def spectral_requests(seed):
    """Seeded order n in 1..16 and point z, alternately inside and outside the disk."""
    rng = random.Random(f"spectral:{seed}")
    inside = True
    while True:
        r = rng.uniform(0.05, 0.6) if inside else rng.uniform(3.0, 30.0)
        yield rng.randint(1, 16), cmath.rect(r, 2 * math.pi * rng.random())
        inside = not inside


def spectral_request(fixture, req):
    """eps-column residual of the fitted A_n at one point (4 Caratheodory quadratures)."""
    p, vt, fits = fixture
    n, z = req
    with mp.workprec(PREC):
        resid = laxpair.epsilon_column_residuals(p, vt, fits[n], zs=[mp.mpc(z)])
        return _outcome([(resid, 1e-15)], [resid])


# ---------------------------------------------------------------------------
# continuum: one convergence study per request


def continuum_fixture():
    with mp.workprec(128):
        return continuum.reference_limit()


def continuum_requests(seed):
    """(u0, v0) offsets within +-0.1 of the reference window, per component."""
    rng = random.Random(f"continuum:{seed}")
    while True:
        yield tuple(complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
                    for _ in range(2))


def continuum_request(fixture, req):
    """limit_check; the gate is decreasing errors and order >= 0.8.

    The residual is |order - 1|, the distance from the first-order
    convergence the continuum limit predicts.
    """
    lp, ref = fixture
    du, dv = req
    with mp.workprec(128):
        window = dict(ref, u0=ref["u0"] + mp.mpc(du), v0=ref["v0"] + mp.mpc(dv))
        rep = continuum.limit_check(lp, window=window)
        residual = abs(rep.fitted_order - 1)
        passed = rep.decreasing and rep.fitted_order >= mp.mpf("0.8")
        return Outcome(residual=float(residual), passed=bool(passed),
                       output=" ".join(mp.nstr(v, 30)
                                       for v in rep.errors + (rep.fitted_order,)))


# ---------------------------------------------------------------------------
# steps: the step map at generic points, in closed form and as a Weyl word


def steps_requests(seed):
    """Ten draws of the check 09/11 sampler: b1..b8, f, g with modulus in [0.4, 1.5]."""
    rng = random.Random(f"steps:{seed}")
    while True:
        yield tuple(cmath.rect(0.4 + 1.1 * rng.random(), 2 * math.pi * rng.random())
                    for _ in range(10))


def steps_request(_fixture, req):
    """Reflection word vs closed forms vs phi_step, and the four factorizations."""
    with mp.workprec(PREC):
        zs = [mp.mpc(z) for z in req]
        pt = weyl.BPoint(b=tuple(zs[:8]), f=zs[8], g=zs[9])
        b = pt.b
        qw = (b[0] * b[1] * b[6] * b[7]) / (b[2] * b[3] * b[4] * b[5])
        out = weyl.composite_map(pt)
        fbar, gbar = weyl.composite_closed(pt)
        sp, coords = weyl.surface_from_bpoint(pt)
        stepped, _ = painleve.phi_step(coords, sp)
        expect_b = (b[0], b[1], b[2], b[3], b[4] / qw, b[5], b[6] / qw, b[7])
        word = max(_rel(out.f, stepped.xi), _rel(out.g, stepped.y),
                   _rel(fbar, stepped.xi), _rel(gbar, stepped.y),
                   max(_rel(x, y) for x, y in zip(out.b, expect_b)))
        fact = max(painleve.factorization_residuals(coords, sp))
        return _outcome([(word, 1e-10), (fact, 1e-25)],
                        [word, fact, stepped.y, stepped.xi])


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """How to set up a workload, generate its requests and serve one.

    `requests(seed)` is the endless request stream of a run; the same seed
    always gives the same stream.
    """

    fixture: Callable
    requests: Callable
    run: Callable


WORKLOADS = {
    "weights": Workload(fixture=lambda: None, requests=weights_requests,
                        run=weights_request),
    "spectral": Workload(fixture=spectral_fixture, requests=spectral_requests,
                         run=spectral_request),
    "continuum": Workload(fixture=continuum_fixture, requests=continuum_requests,
                          run=continuum_request),
    "steps": Workload(fixture=lambda: None, requests=steps_requests,
                      run=steps_request),
}
