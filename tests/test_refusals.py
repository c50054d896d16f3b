"""Refusal paths: each documented misuse raises its class and message."""

import mpmath as mp
import pytest

from qpvi import continuum, opuc, painleve, qseries, weyl
from qpvi.errors import (ConstraintError, DegenerateError, DomainError,
                         IndeterminacyError)


def _surface(**kw):
    args = dict(k1=1, k2=1, t1=1, t2=24, c=(1, 2, 3, 4), q=mp.mpf("0.5"))
    args.update(kw)
    return painleve.SurfaceParams(**args)


def _zero_divisors():
    return painleve.SurfaceParams(k1=2, k2=3, t1=0, t2=5, c=(0, 1, 2, 3), q=mp.mpf("0.5"))


ZERO_DIVISORS = "theta1 = 0, c1 = 0: the step divides by kappa1, kappa2, theta1 and c1..c4"


def _limit(C):
    return continuum.LimitParams(K1=mp.mpf("0.4"), K2=mp.mpf("-0.3"),
                                 Th2=mp.mpf("0.25"), C=C)


CASES = {
    "toeplitz_n0": (lambda table, vt: opuc.verblunsky_toeplitz(table, 0),
                    DomainError, "Toeplitz route needs n >= 1"),
    "toeplitz_beyond_K": (lambda table, vt: opuc.verblunsky_toeplitz(table, table.K + 1),
                          DomainError, "need K >= 49 moments"),
    "wronskian_at_N": (lambda table, vt: opuc.wronskian_residuals(vt, vt.N),
                       DomainError, "table holds orders up to 22"),
    "inner_poly_short_table": (lambda table, vt: opuc.inner_poly(table, [1] * (table.K + 2), [1]),
                               DomainError, "moment table too short for this inner product"),
    "surface_q0": (lambda table, vt: _surface(q=0),
                   ConstraintError, "q must be nonzero"),
    "surface_three_c": (lambda table, vt: _surface(c=(1, 2, 3)),
                        ConstraintError, "need exactly four c parameters"),
    "limit_three_C": (lambda table, vt: _limit((mp.mpf("0.15"), mp.mpf("-0.2"), mp.mpf("0.35"))),
                      ConstraintError, "need exactly four C exponents"),
    "limit_check_no_window": (lambda table, vt: continuum.limit_check(continuum.reference_limit()[0]),
                              DomainError, "a custom limit configuration needs a window"),
    "moments_negative_K": (lambda table, vt: qseries.moments(table.params, -1),
                           DomainError, "need K >= 0, got K = -1"),
    "composite_f0": (lambda table, vt: weyl.composite_closed(weyl.BPoint(b=(1,) * 8, f=0, g=1)),
                     IndeterminacyError, "closed forms are indeterminate on f g = 0"),
    # the step and the factorizations refuse a zero divisor through one
    # check, where the parameters are built
    "factorization_zero_divisors": (lambda table, vt: painleve.factorization_residuals(
                                        painleve.SurfaceCoords(y=1, xi=1), _zero_divisors()),
                                    DegenerateError, ZERO_DIVISORS),
    "phi_step_zero_divisors": (lambda table, vt: painleve.phi_step(
                                   painleve.SurfaceCoords(y=1, xi=1), _zero_divisors()),
                               DegenerateError, ZERO_DIVISORS),
    "factorization_nan_coords": (lambda table, vt: painleve.factorization_residuals(
                                     painleve.SurfaceCoords(y=mp.nan, xi=1), _surface()),
                                 DomainError, "coordinates must be finite"),
    "bpoint_kappa1_0": (lambda table, vt: weyl.bpoint_from_surface(
                            _surface(k1=0, t2=0), painleve.SurfaceCoords(y=1, xi=1)),
                        DegenerateError, "kappa1 = 0: the step divides by "
                                         "kappa1, kappa2, theta1 and c1..c4"),
}


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_refusal(case, table, vt):
    call, cls, message = CASES[case]
    with mp.workprec(128), pytest.raises(cls) as exc:
        call(table, vt)
    assert type(exc.value) is cls and str(exc.value) == message
