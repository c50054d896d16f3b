"""The weight-dependent acceptance checks away from the reference weight.

Checks 01-08 run at five weights with complex a and b, moduli up to 0.9
and q up to 0.95, under their gates in `qpvi.verify`; check 12 runs at
the first of them.  Run with -s to see each check's line:

    pytest tests/test_domain_sweep.py -v -s
"""

import cmath
import math
import random

import mpmath as mp
import pytest

from qpvi import qseries, verify

# (|a|, |b|, q); the phases of a and b are drawn from random.Random("sweep:i")
SWEEP = [(0.9, 0.3, 0.3), (0.2, 0.9, 0.6), (0.6, 0.75, 0.8), (0.85, 0.5, 0.9),
         (0.5, 0.85, 0.95)]


def _context(i):
    ra, rb, q = SWEEP[i]
    rng = random.Random(f"sweep:{i}")
    a = cmath.rect(ra, 2 * math.pi * rng.random())
    b = cmath.rect(rb, 2 * math.pi * rng.random())
    with mp.workprec(192):
        p = qseries.QWeightParams(a=mp.mpc(a), b=mp.mpc(b), q=mp.mpf(q))
    return verify.VerificationContext(params=p, prec=192)


def _run(ctx, checks):
    print()
    for check in checks:
        res = check(ctx)
        print(res.line())
        assert res.passed, res.line()


@pytest.mark.parametrize("i", range(len(SWEEP)), ids=[f"a{ra}-b{rb}-q{q}"
                                                      for ra, rb, q in SWEEP])
def test_checks_01_to_08(i):
    _run(_context(i), verify.CRITERIA[:8])


def test_check_12_off_reference():
    _run(_context(0), [verify.check_12_weight_identities])
