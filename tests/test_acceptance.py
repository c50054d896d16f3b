"""Acceptance gate: the thirteen checks, one pass/fail line each.

Run with -s to see the lines as they complete:

    pytest tests/test_acceptance.py -v -s
"""

from dataclasses import replace

import mpmath as mp

from qpvi import continuum, verify


def _run(ctx, fn):
    res = fn(ctx)
    print()
    print(res.line())
    assert res.passed, res.line()
    return res


def test_01_degenerate_weight_vanishes(ctx):
    _run(ctx, verify.check_01_degenerate_weight)


def test_02_orthonormality(ctx):
    _run(ctx, verify.check_02_orthogonality)


def test_03_recursion_matches_toeplitz(ctx):
    _run(ctx, verify.check_03_toeplitz)


def test_04_wronskian_identities(ctx):
    _run(ctx, verify.check_04_wronskians)


def test_05_offdiagonal_closed_forms(ctx):
    _run(ctx, verify.check_05_closed_factors)


def test_06_fundamental_compatibility(ctx):
    _run(ctx, verify.check_06_compatibility)


def test_07_determinant_structure(ctx):
    _run(ctx, verify.check_07_determinant)


def test_08_step_routes_agree(ctx):
    _run(ctx, verify.check_08_three_routes)


def test_09_factorization_identities(ctx):
    _run(ctx, verify.check_09_factorizations)


def test_10_lattice_translation(ctx):
    _run(ctx, verify.check_10_picard)


def test_11_weyl_word_matches_step(ctx):
    _run(ctx, verify.check_11_composite)


def test_12_weight_identities(ctx):
    _run(ctx, verify.check_12_weight_identities)


def test_12_reads_the_moment_table(ctx):
    # c_10 and c_-10 moved by 1e-10 break the F recurrence on the table
    table = ctx.table()
    cs = list(table.c)
    cs[table.K + 10] += mp.mpf("1e-10")
    cs[table.K - 10] = mp.conj(cs[table.K + 10])
    moved = verify.VerificationContext(prec=ctx.prec)
    moved._table = replace(table, c=tuple(cs))
    res = verify.check_12_weight_identities(moved)
    assert not res.passed and 1e-11 < res.value < 1e-9, res.line()


def test_06_07_read_the_lax_matrices(ctx):
    # the z^1 coefficient of e11 in A_5 moved by a factor 1 + 1e-10 breaks
    # both the compatibility with A_4, A_6 and det A_5 = -q^5 V W
    fits = dict(ctx.fits())
    e11 = list(fits[5].e11)
    with mp.workprec(ctx.prec):
        e11[1] *= 1 + mp.mpf("1e-10")
    moved = verify.VerificationContext(prec=ctx.prec)
    moved._vt = ctx.vt()
    moved._fits = {**fits, 5: replace(fits[5], e11=tuple(e11))}
    for check in (verify.check_06_compatibility, verify.check_07_determinant):
        res = check(moved)
        assert not res.passed and 1e-13 < res.value < 1e-9, res.line()


def test_13_continuum_convergence(ctx):
    _run(ctx, verify.check_13_continuum)


def test_13_gate_is_order_within_005_of_one(ctx, monkeypatch):
    def report(order, errors):
        return continuum.LimitReport(eps=(0.01, 0.005, 0.0025), steps=(69, 138, 277),
                                     errors=errors, orders=(), fitted_order=order)
    cases = [(1.04, (4e-2, 2e-2, 1e-2), True), (0.9, (4e-2, 2e-2, 1e-2), False),
             (1.06, (4e-2, 2e-2, 1e-2), False), (1.0, (4e-2, 5e-2, 1e-2), False)]
    for order, errors, passed in cases:
        monkeypatch.setattr(continuum, "limit_check",
                            lambda prec, r=report(order, errors): r)
        res = verify.check_13_continuum(ctx)
        assert res.passed is passed
        assert res.value == abs(order - 1) and res.tol == 0.05
