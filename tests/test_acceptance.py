"""Acceptance gate: the thirteen checks, one pass/fail line each.

Run with -s to see the lines as they complete:

    pytest tests/test_acceptance.py -v -s
"""

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


def test_12_szego_function_and_u_fit(ctx):
    _run(ctx, verify.check_12_weight_identities)


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
