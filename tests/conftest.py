import mpmath as mp
import pytest

from qpvi import qseries, verify


@pytest.fixture(scope="session")
def ctx():
    """Shared verification context: moment table, Verblunsky table and
    spectral fits are computed once at 192 bits and reused everywhere."""
    return verify.VerificationContext(prec=192, seed=0)


@pytest.fixture(scope="session")
def ref_params(ctx):
    return ctx.params


@pytest.fixture(scope="session")
def table(ctx):
    return ctx.table()


@pytest.fixture(scope="session")
def vt(ctx):
    return ctx.vt()


@pytest.fixture(scope="session")
def fits(ctx):
    return ctx.fits()


@pytest.fixture()
def prec192():
    with mp.workprec(192):
        yield


@pytest.fixture(scope="session")
def small_params():
    # cheap second weight, real a: keeps guard tests independent of the
    # reference configuration
    with mp.workprec(128):
        return qseries.QWeightParams(a=mp.mpf("0.4"), b=mp.mpc("0.1", "0.3"),
                                     q=mp.mpf("0.4"))
