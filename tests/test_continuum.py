import mpmath as mp
import pytest

import qpvi
from qpvi import continuum, painleve
from qpvi.errors import ConstraintError, DomainError, SingularityError


# the tolerances `limit_check` gives the DOP853 reference
STUDY_TOL = {"rtol": 1e-13, "atol": 1e-15}


def rk4_endpoint(lp, t0, t1, u0, v0, nsteps):
    """Classical fixed-step RK4 on `ode_rhs` at working precision: a test oracle."""
    h = (mp.mpf(t1) - mp.mpf(t0)) / nsteps
    t, u, v = mp.mpf(t0), mp.mpc(u0), mp.mpc(v0)
    for _ in range(nsteps):
        a1, b1 = continuum.ode_rhs(lp, t, u, v)
        a2, b2 = continuum.ode_rhs(lp, t + h / 2, u + h / 2 * a1, v + h / 2 * b1)
        a3, b3 = continuum.ode_rhs(lp, t + h / 2, u + h / 2 * a2, v + h / 2 * b2)
        a4, b4 = continuum.ode_rhs(lp, t + h, u + h * a3, v + h * b3)
        u += h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        v += h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
        t += h
    return u, v


@pytest.fixture(scope="module")
def ref():
    return continuum.reference_limit()


POINTS = ((mp.mpf("0.7"), mp.mpc("0.3", "0.1"), mp.mpc("1.2", "-0.2")),
          (mp.mpf("0.45"), mp.mpc("-0.8", "0.5"), mp.mpc("0.4", "0.9")))


class TestLimitParams:
    def test_constraint_enforced(self):
        with mp.workprec(128):
            with pytest.raises(ConstraintError):
                continuum.LimitParams(K1=mp.mpf("0.4"), K2=mp.mpf("-0.3"),
                                      Th1=mp.mpf("1.0"), Th2=mp.mpf("0.25"),
                                      C=tuple(mp.mpf(x) for x in
                                              ("0.15", "-0.2", "0.35", "0.2")))

    def test_from_theta2(self, ref):
        lp, _ = ref
        gap = lp.K1 + lp.K2 + mp.fsum(lp.C) - lp.Th1 - lp.Th2
        assert abs(gap) < 1e-30


class TestVectorField:
    def test_independent_grouping(self, ref, prec192):
        # the finite difference of the discrete step, an independent route
        # to the field, pins ode_rhs to about eps at 600 bits
        lp, _ = ref
        for t, u, v in POINTS:
            assert continuum.rhs_discrete_residual(lp, t, u, v, eps="1e-60",
                                                   prec=600) < 1e-45

    def test_solver_evaluates_the_same_field(self, ref, prec192):
        # the solver's complex evaluation against ode_rhs on mpmath
        lp, _ = ref
        rhs = continuum._solver_rhs(lp)
        for t, u, v in POINTS:
            du, dv = continuum.ode_rhs(lp, t, u, v)
            re_du, im_du, re_dv, im_dv = rhs(float(t), [float(u.real), float(u.imag),
                                                       float(v.real), float(v.imag)])
            assert abs(complex(re_du, im_du) - du) <= 1e-13 * abs(du)
            assert abs(complex(re_dv, im_dv) - dv) <= 1e-13 * abs(dv)

    def test_regularity_guards(self, ref):
        lp, _ = ref
        with pytest.raises(SingularityError):
            continuum.ode_rhs(lp, mp.mpf(1), mp.mpc("0.3"), mp.mpc("1.0"))
        with pytest.raises(SingularityError):
            continuum.ode_rhs(lp, mp.mpf("0.5"), mp.mpc("0.3"), mp.mpc(0))

    def test_discrete_derivative_certificate(self, ref):
        # (x(qt) - x(t)) / (eps t) reproduces the vector field as eps -> 0
        lp, w = ref
        r = continuum.rhs_discrete_residual(lp, mp.mpf(str(w["t0"])),
                                            w["u0"], w["v0"])
        assert r < 1e-10


class TestEmbedding:
    def test_step_params_on_constraint(self, ref, prec192):
        lp, _ = ref
        sp = continuum.discrete_step_params(lp, mp.mpf("0.01"), mp.mpf("0.7"))
        assert sp.constraint_residual() < 1e-45
        for ci, Ci in zip(sp.c, lp.C):
            assert abs(ci - (1 + mp.mpf("0.01") * Ci)) < 1e-45
        assert abs(sp.q - mp.mpf("0.99")) < 1e-45

    def test_eps_range(self, ref):
        lp, _ = ref
        with pytest.raises(DomainError):
            continuum.discrete_step_params(lp, mp.mpf("1.5"), mp.mpf("0.7"))

    def test_orbit_step_count(self, ref):
        lp, w = ref
        with mp.workprec(128):
            eps = mp.mpf("0.01")
            k, t_end, _, _ = continuum.discrete_orbit(lp, eps, mp.mpf("0.8"),
                                                      mp.mpf("0.6"), w["u0"], w["v0"])
            expect = int(mp.nint(mp.log(mp.mpf("0.6") / mp.mpf("0.8"))
                                 / mp.log(1 - eps)))
            assert k == expect
            assert abs(t_end - mp.mpf("0.8") * (1 - eps) ** k) < 1e-30

    def test_orbit_window_validation(self, ref):
        lp, w = ref
        with pytest.raises(DomainError):
            continuum.discrete_orbit(lp, mp.mpf("0.01"), mp.mpf("0.4"),
                                     mp.mpf("0.8"), w["u0"], w["v0"])


class TestIntegration:
    def test_solver_against_rk4(self, ref):
        lp, w = ref
        t0, t1 = mp.mpf(str(w["t0"])), mp.mpf(str(w["t1"]))
        traj = continuum.integrate(lp, t0, t1, w["u0"], w["v0"], **STUDY_TOL)
        assert len(traj.t) == 201
        with mp.workprec(128):
            u_rk, v_rk = rk4_endpoint(lp, t0, t1, w["u0"], w["v0"], 2000)
        assert abs(complex(u_rk) - complex(traj.u[-1])) < 1e-12
        assert abs(complex(v_rk) - complex(traj.v[-1])) < 1e-12

    def test_window_validation(self, ref):
        lp, w = ref
        with pytest.raises(DomainError):
            continuum.integrate(lp, mp.mpf("1.2"), mp.mpf("0.5"), w["u0"], w["v0"])

    def test_csv_shape(self, ref):
        lp, w = ref
        traj = continuum.integrate(lp, mp.mpf("0.8"), mp.mpf("0.7"),
                                   w["u0"], w["v0"], npoints=5)
        lines = list(traj.to_csv_lines())
        assert lines[0] == "t,re_u,im_u,re_v,im_v"
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 5
            float(cells[0])  # plain decimal literals, no scalar-type wrappers


class TestLimit:
    def test_discrete_orbit_near_flow(self, ref):
        lp, w = ref
        t0, t1 = mp.mpf(str(w["t0"])), mp.mpf(str(w["t1"]))
        with mp.workprec(128):
            eps = mp.mpf("0.005")
            _, _, u_end, v_end = continuum.discrete_orbit(lp, eps, t0, t1,
                                                          w["u0"], w["v0"])
            u_ref, v_ref = rk4_endpoint(lp, t0, t1, w["u0"], w["v0"], 1500)
            err = abs(u_end - u_ref) + abs(v_end - v_ref)
        assert err < mp.mpf("0.05")

    def test_reference_matches_rk4_oracle(self, ref):
        # the DOP853 reference reproduces the error an RK4 reference gives
        lp, w = ref
        rep = continuum.limit_check(eps_list=("0.01", "0.005"))
        with mp.workprec(128):
            t0 = mp.mpf(str(w["t0"]))
            _, t_end, u_end, v_end = continuum.discrete_orbit(
                lp, mp.mpf("0.01"), t0, mp.mpf(str(w["t1"])), w["u0"], w["v0"])
            u_rk, v_rk = rk4_endpoint(lp, t0, t_end, w["u0"], w["v0"], 1000)
            err = abs(u_end - u_rk) + abs(v_end - v_rk)
        assert abs(rep.errors[0] - err) <= 1e-9 * err

    def test_window_checked_before_orbits(self, ref, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("orbit started before the window was checked")
        for mod in (qpvi, painleve, continuum):
            monkeypatch.setattr(mod, "phi_orbit", refuse)
        lp, w = ref
        with pytest.raises(AssertionError):  # a good window reaches the patch
            continuum.limit_check(lp, window=w, eps_list=("0.01",))
        # the last window ends its eps = 0.01 orbit at t0 q^40 = 0.999
        for t0, t1 in (("1.2", "0.8"), ("0.4", "0.8"), ("0.8", "-0.1"), ("1", "0.5"),
                       ("1.49334", "1.001")):
            window = dict(w, t0=mp.mpf(t0), t1=mp.mpf(t1))
            with pytest.raises(DomainError):
                continuum.limit_check(lp, window=window)
        with pytest.raises(DomainError):
            continuum.limit_check(lp, window=w, eps_list=("0.01", "1.5"))

    def test_first_order_convergence(self, ref):
        rep = continuum.limit_check(eps_list=("0.01", "0.005"))
        assert rep.decreasing
        assert rep.fitted_order > 0.7
        d = rep.to_json_dict()
        assert len(d["errors"]) == 2 and len(d["orders"]) == 1
