import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath as mp
import pytest

import qpvi
from qpvi import continuum, painleve
from qpvi.errors import ConstraintError, DomainError, SingularityError, StepFailure


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


def rhs_discrete_residual(lp, t, u, v, eps=mp.mpf("1e-12"), prec=360):
    """Finite-difference certificate that the limit system matches the step.

    One discrete step moves t by -eps t, so (u', v') - (u, v) over that
    increment approximates the derivative to O(eps); evaluated at high
    precision this pins the right-hand side to ~eps relative accuracy.  The
    finite difference of the discrete step is a route to the vector field
    independent of `ode_rhs`: a test oracle.
    """
    with mp.workprec(prec):
        t, u, v = mp.mpf(t), mp.mpc(u), mp.mpc(v)
        eps = mp.mpf(eps)
        sp = continuum.discrete_step_params(lp, eps, t)
        coords = painleve.SurfaceCoords(y=1 + eps * u, xi=v)
        new, _ = painleve.phi_step(coords, sp)
        dt = -eps * t
        du_fd = ((new.y - 1) / eps - u) / dt
        dv_fd = (new.xi - v) / dt
        du, dv = continuum.ode_rhs(lp, t, u, v)
        return max(abs(du - du_fd) / (1 + abs(du)),
                   abs(dv - dv_fd) / (1 + abs(dv)))


def _refuse(*args, **kwargs):
    raise AssertionError("orbit started before the window was checked")


@pytest.fixture(scope="module")
def ref():
    return continuum.reference_limit()


POINTS = ((mp.mpf("0.7"), mp.mpc("0.3", "0.1"), mp.mpc("1.2", "-0.2")),
          (mp.mpf("0.45"), mp.mpc("-0.8", "0.5"), mp.mpc("0.4", "0.9")))


class TestLimitParams:
    def test_nan_exponent_rejected(self):
        with mp.workprec(128):
            C = tuple(mp.mpf(x) for x in ("0.15", "-0.2", "0.35", "0.2"))
            for bad in (mp.nan, mp.inf, mp.mpc(0, -mp.inf)):
                with pytest.raises(ConstraintError, match="finite"):
                    continuum.LimitParams(K1=mp.mpf("0.4"), K2=bad, Th2=mp.mpf("0.25"), C=C)
                with pytest.raises(ConstraintError, match="finite"):
                    continuum.LimitParams(K1=mp.mpf("0.4"), K2=mp.mpf("-0.3"),
                                          Th2=mp.mpf("0.25"), C=C[:3] + (bad,))


class TestVectorField:
    def test_independent_grouping(self, ref, prec192):
        # the finite difference of the discrete step, an independent route
        # to the field, pins ode_rhs to about eps at 600 bits
        lp, _ = ref
        for t, u, v in POINTS:
            assert rhs_discrete_residual(lp, t, u, v, eps="1e-60", prec=600) < 1e-45

    def test_solver_evaluates_the_same_field(self, ref, prec192):
        # the solver's complex evaluation against ode_rhs on mpmath
        lp, _ = ref
        rhs = continuum._solver_rhs(lp)
        for t, u, v in POINTS:
            du, dv = continuum.ode_rhs(lp, t, u, v)
            du_c, dv_c = rhs(float(t), complex(u), complex(v))
            assert abs(du_c - du) <= 1e-13 * abs(du)
            assert abs(dv_c - dv) <= 1e-13 * abs(dv)

    def test_regularity_guards(self, ref):
        lp, _ = ref
        with pytest.raises(SingularityError):
            continuum.ode_rhs(lp, mp.mpf(1), mp.mpc("0.3"), mp.mpc("1.0"))
        with pytest.raises(SingularityError):
            continuum.ode_rhs(lp, mp.mpf("0.5"), mp.mpc("0.3"), mp.mpc(0))

    def test_rhs_refuses_v_below_collapse(self, ref):
        # the one threshold of the v = 0 pole: ode_rhs refuses what an
        # integration refuses, |v| < V_COLLAPSE
        lp, _ = ref
        with pytest.raises(SingularityError, match="v = 0"):
            continuum.ode_rhs(lp, mp.mpf("0.5"), mp.mpc("0.3"), mp.mpc("1e-11"))
        with pytest.raises(SingularityError, match="v = 0"):
            continuum.integrate(lp, 0.8, 0.4, 0.3, 1e-11)
        continuum.ode_rhs(lp, mp.mpf("0.5"), mp.mpc("0.3"), mp.mpc(2 * continuum.V_COLLAPSE))

    def test_discrete_derivative_certificate(self, ref):
        # (x(qt) - x(t)) / (eps t) reproduces the vector field as eps -> 0
        lp, w = ref
        r = rhs_discrete_residual(lp, mp.mpf(str(w["t0"])), w["u0"], w["v0"])
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
        lp, w = ref
        with pytest.raises(DomainError):
            continuum.discrete_step_params(lp, mp.mpf("1.5"), mp.mpf("0.7"))
        # discrete_orbit refuses eps through discrete_step_params, once
        for eps in ("0", "1", "1.5", "nan"):
            with pytest.raises(DomainError, match=r"^need 0 < eps < 1$"):
                continuum.discrete_orbit(lp, mp.mpf(eps), w["t0"], w["t1"], w["u0"], w["v0"])

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

    def test_non_finite_start_rejected(self, ref):
        lp, w = ref
        for u0, v0 in ((mp.nan, w["v0"]), (w["u0"], mp.mpc(mp.inf, 0))):
            with pytest.raises(DomainError, match="finite"):
                continuum.discrete_orbit(lp, mp.mpf("0.01"), w["t0"], w["t1"], u0, v0)


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

    @pytest.mark.parametrize("npoints", [0, 1])
    def test_npoints_validation(self, ref, npoints):
        lp, w = ref
        with pytest.raises(DomainError):
            continuum.integrate(lp, w["t0"], w["t1"], w["u0"], w["v0"], npoints=npoints)

    @pytest.mark.parametrize("v0", [0, mp.mpc("5e-11", "-5e-11")])
    def test_v0_on_the_pole_rejected(self, ref, v0):
        lp, w = ref
        with pytest.raises(SingularityError):
            continuum.integrate(lp, w["t0"], w["t1"], w["u0"], v0)

    def test_step_failure_at_movable_pole(self, ref):
        # u reaches a pole near t = 0.6432, where |u| ~ 1e14
        lp, w = ref
        with pytest.raises(StepFailure, match=r"t = 0\.643"):
            continuum.integrate(lp, w["t0"], mp.mpf("0.4"), mp.mpc("0.3"),
                                mp.mpc("0.01"))

    @pytest.mark.parametrize("start", [{"u0": mp.mpc("nan")}, {"v0": mp.mpc(0, "inf")},
                                       {"t0": mp.mpf("nan")}, {"t1": mp.mpf("inf")}],
                             ids=["u0", "v0", "t0", "t1"])
    def test_nonfinite_start_rejected(self, ref, start):
        lp, w = ref
        with pytest.raises(DomainError):
            continuum.integrate(lp, **dict(w, **start))

    @pytest.mark.parametrize("u0", ["1e20", "1e100", "1e200"])
    def test_overflowing_field_is_step_failure(self, ref, u0):
        lp, w = ref
        with pytest.raises(StepFailure, match=r"t = 0\.8:"):
            continuum.integrate(lp, w["t0"], w["t1"], mp.mpc(u0), w["v0"])

    def test_empty_window_repeats_the_start(self, ref):
        lp, w = ref
        traj = continuum.integrate(lp, w["t0"], w["t0"], w["u0"], w["v0"], npoints=3)
        assert traj.t == (0.8,) * 3
        assert traj.u == (complex(w["u0"]),) * 3 and traj.v == (complex(w["v0"]),) * 3

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
        rep = continuum.limit_check()
        with mp.workprec(128):
            t0 = mp.mpf(str(w["t0"]))
            _, t_end, u_end, v_end = continuum.discrete_orbit(
                lp, mp.mpf("0.01"), t0, mp.mpf(str(w["t1"])), w["u0"], w["v0"])
            u_rk, v_rk = rk4_endpoint(lp, t0, t_end, w["u0"], w["v0"], 1000)
            err = abs(u_end - u_rk) + abs(v_end - v_rk)
        assert abs(rep.errors[0] - err) <= 1e-9 * err

    def test_window_checked_before_orbits(self, ref, monkeypatch):
        for mod in (qpvi, painleve, continuum):
            monkeypatch.setattr(mod, "phi_orbit", _refuse)
        lp, w = ref
        with pytest.raises(AssertionError):  # a good window reaches the patch
            continuum.limit_check(lp, window=w)
        # the last window ends its eps = 0.01 orbit at t0 q^40 = 0.999
        for t0, t1 in (("1.2", "0.8"), ("0.4", "0.8"), ("0.8", "-0.1"), ("1", "0.5"),
                       ("1.49334", "1.001"), ("nan", "0.5"), ("0.8", "nan"),
                       ("inf", "1.5")):
            window = dict(w, t0=mp.mpf(t0), t1=mp.mpf(t1))
            with pytest.raises(DomainError):
                continuum.limit_check(lp, window=window)

    def test_v0_zero_rejected_before_orbits(self, ref, monkeypatch):
        for mod in (qpvi, painleve, continuum):
            monkeypatch.setattr(mod, "phi_orbit", _refuse)
        lp, w = ref
        with pytest.raises(SingularityError):
            continuum.limit_check(lp, window=dict(w, v0=mp.mpc(0)))

    def test_window_without_a_step_refused(self, ref, monkeypatch):
        # from t0 = 0.8 the eps = 0.01 orbit ends nearest t1 = 0.797 after no
        # step (the others after 1 and 2), so its error would be the rounding
        # of u0 alone; at 0.7999 no orbit steps.  Both are refused before the
        # reference pass, and t1 = 0.792, one eps = 0.01 step, reaches it
        for mod in (qpvi, painleve, continuum):
            monkeypatch.setattr(mod, "phi_orbit", _refuse)
        monkeypatch.setattr(continuum, "_dop853_pass", _refuse)
        lp, w = ref
        for t1 in ("0.797", "0.7999"):
            with pytest.raises(DomainError) as exc:
                continuum.limit_check(lp, window=dict(w, t1=mp.mpf(t1)))
            assert str(exc.value) == ("the window [t1, t0] is too short: "
                                      "the eps = 0.01 orbit takes no step")
        with pytest.raises(AssertionError):
            continuum.limit_check(lp, window=dict(w, t1=mp.mpf("0.792")))

    @pytest.mark.parametrize("shift", [{}, {"u0": ("0.08", "-0.05"), "v0": ("-0.06", "0.09")},
                                       {"t0": "0.75", "t1": "0.45"}],
                             ids=["reference", "offset_start", "offset_times"])
    def test_one_reference_pass(self, ref, monkeypatch, shift):
        # one DOP853 pass through the three end times, nearest to t0 first;
        # each end agrees with a separate integration to it
        lp, w = ref
        w = dict(w, **{k: (mp.mpc(*v) + w[k] if k in ("u0", "v0") else mp.mpf(v))
                       for k, v in shift.items()})
        passes, run = [], continuum._dop853_pass

        def recorded(*args):
            passes.append(run(*args))
            return passes[-1]
        monkeypatch.setattr(continuum, "_dop853_pass", recorded)
        continuum.limit_check(lp, window=w)
        (traj,) = passes
        with mp.workprec(128):
            ends = [float(continuum._orbit_length(mp.mpf(e), w["t0"], w["t1"])[1])
                    for e in continuum.STUDY_EPS]
        assert list(traj.t[1:]) == sorted(ends, reverse=True)
        monkeypatch.undo()
        for t, u, v in zip(traj.t[1:], traj.u[1:], traj.v[1:]):
            one = continuum.integrate(lp, w["t0"], t, w["u0"], w["v0"], npoints=2,
                                      **STUDY_TOL)
            assert abs(u - one.u[-1]) <= 1e-13 * abs(one.u[-1])
            assert abs(v - one.v[-1]) <= 1e-13 * abs(one.v[-1])

    def test_v0_below_collapse_rejected_before_orbits(self, ref, monkeypatch):
        # nonzero, but below V_COLLAPSE: the reference pass refuses it first
        for mod in (qpvi, painleve, continuum):
            monkeypatch.setattr(mod, "phi_orbit", _refuse)
        lp, w = ref
        with pytest.raises(SingularityError):
            continuum.limit_check(lp, window=dict(w, v0=mp.mpc("5e-11", "-5e-11")))

    def test_first_order_convergence(self, ref):
        rep = continuum.limit_check()
        assert rep.decreasing
        assert rep.fitted_order > 0.7
        d = rep.to_json_dict()
        assert len(d["errors"]) == 3 and len(d["orders"]) == 2


class TestAgainstScipy:
    """The in-repo DOP853 against scipy's, which it reproduces step for step."""

    def _scipy(self, lp, t0, t1, u0, v0, **kw):
        integrate = pytest.importorskip("scipy.integrate")
        rhs = continuum._solver_rhs(lp)

        def fun(t, y):
            du, dv = rhs(t, complex(y[0], y[1]), complex(y[2], y[3]))
            return [du.real, du.imag, dv.real, dv.imag]
        u0, v0 = complex(u0), complex(v0)
        return integrate.solve_ivp(fun, (float(t0), float(t1)),
                                   [u0.real, u0.imag, v0.real, v0.imag],
                                   method="DOP853", **STUDY_TOL, **kw)

    def test_limit_references(self, ref, monkeypatch):
        # integrations to the end times of `limit_check`: the same steps and the same end
        lp, w = ref
        solver_rhs, calls = continuum._solver_rhs, []

        def counted(lp):
            rhs = solver_rhs(lp)

            def count(*args):
                calls.append(args)
                return rhs(*args)
            return count
        monkeypatch.setattr(continuum, "_solver_rhs", counted)
        for eps in continuum.STUDY_EPS:
            _, t_end = continuum._orbit_length(mp.mpf(eps), w["t0"], w["t1"])
            sol = self._scipy(lp, w["t0"], t_end, w["u0"], w["v0"])
            calls.clear()
            traj = continuum.integrate(lp, w["t0"], t_end, w["u0"], w["v0"],
                                       npoints=2, **STUDY_TOL)
            assert len(calls) == sol.nfev
            assert abs(traj.u[-1] - complex(sol.y[0, -1], sol.y[1, -1])) < 1e-13
            assert abs(traj.v[-1] - complex(sol.y[2, -1], sol.y[3, -1])) < 1e-13

    def test_reference_trajectory(self, ref):
        # scipy interpolates its samples; the in-repo solver steps onto them
        np = pytest.importorskip("numpy")
        lp, w = ref
        traj = continuum.integrate(lp, w["t0"], w["t1"], w["u0"], w["v0"], **STUDY_TOL)
        sol = self._scipy(lp, w["t0"], w["t1"], w["u0"], w["v0"],
                          t_eval=np.linspace(float(w["t0"]), float(w["t1"]), 201))
        assert len(traj.t) == len(sol.t) == 201
        for k in range(201):
            assert abs(traj.t[k] - sol.t[k]) <= 1e-15
            assert abs(traj.u[k] - complex(sol.y[0, k], sol.y[1, k])) < 1e-11
            assert abs(traj.v[k] - complex(sol.y[2, k], sol.y[3, k])) < 1e-11


def test_numerical_stack_not_loaded():
    # a fresh interpreter imports qpvi, integrates and runs a study on
    # mpmath alone
    code = textwrap.dedent("""
        import contextlib, io, sys
        import qpvi
        from qpvi import cli, continuum
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["ode", "--t1", "0.7", "--npoints", "3"]) == 0
        continuum.limit_check()
        print(sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy")))
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
