"""Continuum limit of the discrete step as q -> 1.

With q = 1 - eps, parameters pinned to 1 at rate eps,

    kappa1 = t (1 + eps K1)/q,   kappa2 = 1 + eps K2,
    theta1 = t (1 + eps Th1(eps))/q,   theta2 = 1 + eps Th2,
    c_i = 1 + eps C_i,   y = 1 + eps u,   xi = v,

where (1 + eps Th1(eps)) = (1 + eps K1)(1 + eps K2) prod(1 + eps C_i) /
(1 + eps Th2) closes the multiplicative constraint exactly, one discrete
step moves t to qt, and the orbit converges to the flow of

  t(t-1) du/dt = t v (u - C3)(u - C4) - (u - C1)(u - C2)/v,
  t(t-1) dv/dt = -t v^2 (2u - C3 - C4)
                 + v [2u(t+1) - t(C1+C2+C3+C4) - (K2 - Th2 + 1)(t-1)]
                 + (C1 + C2 - 2u),

valid on families satisfying the linear constraint
K1 + K2 + sum C_i = Th1 + Th2 (the eps-linearization of the constraint
variety; off it the step is not O(eps) and no limit system exists).
K1 and Th1 then drop out of the right-hand side.

`discrete_orbit` runs the discrete orbit as one `painleve.phi_orbit` call,
which computes the surface coefficients once and advances them by powers
of q, in Python-integer arithmetic (`polys.GaussFloat`): the study's three
orbits, 484 steps at 128 bits, take about 50 ms on a 2-core VM with
pure-Python mpmath, against about 170 ms in mpmath arithmetic.  `limit_check` measures the endpoint gap between the discrete orbit
and a high-order integration of this system for a decreasing sequence of
eps and fits the convergence order, which is 1 in eps; `LimitReport.passed`
is the one gate on that study, for check 13 and `qpvi ode --limit-check`
alike.  The reference endpoint comes from the adaptive DOP853 solver
behind `integrate` (Hairer, Norsett and Wanner, Solving ODEs I, II.10) at
rtol = 1e-13, atol = 1e-15: about 1e-14 accurate, against gaps of at
least 6.7e-3.

The right-hand side is typed once, in `_field`.  `ode_rhs` evaluates it
on mpmath numbers and the solver on Python complex numbers;
`rhs_discrete_residual` certifies it against a finite difference of the
discrete step, an independent route to the same vector field.
"""

from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConstraintError, DomainError, SingularityError, StepFailure
from .painleve import SurfaceCoords, SurfaceParams, phi_orbit, phi_step

__all__ = [
    "LimitParams", "REFERENCE_LIMIT", "reference_limit", "ode_rhs", "discrete_step_params",
    "discrete_orbit", "rhs_discrete_residual", "Trajectory", "integrate",
    "limit_check", "LimitReport", "ORDER_TOL",
]


@dataclass(frozen=True)
class LimitParams:
    """Limit exponents (K1, K2, Th1, Th2; C1..C4) on the linear constraint."""

    K1: mp.mpc
    K2: mp.mpc
    Th1: mp.mpc
    Th2: mp.mpc
    C: tuple

    def __post_init__(self):
        for name in ("K1", "K2", "Th1", "Th2"):
            object.__setattr__(self, name, mp.mpc(getattr(self, name)))
        object.__setattr__(self, "C", tuple(mp.mpc(x) for x in self.C))
        if len(self.C) != 4:
            raise ConstraintError("need exactly four C exponents")
        gap = abs(self.K1 + self.K2 + mp.fsum(self.C) - self.Th1 - self.Th2)
        if gap > mp.mpf(2) ** (-(mp.mp.prec // 2)) * (1 + abs(self.Th1) + abs(self.Th2)):
            raise ConstraintError(
                f"linear constraint K1+K2+sum C = Th1+Th2 violated by {mp.nstr(gap, 5)}")

    @classmethod
    def from_theta2(cls, K1, K2, Th2, C):
        """Fill Th1 from the linear constraint."""
        C = tuple(mp.mpc(x) for x in C)
        Th1 = mp.mpc(K1) + mp.mpc(K2) + mp.fsum(C) - mp.mpc(Th2)
        return cls(K1=K1, K2=K2, Th1=Th1, Th2=Th2, C=C)


# the reference configuration of the convergence study as decimal strings,
# complex values as (re, im); `qpvi ode` takes its flag defaults from here
REFERENCE_LIMIT = {"K1": "0.4", "K2": "-0.3", "Theta2": "0.25",
                   "C": ("0.15", "-0.2", "0.35", "0.2"),
                   "t0": "0.8", "t1": "0.4", "u0": ("0.3", "0.1"), "v0": ("1.2", "-0.2")}


def reference_limit():
    """The reference configuration `REFERENCE_LIMIT` for the convergence study."""
    ref = REFERENCE_LIMIT
    lp = LimitParams.from_theta2(K1=mp.mpf(ref["K1"]), K2=mp.mpf(ref["K2"]),
                                 Th2=mp.mpf(ref["Theta2"]),
                                 C=tuple(mp.mpf(c) for c in ref["C"]))
    window = {"t0": mp.mpf(ref["t0"]), "t1": mp.mpf(ref["t1"]),
              "u0": mp.mpc(*ref["u0"]), "v0": mp.mpc(*ref["v0"])}
    return lp, window


def _check_regular(t, v):
    if abs(t) < 1e-12 or abs(t - 1) < 1e-12:
        raise SingularityError(f"system is singular at t = {mp.nstr(mp.mpc(t), 8)}")
    if abs(v) < 1e-12:
        raise SingularityError("system is singular on v = 0")


def _field(C, kfac, t, u, v):
    # (du/dt, dv/dt) in the number type of the arguments; kfac = K2 - Th2 + 1
    C1, C2, C3, C4 = C
    den = t * (t - 1)
    du = (t * v * (u - C3) * (u - C4) - (u - C1) * (u - C2) / v) / den
    dv = (-t * v * v * (2 * u - C3 - C4)
          + v * (2 * u * (t + 1) - t * (C1 + C2 + C3 + C4) - kfac * (t - 1))
          + (C1 + C2 - 2 * u)) / den
    return du, dv


def ode_rhs(lp, t, u, v):
    """(du/dt, dv/dt) of the limit system."""
    _check_regular(t, v)
    return _field(lp.C, lp.K2 - lp.Th2 + 1, t, u, v)


def discrete_step_params(lp, eps, t):
    """Surface parameters of the eps-embedded discrete system at time t."""
    eps = mp.mpf(eps)
    if not 0 < eps < 1:
        raise DomainError("need 0 < eps < 1")
    q = 1 - eps
    th1fac = (1 + eps * lp.K1) * (1 + eps * lp.K2) / (1 + eps * lp.Th2)
    for Ci in lp.C:
        th1fac *= 1 + eps * Ci
    return SurfaceParams(
        k1=t * (1 + eps * lp.K1) / q, k2=1 + eps * lp.K2,
        t1=t * th1fac / q, t2=1 + eps * lp.Th2,
        c=tuple(1 + eps * Ci for Ci in lp.C), q=q)


def _orbit_length(eps, t0, t1):
    # (k, t0 q^k): the number of steps from t0 that ends nearest t1, and its end
    if not 0 < eps < 1:
        raise DomainError("need 0 < eps < 1")
    if t0 <= 0 or t1 <= 0 or t1 >= t0:
        raise DomainError("need 0 < t1 < t0 for a contracting q-orbit")
    q = 1 - eps
    k = int(mp.nint(mp.log(t1 / t0) / mp.log(q)))
    return k, t0 * q ** k


def discrete_orbit(lp, eps, t0, t1, u0, v0):
    """Run the discrete step from t0 until t0 q^k ~ t1, as one `phi_orbit`.

    Returns (k, t_end, u_end, v_end) with u, v read back through the
    embedding y = 1 + eps u, xi = v.
    """
    eps, t0 = mp.mpf(eps), mp.mpf(t0)
    k, t_end = _orbit_length(eps, t0, mp.mpf(t1))
    sp = discrete_step_params(lp, eps, t0)
    coords = SurfaceCoords(y=1 + eps * mp.mpc(u0), xi=mp.mpc(v0))
    coords, _ = phi_orbit(coords, sp, k)
    return k, t_end, (coords.y - 1) / eps, coords.xi


def rhs_discrete_residual(lp, t, u, v, eps=mp.mpf("1e-12"), prec=360):
    """Finite-difference certificate that the limit system matches the step.

    One discrete step moves t by -eps t, so (u', v') - (u, v) over that
    increment approximates the derivative to O(eps); evaluated at high
    precision this pins the right-hand side to ~eps relative accuracy.
    """
    with mp.workprec(prec):
        t, u, v = mp.mpf(t), mp.mpc(u), mp.mpc(v)
        eps = mp.mpf(eps)
        sp = discrete_step_params(lp, eps, t)
        coords = SurfaceCoords(y=1 + eps * u, xi=v)
        new, _ = phi_step(coords, sp)
        dt = -eps * t
        du_fd = ((new.y - 1) / eps - u) / dt
        dv_fd = (new.xi - v) / dt
        du, dv = ode_rhs(lp, t, u, v)
        return max(abs(du - du_fd) / (1 + abs(du)),
                   abs(dv - dv_fd) / (1 + abs(dv)))


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the limit system."""

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def to_csv_lines(self):
        yield "t,re_u,im_u,re_v,im_v"
        for k in range(len(self.t)):
            row = (self.t[k], self.u[k].real, self.u[k].imag,
                   self.v[k].real, self.v[k].imag)
            yield ",".join(repr(float(x)) for x in row)


def _solver_rhs(lp):
    # `_field` on Python complex numbers, with (u, v) as four real components
    C = tuple(complex(x) for x in lp.C)
    kfac = complex(lp.K2 - lp.Th2 + 1)

    def rhs(t, yv):
        du, dv = _field(C, kfac, t, complex(yv[0], yv[1]), complex(yv[2], yv[3]))
        return [du.real, du.imag, dv.real, dv.imag]
    return rhs


def integrate(lp, t0, t1, u0, v0, rtol=1e-10, atol=1e-12, npoints=201):
    """Integrate the limit system with an adaptive solver.

    The complex pair (u, v) rides as four real components.  Integration is
    rejected if [t0, t1] touches the fixed singularities t = 0, 1, and
    terminates with SingularityError if v collapses along the way.
    """
    t0f, t1f = float(mp.mpf(t0)), float(mp.mpf(t1))
    for ts in (0.0, 1.0):
        if min(t0f, t1f) - 1e-9 <= ts <= max(t0f, t1f) + 1e-9:
            raise DomainError(f"integration window may not contain t = {ts}")

    def v_collapse(t, yv):
        return abs(yv[2] + 1j * yv[3]) - 1e-10
    v_collapse.terminal = True

    y0 = [float(mp.mpc(u0).real), float(mp.mpc(u0).imag),
          float(mp.mpc(v0).real), float(mp.mpc(v0).imag)]
    t_eval = np.linspace(t0f, t1f, npoints)
    sol = solve_ivp(_solver_rhs(lp), (t0f, t1f), y0, method="DOP853", rtol=rtol,
                    atol=atol, t_eval=t_eval, events=v_collapse, dense_output=False)
    if sol.status == 1:
        raise SingularityError(
            f"v collapsed near t = {sol.t_events[0][0]:.6g}; trajectory is singular")
    if sol.status != 0:
        raise StepFailure(f"integrator failed: {sol.message}")
    u = sol.y[0] + 1j * sol.y[1]
    v = sol.y[2] + 1j * sol.y[3]
    return Trajectory(t=sol.t, u=u, v=v)


# the study passes when its fitted order is this close to the expected 1
ORDER_TOL = 0.05


@dataclass(frozen=True)
class LimitReport:
    """Per-eps endpoint errors of the discrete orbit against the flow."""

    eps: tuple
    steps: tuple
    errors: tuple
    orders: tuple
    fitted_order: mp.mpf

    @property
    def decreasing(self):
        return all(self.errors[i + 1] < self.errors[i]
                   for i in range(len(self.errors) - 1))

    @property
    def passed(self):
        """Decreasing errors and |fitted order - 1| <= ORDER_TOL."""
        return self.decreasing and abs(self.fitted_order - 1) <= ORDER_TOL

    def to_json_dict(self):
        return {"eps": [float(e) for e in self.eps],
                "steps": list(self.steps),
                "errors": [float(e) for e in self.errors],
                "orders": [float(o) for o in self.orders],
                "fitted_order": float(self.fitted_order),
                "decreasing": self.decreasing}


def limit_check(lp=None, eps_list=("0.01", "0.005", "0.0025"), window=None,
                prec=128):
    """Convergence study of the discrete orbit toward the limit flow.

    For each eps the discrete orbit runs at `prec` bits from t0 to
    t_end = t0 q^k ~ t1, and its endpoint is compared with the DOP853
    endpoint of the limit system from t0 to t_end (`integrate` at
    rtol = 1e-13, atol = 1e-15).  The window must satisfy 0 < t1 < t0
    with [t1, t0] and every [t_end, t0] clear of t = 1.  The references
    take milliseconds, so they all run first: a bad window or eps fails
    before any orbit runs.
    """
    with mp.workprec(prec):
        if lp is None:
            lp, ref = reference_limit()
            window = ref if window is None else window
        elif window is None:
            raise DomainError("a custom limit configuration needs a window")
        t0, t1 = mp.mpf(window["t0"]), mp.mpf(window["t1"])
        u0, v0 = window["u0"], window["v0"]
        if t1 <= 1 <= t0:
            raise DomainError("the window [t1, t0] may not contain t = 1")
        eps_steps, refs = [], []
        for e in map(mp.mpf, eps_list):
            k, tend = _orbit_length(e, t0, t1)
            ref_end = integrate(lp, t0, tend, u0, v0, rtol=1e-13, atol=1e-15,
                                npoints=2)
            eps_steps.append((e, k))
            refs.append((complex(ref_end.u[-1]), complex(ref_end.v[-1])))
        errs = []
        for (e, _), (uo, vo) in zip(eps_steps, refs):
            _, _, ud, vd = discrete_orbit(lp, e, t0, t1, u0, v0)
            errs.append(abs(ud - uo) + abs(vd - vo))
        orders = [mp.log(errs[i] / errs[i + 1])
                  / mp.log(mp.mpf(eps_steps[i][0]) / eps_steps[i + 1][0])
                  for i in range(len(errs) - 1)]
        xs = [mp.log(e) for e, _ in eps_steps]
        ys = [mp.log(er) for er in errs]
        xb = mp.fsum(xs) / len(xs)
        yb = mp.fsum(ys) / len(ys)
        slope = (mp.fsum((x - xb) * (y - yb) for x, y in zip(xs, ys))
                 / mp.fsum((x - xb) ** 2 for x in xs))
        return LimitReport(eps=tuple(e for e, _ in eps_steps),
                           steps=tuple(k for _, k in eps_steps),
                           errors=tuple(errs), orders=tuple(orders),
                           fitted_order=slope)
