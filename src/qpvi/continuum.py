"""Continuum limit of the discrete step as q -> 1.

With q = 1 - eps, parameters pinned to 1 at rate eps,

    kappa1 = t (1 + eps K1)/q,   kappa2 = 1 + eps K2,
    theta1 = t (1 + eps Th1(eps))/q,   theta2 = 1 + eps Th2,
    c_i = 1 + eps C_i,   y = 1 + eps u,   xi = v,

where (1 + eps Th1(eps)) = (1 + eps K1)(1 + eps K2) prod(1 + eps C_i) /
(1 + eps Th2) closes the multiplicative constraint exactly.  Its
eps-linearization, the linear constraint

    K1 + K2 + sum C_i = Th1 + Th2,

defines Th1, the limit of Th1(eps) as eps -> 0.  Off it the step is not
O(eps) and no limit system exists; `LimitParams` holds K1, K2, Th2 and C
alone, so no family off it can be built.  One discrete step moves t to
qt, and the orbit converges to the flow of

  t(t-1) du/dt = t v (u - C3)(u - C4) - (u - C1)(u - C2)/v,
  t(t-1) dv/dt = -t v^2 (2u - C3 - C4)
                 + v [2u(t+1) - t(C1+C2+C3+C4) - (K2 - Th2 + 1)(t-1)]
                 + (C1 + C2 - 2u),

in which K1 and Th1 do not appear.

`discrete_orbit` runs the discrete orbit as one `painleve.phi_orbit` call,
which computes the surface coefficients once and advances them by powers
of q, in Python-integer arithmetic (polys' triple kernel): the study's
three orbits, 484 steps at 128 bits, take 16 to 16.5 ms, 33 to 34 us per
step (medians of 30 runs in one interpreter, on a 2-core VM with Python
3.11.7 and pure-Python mpmath, whose speed drops by up to 1.8x at times).
`limit_check` measures the endpoint gap between the discrete orbit and a
high-order integration of this system for the decreasing eps of
`STUDY_EPS` and fits the convergence order, which is 1 in eps;
`LimitReport.passed` is the one gate on that study, for check 13 and
`qpvi limit-check` alike.  The three reference endpoints come from one
DOP853 pass at rtol = 1e-13, atol = 1e-15 through the three end times:
about 1e-14 accurate, against gaps of at least 6.7e-3.

`integrate` is an in-repo DOP853 (Hairer, Norsett and Wanner, Solving
ODEs I, II.10): the 12-stage 8(5,3) tableau, written once below, on Python
complex numbers, with the step control of scipy's `solve_ivp` (the
combined 5th/3rd-order error norm, factor 0.9 err^(-1/8) within
[0.2, 10], Hairer's first-step rule, failure below ten float spacings).
It takes the same steps as scipy's DOP853 and reaches sample times by
clipping steps to them, so the package needs neither numpy nor scipy.
The one reference pass of a study is 266 right-hand-side evaluations,
about 1.3 ms in the same runs; a pass to each end took 726 and 3 ms.

The right-hand side is typed once, in `_field`.  `ode_rhs` evaluates it
on mpmath numbers and the solver on Python complex numbers.
"""

import math
from dataclasses import dataclass
from functools import partial
from operator import mul, truediv

import mpmath as mp

from .errors import ConstraintError, DomainError, SingularityError, StepFailure
from .painleve import SurfaceCoords, SurfaceParams, phi_orbit
# phi_step stays bound here; perfbench/selftest.py wraps this binding
from .painleve import phi_step  # noqa: F401

__all__ = [
    "LimitParams", "REFERENCE_LIMIT", "reference_limit", "ode_rhs", "discrete_step_params",
    "discrete_orbit", "Trajectory", "integrate",
    "limit_check", "LimitReport", "ORDER_TOL", "STUDY_EPS", "V_COLLAPSE",
]


@dataclass(frozen=True)
class LimitParams:
    """Limit exponents (K1, K2, Th2; C1..C4); Th1 = K1 + K2 + sum C - Th2."""

    K1: mp.mpc
    K2: mp.mpc
    Th2: mp.mpc
    C: tuple

    def __post_init__(self):
        for name in ("K1", "K2", "Th2"):
            object.__setattr__(self, name, mp.mpc(getattr(self, name)))
        object.__setattr__(self, "C", tuple(mp.mpc(x) for x in self.C))
        if len(self.C) != 4:
            raise ConstraintError("need exactly four C exponents")
        if not all(map(mp.isfinite, (self.K1, self.K2, self.Th2, *self.C))):
            raise ConstraintError("limit exponents must be finite")


# the reference configuration of the convergence study as decimal strings,
# complex values as (re, im); `qpvi ode` takes its flag defaults from here
REFERENCE_LIMIT = {"K1": "0.4", "K2": "-0.3", "Theta2": "0.25",
                   "C": ("0.15", "-0.2", "0.35", "0.2"),
                   "t0": "0.8", "t1": "0.4", "u0": ("0.3", "0.1"), "v0": ("1.2", "-0.2")}


def reference_limit():
    """The reference configuration `REFERENCE_LIMIT` for the convergence study."""
    ref = REFERENCE_LIMIT
    lp = LimitParams(K1=mp.mpf(ref["K1"]), K2=mp.mpf(ref["K2"]), Th2=mp.mpf(ref["Theta2"]),
                     C=tuple(mp.mpf(c) for c in ref["C"]))
    window = {"t0": mp.mpf(ref["t0"]), "t1": mp.mpf(ref["t1"]),
              "u0": mp.mpc(*ref["u0"]), "v0": mp.mpc(*ref["v0"])}
    return lp, window


# the field has a pole on v = 0: |v| below this is refused by `ode_rhs`
# and at the start of an integration, and ends one
V_COLLAPSE = 1e-10


def _check_regular(t, v):
    if abs(t) < 1e-12 or abs(t - 1) < 1e-12:
        raise SingularityError(f"system is singular at t = {mp.nstr(mp.mpc(t), 8)}")
    if abs(v) < V_COLLAPSE:
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
    # (k, t0 q^k): the number of steps from t0 that ends nearest t1, and its
    # end; the caller has checked 0 < eps < 1
    if not 0 < t1 < t0 < mp.inf:
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
    sp = discrete_step_params(lp, eps, t0)  # refuses eps outside (0, 1)
    k, t_end = _orbit_length(eps, t0, mp.mpf(t1))
    coords = SurfaceCoords(y=1 + eps * mp.mpc(u0), xi=mp.mpc(v0))
    coords = phi_orbit(coords, sp, k)
    return k, t_end, (coords.y - 1) / eps, coords.xi


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the limit system: tuples of float t, complex u, v."""

    t: tuple
    u: tuple
    v: tuple

    def to_csv_lines(self):
        yield "t,re_u,im_u,re_v,im_v"
        for t, u, v in zip(self.t, self.u, self.v):
            yield ",".join(repr(float(x)) for x in (t, u.real, u.imag, v.real, v.imag))


def _solver_rhs(lp):
    # `_field` on Python complex numbers: rhs(t, u, v) -> (du, dv)
    C = tuple(complex(x) for x in lp.C)
    return partial(_field, C, complex(lp.K2 - lp.Th2 + 1))


# Hairer's DOP853 tableau (Solving ODEs I, II.10, with the published Fortran
# code): the nodes and rows of the 12 stages, the 8th-order weights, and the
# weights of the 5th- and 3rd-order error estimates
_C = (0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
      0.118350341907227396726757197510, 0.281649658092772603273242802490,
      0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0)
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
      4.45031289275240888144113950566, 1.89151789931450038304281599044,
      -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
      -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
      4.47106157277725905176885569043e-2)
_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
       -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
       0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
       0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
       -0.2235530786388629525884427845e-1)
_E3 = tuple(b - bhh for b, bhh in zip(_B, (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1)))

# step control: safety factor, bounds of the step factor, and the exponent
# -1/(q + 1) of the error estimate, whose order is q = 7
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXP = 0.9, 0.2, 10.0, -1 / 8

def _parts(u, v):
    return (u.real, u.imag, v.real, v.imag)


def _scaled_sq(u, v, scale):
    # sum of squares of the four real components of (u, v) over `scale`
    return sum(r * r for r in map(truediv, _parts(u, v), scale))


def _initial_step(rhs, t, u, v, fu, fv, span, rtol, atol):
    # Hairer, Norsett and Wanner, II.4, with the constants of DOP853
    length = abs(span)
    scale = [atol + rtol * abs(x) for x in _parts(u, v)]
    d0 = math.sqrt(_scaled_sq(u, v, scale) / 4)
    d1 = math.sqrt(_scaled_sq(fu, fv, scale) / 4)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    if h0 == 0:  # an empty window, or a field that overflows at the start
        return 0.0
    h = math.copysign(h0, span)
    gu, gv = rhs(t + h, u + h * fu, v + h * fv)
    d2 = math.sqrt(_scaled_sq(gu - fu, gv - fv, scale) / 4) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, length)


def _dop853_step(rhs, t, u, v, fu, fv, h, rtol, atol):
    # one step of size h: the 8th-order (u, v) at t + h and the error norm
    ku, kv = [fu], [fv]
    for c, row in zip(_C[1:], _A[1:]):
        du, dv = rhs(t + c * h, u + sum(map(mul, row, ku)) * h,
                     v + sum(map(mul, row, kv)) * h)
        ku.append(du)
        kv.append(dv)
    un = u + h * sum(map(mul, _B, ku))
    vn = v + h * sum(map(mul, _B, kv))
    scale = [atol + rtol * max(abs(a), abs(b)) for a, b in zip(_parts(u, v), _parts(un, vn))]
    err5 = _scaled_sq(sum(map(mul, _E5, ku)), sum(map(mul, _E5, kv)), scale)
    err3 = _scaled_sq(sum(map(mul, _E3, ku)), sum(map(mul, _E3, kv)), scale)
    if err5 == 0 and err3 == 0:
        return un, vn, 0.0
    return un, vn, abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * 4)


def integrate(lp, t0, t1, u0, v0, rtol=1e-10, atol=1e-12, npoints=201):
    """Integrate the limit system with the adaptive DOP853 method.

    An in-repo DOP853 (Hairer, Norsett and Wanner, Solving ODEs I, II.10)
    runs on Python complex (u, v), with the step control of scipy's
    `solve_ivp(method="DOP853")`: the error norm combines the 5th- and
    3rd-order estimates over the four real components, the step factor is
    0.9 err^(-1/8) within [0.2, 10], the first step follows Hairer's rule,
    and a step below ten spacings of floating-point numbers at t raises
    StepFailure.  Steps are clipped to land on the `npoints` equally spaced
    sample times, so every sample is a step end, not an interpolant.

    Integration is rejected if [t0, t1] touches the fixed singularities
    t = 0, 1 or if |v0| < V_COLLAPSE, and ends with SingularityError if an
    accepted step leaves |v| < V_COLLAPSE.
    """
    t0f, t1f = float(mp.mpf(t0)), float(mp.mpf(t1))
    if npoints < 2:
        raise DomainError("need npoints >= 2 samples")
    dt = (t1f - t0f) / (npoints - 1)
    return _dop853_pass(lp, t0f, [t0f + k * dt for k in range(1, npoints - 1)] + [t1f],
                        u0, v0, rtol, atol)


def _dop853_pass(lp, t0f, ends, u0, v0, rtol, atol):
    # `integrate` from t0f through the float times `ends`, each as far from
    # t0f as the one before it or farther; the window is [t0f, ends[-1]]
    t1f = ends[-1]
    if not (math.isfinite(t0f) and math.isfinite(t1f)):
        raise DomainError("integration window needs finite t0 and t1")
    for ts in (0.0, 1.0):
        if min(t0f, t1f) - 1e-9 <= ts <= max(t0f, t1f) + 1e-9:
            raise DomainError(f"integration window may not contain t = {ts}")
    t, u, v = t0f, complex(mp.mpc(u0)), complex(mp.mpc(v0))
    if not all(map(math.isfinite, _parts(u, v))):
        raise DomainError("need finite u0 and v0")
    _check_regular(t, v)
    rhs = _solver_rhs(lp)
    fu, fv = rhs(t, u, v)
    h_abs = _initial_step(rhs, t, u, v, fu, fv, t1f - t0f, rtol, atol)
    direction = math.copysign(1.0, t1f - t0f)
    ts, us, vs = [t], [u], [v]
    for target in ends:
        while t != target:
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if not h_abs >= min_step:  # also ends a step size gone nan
                    raise StepFailure(f"integrator failed at t = {t:.6g}: the step "
                                      f"fell below the spacing of floating-point numbers")
                t_new = t + direction * h_abs
                if direction * (t_new - target) > 0:
                    t_new = target
                h = t_new - t
                h_abs = abs(h)
                un, vn, err = _dop853_step(rhs, t, u, v, fu, fv, h, rtol, atol)
                if err < 1:
                    factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR,
                                                             _SAFETY * err ** _ERR_EXP)
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)
                rejected = True
            t, u, v = t_new, un, vn
            if abs(v) < V_COLLAPSE:
                raise SingularityError(
                    f"v collapsed near t = {t:.6g}; trajectory is singular")
            fu, fv = rhs(t, u, v)
        ts.append(t)
        us.append(u)
        vs.append(v)
    return Trajectory(t=tuple(ts), u=tuple(us), v=tuple(vs))


# the study passes when its fitted order is this close to the expected 1
ORDER_TOL = 0.05
# the eps of the convergence study, kept as strings so the values are
# parsed at the study precision
STUDY_EPS = ("0.01", "0.005", "0.0025")


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


def limit_check(lp=None, window=None, prec=128):
    """Convergence study of the discrete orbit toward the limit flow.

    For each eps of `STUDY_EPS` the discrete orbit runs at `prec` bits from
    t0 to t_end = t0 q^k ~ t1, and its endpoint is compared with the DOP853
    solution of the limit system at t_end.  One DOP853 pass (the solver of
    `integrate`, at rtol = 1e-13, atol = 1e-15) runs from t0 through the
    three end times, nearest first, with its steps clipped to land on each.
    The window must satisfy 0 < t1 < t0 with [t1, t0] and every
    [t_end, t0] clear of t = 1, and be long enough that every orbit takes
    a step: a zero-step orbit's error is only the rounding of u0.  The
    reference pass takes about 1 ms, so it runs first: a bad window or v0
    fails before any orbit runs.
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
        eps = [mp.mpf(e) for e in STUDY_EPS]
        steps = [_orbit_length(e, t0, t1) for e in eps]  # (k, t_end) per eps
        if steps[0][0] == 0:  # the coarsest orbit takes the fewest steps
            raise DomainError(f"the window [t1, t0] is too short: the eps = {STUDY_EPS[0]} "
                              "orbit takes no step")
        # one reference pass through the end times, nearest to t0 first
        t0f = float(t0)
        ends = sorted({float(t_end) for _, t_end in steps}, key=lambda t: abs(t0f - t))
        ref = _dop853_pass(lp, t0f, ends, u0, v0, 1e-13, 1e-15)
        refs = dict(zip(ref.t[1:], zip(ref.u[1:], ref.v[1:])))
        errs = []
        for e, (_, t_end) in zip(eps, steps):
            _, _, ud, vd = discrete_orbit(lp, e, t0, t1, u0, v0)
            uo, vo = refs[float(t_end)]
            errs.append(abs(ud - uo) + abs(vd - vo))
        orders = [mp.log(errs[i] / errs[i + 1]) / mp.log(eps[i] / eps[i + 1])
                  for i in range(len(errs) - 1)]
        xs = [mp.log(e) for e in eps]
        ys = [mp.log(er) for er in errs]
        xb = mp.fsum(xs) / len(xs)
        yb = mp.fsum(ys) / len(ys)
        slope = (mp.fsum((x - xb) * (y - yb) for x, y in zip(xs, ys))
                 / mp.fsum((x - xb) ** 2 for x in xs))
        return LimitReport(eps=tuple(eps), steps=tuple(k for k, _ in steps),
                           errors=tuple(errs), orders=tuple(orders),
                           fitted_order=slope)
