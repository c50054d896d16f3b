"""In-memory spans around the public functions of the six layers of `qpvi`.

`traced(tracer)` rebinds every module binding of each public function of
qseries, opuc, laxpair, painleve, weyl and continuum -- including names
re-bound by `from .x import f`, such as `continuum.phi_step` -- to a
wrapper that records a span, and restores the originals on exit.  Nothing
inside `qpvi` is changed.

`per_layer` turns spans into per-request metrics.  A span's self time is
its duration minus that of its child spans.  It is charged to the metric of
its function (`TIMED`); a function without one is a helper and is charged
to its caller's metric when the caller is in the same layer.  So
`qseries.grid_s` holds `weight_eval` and `qpoch_inf` under `weight_grid`,
and `continuum.reference_s` holds the `ode_rhs` calls of the RK4 reference.
"""

import inspect
import sys
from collections import namedtuple
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

LAYERS = ("qseries", "opuc", "laxpair", "painleve", "weyl", "continuum")

# function -> metric that takes its self time
TIMED = {
    "qseries.weight_grid": "qseries.grid_s",
    "qseries.moments": "qseries.moments_s",
    "qseries.caratheodory_quad": "qseries.carath_s",
    "qseries.caratheodory_series": "qseries.carath_s",
    "opuc.epsilon_eval": "opuc.epsilon_s",
    "opuc.epsilon_star_eval": "opuc.epsilon_s",
    "opuc.verblunsky_from_moments": "opuc.szego_s",
    "opuc.verblunsky_toeplitz": "opuc.toeplitz_s",
    "laxpair.fit_spectral_matrix": "laxpair.fit_s",
    "laxpair.epsilon_column_residuals": "laxpair.eps_residual_s",
    "painleve.extract_coords": "painleve.extract_s",
    "painleve.phi_step": "painleve.phi_step_s",
    "painleve.matrix_step": "painleve.matrix_step_s",
    "painleve.factorization_residuals": "painleve.factorization_s",
    "weyl.composite_map": "weyl.composite_s",
    "weyl.composite_closed": "weyl.closed_s",
    "weyl.surface_from_bpoint": "weyl.dictionary_s",
    "weyl.bpoint_from_surface": "weyl.dictionary_s",
    "continuum.discrete_orbit": "continuum.orbit_s",
    "continuum.limit_check": "continuum.reference_s",
    "continuum.integrate": "continuum.integrate_s",
}

# function -> metric that counts its calls
COUNTED = {
    "qseries.weight_eval": "qseries.weight_evals",
    "qseries.caratheodory_quad": "qseries.carath_calls",
    "qseries.caratheodory_series": "qseries.carath_calls",
    "opuc.epsilon_eval": "opuc.epsilon_calls",
    "opuc.epsilon_star_eval": "opuc.epsilon_calls",
    "laxpair.fit_spectral_matrix": "laxpair.fit_calls",
    "painleve.phi_step": "painleve.phi_step_calls",
    "continuum.ode_rhs": "continuum.rhs_calls",
}

# every per-layer metric, with its unit; the setup.* and trace.overhead_s
# values are filled in by the benchmark, the rest by `per_layer`
UNITS = dict(
    {m: "s" for m in TIMED.values()},
    **{m: "count" for m in COUNTED.values()},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    **{"qseries.grid_builds": "count", "qseries.grid_hit_ratio": "ratio",
       "trace.request_s": "s", "trace.unattributed_s": "s", "trace.overhead_s": "s",
       "setup.import_s": "s", "setup.fixture_s": "s", "setup.grid_s": "s",
       "setup.moments_s": "s"},
)

Span = namedtuple("Span", "name start end parent request failed")


class Tracer:
    """Collects spans; `request` tags the spans of the request being served."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.request, failed)

        return wrapper


def public_functions():
    """{function: 'layer.name'} for the public functions each layer defines."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"qpvi.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[obj] = f"{layer}.{name}"
    return out


@contextmanager
def traced(tracer):
    """Wrap every binding of the layers' public functions in qpvi's modules."""
    funcs = public_functions()
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in funcs.items()}
    rebound = []
    modules = [m for n, m in list(sys.modules.items())
               if n == "qpvi" or n.startswith("qpvi.")]
    try:
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    rebound.append((mod, attr, obj))
        yield tracer
    finally:
        for mod, attr, obj in rebound:
            setattr(mod, attr, obj)


def _layer(name):
    return name.split(".", 1)[0]


def per_layer(spans, request_s):
    """Per-request layer metrics from spans; `request_s` lists request wall times."""
    n = max(len(request_s), 1)
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[i]
    out = dict.fromkeys(UNITS, 0.0)
    key = [None] * len(spans)
    grid_calls, builds, top = 0, set(), 0.0
    for i, s in enumerate(spans):
        layer = _layer(s.name)
        parent = spans[s.parent] if s.parent >= 0 else None
        same = parent is not None and _layer(parent.name) == layer
        key[i] = TIMED.get(s.name) or (key[s.parent] if same else None)
        self_s = dur[i] - child[i]
        if key[i]:
            out[key[i]] += self_s
        out[f"{layer}.self_s"] += self_s
        if s.name in COUNTED:
            out[COUNTED[s.name]] += 1
        if s.failed and not same:
            out[f"{layer}.errors"] += 1
        if s.name == "qseries.weight_grid":
            grid_calls += 1
        elif s.name == "qseries.weight_eval" and parent and parent.name == "qseries.weight_grid":
            builds.add(s.parent)
        if parent is None:
            top += dur[i]
    out["qseries.grid_builds"] = len(builds)
    out = {k: v / n for k, v in out.items()}
    out["qseries.grid_hit_ratio"] = (grid_calls - len(builds)) / grid_calls if grid_calls else 0.0
    out["trace.request_s"] = sum(request_s) / n
    out["trace.unattributed_s"] = (sum(request_s) - top) / n
    return out
