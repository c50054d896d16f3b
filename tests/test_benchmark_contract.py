"""What the benchmark in perfbench/ needs from `qpvi`.

The benchmark's files change only in changes of their own, so a renamed
function or binding in `qpvi` can break a benchmark run, or zero one of
its metrics, while every library test passes.  These tests load
perfbench/workloads.py and perfbench/tracing.py as they stand, serve one
request of each workload BENCHMARK.json lists, and look up every name the
worker, the tracer and the self-tests reach into.
"""

import importlib
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

import qpvi
from qpvi import continuum, laxpair, opuc, painleve, qseries, verify

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


# seed 108 reaches a weight with |a| ~ 1e-4 at request 10, whose
# alpha_11 ~ 7e-30 once tripped an absolute guard
SEED = 108
REQUEST = {"weights": 10, "continuum": 0, "steps": 0}


@pytest.mark.parametrize("name", [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_serves_one_request(workloads, name):
    w = workloads.WORKLOADS[name]
    req = next(itertools.islice(w.requests(SEED), REQUEST[name], None))
    out = w.run(w.fixture(), req)
    assert out.passed, out


def test_traced_functions_exist():
    tracing = _load("tracing")
    for name in {**tracing.TIMED, **tracing.COUNTED}:
        layer, func = name.split(".")
        assert callable(getattr(importlib.import_module(f"qpvi.{layer}"), func)), name


def test_names_the_worker_and_selftests_use():
    assert callable(qseries.weight_grid)
    assert callable(verify.VerificationContext)
    assert all(callable(crit) for crit in verify.CRITERIA) and len(verify.CRITERIA) == 13
    for method in ("table", "vt", "fits"):
        assert callable(getattr(verify.VerificationContext, method))
    # bindings re-exported by `from .x import f`, which the tracer rebinds
    assert laxpair.epsilon_eval is opuc.epsilon_eval
    assert opuc.caratheodory_quad is qseries.caratheodory_quad
    assert continuum.phi_step is painleve.phi_step
    assert qpvi.moments is qseries.moments
