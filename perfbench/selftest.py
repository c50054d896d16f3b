"""Tests of the benchmark itself.

They are kept out of the repository's test suite (the file name does not
match `test_*.py`) because the smoke runs serve real requests and take
about five minutes.  Run from the repository root:

    python3 -m pytest perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _take(name, seed, k=6):
    stream = WORKLOADS[name].requests(seed)
    return [next(stream) for _ in range(k)]


def test_benchmark_json_names_the_code():
    assert set(WORKLOADS) == set(run.WORKLOADS)
    assert set(NAMES) == set(WORKLOADS) - {"spectral"}
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tracing.UNITS


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generator_is_seeded(name):
    assert _take(name, 7) == _take(name, 7)
    assert _take(name, 7) != _take(name, 8)


def test_weight_pairs_mirror_q():
    lo, hi = 0.2, 0.4
    stream = _take("weights", 3, k=12)
    for (a1, b1, q1), (a2, b2, q2) in zip(stream[::2], stream[1::2]):
        assert lo <= q1 <= (lo + hi) / 2 <= q2 <= hi
        assert q1 + q2 == pytest.approx(lo + hi)
        assert (a1, b1) != (a2, b2)


def test_latency_p50_averages_the_medians_of_each_second():
    served = {"start_s": [0.0, 0.3, 0.6, 1.1, 2.0], "latency_s": [1, 2, 9, 4, 6],
              "passed": [True] * 5}
    assert run.latency_p50(served) == (2 + 4 + 6) / 3
    served["passed"][1] = False  # counts as infinitely slow
    assert run.latency_p50(served) == (9 + 4 + 6) / 3


def test_traced_wraps_every_binding_and_restores_it():
    import qpvi
    from qpvi import continuum, laxpair, opuc, painleve, qseries
    before = {(m.__name__, k): v for m in (qpvi, continuum, laxpair, opuc, qseries)
              for k, v in vars(m).items()}
    with tracing.traced(tracing.Tracer()):
        for rebound in (continuum.phi_step, opuc.caratheodory_quad,
                        laxpair.epsilon_eval, qseries.weight_grid, qpvi.moments):
            assert rebound.__wrapped__ is not rebound
        assert continuum.phi_step is painleve.phi_step
    after = {(m.__name__, k): v for m in (qpvi, continuum, laxpair, opuc, qseries)
             for k, v in vars(m).items()}
    assert after == before


def _span(name, start, end, parent, failed=False):
    return tracing.Span(name, start, end, parent, 0, failed)


def test_per_layer_charges_helpers_to_their_caller():
    spans = [
        _span("continuum.limit_check", 0.0, 10.0, -1),
        _span("continuum.discrete_orbit", 1.0, 2.0, 0),
        _span("painleve.phi_step", 1.2, 1.5, 1),
        _span("continuum.ode_rhs", 3.0, 7.0, 0),
        _span("qseries.weight_grid", 10.0, 14.0, -1),
        _span("qseries.weight_eval", 10.5, 13.5, 4),
        _span("qseries.qpoch_inf", 11.0, 12.0, 5),
        _span("qseries.weight_grid", 14.0, 14.5, -1, failed=True),
    ]
    m = tracing.per_layer(spans, [16.0])
    assert m["continuum.reference_s"] == pytest.approx(9.0)
    assert m["continuum.orbit_s"] == pytest.approx(0.7)
    assert m["painleve.phi_step_s"] == pytest.approx(0.3)
    assert m["continuum.rhs_calls"] == 1
    assert m["qseries.grid_s"] == pytest.approx(4.5)
    assert m["qseries.grid_builds"] == 1
    assert m["qseries.grid_hit_ratio"] == pytest.approx(0.5)
    assert m["qseries.errors"] == 1
    assert m["trace.unattributed_s"] == pytest.approx(1.5)
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m[
        "trace.unattributed_s"] == pytest.approx(m["trace.request_s"])


@pytest.fixture(scope="module")
def smoke():
    """One traced run per workload, one request each, seed 1."""
    return {name: run.run(name, seed=1, seconds=0, trace=1) for name in run.WORKLOADS}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_reports_every_metric(smoke, name):
    out = smoke[name]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert out["details"]["traced_matches_untraced"]
    for kind in ("end_to_end", "per_layer"):
        assert set(out[kind]) == {m["name"] for m in BENCH[kind]}
    assert all(v > 0 for v in out["end_to_end"].values())


def test_weights_builds_one_grid_per_request(smoke):
    m = smoke["weights"]["per_layer"]
    assert (m["qseries.grid_builds"], m["qseries.weight_evals"], m["laxpair.fit_calls"]) \
        == (1, 512, 10)


def test_stage_table_covers_verify_all(smoke):
    rows = smoke["steps"]["details"]["stage_table"]
    checks = [r for r in rows if r["stage"].startswith("check_")]
    assert len(rows) == 17 and len(checks) == 13
    assert all(r["passed"] for r in checks)


def test_continuum_counts_repeat(smoke):
    again = run.run("continuum", seed=2, seconds=0, trace=1)["per_layer"]
    first = smoke["continuum"]["per_layer"]
    for key in ("painleve.phi_step_calls", "continuum.rhs_calls"):
        assert again[key] == first[key]
    assert (first["painleve.phi_step_calls"], first["continuum.rhs_calls"]) == (484, 48000)


def test_command_prints_result_last():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "steps",
                           "--seed", "4", "--seconds", "6", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    details, result = map(json.loads, proc.stdout.splitlines()[-2:])
    assert details["setups"] == run.SETUPS  # five set-ups of ~1 s fit in 6 s
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "steps",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
