"""Benchmark of the qpvi chain: q-Gamma weight -> Lax matrices -> q-PVI step -> continuum.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; `qpvi` is imported from `src/`.  Every
set-up and every pass runs in a fresh interpreter (see worker.py) with one
BLAS thread and a fixed hash seed.  With `--trace 0` the last line of
standard output is the end-to-end result; with `--trace 1` the same
requests are replayed with spans around every public function of the six
layers and the last line holds the per-layer metrics.  The line before it
gives details: the environment, the latency tail, the error rate and, for
`steps --trace 1`, the stage table of verify-all.  See README.md in this directory.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PREC = 192          # accuracy_bits credited to a zero residual: the requests' precision
DEADLINE_S = 170    # a run must end well within 180 s

# `spectral` is not in BENCHMARK.json: each of its set-ups takes about 20 s,
# which leaves no room for runs long enough to steady the other three.  It
# stays runnable by hand.
WORKLOADS = ("weights", "spectral", "continuum", "steps")

# A run serves the seeded request stream from one fresh interpreter for
# `seconds`, after setting the workload up there.  It then sets the
# workload up again in fresh interpreters, until SETUPS set-ups are done
# or they have taken `seconds` together, and reports the median set-up.
# The limit keeps the set-ups of `spectral` (about 20 s each) from
# making its runs several times longer than `seconds`.
SETUPS = 5

WINDOW_S = 1.0      # see latency_p50

END_TO_END_UNITS = {"setup_s": "s", "throughput_rps": "1/s", "latency_p50_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def spawn(job, deadline):
    """Run worker.py on `job` in a fresh interpreter; return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    job = dict(job, spawned=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['mode']} pass did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_total(s):
    return s["import_s"] + s["fixture_s"]


def median_setup(setups):
    """(import_s, fixture_s) of the median set-up; they add up to the median total."""
    ranked = sorted(setups, key=setup_total)
    mid = ranked[(len(ranked) - 1) // 2: len(ranked) // 2 + 1]
    return (statistics.fmean(s["import_s"] for s in mid),
            statistics.fmean(s["fixture_s"] for s in mid))


def latency_tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {"latency_tail_s": sorted(values)[n - 11],
            "percentile": 100 * (n - 10) / n, "samples": n}


def latencies(served):
    """Request latencies of a pass; a failed request counts as infinitely slow."""
    return [lat if ok else math.inf
            for lat, ok in zip(served["latency_s"], served["passed"])]


def latency_p50(served):
    """Mean over the run's one-second windows of the median latency in each.

    A request belongs to the window it starts in, so a request longer
    than a window is its window's only request.  The host's speed can
    flip between a fast and a slow state every few seconds.  The median
    of a whole run jumps when the share of requests served in the fast
    state crosses one half; the mean of the window medians moves in
    proportion to the share of time spent in it.
    """
    windows = {}
    for start, lat in zip(served["start_s"], latencies(served)):
        windows.setdefault(int(start // WINDOW_S), []).append(lat)
    return statistics.fmean(statistics.median(v) for v in windows.values())


def end_to_end(served, setup_s):
    """The end-to-end metrics of one timed pass."""
    return {"setup_s": setup_s,
            "throughput_rps": sum(served["passed"]) / served["loop_s"],
            "latency_p50_s": latency_p50(served),
            "peak_rss_mb": served["peak_rss_mb"]}


def accuracy_bits(served):
    """Minimum over requests of -log2 of the oracle residual; 0 for a failure."""
    return min(0.0 if r is None else -math.log2(max(r, 2.0 ** -PREC))
               for r in served["residual"])


def _finite(x):
    """A metric value for JSON: non-finite values (from failed requests) become null."""
    return x if math.isfinite(x) else None


def run(workload, seed, seconds, trace):
    """Set up, serve and check one run.

    Returns a dict with `details`, `correct`, `attempted`, `failed`, the
    `end_to_end` metrics and, with `trace`, the `per_layer` metrics.
    """
    deadline = time.monotonic() + DEADLINE_S
    job = {"workload": workload, "seed": seed}
    served = spawn(dict(job, mode="serve", seconds=seconds), deadline)
    setups = [served]
    while len(setups) < SETUPS and sum(map(setup_total, setups)) < seconds:
        setups.append(spawn(dict(job, mode="setup"), deadline))
    import_s, fixture_s = median_setup(setups)
    n = len(served["latency_s"])
    failed = n - sum(served["passed"])
    out = {"details": {"workload": workload, "seed": seed, "env": served["env"],
                       "requests": n, "loop_s": served["loop_s"], "setups": len(setups),
                       "error_rate": failed / n, "errors": served["errors"],
                       "accuracy_bits": accuracy_bits(served),
                       "tail": latency_tail(latencies(served))},
           "correct": failed == 0, "attempted": n, "failed": failed,
           "end_to_end": end_to_end(served, import_s + fixture_s)}
    if trace:
        traced = spawn(dict(job, mode="serve", count=n, trace=1), deadline)
        identical = traced["output"] == served["output"]
        out["details"]["traced_matches_untraced"] = identical
        out["correct"] = out["correct"] and identical and all(traced["passed"])
        out["per_layer"] = dict(traced["layers"], **{
            "setup.import_s": import_s, "setup.fixture_s": fixture_s,
            "trace.overhead_s": (traced["loop_s"] - served["loop_s"]) / n})
        if workload == "steps":
            out["details"].update(spawn({"mode": "stages"}, deadline))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qpvi" / "__init__.py").is_file():
        print(f"no qpvi sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    values, units = ((out["per_layer"], tracing.UNITS) if args.trace
                     else (out["end_to_end"], END_TO_END_UNITS))
    print(json.dumps(out["details"]))
    print(json.dumps({"correct": bool(out["correct"]), "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": {k: {"value": _finite(values[k]), "unit": units[k]}
                                  for k in sorted(values)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
