"""One benchmark process: import qpvi, set a workload up and serve it.

`run.py` starts this file in a fresh interpreter for every set-up and every
timed or traced pass, so the module-global grid cache of `qpvi.qseries` and
the mpmath precision never carry over.  The job arrives as one JSON
argument and the result leaves as one JSON line on standard output.

Job keys: `workload`, `seed`, `spawned` (the parent's `time.monotonic()`
just before the start), `mode` and `trace` (0 or 1).  Mode `setup` only
imports qpvi and builds the fixture; `stages` times verify-all; `serve`
also serves the seeded request stream, for `seconds` (a timed pass) or
for `count` requests (a replay).
"""

import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_qpvi():
    import qpvi
    src = (ROOT / "src").resolve()
    if src not in Path(qpvi.__file__).resolve().parents:
        sys.exit(f"qpvi was imported from {qpvi.__file__}, not from {src}")


def environment():
    import mpmath
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def serve(workload, fixture, requests, seconds=None, count=None, tracer=None):
    """Closed loop; returns (records, loop seconds).

    Serves exactly `count` requests, or requests (at least one) until
    `seconds` have passed.  A record is (start_s, latency_s, outcome or
    None, error text or None), with start_s counted from the loop's start.  Only QpviError counts as a failed request; anything
    else is a defect of the benchmark and propagates.
    """
    from qpvi import QpviError
    records = []
    start = time.perf_counter()

    def more():
        if count is not None:
            return len(records) < count
        return not records or time.perf_counter() - start < seconds

    while more():
        req = next(requests)
        if tracer is not None:
            tracer.request = len(records)
        t = time.perf_counter()
        try:
            outcome, error = workload.run(fixture, req), None
        except QpviError as exc:
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        records.append((t - start, time.perf_counter() - t, outcome, error))
    return records, time.perf_counter() - start


def stage_table():
    """Wall time of each stage of verify-all at the reference configuration, once."""
    import mpmath as mp
    from qpvi import qseries, verify
    ctx = verify.VerificationContext()
    rows = []

    def timed(stage, fn):
        t = time.perf_counter()
        res = fn()
        row = {"stage": stage, "seconds": time.perf_counter() - t}
        if isinstance(res, verify.CheckResult):
            row.update(passed=res.passed, value=res.value, tol=res.tol)
        rows.append(row)

    def grid():
        with mp.workprec(ctx.prec):
            qseries.weight_grid(ctx.params)

    timed("weight grid, 512 nodes", grid)
    timed("moments, K=48", ctx.table)
    timed("Szego recursion, N=22", ctx.vt)
    timed("Lax fits, n=1..16", ctx.fits)
    for crit in verify.CRITERIA:
        timed(crit.__name__, lambda: crit(ctx))
    return rows


def main(job):
    _import_qpvi()
    import_s = time.monotonic() - job["spawned"]
    if job["mode"] == "stages":
        return {"stage_table": stage_table()}

    import tracing
    from workloads import WORKLOADS
    workload = WORKLOADS[job["workload"]]
    tracer = tracing.Tracer() if job.get("trace") else None

    def spans():
        return tracing.traced(tracer) if tracer else nullcontext()

    t = time.perf_counter()
    with spans():
        fixture = workload.fixture()
    out = {"import_s": import_s, "fixture_s": time.perf_counter() - t}
    if job["mode"] == "setup":
        return out

    limits = {k: job[k] for k in ("seconds", "count") if k in job}
    requests = workload.requests(job["seed"])
    if tracer:
        setup_layers = tracing.per_layer(tracer.spans, [out["fixture_s"]])
        tracer.spans.clear()
    with spans():
        records, loop_s = serve(workload, fixture, requests, tracer=tracer, **limits)
    if tracer:
        out["layers"] = dict(tracing.per_layer(tracer.spans, [r[1] for r in records]),
                             **{"setup.grid_s": setup_layers["qseries.grid_s"],
                                "setup.moments_s": setup_layers["qseries.moments_s"]})
    out.update(
        loop_s=loop_s,
        start_s=[r[0] for r in records],
        latency_s=[r[1] for r in records],
        passed=[r[2] is not None and r[2].passed for r in records],
        residual=[r[2].residual if r[2] is not None else None for r in records],
        output=[r[2].output if r[2] is not None else r[3] for r in records],
        errors=sorted({r[3] for r in records if r[3]}),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        env=environment(),
    )
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(main(json.loads(sys.argv[1]))))
