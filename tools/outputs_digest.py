"""md5 digests of the outputs of the qpvi chain, to show that a change keeps them.

    python3 tools/outputs_digest.py [--root DIR] [--seed N]
                                    [--weights N] [--continuum N] [--steps N]

Prints one line per digest:

- for each benchmark workload (weights, continuum, steps), the
  `Outcome.output` of the first N requests of its seeded stream, served by
  perfbench/workloads.py as it stands in the checkout;
- the standard output and exit code of `qpvi verify-all` at the reference
  weight and at `--b=0.2,0.6`;
- the same of `qpvi orbit --steps 10`.

`--root` names the checkout to digest (by default the one holding this
script), so one copy of the tool can digest two checkouts, e.g. a change
and its parent; equal lines mean equal outputs.  The CLI runs in a fresh
interpreter with the checkout's `src/` first on PYTHONPATH and without
QPVI_PREC, so both checkouts run at the default precision.
"""

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_COUNTS = {"weights": 40, "continuum": 30, "steps": 400}
CLI_RUNS = (("verify-all",), ("verify-all", "--b=0.2,0.6"), ("orbit", "--steps", "10"))


def _md5(text):
    return hashlib.md5(text.encode()).hexdigest()


def _workloads(root):
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def workload_digest(workloads, name, seed, count):
    """(md5 of the outputs, requests passed) of the first `count` requests."""
    w = workloads.WORKLOADS[name]
    fixture = w.fixture()
    requests = w.requests(seed)
    outputs, passed = [], 0
    for _ in range(count):
        out = w.run(fixture, next(requests))
        outputs.append(out.output)
        passed += out.passed
    return _md5("\n".join(outputs)), passed


def cli_digest(root, argv):
    """md5 of the stdout of `qpvi argv` and its exit code."""
    env = {k: v for k, v in os.environ.items() if k != "QPVI_PREC"}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "qpvi.cli", *argv], cwd=root, env=env,
                          capture_output=True, text=True)
    return _md5(proc.stdout), proc.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout to digest (default: the one holding this script)")
    ap.add_argument("--seed", type=int, default=0, help="request stream seed (default 0)")
    for name, count in DEFAULT_COUNTS.items():
        ap.add_argument(f"--{name}", type=int, default=count,
                        help=f"{name} requests to digest (default {count})")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    workloads = _workloads(root)
    for name in DEFAULT_COUNTS:
        count = getattr(args, name)
        digest, passed = workload_digest(workloads, name, args.seed, count)
        print(f"{name:<24} {digest}  seed={args.seed} requests={count} passed={passed}",
              flush=True)
    for argv in CLI_RUNS:
        digest, code = cli_digest(root, argv)
        print(f"{' '.join(argv):<24} {digest}  exit={code}", flush=True)


if __name__ == "__main__":
    main()
