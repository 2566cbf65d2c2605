"""besselvisc benchmark: one command, five workloads, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: curves, order_sweep, responses_uniform, responses_irregular,
oracle (see README.md beside this file).  Inputs and reference values are
made here from the seed; each measurement runs in a fresh worker process
that imports besselvisc from ``src/`` of this checkout and uses one thread.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose spans
are written to ``perfbench/_run/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import PER_LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(HERE, "_run")
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median

# One thread for numpy/BLAS in this process and in every worker.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)


def _worker(spec: dict, path: str, deadline: float) -> dict:
    with open(path, "w") as handle:
        json.dump(spec, handle)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another worker")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), path], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_only(spec: dict, path: str, deadline: float, repeats: int) -> list[float]:
    return [_worker(dict(spec, setup_only=True), path, deadline)["setup_s"] for _ in range(repeats)]


def run_warm(name: str, args, rundir: str, deadline: float) -> tuple[list[dict], list[float], set[int]]:
    spec = workloads.build(name, workloads.generator(name, args.seed), rundir)
    spec.update(workload=name, root=ROOT, rundir=rundir, seconds=float(args.seconds),
                trace=bool(args.trace), setup_only=False, trace_path=_trace_path(name, args.seed))
    path = os.path.join(rundir, "spec.json")
    setups = [] if args.trace else _setup_only(spec, path, deadline, SETUP_REPEATS - 1)
    result = _worker(spec, path, deadline)
    faults = {i for i, request in enumerate(spec["requests"]) if request.get("fault")}
    return [result], setups + [result["setup_s"]], faults


def run_sweep(args, rundir: str, deadline: float) -> tuple[list[dict], list[float], set[int]]:
    """Cold sweeps, one fresh worker each, until the measuring budget is spent."""
    rng = workloads.generator("order_sweep", args.seed)
    base = dict(workload="order_sweep", root=ROOT, rundir=rundir, seconds=float(args.seconds),
                setup_only=False, trace_path=_trace_path("order_sweep", args.seed))
    path = os.path.join(rundir, "spec.json")
    setups = [] if args.trace else _setup_only(dict(base, trace=False), path, deadline, SETUP_REPEATS - 1)
    results, measured = [], 0.0
    while not results or measured < args.seconds:
        orders = workloads.sweep_round(rng)
        plain = _worker(dict(base, orders=orders, trace=False), path, deadline)
        measured += sum(plain["round_s"])
        setups.append(plain["setup_s"])
        if args.trace:  # the same sweep again, traced, in another fresh process
            traced = _worker(dict(base, orders=orders, trace=True), path, deadline)
            traced["layers"]["trace.overhead_s"] = traced["round_s"][0] - plain["round_s"][0]
            results.append(traced)
        results.append(plain)
    return results, setups, set()


def _trace_path(name: str, seed: int) -> str:
    os.makedirs(os.path.join(RUN_DIR, "traces"), exist_ok=True)
    return os.path.join(RUN_DIR, "traces", f"{name}-seed{seed}.json")


def summarize(results: list[dict], setups: list[float], faults: set[int], trace: bool) -> dict:
    """The result line; ``faults`` indexes the requests of the known fault slice."""
    attempted = failed = 0
    problems, unexpected, rates = [], [], []
    for result in results:
        rates += [result["items_per_round"] / s for s in result["round_s"]]
        attempted += len(result["round_s"]) * result["ops_per_round"]
        failed += len(result["failed_requests"])
        problems += result["problems"]
        unexpected += [i for i in result["failed_requests"] if i not in faults]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if unexpected:
        print(f"{len(unexpected)} operations outside the fault slice failed", file=sys.stderr)
    if trace:
        layers = [r["layers"] for r in results if "layers" in r]
        metrics = {key: {"value": statistics.median(lay[key] for lay in layers), "unit": unit}
                   for key, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in results), "unit": "MB"},
            "items_per_s": {"value": statistics.median(rates), "unit": "items/s"},
        }
    return {"correct": not problems and not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "besselvisc", "__init__.py")):
        print(f"no besselvisc sources under {ROOT}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    rundir = os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        if args.workload == "order_sweep":
            results, setups, faults = run_sweep(args, rundir, deadline)
        else:
            results, setups, faults = run_warm(args.workload, args, rundir, deadline)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(summarize(results, setups, faults, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
