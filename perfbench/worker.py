"""One benchmark process: imports besselvisc from the checkout and runs rounds.

Usage: python3 perfbench/worker.py SPEC.json

The spec (written by run.py) names the workload, the checkout root, the
requests of one round and the measuring budget.  The last line printed is
a JSON object with the timings, counts and output-check problems.
Warm workloads run one untimed round first (the set-up), so that every
timed round sees a warm zero-table memo; order_sweep runs one cold sweep.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import besselvisc.cli

    if not os.path.abspath(besselvisc.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported besselvisc from {besselvisc.__file__}, not from {src}")
    return besselvisc


def _call_cli(package, argv) -> int:
    try:
        return package.cli.main(argv)  # looked up per call, so a traced run sees the wrapper
    except Exception:  # a crash is a failed operation, reported with its traceback
        traceback.print_exc()
        return -1


def _check_request(request: dict) -> list[str]:
    check = request["check"]
    if check["type"] == "oracle":
        return checks.oracle(request["output"], check)
    t, values, provenance = checks.read_rows(request["output"])
    return (checks.curve if check["type"] == "curve" else checks.response)(t, values, provenance, check)


def run_round(package, requests: list[dict]) -> tuple[float, list[int], list[str]]:
    """Run every request once: (seconds inside main, failed indices, problems)."""
    seconds, failed, problems = 0.0, [], []
    for i, request in enumerate(requests):
        t0 = perf_counter()
        status = _call_cli(package, request["argv"])
        seconds += perf_counter() - t0
        if status != 0:
            failed.append(i)
        else:
            problems += _check_request(request)
    return seconds, failed, problems


def warmup_properties(package, rundir: str, properties: list[dict]) -> list[str]:
    """Unit-step identities and linearity of the response engine."""
    problems = []

    def values(argv, name):
        path = os.path.join(rundir, f"property-{name}.csv")
        if _call_cli(package, argv + ["--output", path]) != 0:
            raise RuntimeError(f"property request failed: {argv}")
        return checks.read_rows(path)[1]

    for n, prop in enumerate(properties):
        if prop["type"] == "unit_step":
            expected = [1.0, *values(prop["expected_argv"], f"{n}-expected")]
            gap = abs(values(prop["argv"], f"{n}") - expected).max()
            label = "unit step does not reproduce the material function"
        else:
            a, b, total = (values(argv, f"{n}-{k}") for k, argv in enumerate(prop["argvs"]))
            wa, wb = prop["weights"]
            gap = abs(total - (wa * a + wb * b)).max()
            label = "response is not linear in the load"
        if gap > prop["tol"]:
            problems.append(f"{label}: gap {gap:.3g} > {prop['tol']:.3g}")
    return problems


def warm_workload(spec: dict, package) -> dict:
    requests = spec["requests"]
    _, failed, problems = run_round(package, requests)
    problems += [f"set-up request {i} failed" for i in failed if not requests[i].get("fault")]
    problems += warmup_properties(package, spec["rundir"], spec.get("warmup", []))
    result = {"setup_s": perf_counter() - T_START, "problems": problems}
    if spec["setup_only"]:
        return result

    seconds = spec["seconds"] / 2.0 if spec["trace"] else spec["seconds"]
    fails = []

    def measure(budget):
        times = []
        start = perf_counter()
        while not times or perf_counter() - start < budget:
            elapsed, failed, found = run_round(package, requests)
            times.append(elapsed)
            fails.extend(failed)
            problems.extend(found)
        return times

    round_s = measure(seconds)
    result["peak_rss_mb"] = _peak_rss_mb()
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
        run_round(package, requests)  # learns the zero-table keys the memo holds
        tracer.layer_metrics(1)
        tracer.reset()
        traced_s = measure(seconds)
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(len(traced_s))
        result["layers"]["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(round_s)
        short = result["layers"]["asymptotics.short_time_samples"]
        if short != spec.get("short_time_points", 0):
            problems.append(f"{short} short-time samples per round, expected {spec.get('short_time_points', 0)}")
        tracer.write(spec["trace_path"])
        round_s += traced_s
    result.update(round_s=round_s, failed_requests=fails, problems=problems,
                  items_per_round=sum(r["items"] for r in requests), ops_per_round=len(requests))
    return result


def order_sweep(spec: dict, package) -> dict:
    setup_s = perf_counter() - T_START
    if spec["setup_only"]:
        return {"setup_s": setup_s, "problems": []}
    sample_curve = package.sample_curve
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
        sample_curve = package.sample_curve  # the wrapped attribute
    seconds, failed, problems = 0.0, [], []
    for i, order in enumerate(spec["orders"]):
        t0 = perf_counter()
        try:
            curves = [sample_curve(order["nu"], c["kind"], np.asarray(c["t"])) for c in order["curves"]]
        except Exception:  # a crash is a failed operation, reported with its traceback
            traceback.print_exc()
            failed.append(i)
            continue
        finally:
            seconds += perf_counter() - t0
        for curve, check in zip(curves, order["curves"]):
            problems += checks.curve(curve.times, curve.values, curve.provenance, check)
    result = {"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb(), "round_s": [seconds],
              "problems": problems, "failed_requests": failed,
              "items_per_round": len(spec["orders"]), "ops_per_round": len(spec["orders"])}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(1)
        tracer.write(spec["trace_path"])
    return result


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    package = _import_package(spec["root"])
    run = order_sweep if spec["workload"] == "order_sweep" else warm_workload
    print(json.dumps(run(spec, package)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
