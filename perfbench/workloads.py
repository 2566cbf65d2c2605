"""Seeded inputs for each workload, with the reference values that check them.

``build`` returns the JSON-ready spec of a warm workload for the worker
process: the requests of one round (every round repeats them), whether
each belongs to the known fault slice, and what its output is checked
against.  ``sweep_round`` returns the orders of one cold sweep with their
checks.  Everything is a function of the seed given to ``generator``; the
program sees only the inputs.
"""

from __future__ import annotations

import math

import numpy as np

import reference

WORKLOADS = ("curves", "order_sweep", "responses_uniform", "responses_irregular", "oracle")

STANDARD_ORDERS = (-0.5, 0.0, 0.5, 1.0)
MEMORY_KINDS = ("creep_rate", "relax_rate")
MATERIAL_KINDS = ("creep_compliance", "relax_modulus")

# CLI / SeriesPolicy defaults the checks rely on.
MIN_TIME = 1e-6
TAIL_TOL = 1e-12
ZERO_TOL = 1e-11
STEP_IDENTITY_TOL = 1e-8  # `besselvisc validate` step identities
T_KERNEL = 1e-4  # shortest kernel lag the response engine resolves with its own modes
ORACLE_GATE = 1e-6  # `besselvisc oracle-check --rel-tol` default

CURVE_POINTS = 200
# Deep grids run from 1e-7 to t_max: any t_max in [10, 18] puts exactly 25 of
# the 200 log-spaced points below MIN_TIME, so counts do not depend on the seed.
DEEP_T_MIN, DEEP_T_MAX = 1e-7, (10.0, 18.0)

SWEEP_POINTS = 50
SWEEP_STRATA = 11  # one order per unit stratum of (-1, 10]

RESPONSE_POINTS = 4001
RESPONSE_KNOTS = 20
RESPONSE_CHECKS = 64
CHECK_LAG = 1e-3  # checked points lie at least this long after the latest knot

ORACLE_ORDERS = (-0.75, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5, 5.0)
ORACLE_PER_ORDER = 3
ORACLE_T = (0.01, 5.0)
# Relaxation-rate Talbot values miss the series by more than the 1e-6 gate
# at these (order, t), on every run; the checks count them as failed.
ORACLE_FAULT_SLICE = ((12.0, 0.3), (12.0, 1.0), (15.0, 0.3), (15.0, 1.0), (20.0, 0.3), (20.0, 1.0))


def _f(x: float) -> str:
    return repr(float(x))


def _curve_check(nu: float, kind: str, t: np.ndarray) -> dict:
    checked = np.nonzero(t >= reference.MIN_CHECK_TIME)[0]
    ref = reference.curve(nu, kind, t[checked])
    return {
        "type": "curve", "nu": nu, "kind": kind, "t": t.tolist(), "min_time": MIN_TIME,
        "ref_index": checked.tolist(), "ref": ref.tolist(),
        "tol": reference.series_tolerance(nu, kind, t[checked], ref, TAIL_TOL, ZERO_TOL).tolist(),
    }


def curves(rng: np.random.Generator, rundir: str) -> dict:
    requests = []
    for nu in STANDARD_ORDERS:
        deep = {str(rng.choice(MEMORY_KINDS)), str(rng.choice(MATERIAL_KINDS))}
        for kind in MEMORY_KINDS + MATERIAL_KINDS:
            if kind in deep:
                t_min, t_max = DEEP_T_MIN, math.exp(rng.uniform(*np.log(DEEP_T_MAX)))
            else:
                t_min, t_max = 1e-3, 10.0
            grid = ["log", _f(t_min), _f(t_max), str(CURVE_POINTS)]
            t = np.logspace(math.log10(float(grid[1])), math.log10(float(grid[2])), CURVE_POINTS)
            requests.append({
                "argv": ["curve", "--kind", kind, "--order", _f(nu), "--grid", *grid],
                "items": CURVE_POINTS, "check": _curve_check(nu, kind, t),
            })
    rng.shuffle(requests)
    short = sum(int(np.sum(np.asarray(r["check"]["t"]) < MIN_TIME)) for r in requests
                if r["check"]["kind"] in MEMORY_KINDS)
    return {"requests": requests, "short_time_points": short}


def sweep_orders(rng: np.random.Generator) -> list[float]:
    """One order per unit stratum of (-1, 10], with antithetic jitter.

    Odd strata move by 1 - u where even strata move by u, so a draw that
    makes one stratum's cold build dearer makes its neighbour's cheaper;
    that keeps the sweep's cost within about 1% across seeds, where
    independent jitter spreads it by about 4%.  Every other pair of strata
    moves by a further 0.01, so that no order is another one's nu + 2 and
    each order builds its own tables cold.
    """
    u = rng.uniform(0.02, 0.97)
    return [k - 1.0 + (u if k % 2 == 0 else 1.0 - u) + 0.01 * (k % 4 >= 2) for k in range(SWEEP_STRATA)]


def sweep_round(rng: np.random.Generator) -> list[dict]:
    """The orders of one cold sweep, each with the checks of its four curves."""
    memory_grid = np.logspace(-3.0, 1.0, SWEEP_POINTS)
    material_grid = np.concatenate([[0.0], np.logspace(-3.0, 1.0, SWEEP_POINTS - 1)])
    return [
        {"nu": nu, "curves": [
            _curve_check(nu, kind, memory_grid if kind in MEMORY_KINDS else material_grid)
            for kind in MEMORY_KINDS + MATERIAL_KINDS
        ]}
        for nu in sweep_orders(rng)
    ]


def _history(rng: np.random.Generator, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.0, t_end, RESPONSE_KNOTS - 2)), [t_end]])
    return knots, rng.uniform(-1.0, 1.0, RESPONSE_KNOTS)


def _write_history(path: str, knots: np.ndarray, values: np.ndarray) -> None:
    with open(path, "w") as handle:
        handle.write("time,value\n")
        handle.writelines(f"{_f(t)},{_f(v)}\n" for t, v in zip(knots, values))


def responses(rng: np.random.Generator, rundir: str, grid_kind: str) -> dict:
    requests, warmup = [], []
    for nu in STANDARD_ORDERS:
        interpolations = rng.permutation(["piecewise_linear", "piecewise_constant"])
        for mode, interpolation in zip(("strain", "stress"), interpolations):
            interpolation = str(interpolation)
            t_end = float(_f(rng.uniform(4.0, 12.0)))
            while True:  # no evaluation time may fall on an interior knot
                knots, values = _history(rng, t_end)
                if grid_kind == "lin":
                    t = np.linspace(0.0, t_end, RESPONSE_POINTS)
                    grid = ["--grid", "lin", "0", _f(t_end), str(RESPONSE_POINTS)]
                else:
                    inner = np.sort(rng.uniform(0.0, t_end, RESPONSE_POINTS - 2))
                    t = np.concatenate([[0.0], inner, [t_end]])
                    grid = ["--times", ",".join(_f(x) for x in t)]
                if np.unique(np.concatenate([knots, t])).size == t.size + RESPONSE_KNOTS - 2 \
                        and np.unique(t).size == t.size:
                    break
            index = len(requests)
            history = f"{rundir}/history-{index}.csv"
            _write_history(history, knots, values)
            latest = knots[np.searchsorted(knots, t, side="right") - 1]
            eligible = np.nonzero((t - latest >= CHECK_LAG) & (t >= CHECK_LAG))[0]
            checked = np.sort(rng.choice(eligible, RESPONSE_CHECKS, replace=False))
            ref = reference.response(nu, mode, knots, values, interpolation, t[checked])
            tol = STEP_IDENTITY_TOL * (abs(values[0]) + float(np.sum(np.abs(np.diff(values)))))
            if interpolation == "piecewise_linear":
                slopes = np.diff(values) / np.diff(knots)
                kinks = abs(slopes[0]) + float(np.sum(np.abs(np.diff(slopes))))
                tol += kinks * reference.ramp_tail_bound(nu, mode, T_KERNEL, TAIL_TOL)
            argv = ["respond", "--mode", mode, "--order", _f(nu), "--history", history,
                    "--interpolation", interpolation]
            requests.append({
                "argv": argv + grid, "items": RESPONSE_POINTS,
                "check": {"type": "response", "t": t.tolist(), "ref_index": checked.tolist(),
                          "ref": ref.tolist(), "tol": tol},
            })
            warmup.extend(_response_properties(rng, rundir, index, nu, mode, interpolation,
                                               knots, values, t_end))
    rng.shuffle(requests)
    return {"requests": requests, "warmup": warmup}


def _response_properties(rng, rundir, index, nu, mode, interpolation, knots, values, t_end):
    """Unit-step identity and linearity checks, run once during set-up."""
    grid = ["--grid", "lin", "0", _f(t_end), "201"]
    step = f"{rundir}/step-{index}.csv"
    _write_history(step, np.array([0.0, t_end]), np.array([1.0, 1.0]))
    kind = "creep_compliance" if mode == "strain" else "relax_modulus"
    second = rng.uniform(-1.0, 1.0, knots.size)
    paths = []
    for name, vals in (("a", values), ("b", second), ("sum", values + 3.0 * second)):
        paths.append(f"{rundir}/linear-{index}-{name}.csv")
        _write_history(paths[-1], knots, vals)
    variation = abs(values[0]) + 3.0 * abs(second[0]) + float(
        np.sum(np.abs(np.diff(values))) + 3.0 * np.sum(np.abs(np.diff(second))))
    base = ["respond", "--mode", mode, "--order", _f(nu), "--interpolation"]
    return [
        {"type": "unit_step", "tol": STEP_IDENTITY_TOL,
         "argv": base + ["piecewise_constant", "--history", step] + grid,
         # From the second point on, so that the table is sized for t > 0;
         # the response at t = 0 is checked against J(0) = G(0) = 1.
         "expected_argv": ["curve", "--kind", kind, "--order", _f(nu),
                           "--grid", "lin", _f(t_end / 200.0), _f(t_end), "200"]},
        {"type": "linearity", "tol": STEP_IDENTITY_TOL * variation, "weights": [1.0, 3.0],
         "argvs": [base + [interpolation, "--history", p] + grid for p in paths]},
    ]


def oracle(rng: np.random.Generator, rundir: str) -> dict:
    count = len(ORACLE_ORDERS) * ORACLE_PER_ORDER
    lo, hi = np.log(ORACLE_T)
    # One time per log-stratum, and each order once in every third of the
    # range, keep the Talbot cost nearly independent of the seed.
    times = np.exp(lo + (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count * (hi - lo))
    orders = np.concatenate([rng.permutation(ORACLE_ORDERS) for _ in range(ORACLE_PER_ORDER)])
    pairs = [(float(nu), float(_f(t)), False) for nu, t in zip(orders, times)]
    pairs += [(nu, t, True) for nu, t in ORACLE_FAULT_SLICE]
    requests = []
    for nu, t, fault in pairs:
        ref = [float(reference.curve(nu, kind, [t])[0]) for kind in MEMORY_KINDS]
        requests.append({
            "argv": ["oracle-check", "--order", _f(nu), "--t", _f(t), "--function", "both"],
            "items": 1, "fault": fault,
            "check": {"type": "oracle", "nu": nu, "t": t, "ref": ref, "gate": ORACLE_GATE,
                      "tol": [float(reference.series_tolerance(nu, kind, [t], r, TAIL_TOL, ZERO_TOL)[0])
                              for kind, r in zip(MEMORY_KINDS, ref)]},
        })
    rng.shuffle(requests)
    return {"requests": requests}


def generator(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def build(name: str, rng: np.random.Generator, rundir: str) -> dict:
    """Spec of one round of a warm workload (every workload but order_sweep)."""
    if name == "curves":
        spec = curves(rng, rundir)
    elif name == "oracle":
        spec = oracle(rng, rundir)
    else:
        spec = responses(rng, rundir, "lin" if name == "responses_uniform" else "irregular")
    for i, request in enumerate(spec["requests"]):
        request["output"] = f"{rundir}/out-{i}.csv"
        request["argv"] += ["--output", request["output"]]
    return spec
