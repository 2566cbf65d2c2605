"""Command-line front end emitting reproducible CSV/JSON tables and reports.

Outputs are deterministic: identical invocations produce byte-identical
files (shortest round-trip float formatting, fixed row order, no
timestamps).  Invalid configurations exit with status 2 and a
machine-readable JSON error record on stderr; a failed validation exits
with status 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import asymptotics, timedomain
from .errors import BesselViscError
from .hereditary import INTERPOLATIONS, LoadHistory, strain_response, stress_response
from .laplace import TalbotConfig, invert_numeric, phi_tilde, psi_tilde
from .timedomain import CURVE_KINDS, SeriesPolicy, sample_curve
from .validation import run_all_checks
from .zeros import compute_zeros

__all__ = ["main"]


def _fmt_column(values: list) -> list[str]:
    """Cells of one output column: booleans as true/false, integers in
    decimal, floats as their shortest round-trip repr, anything else as str."""
    kinds = set(map(type, values))
    if len(kinds) > 1:
        return [_fmt(v) for v in values]
    kind = kinds.pop() if kinds else str
    if issubclass(kind, (bool, np.bool_)):
        return ["true" if v else "false" for v in values]
    if issubclass(kind, (int, np.integer)):
        return list(map(str, map(int, values)))
    if issubclass(kind, (float, np.floating)):
        return list(map(repr, map(float, values)))
    return list(map(str, values))


def _fmt(x) -> str:
    return _fmt_column([x])[0]


def _emit(rows: list[dict], columns: list[str], fmt: str, output: str | None) -> None:
    if fmt == "csv":
        cells = [_fmt_column([row[c] for row in rows]) for c in columns]
        lines = [",".join(columns), *map(",".join, zip(*cells))]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(rows, indent=2, default=_fmt) + "\n"
    _write(text, output)


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _grid_from_args(args) -> np.ndarray:
    if args.times is not None:
        grid = np.array([float(v) for v in args.times.split(",")], dtype=float)
    elif args.grid is not None:
        scale, t_min, t_max, points = args.grid
        t_min, t_max, points = float(t_min), float(t_max), int(points)
        if points < 1 or t_max <= t_min and points > 1:
            raise ValueError("grid requires t_max > t_min and points >= 1")
        if scale == "log":
            if t_min <= 0.0:
                raise ValueError("log grids require t_min > 0")
            grid = np.logspace(math.log10(t_min), math.log10(t_max), points)
        elif scale == "lin":
            grid = np.linspace(t_min, t_max, points)
        else:
            raise ValueError(f"grid scale must be log or lin, got {scale!r}")
    else:
        raise ValueError("provide either --grid SCALE MIN MAX POINTS or --times t1,t2,...")
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid times must be strictly increasing")
    return grid


def _policy_from_args(args) -> SeriesPolicy:
    return SeriesPolicy(tail_tol=args.tail_tol, min_time=args.min_time)


def _add_policy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tail-tol", type=float, default=1e-12,
                        help="absolute bound on the neglected series tail")
    parser.add_argument("--min-time", type=float, default=1e-6,
                        help="below this time memory functions switch to the "
                             "short-time asymptotic")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default=None, help="output path (default stdout)")


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", nargs=4, metavar=("SCALE", "MIN", "MAX", "POINTS"),
                        default=None, help="log|lin t_min t_max points")
    parser.add_argument("--times", default=None,
                        help="comma-separated explicit times")


def _cmd_zeros(args) -> int:
    table = compute_zeros(args.order, args.count, args.tol)
    rows = [
        {"n": n + 1, "j": float(z), "j_squared": float(z) ** 2}
        for n, z in enumerate(table.zeros)
    ]
    _emit(rows, ["n", "j", "j_squared"], args.format, args.output)
    return 0


def _cmd_eval(args) -> int:
    policy = _policy_from_args(args)
    curve = sample_curve(args.order, args.function, np.array([args.t]), policy)
    rows = [{"t": float(curve.times[0]), "value": float(curve.values[0]),
             "provenance": curve.provenance[0]}]
    _emit(rows, ["t", "value", "provenance"], args.format, args.output)
    return 0


def _cmd_curve(args) -> int:
    policy = _policy_from_args(args)
    grid = _grid_from_args(args)
    curve = sample_curve(args.order, args.kind, grid, policy)
    rows = [
        {"t": float(t), "value": float(v), "provenance": p}
        for t, v, p in zip(curve.times, curve.values, curve.provenance)
    ]
    _emit(rows, ["t", "value", "provenance"], args.format, args.output)
    return 0


def _cmd_asymptote_compare(args) -> int:
    policy = _policy_from_args(args)
    grid = _grid_from_args(args)
    report = asymptotics.crossover_report(args.order, args.kind, grid, policy)
    rows = [
        {"t": t, "series": s, "short": sh, "long": lo, "best_branch": best}
        for (t, s, sh, lo, best) in report
    ]
    _emit(rows, ["t", "series", "short", "long", "best_branch"], args.format,
          args.output)
    return 0


def _cmd_oracle_check(args) -> int:
    policy = _policy_from_args(args)
    cfg = TalbotConfig(compare_half=False)
    targets = []
    if args.function in ("creep_rate", "both"):
        targets.append("creep_rate")
    if args.function in ("relax_rate", "both"):
        targets.append("relax_rate")
    rows = []
    worst_ok = True
    for name in targets:
        if name == "creep_rate":
            series = timedomain.psi(args.order, args.t, policy)
            oracle = invert_numeric(lambda s: psi_tilde(args.order, s), args.t, cfg)
        else:
            series = timedomain.phi(args.order, args.t, policy)
            shift = float(compute_zeros(args.order, 1, 1e-12).zeros[0]) ** 2
            oracle = invert_numeric(lambda s: phi_tilde(args.order, s), args.t,
                                    cfg, shift=shift)
        gap = abs(series - oracle) / max(abs(series), 1e-300)
        ok = gap <= args.rel_tol
        worst_ok = worst_ok and ok
        rows.append({"function": name, "t": args.t, "series": series,
                     "talbot": oracle, "rel_gap": gap, "pass": ok})
    _emit(rows, ["function", "t", "series", "talbot", "rel_gap", "pass"],
          args.format, args.output)
    return 0 if worst_ok else 1


def _read_history(path: str, interpolation: str) -> LoadHistory:
    times, values = [], []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if parts[0].lower() in ("time", "t"):
                continue  # header
            if len(parts) != 2:
                raise ValueError(f"{path}, line {number}: expected time,value, got {line!r}")
            times.append(float(parts[0]))
            values.append(float(parts[1]))
    return LoadHistory(np.array(times), np.array(values), interpolation)


def _cmd_respond(args) -> int:
    policy = _policy_from_args(args)
    history = _read_history(args.history, args.interpolation)
    if args.times is None and args.grid is None:
        grid = history.times
    else:
        grid = _grid_from_args(args)
    responder = strain_response if args.mode == "strain" else stress_response
    curve = responder(args.order, history, grid, policy)
    rows = [
        {"t": float(t), "value": float(v), "provenance": p}
        for t, v, p in zip(curve.times, curve.values, curve.provenance)
    ]
    _emit(rows, ["t", "value", "provenance"], args.format, args.output)
    return 0


def _cmd_validate(args) -> int:
    records = [r.as_dict() for r in run_all_checks()]
    _write(json.dumps(records, indent=2) + "\n", args.output)
    return 0 if all(r["passed"] for r in records) else 1


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselvisc",
        description="Bessel-kernel linear viscoelastic models: zero tables, "
                    "memory/material curves, asymptotics, inversion oracles "
                    "and hereditary responses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeros", help="emit a Bessel zero table (n, j, j^2)")
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-11)
    _add_output_args(p)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("eval", help="evaluate one function at one time")
    p.add_argument("--function", choices=CURVE_KINDS, required=True)
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    _add_policy_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("curve", help="sample a memory or material curve")
    p.add_argument("--kind", choices=CURVE_KINDS, required=True)
    p.add_argument("--order", type=float, required=True)
    _add_grid_args(p)
    _add_policy_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("asymptote-compare",
                       help="series vs short/long approximants per grid point")
    p.add_argument("--kind", choices=CURVE_KINDS, required=True)
    p.add_argument("--order", type=float, required=True)
    _add_grid_args(p)
    _add_policy_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_asymptote_compare)

    p = sub.add_parser("oracle-check",
                       help="Dirichlet series vs Talbot inversion at one time")
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--function", choices=("creep_rate", "relax_rate", "both"),
                   default="both")
    p.add_argument("--rel-tol", type=float, default=1e-6)
    _add_policy_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("respond",
                       help="strain/stress response to a CSV load history")
    p.add_argument("--mode", choices=("strain", "stress"), required=True)
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--history", required=True,
                   help="CSV with columns time,value (header optional)")
    p.add_argument("--interpolation", choices=INTERPOLATIONS,
                   default="piecewise_linear")
    _add_grid_args(p)
    _add_policy_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_respond)

    p = sub.add_parser("validate",
                       help="run the invariant suite, emit a JSON report")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (BesselViscError, ValueError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
