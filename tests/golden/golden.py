"""Golden CLI outputs: the cases, their per-column bounds and a diff tool.

Each case is one ``besselvisc`` invocation whose expected output is kept
next to this file as ``<name>.csv`` (or ``validate.json``).  Outputs are
compared cell by cell: the header, the row count and every text cell must
match exactly, and each numeric column may move only within a bound taken
from the library's own tolerances.

Run from the root of a checkout:

    PYTHONPATH=src python tests/golden/golden.py          # print every moved cell
    PYTHONPATH=src python tests/golden/golden.py --write  # regenerate the files

The first form exits 1 when a cell moves beyond its bound.  Regenerating
the files changes a check, so a change that does it must say so.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

TAIL_TOL = 1e-12  # the default SeriesPolicy tail tolerance, absolute
ZERO_TOL = 1e-11  # the default zero tolerance, absolute
TALBOT_TOL = 1e-6  # the oracle gate, relative on a Talbot value and absolute on a gap
ECHO_ULPS = 4  # inputs echoed back, such as t

# Tolerance class of every output column, by command.
_SERIES = {"t": "echo", "value": "series", "provenance": "text"}
COLUMNS = {
    "zeros": {"n": "text", "j": "zero", "j_squared": "zero_squared"},
    "eval": _SERIES,
    "curve": _SERIES,
    "respond": _SERIES,
    "asymptote-compare": {"t": "echo", "series": "series", "short": "series",
                          "long": "series", "best_branch": "text"},
    "oracle-check": {"function": "text", "t": "echo", "series": "series",
                     "talbot": "talbot", "rel_gap": "gap", "pass": "text"},
}

CASES = {
    "zeros_nu-0.999": ["zeros", "--order", "-0.999", "--count", "8"],
    "zeros_nu0": ["zeros", "--order", "0", "--count", "20"],
    "zeros_nu12": ["zeros", "--order", "12", "--count", "16"],
    "zeros_nu60": ["zeros", "--order", "60", "--count", "12"],
    "eval_creep_rate": ["eval", "--function", "creep_rate", "--order", "1", "--t", "0.05"],
    "eval_relax_rate_short": ["eval", "--function", "relax_rate", "--order", "0.5",
                              "--t", "5e-7"],
    "curve_creep_rate_deep": ["curve", "--kind", "creep_rate", "--order", "1",
                              "--grid", "log", "1e-7", "10", "29"],
    "curve_relax_rate_deep": ["curve", "--kind", "relax_rate", "--order", "-0.5",
                              "--grid", "log", "1e-7", "10", "29"],
    "curve_creep_compliance_lin": ["curve", "--kind", "creep_compliance", "--order", "-0.5",
                                   "--grid", "lin", "0", "5", "21"],
    "curve_creep_compliance_deep": ["curve", "--kind", "creep_compliance", "--order", "12",
                                    "--grid", "log", "1e-7", "10", "15"],
    "curve_relax_modulus_times": ["curve", "--kind", "relax_modulus", "--order", "0",
                                  "--times", "0,1e-7,1e-5,0.001,0.1,0.5,2,5"],
    "asymptote_relax_rate": ["asymptote-compare", "--kind", "relax_rate", "--order", "1",
                             "--grid", "log", "1e-4", "10", "12"],
    "asymptote_creep_compliance": ["asymptote-compare", "--kind", "creep_compliance",
                                   "--order", "0", "--grid", "log", "1e-3", "5", "9"],
    "asymptote_relax_modulus": ["asymptote-compare", "--kind", "relax_modulus",
                                "--order", "2.5", "--times", "1e-5,0.01,0.3,4"],
    "oracle_nu0.5": ["oracle-check", "--order", "0.5", "--t", "0.3"],
    "oracle_nu3.5": ["oracle-check", "--order", "3.5", "--t", "0.05"],
    "oracle_nu-0.75": ["oracle-check", "--order", "-0.75", "--t", "2"],
    "respond_strain_linear": ["respond", "--mode", "strain", "--order", "1",
                              "--history", "{inputs}/ramps.csv",
                              "--grid", "lin", "0", "4", "41"],
    "respond_stress_linear": ["respond", "--mode", "stress", "--order", "-0.5",
                              "--history", "{inputs}/ramps.csv",
                              "--times", "0,0.1,0.4,0.41,1,2.5,3.99,4"],
    "respond_strain_constant": ["respond", "--mode", "strain", "--order", "0",
                                "--history", "{inputs}/steps.csv",
                                "--interpolation", "piecewise_constant"],
    "respond_stress_constant": ["respond", "--mode", "stress", "--order", "0.5",
                                "--history", "{inputs}/steps.csv",
                                "--interpolation", "piecewise_constant",
                                "--grid", "lin", "0", "3", "31"],
    "validate": ["validate"],
}


def golden_path(name: str) -> Path:
    return HERE / (name + (".json" if CASES[name][0] == "validate" else ".csv"))


def produce(name: str) -> str:
    """Run one case through the CLI and return its output text."""
    from besselvisc.cli import main

    argv = [a.format(inputs=INPUTS) for a in CASES[name]]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        # Status 1 (a failed check) shows in the output's pass flags.
        if main(argv + ["--output", str(out)]) not in (0, 1):
            raise RuntimeError(f"golden case {name} exited with an error")
        text = out.read_text()
    if argv[0] == "validate":
        # Runtimes are not outputs of the method.
        records = [r for r in json.loads(text) if not r["name"].endswith("_runtime_seconds")]
        text = json.dumps(records, indent=2) + "\n"
    return text


def _bound(cls: str, expected: float) -> float:
    if cls == "zero":
        return ZERO_TOL
    if cls == "zero_squared":  # 1e-11 on the zero j moves j^2 by 2 j 1e-11
        return 2.0 * math.sqrt(abs(expected)) * ZERO_TOL
    if cls == "series":
        return TAIL_TOL
    if cls == "talbot":
        return TALBOT_TOL * abs(expected)
    if cls == "gap":
        return TALBOT_TOL
    if cls == "echo":
        return ECHO_ULPS * math.ulp(expected)
    raise ValueError(f"unknown tolerance class {cls!r}")


def _cell(where: str, expected: str, actual: str, cls: str) -> tuple[str, str, str, float, float]:
    """(where, expected, actual, size, bound) of a cell that moved."""
    if cls == "text":
        return where, expected, actual, math.inf, 0.0
    try:
        e, a = float(expected), float(actual)
    except ValueError:
        return where, expected, actual, math.inf, 0.0
    return where, expected, actual, abs(a - e), _bound(cls, e)


def moved_cells(name: str, expected: str, actual: str) -> list[tuple[str, str, str, float, float]]:
    """Every cell of ``actual`` that differs from ``expected``, with its size
    and bound; a layout difference is one entry of infinite size."""
    if expected == actual:
        return []
    if CASES[name][0] == "validate":
        return _moved_records(json.loads(expected), json.loads(actual))
    exp_rows = [line.split(",") for line in expected.splitlines()]
    act_rows = [line.split(",") for line in actual.splitlines()]
    if exp_rows[0] != act_rows[0] or [len(r) for r in exp_rows] != [len(r) for r in act_rows]:
        return [("layout", f"{len(exp_rows)} rows: {exp_rows[0]}",
                 f"{len(act_rows)} rows: {act_rows[0]}", math.inf, 0.0)]
    classes = COLUMNS[CASES[name][0]]
    out = []
    for i, (exp_row, act_row) in enumerate(zip(exp_rows[1:], act_rows[1:]), start=1):
        for column, e, a in zip(exp_rows[0], exp_row, act_row):
            if e != a:
                out.append(_cell(f"row {i} {column}", e, a, classes[column]))
    return out


def _moved_records(expected: list[dict], actual: list[dict]) -> list:
    """Validate records: names, tolerances and pass flags exact; each
    measured value within the record's own tolerance."""
    if [(r["name"], r["tolerance"]) for r in expected] != \
            [(r["name"], r["tolerance"]) for r in actual] or \
            any(set(r) != {"name", "tolerance", "measured", "passed"} for r in actual):
        return [("layout", "record names and tolerances", "differ", math.inf, 0.0)]
    out = []
    for e, a in zip(expected, actual):
        if e["passed"] != a["passed"]:
            out.append((f"{e['name']} passed", str(e["passed"]), str(a["passed"]), math.inf, 0.0))
        if e["measured"] != a["measured"]:
            out.append((f"{e['name']} measured", repr(e["measured"]), repr(a["measured"]),
                        abs(a["measured"] - e["measured"]), e["tolerance"]))
    return out


def main(argv: list[str]) -> int:
    write = "--write" in argv
    status = 0
    for name in CASES:
        actual = produce(name)
        if write:
            golden_path(name).write_text(actual)
            continue
        for where, e, a, size, bound in moved_cells(name, golden_path(name).read_text(), actual):
            flag = "MOVED" if size <= bound else "OUT OF BOUND"
            print(f"{name}: {where}: {e} -> {a} (size {size:.3g}, bound {bound:.3g}) {flag}")
            status = max(status, int(size > bound))
    if write:
        print(f"wrote {len(CASES)} golden outputs to {HERE}")
    elif status == 0:
        print(f"{len(CASES)} golden outputs within bounds")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
