"""Output checks run by the worker; each returns a list of problems (empty = pass).

Tolerances come with the spec (see workloads.py); the properties checked
here are the ones the method must have whatever its implementation.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)
NORMALIZATION_TOL = 1e-10  # J(0) = G(0) = 1 up to rounding of a ~2000-term sum


def read_rows(path: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(t, value, provenance) columns of a curve/respond CSV."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if lines[0] != "t,value,provenance":
        raise ValueError(f"unexpected header {lines[0]!r}")
    fields = [line.split(",") for line in lines[1:]]
    return (np.array([float(f[0]) for f in fields]), np.array([float(f[1]) for f in fields]),
            [f[2] for f in fields])


def _gaps(label: str, values: np.ndarray, index, ref, tol) -> list[str]:
    gap = np.abs(values[index] - np.asarray(ref))
    bad = np.nonzero(gap > np.asarray(tol))[0]
    if bad.size:
        i = bad[np.argmax(gap[bad])]
        return [f"{label}: {bad.size} values off the reference, worst gap {gap[i]:.3g} at index {index[i]}"]
    return []


def curve(t: np.ndarray, values: np.ndarray, provenance, check: dict) -> list[str]:
    label = f"{check['kind']} nu={check['nu']}"
    nu, kind = check["nu"], check["kind"]
    expected_t = np.asarray(check["t"])
    if t.shape != expected_t.shape or np.any(np.abs(t - expected_t) > 1e-12 * expected_t):
        return [f"{label}: output times differ from the requested grid"]
    problems = []
    short = np.array([p == "asymptotic_short" for p in provenance])
    expect_short = (t < check["min_time"]) & kind.endswith("_rate")
    if not np.array_equal(short, expect_short) or not all(
            p in ("series", "asymptotic_short") for p in provenance):
        problems.append(f"{label}: asymptotic_short provenance not exactly below min_time")
    law = 2.0 * (nu + 1.0) / SQRT_PI / np.sqrt(t[short])
    if np.any(np.abs(values[short] - law) > 1e-13 * law):
        problems.append(f"{label}: asymptotic_short values differ from 2(nu+1)/sqrt(pi t)")
    steps = np.diff(values)
    slack = 1e-12 * float(np.max(np.abs(values)))
    if kind == "creep_compliance" and np.any(steps < -slack):
        problems.append(f"{label}: J not increasing")
    if kind != "creep_compliance" and np.any(steps > slack):
        problems.append(f"{label}: {kind} not decreasing")
    if kind.endswith(("compliance", "modulus")) and t[0] == 0.0 and abs(values[0] - 1.0) > NORMALIZATION_TOL:
        problems.append(f"{label}: value at t = 0 is {values[0]!r}, not 1")
    return problems + _gaps(label, values, np.asarray(check["ref_index"], dtype=int), check["ref"], check["tol"])


def response(t: np.ndarray, values: np.ndarray, provenance, check: dict) -> list[str]:
    expected_t = np.asarray(check["t"])
    if t.shape != expected_t.shape or np.any(np.abs(t - expected_t) > 1e-12 * np.maximum(expected_t, 1.0)):
        return ["response: output times differ from the requested grid"]
    return _gaps("response", values, np.asarray(check["ref_index"], dtype=int), check["ref"], check["tol"])


def oracle(path: str, check: dict) -> list[str]:
    with open(path) as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    label = f"oracle nu={check['nu']} t={check['t']}"
    if [r["function"] for r in rows] != ["creep_rate", "relax_rate"]:
        return [f"{label}: expected creep_rate and relax_rate rows"]
    problems = []
    for row, ref, tol in zip(rows, check["ref"], check["tol"]):
        series, talbot = float(row["series"]), float(row["talbot"])
        if abs(series - ref) > tol:
            problems.append(f"{label}: {row['function']} series {series!r} vs reference {ref!r}")
        if row["pass"] != "true" or abs(talbot - ref) > check["gate"] * abs(ref):
            problems.append(f"{label}: {row['function']} Talbot {talbot!r} vs reference {ref!r}")
    return problems
