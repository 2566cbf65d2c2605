"""Hereditary-integral response engine for arbitrary causal load histories.

The convolution kernels are the model's rate functions, expanded into
exponential modes (see :func:`besselvisc.timedomain.prony_modes`).  Each
mode carries one internal state updated exactly per step for piecewise
constant or linear inputs, so the cost is O(samples * modes) instead of a
quadratic direct convolution, and the unit-step responses reproduce the
tail-corrected material functions identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExtrapolationError
from .specfun import order_value
from .timedomain import (
    DEFAULT_POLICY,
    MaterialCurve,
    SeriesPolicy,
    _sized_table,
    prony_modes,
)

__all__ = ["LoadHistory", "strain_response", "stress_response"]

INTERPOLATIONS = ("piecewise_constant", "piecewise_linear")


@dataclass(frozen=True)
class LoadHistory:
    """Sampled causal input (stress or strain) starting at t = 0."""

    times: np.ndarray
    values: np.ndarray
    interpolation: str = "piecewise_linear"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise ValueError("times and values must be equal-length 1-d arrays")
        if t[0] != 0.0:
            raise ValueError(f"history must start at t = 0, got {t[0]}")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("history times must be strictly increasing")
        if self.interpolation not in INTERPOLATIONS:
            raise ValueError(
                f"interpolation must be one of {INTERPOLATIONS}, "
                f"got {self.interpolation!r}"
            )

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def endpoints(self, t0: float, t1: float) -> tuple[float, float]:
        """Input values at the ends of a step [t0, t1] under the
        interpolation rule (the step must not straddle a sample knot)."""
        v0 = self.value_at(t0)
        if self.interpolation == "piecewise_constant":
            return v0, v0
        return v0, self.value_at(t1)

    def value_at(self, t: float) -> float:
        if t < 0.0 or t > self.t_end * (1.0 + 1e-12) + 1e-300:
            raise ExtrapolationError(f"t={t} outside history [0, {self.t_end}]")
        t = min(t, self.t_end)
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        i = max(i, 0)
        if self.interpolation == "piecewise_constant":
            return float(self.values[min(i, self.values.size - 1)])
        if i >= self.times.size - 1:
            return float(self.values[-1])
        t0, t1 = self.times[i], self.times[i + 1]
        w = (t - t0) / (t1 - t0)
        return float((1.0 - w) * self.values[i] + w * self.values[i + 1])


def _step_weights(rates: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-mode decay E and the exact integrals of 1 and (u/h) against
    exp(-rate (h-u)) over a step of width h."""
    x = rates * h
    e = np.exp(-x)
    em1 = np.expm1(-x)
    w_const = -em1 / rates  # int_0^h e^{-rate (h-u)} du
    w_ramp = np.empty_like(rates)  # int_0^h (u/h) e^{-rate (h-u)} du
    small = x < 1e-3
    xs = x[small]
    w_ramp[small] = h * (0.5 - xs / 6.0 + xs * xs / 24.0 - xs**3 / 120.0)
    big = ~small
    w_ramp[big] = (x[big] + em1[big]) / (rates[big] ** 2 * h)
    return e, w_const, w_ramp


def _respond(nu: float, kind: str, history: LoadHistory, t_eval, policy: SeriesPolicy,
             out_kind: str, sign: float, include_constant: bool) -> MaterialCurve:
    eval_times = np.asarray(t_eval, dtype=float)
    if eval_times.ndim != 1 or eval_times.size == 0 or np.any(np.diff(eval_times) <= 0.0):
        raise ValueError("t_eval must be a non-empty strictly increasing grid")
    if eval_times[0] < 0.0:
        raise ValueError("evaluation times must be non-negative")
    if eval_times[-1] > history.t_end * (1.0 + 1e-12):
        raise ExtrapolationError(
            f"t_eval reaches {eval_times[-1]}, beyond the history end "
            f"{history.t_end}"
        )

    zeros_order = nu + 2.0 if kind == "creep" else nu
    grid = np.unique(np.concatenate([history.times, eval_times]))
    gaps = np.diff(grid)
    # The mode count depends on the policy only, never on the input, so the
    # scheme is exactly linear in the load history.  Tabulated modes resolve
    # kernel lags down to t_kernel; shorter lags ride on the surrogate tail
    # mode, whose integrated weight is exact.
    t_kernel = max(policy.min_time, 1e-4)
    table = _sized_table(zeros_order, t_kernel, policy, 4.0 * (nu + 1.0))
    modes = prony_modes(nu, kind, table)

    rates = np.concatenate([modes.rates, [modes.tail_rate]])
    amps = np.concatenate([modes.amps, [modes.tail_amp]])

    state = np.zeros_like(rates)  # per-mode convolution integrals
    running = 0.0  # integral of the input from 0 to the current node
    out = np.empty(eval_times.shape)
    n_out = 0

    def emit(t_node: float) -> float:
        instant = history.value_at(t_node)
        hereditary = float(np.dot(amps, state))
        base = instant + sign * hereditary
        if include_constant:
            base += modes.constant * running
        return base

    if grid[0] == eval_times[n_out]:
        out[n_out] = emit(float(grid[0]))
        n_out += 1
    for i in range(gaps.size):
        h = float(gaps[i])
        v0, v1 = history.endpoints(float(grid[i]), float(grid[i + 1]))
        e, w_const, w_ramp = _step_weights(rates, h)
        state = state * e + v0 * w_const + (v1 - v0) * w_ramp
        running += 0.5 * h * (v0 + v1)
        t_node = float(grid[i + 1])
        if n_out < eval_times.size and t_node == eval_times[n_out]:
            out[n_out] = emit(t_node)
            n_out += 1
    if n_out != eval_times.size:
        raise AssertionError("internal: evaluation grid not fully consumed")

    return MaterialCurve(nu=nu, kind=out_kind, times=eval_times, values=out,
                         provenance=tuple("series" for _ in range(eval_times.size)))


def strain_response(order, stress: LoadHistory, t_eval,
                    policy: SeriesPolicy = DEFAULT_POLICY) -> MaterialCurve:
    """Strain history produced by an arbitrary causal stress input.

    eps(t) = sigma(t) + integral of the rate-of-creep kernel against the
    stress; a unit step of stress returns the creep compliance exactly.
    """
    nu = order_value(order)
    return _respond(nu, "creep", stress, t_eval, policy,
                    out_kind="strain", sign=+1.0, include_constant=True)


def stress_response(order, strain: LoadHistory, t_eval,
                    policy: SeriesPolicy = DEFAULT_POLICY) -> MaterialCurve:
    """Stress history produced by an arbitrary causal strain input.

    sigma(t) = eps(t) - integral of the rate-of-relaxation kernel against
    the strain; a unit step of strain returns the relaxation modulus.
    """
    nu = order_value(order)
    return _respond(nu, "relax", strain, t_eval, policy,
                    out_kind="stress", sign=-1.0, include_constant=False)
