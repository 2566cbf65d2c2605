"""Hereditary-integral response engine for arbitrary causal load histories.

The convolution kernels are the model's rate functions, expanded into
exponential modes (see :func:`besselvisc.timedomain.prony_modes`), built
once per call on the same sized zero table as the curve evaluators.  Each
mode carries one internal state updated exactly per step for piecewise
constant or linear inputs, so the unit-step responses reproduce the
tail-corrected material functions identically.

Cost model: O(steps * modes) arithmetic over the merged grid of history
knots and evaluation times, instead of a quadratic direct convolution.
The history is read once at every node and its running integral is one
cumulative sum.  The step weights are formed as (steps x modes) arrays,
256 steps at a time, so the only per-step Python work is the update
state * decay + increment of all modes at once; the hereditary sums at
the evaluation nodes of a block are one matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExtrapolationError
from .specfun import order_value
from .timedomain import DEFAULT_POLICY, MaterialCurve, SeriesPolicy, _modes

__all__ = ["LoadHistory", "strain_response", "stress_response"]

INTERPOLATIONS = ("piecewise_constant", "piecewise_linear")
_BLOCK = 256  # steps per block: each (steps x modes) temporary stays near 0.5 MB


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
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("LoadHistory: times and values must be finite")
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

    def value_at(self, t: float) -> float:
        if not 0.0 <= t <= self.t_end * (1.0 + 1e-12) + 1e-300:
            raise ExtrapolationError(f"t={t} outside history [0, {self.t_end}]")
        return float(self._read(np.array([t]))[0])

    def _read(self, t: np.ndarray) -> np.ndarray:
        """Input at times 0 <= t <= t_end (1 + 1e-12) under the interpolation
        rule; a time on a knot reads the segment that starts there."""
        t = np.minimum(t, self.t_end)
        i = np.searchsorted(self.times, t, side="right") - 1
        last = self.times.size - 1
        if self.interpolation == "piecewise_constant" or last == 0:
            return self.values[i]
        k = np.minimum(i, last - 1)
        t0, t1 = self.times[k], self.times[k + 1]
        w = (t - t0) / (t1 - t0)
        return np.where(i < last, (1.0 - w) * self.values[k] + w * self.values[k + 1],
                        self.values[-1])


def _respond(nu: float, kind: str, history: LoadHistory, t_eval, policy: SeriesPolicy,
             out_kind: str, sign: float, include_constant: bool) -> MaterialCurve:
    eval_times = np.asarray(t_eval, dtype=float)
    if eval_times.ndim != 1 or eval_times.size == 0 or np.any(np.diff(eval_times) <= 0.0):
        raise ValueError("t_eval must be a non-empty strictly increasing grid")
    if not np.all(np.isfinite(eval_times)):
        raise ValueError(f"{out_kind}_response: t_eval must hold finite times")
    if eval_times[0] < 0.0:
        raise ValueError("evaluation times must be non-negative")
    if eval_times[-1] > history.t_end * (1.0 + 1e-12):
        raise ExtrapolationError(
            f"t_eval reaches {eval_times[-1]}, beyond the history end "
            f"{history.t_end}"
        )

    grid = np.unique(np.concatenate([history.times, eval_times]))
    gaps = np.diff(grid)
    # The mode count depends on the policy only, never on the input, so the
    # scheme is exactly linear in the load history.  Tabulated modes resolve
    # kernel lags down to t_kernel; shorter lags ride on the surrogate tail
    # mode, whose integrated weight is exact.
    t_kernel = max(policy.min_time, 1e-4)
    modes = _modes(nu, kind, t_kernel, policy)
    rates = np.concatenate([modes.rates, [modes.tail_rate]])
    amps = np.concatenate([np.full(modes.rates.shape, modes.amp), [modes.tail_amp]])

    nodes = history._read(grid)
    v0 = nodes[:-1]  # input at the start and end of each step
    v1 = v0 if history.interpolation == "piecewise_constant" else nodes[1:]
    dv = v1 - v0
    at = np.searchsorted(grid, eval_times)  # node index of each evaluation time

    state = np.zeros_like(rates)  # per-mode convolution integrals
    hereditary = np.zeros(eval_times.shape)
    for start in range(0, gaps.size, _BLOCK):
        stop = min(start + _BLOCK, gaps.size)
        # Per step and mode: the decay E over the step and the exact integrals
        # of 1 and (u/h) against exp(-rate (h-u)) over its width h.
        h = gaps[start:stop, None]
        x = rates * h
        decay = np.exp(-x)
        em1 = np.expm1(-x)
        w_const = -em1 / rates
        w_ramp = (x + em1) / (rates**2 * h)
        small = x < 1e-3
        xs = x[small]
        w_ramp[small] = np.broadcast_to(h, x.shape)[small] * (
            0.5 - xs / 6.0 + xs * xs / 24.0 - xs**3 / 120.0)
        states = v0[start:stop, None] * w_const + dv[start:stop, None] * w_ramp
        for e, row in zip(decay, states):  # row becomes the state after its step
            row += state * e
            state = row
        done = (at > start) & (at <= stop)  # evaluation nodes this block reaches
        hereditary[done] = states[at[done] - start - 1] @ amps
    out = nodes[at] + sign * hereditary
    if include_constant:
        # Integral of the input from 0 to each node, summed in step order.
        running = np.concatenate([[0.0], np.cumsum(0.5 * gaps * (v0 + v1))])
        out += modes.constant * running[at]
    return MaterialCurve(nu=nu, kind=out_kind, times=eval_times, values=out,
                         provenance=("series",) * eval_times.size)


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
