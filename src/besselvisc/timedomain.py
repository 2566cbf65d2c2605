"""Time-domain memory and material functions as truncated Dirichlet series.

The memory functions are infinite Prony series over squared Bessel zeros.
Truncation is adaptive: a geometric comparison against the (increasing)
gaps between consecutive decay rates certifies that the neglected tail
stays below the policy's tolerance, and the evaluator reports how many
zeros it would need whenever a table is too short.

The material functions carry an explicit tail correction built from the
exact inverse-square sum over the zeros, which pins their t = 0 values to
the unit normalization regardless of the truncation depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BelowMinTimeError, InsufficientZerosError
from .specfun import order_value
from .zeros import ZeroTable, compute_zeros, mcmahon_zero

__all__ = [
    "SeriesPolicy",
    "MaterialCurve",
    "CURVE_KINDS",
    "psi",
    "phi",
    "creep_compliance",
    "relaxation_modulus",
    "sample_curve",
    "prony_modes",
    "PronyModes",
]

DEFAULT_ZERO_TOL = 1e-11

CURVE_KINDS = ("creep_rate", "relax_rate", "creep_compliance", "relax_modulus")

_MAX_TERMS = 10000  # cap on series terms, which bounds the table a small min_time demands


def _zeros_order(nu: float, side: str) -> float:
    """Order of the zeros behind one side: nu+2 for 'creep', nu for 'relax'."""
    return nu + 2.0 if side == "creep" else nu


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy for Dirichlet-series evaluation.

    ``tail_tol`` bounds the neglected tail absolutely; ``min_time`` is the
    time below which memory-function evaluation refuses the series and
    defers to the short-time asymptotic branch.
    """

    tail_tol: float = 1e-12
    min_time: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.tail_tol < 1.0):
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")
        if not (0.0 < self.min_time < math.inf):
            raise ValueError(f"min_time must be finite and positive, got {self.min_time}")


DEFAULT_POLICY = SeriesPolicy()


@dataclass(frozen=True)
class MaterialCurve:
    """Sampled curve with per-sample provenance."""

    nu: float
    kind: str
    times: np.ndarray
    values: np.ndarray
    provenance: tuple[str, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if t.ndim != 1 or t.shape != v.shape or len(self.provenance) != t.size:
            raise ValueError("times, values and provenance must have equal length")
        if t.size == 0:
            raise ValueError("curve must hold at least one sample")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")

    def validate_shape(self, tol: float = 1e-9) -> None:
        """Check the monotonicity expected of the canonical curve kinds."""
        scale = max(float(np.max(np.abs(self.values))), 1.0)
        d = np.diff(self.values)
        if self.kind == "creep_compliance":
            bad = d < -tol * scale
        elif self.kind in ("relax_modulus", "creep_rate", "relax_rate"):
            bad = d > tol * scale
        else:
            return
        if np.any(bad):
            raise ValueError(f"{self.kind} curve violates monotonicity")


# --- mode bookkeeping --------------------------------------------------------


@dataclass(frozen=True)
class PronyModes:
    """Exponential-mode decomposition of a memory function.

    ``rates``/``amps`` are the tabulated modes; ``constant`` is the
    Newtonian (zero-rate) contribution of the creep kernel.  The tail of
    the infinite spectrum is lumped into one surrogate mode whose
    integrated weight matches the exact inverse-square remainder, so step
    responses built from these modes agree with the tail-corrected
    material functions identically.
    """

    nu: float
    constant: float
    amps: np.ndarray
    rates: np.ndarray
    tail_weight: float  # integrated weight of the surrogate tail mode
    tail_rate: float

    @property
    def tail_amp(self) -> float:
        return self.tail_weight * self.tail_rate


def _rayleigh_remainder(zeros_order: float, table: ZeroTable) -> float:
    """Exact remainder of sum(1/j^2) beyond the table: 1/(4(o+1)) - partial."""
    return 0.25 / (zeros_order + 1.0) - float(np.sum(1.0 / table.rates))


def prony_modes(order, kind: str, table: ZeroTable) -> PronyModes:
    """Mode decomposition of the creep or relaxation rate function."""
    nu = order_value(order)
    if kind not in ("creep", "relax"):
        raise ValueError(f"kind must be 'creep' or 'relax', got {kind!r}")
    zeros_order = _zeros_order(nu, kind)
    if abs(table.nu - zeros_order) > 1e-12:
        raise ValueError(
            f"zero table is for order {table.nu}, expected {zeros_order}"
        )
    amp = 4.0 * (nu + 1.0)
    rates = table.rates
    remainder = _rayleigh_remainder(zeros_order, table)
    tail_rate = mcmahon_zero(zeros_order, len(table) + 1) ** 2
    constant = 4.0 * (nu + 1.0) * (nu + 2.0) if kind == "creep" else 0.0
    return PronyModes(
        nu=nu,
        constant=constant,
        amps=np.full(rates.shape, amp),
        rates=rates,
        tail_weight=amp * remainder,
        tail_rate=tail_rate,
    )


# --- adaptive truncation -----------------------------------------------------


def required_zero_count(zeros_order: float, t: float, tail_tol: float, amplitude: float) -> int:
    """Estimate of the table size needed to certify the tail at time t."""
    if not (0.0 < t < math.inf):
        raise ValueError(f"tail certification needs a finite t > 0, got {t}")
    arg = max(amplitude / tail_tol, 10.0)
    j_req = math.sqrt(math.log(arg) / t)
    n = j_req / math.pi - 0.5 * zeros_order + 0.25
    return max(4, math.ceil(1.15 * n) + 6)


def _certified_terms(table: ZeroTable, t: float, tail_tol: float, amplitude: float) -> int:
    """Smallest m with amplitude * tail(m) <= tail_tol, or raise.

    The tail after m kept terms is bounded geometrically by the smallest
    gap between consecutive decay rates at or beyond the first neglected
    one.  Rate gaps grow like the zeros themselves at large index, but at
    large order they first shrink through the turning-point region, so
    the in-table suffix minimum is used and the table must end in the
    increasing-gap regime for the beyond-table portion to be covered.
    """
    rates = table.rates
    n = rates.size
    gaps = np.diff(rates)
    if n < 3 or gaps[-1] <= gaps[-2]:
        raise InsufficientZerosError(
            f"table of {n} zeros ends before its rate gaps start growing; "
            "extend it to certify tail bounds",
            required_count=max(2 * n, 16),
        )
    suffix_min = np.minimum.accumulate(gaps[::-1])[::-1]
    cap = min(n - 1, _MAX_TERMS)
    for m in range(1, cap + 1):
        lam_next = rates[m]  # first neglected rate
        gap = float(suffix_min[m]) if m < gaps.size else float(gaps[-1])
        gt = gap * t
        denom = -math.expm1(-gt) if gt < 700.0 else 1.0
        lt = lam_next * t
        head = math.exp(-lt) if lt < 745.0 else 0.0
        if amplitude * head / denom <= tail_tol:
            return m
    required = required_zero_count(table.nu, t, tail_tol, amplitude)
    raise InsufficientZerosError(
        f"table of {n} zeros cannot certify tail <= {tail_tol} at t={t}; "
        f"approximately {required} zeros needed",
        required_count=max(required, n + 8),
    )


# --- evaluators --------------------------------------------------------------


_TABLE_QUANTUM = 64  # table sizes are rounded up to a multiple, for cache friendliness


def _sized_table(zeros_order: float, t: float, policy: SeriesPolicy, amplitude: float) -> ZeroTable:
    """Zero table that certifies the tail at every time >= t.

    ``t`` is the smallest positive time to be evaluated, floored at
    ``policy.min_time``.  ``t = 0`` means that only t = 0 is evaluated:
    there the tail correction of the material functions is the exact
    inverse-square remainder, so the minimum table gives the exact value.
    """
    count = _TABLE_QUANTUM
    if t > 0.0:
        count = required_zero_count(zeros_order, max(t, policy.min_time),
                                    policy.tail_tol, amplitude)
        count = min(count, _MAX_TERMS + 1)
    count = _TABLE_QUANTUM * math.ceil(count / _TABLE_QUANTUM)
    return compute_zeros(zeros_order, count, DEFAULT_ZERO_TOL)


def _finite_time(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return t


def _rate(nu: float, side: str, t: float, policy: SeriesPolicy,
          zeros: ZeroTable | None) -> float:
    """Memory function of one side: its constant plus the Dirichlet series."""
    if t < policy.min_time:
        raise BelowMinTimeError(
            f"t={t} is below min_time={policy.min_time}; "
            "use the short-time asymptotic branch"
        )
    amp = 4.0 * (nu + 1.0)
    if zeros is None:
        zeros = _sized_table(_zeros_order(nu, side), t, policy, amp)
    m = _certified_terms(zeros, t, policy.tail_tol, amp)
    decay = np.exp(-zeros.rates[:m] * t)
    constant = 4.0 * (nu + 1.0) * (nu + 2.0) if side == "creep" else 0.0
    return constant + amp * float(np.sum(decay))


def _material(nu: float, side: str, t: float, policy: SeriesPolicy,
              zeros: ZeroTable | None, return_tail_bound: bool = False):
    """Material function of one side, tail-corrected to 1 at t = 0."""
    if t < 0.0:
        raise ValueError(f"material functions require t >= 0, got {t}")
    amp = 4.0 * (nu + 1.0)
    if zeros is None:
        zeros = _sized_table(_zeros_order(nu, side), t, policy, amp)
    modes = prony_modes(nu, side, zeros)
    rates = modes.rates[:_MAX_TERMS]
    decay_sum = float(np.sum(np.exp(-rates * t) / rates))
    tail_term = (modes.tail_weight / amp) * math.exp(-min(modes.tail_rate * t, 745.0))
    value = amp * (decay_sum + tail_term)
    if side == "creep":
        value = 2.0 * (nu + 2.0) / (nu + 3.0) + modes.constant * t - value
    if return_tail_bound:
        return value, amp * tail_term
    return value


def psi(order, t: float, policy: SeriesPolicy = DEFAULT_POLICY,
        zeros: ZeroTable | None = None) -> float:
    """Rate-of-creep memory function: constant + Dirichlet series.

    ``zeros`` must tabulate zeros of order nu+2; when omitted, a table
    sized for (t, tail_tol) is computed and memoized internally.
    """
    return _rate(order_value(order), "creep", _finite_time(t), policy, zeros)


def phi(order, t: float, policy: SeriesPolicy = DEFAULT_POLICY,
        zeros: ZeroTable | None = None) -> float:
    """Rate-of-relaxation memory function: pure Dirichlet series.

    ``zeros`` must tabulate zeros of order nu.
    """
    return _rate(order_value(order), "relax", _finite_time(t), policy, zeros)


def creep_compliance(order, t: float, policy: SeriesPolicy = DEFAULT_POLICY,
                     zeros: ZeroTable | None = None,
                     return_tail_bound: bool = False):
    """Creep compliance, tail-corrected so that the t = 0 value is exactly 1.

    The integrated series converges for all t >= 0 thanks to the
    inverse-square damping; the neglected tail is replaced by the exact
    inverse-square remainder decaying at the first untabulated rate, which
    also bounds the residual error (reported when requested).
    """
    return _material(order_value(order), "creep", _finite_time(t), policy, zeros,
                     return_tail_bound)


def relaxation_modulus(order, t: float, policy: SeriesPolicy = DEFAULT_POLICY,
                       zeros: ZeroTable | None = None,
                       return_tail_bound: bool = False):
    """Relaxation modulus, tail-corrected so that the t = 0 value is exactly 1."""
    return _material(order_value(order), "relax", _finite_time(t), policy, zeros,
                     return_tail_bound)


def sample_curve(order, kind: str, t_grid, policy: SeriesPolicy = DEFAULT_POLICY) -> MaterialCurve:
    """Sample one of the four canonical curves over a strictly increasing grid.

    Memory-function samples below policy.min_time use the short-time
    asymptotic closed form and are flagged as such in the provenance.
    """
    from . import asymptotics  # deferred: asymptotics imports this module

    nu = order_value(order)
    if kind not in CURVE_KINDS:
        raise ValueError(f"kind must be one of {CURVE_KINDS}, got {kind!r}")
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("t_grid must be a non-empty strictly increasing 1-d grid")
    if not np.all(np.isfinite(grid)):  # NaN passes the comparisons above
        raise ValueError("t_grid must hold finite times only")
    is_memory = kind in ("creep_rate", "relax_rate")
    if grid[0] <= 0.0 and is_memory:
        raise ValueError("memory functions require strictly positive times")
    if grid[0] < 0.0:
        raise ValueError("times must be non-negative")

    side = kind.partition("_")[0]  # 'creep' or 'relax'
    series_times = grid[grid >= policy.min_time] if is_memory else grid
    table = None
    if series_times.size:
        positive = series_times[series_times > 0.0]
        t_min = float(positive[0]) if positive.size else 0.0
        table = _sized_table(_zeros_order(nu, side), t_min, policy, 4.0 * (nu + 1.0))

    evaluator = _rate if is_memory else _material
    short_form = {
        "creep_rate": asymptotics.psi_short_time,
        "relax_rate": asymptotics.phi_short_time,
    }.get(kind)

    values = np.empty(grid.shape)
    provenance = []
    for i, t in enumerate(grid):
        t = float(t)
        if is_memory and t < policy.min_time:
            values[i] = short_form(nu, t)
            provenance.append("asymptotic_short")
        else:
            values[i] = evaluator(nu, side, t, policy, table)
            provenance.append("series")
    return MaterialCurve(nu=nu, kind=kind, times=grid, values=values,
                         provenance=tuple(provenance))
