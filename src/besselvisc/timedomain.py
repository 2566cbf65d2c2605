"""Time-domain memory and material functions as truncated Dirichlet series.

The memory functions are infinite Prony series over squared Bessel zeros.
Every evaluator reads one :class:`PronyModes` (the rates, their common
amplitude, the creep constant and a surrogate tail mode), built once per
call on a zero table sized for the smallest time evaluated.
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


# --- the modes of one side ---------------------------------------------------


@dataclass(frozen=True)
class PronyModes:
    """Exponential-mode decomposition of a memory function.

    Each tabulated mode decays at one of ``rates`` with the common
    amplitude ``amp`` = 4(nu+1); ``constant`` is the Newtonian (zero-rate)
    contribution of the creep kernel.  ``gap_min[k]`` is the smallest gap
    between consecutive rates from index k on, which certifies truncated
    sums.  The tail of the infinite spectrum is lumped into one surrogate
    mode whose integrated weight matches the exact inverse-square
    remainder, so step responses built from these modes agree with the
    tail-corrected material functions identically.
    """

    nu: float
    kind: str  # 'creep' or 'relax'
    amp: float
    constant: float
    rates: np.ndarray
    gap_min: np.ndarray
    tail_weight: float  # integrated weight of the surrogate tail mode
    tail_rate: float

    @property
    def tail_amp(self) -> float:
        return self.tail_weight * self.tail_rate


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
    # Exact remainder of sum(1/j^2) beyond the table: 1/(4(o+1)) - partial.
    remainder = 0.25 / (zeros_order + 1.0) - float(np.sum(1.0 / rates))
    return PronyModes(
        nu=nu,
        kind=kind,
        amp=amp,
        constant=4.0 * (nu + 1.0) * (nu + 2.0) if kind == "creep" else 0.0,
        rates=rates,
        gap_min=np.minimum.accumulate(np.diff(rates)[::-1])[::-1],
        tail_weight=amp * remainder,
        tail_rate=mcmahon_zero(zeros_order, len(table) + 1) ** 2,
    )


_TABLE_QUANTUM = 64  # table sizes are rounded up to a multiple, for cache friendliness


def _modes(nu: float, side: str, t: float, policy: SeriesPolicy) -> PronyModes:
    """Modes of one side on a zero table that certifies the tail at every time >= t.

    ``t`` is the smallest positive time to be evaluated, floored at
    ``policy.min_time``.  ``t = 0`` means that only t = 0 is evaluated:
    there the tail correction of the material functions is the exact
    inverse-square remainder, so the minimum table gives the exact value.
    """
    zeros_order = _zeros_order(nu, side)
    count = _TABLE_QUANTUM
    if t > 0.0:
        count = required_zero_count(zeros_order, max(t, policy.min_time),
                                    policy.tail_tol, 4.0 * (nu + 1.0))
        count = min(count, _MAX_TERMS + 1)
    count = _TABLE_QUANTUM * math.ceil(count / _TABLE_QUANTUM)
    return prony_modes(nu, side, compute_zeros(zeros_order, count, DEFAULT_ZERO_TOL))


# --- adaptive truncation -----------------------------------------------------


def required_zero_count(zeros_order: float, t: float, tail_tol: float, amplitude: float) -> int:
    """Estimate of the table size needed to certify the tail at time t."""
    if not (0.0 < t < math.inf):
        raise ValueError(f"tail certification needs a finite t > 0, got {t}")
    arg = max(amplitude / tail_tol, 10.0)
    j_req = math.sqrt(math.log(arg) / t)
    n = j_req / math.pi - 0.5 * zeros_order + 0.25
    return max(4, math.ceil(1.15 * n) + 6)


def _certified_terms(modes: PronyModes, t: float, tail_tol: float) -> int:
    """Smallest m with amp * tail(m) <= tail_tol, or raise.

    The tail after m kept terms is bounded geometrically by the smallest
    gap between consecutive decay rates at or beyond the first neglected
    one.  Rate gaps grow like the zeros themselves at large index, but at
    large order they first shrink through the turning-point region, so
    the in-table suffix minimum is used and the table must end in the
    increasing-gap regime for the beyond-table portion to be covered.
    """
    rates, gap_min = modes.rates, modes.gap_min
    n = rates.size
    # The suffix minimum is flat at its end exactly when the last gap is
    # no larger than the one before it.
    if n < 3 or gap_min[-2] == gap_min[-1]:
        raise InsufficientZerosError(
            f"table of {n} zeros ends before its rate gaps start growing; "
            "extend it to certify tail bounds",
            required_count=max(2 * n, 16),
        )
    cap = min(n - 1, _MAX_TERMS)
    for m in range(1, cap + 1):
        lam_next = rates[m]  # first neglected rate
        gap = float(gap_min[min(m, n - 2)])
        gt = gap * t
        denom = -math.expm1(-gt) if gt < 700.0 else 1.0
        lt = lam_next * t
        head = math.exp(-lt) if lt < 745.0 else 0.0
        if modes.amp * head / denom <= tail_tol:
            return m
    required = required_zero_count(_zeros_order(modes.nu, modes.kind), t, tail_tol, modes.amp)
    raise InsufficientZerosError(
        f"table of {n} zeros cannot certify tail <= {tail_tol} at t={t}; "
        f"approximately {required} zeros needed",
        required_count=max(required, n + 8),
    )


# --- evaluators --------------------------------------------------------------


def _rate(modes: PronyModes, t: float, tail_tol: float) -> float:
    """Memory function at t >= min_time: its constant plus the Dirichlet series."""
    m = _certified_terms(modes, t, tail_tol)
    return modes.constant + modes.amp * float(np.sum(np.exp(-modes.rates[:m] * t)))


def _material(modes: PronyModes, t: float, return_tail_bound: bool = False):
    """Material function at t >= 0, tail-corrected to 1 at t = 0."""
    nu, amp, rates = modes.nu, modes.amp, modes.rates[:_MAX_TERMS]
    decay_sum = float(np.sum(np.exp(-rates * t) / rates))
    tail_term = (modes.tail_weight / amp) * math.exp(-min(modes.tail_rate * t, 745.0))
    value = amp * (decay_sum + tail_term)
    if modes.kind == "creep":
        value = 2.0 * (nu + 2.0) / (nu + 3.0) + modes.constant * t - value
    if return_tail_bound:
        return value, amp * tail_term
    return value


def _finite_time(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return t


def _rate_at(order, side: str, t, policy: SeriesPolicy) -> float:
    nu, t = order_value(order), _finite_time(t)
    if t < policy.min_time:
        raise BelowMinTimeError(
            f"t={t} is below min_time={policy.min_time}; "
            "use the short-time asymptotic branch"
        )
    return _rate(_modes(nu, side, t, policy), t, policy.tail_tol)


def _material_at(order, side: str, t, policy: SeriesPolicy, return_tail_bound: bool):
    nu, t = order_value(order), _finite_time(t)
    if t < 0.0:
        raise ValueError(f"material functions require t >= 0, got {t}")
    return _material(_modes(nu, side, t, policy), t, return_tail_bound)


def psi(order, t: float, policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    """Rate-of-creep memory function: constant + Dirichlet series over the
    squared zeros of order nu+2."""
    return _rate_at(order, "creep", t, policy)


def phi(order, t: float, policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    """Rate-of-relaxation memory function: pure Dirichlet series over the
    squared zeros of order nu."""
    return _rate_at(order, "relax", t, policy)


def creep_compliance(order, t: float, policy: SeriesPolicy = DEFAULT_POLICY,
                     return_tail_bound: bool = False):
    """Creep compliance, tail-corrected so that the t = 0 value is exactly 1.

    The integrated series converges for all t >= 0 thanks to the
    inverse-square damping; the neglected tail is replaced by the exact
    inverse-square remainder decaying at the first untabulated rate, which
    also bounds the residual error (reported when requested).
    """
    return _material_at(order, "creep", t, policy, return_tail_bound)


def relaxation_modulus(order, t: float, policy: SeriesPolicy = DEFAULT_POLICY,
                       return_tail_bound: bool = False):
    """Relaxation modulus, tail-corrected so that the t = 0 value is exactly 1."""
    return _material_at(order, "relax", t, policy, return_tail_bound)


def sample_curve(order, kind: str, t_grid, policy: SeriesPolicy = DEFAULT_POLICY) -> MaterialCurve:
    """Sample one of the four canonical curves over a strictly increasing grid.

    Memory-function samples below policy.min_time use the short-time
    asymptotic closed form and are flagged as such in the provenance.
    The modes are built once, for the smallest series time of the grid.
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
    if series_times.size:
        positive = series_times[series_times > 0.0]
        modes = _modes(nu, side, float(positive[0]) if positive.size else 0.0, policy)

    short_form = asymptotics.psi_short_time if side == "creep" else asymptotics.phi_short_time
    values = np.empty(grid.shape)
    provenance = ["series"] * grid.size
    for i, t in enumerate(map(float, grid)):
        if not is_memory:
            values[i] = _material(modes, t)
        elif t >= policy.min_time:
            values[i] = _rate(modes, t, policy.tail_tol)
        else:
            values[i] = short_form(nu, t)
            provenance[i] = "asymptotic_short"
    return MaterialCurve(nu=nu, kind=kind, times=grid, values=values,
                         provenance=tuple(provenance))
