"""Positive real zeros of J_nu and the inverse-square sum over them.

The zero finder works on whole tables at once.  One pi/10 sign scan of J_nu,
evaluated in chunks by the array evaluator of :mod:`specfun`, brackets
every root; the McMahon expansion only sizes the chunks.  All brackets are
then polished together by a safeguarded Newton iteration that takes J and
J' from the same evaluation.  Tables are memoized, since recomputation is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError
from .specfun import _jv_pair, order_value

__all__ = ["ZeroTable", "compute_zeros", "rayleigh_sum", "mcmahon_zero", "RayleighResult"]


@dataclass(frozen=True)
class ZeroTable:
    """First ``count`` positive zeros of J_nu, strictly increasing."""

    nu: float
    zeros: np.ndarray
    abs_tol: float

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=float)
        object.__setattr__(self, "zeros", z)
        if z.ndim != 1 or z.size == 0:
            raise ValueError("zero table must hold at least one zero")
        if z[0] <= 0.0 or np.any(np.diff(z) <= 0.0):
            raise ValueError("zeros must be positive and strictly increasing")

    def __len__(self):
        return self.zeros.size

    @property
    def rates(self) -> np.ndarray:
        """Squared zeros: the decay rates of the associated Dirichlet series."""
        return self.zeros**2


def mcmahon_zero(nu: float, n: int) -> float:
    """McMahon expansion estimate of the n-th zero of J_nu (three terms)."""
    if not (-1.0 < nu < math.inf and 1 <= n < math.inf):
        raise ValueError(f"mcmahon_zero needs a finite nu > -1 and n >= 1, got nu={nu}, n={n}")
    mu = 4.0 * nu * nu
    beta = (n + 0.5 * nu - 0.25) * math.pi
    b8 = 8.0 * beta
    return (
        beta
        - (mu - 1.0) / b8
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8**3)
    )


_SCAN_STEP = math.pi / 10.0
_SCAN_LANES = 2048  # grid points per scan chunk, which bounds the working set


def _scan_brackets(nu: float, count: int) -> tuple[np.ndarray, ...]:
    """Sign-change brackets of the first ``count`` zeros of J_nu.

    One grid runs from near 0 in steps of pi/10, far below the smallest
    gap between zeros, so no zero can be skipped.  The first two Rayleigh
    sums bound the first zero: 4(nu+1) < j_{nu,1}^2 < 4(nu+1)(nu+2).  Up
    to that upper bound the step is also capped at a sixth of the lower
    one, because the first zero collapses toward 0 as nu -> -1.  The grid
    is evaluated in chunks, sized from the McMahon estimate of the last
    zero, until ``count`` sign changes are found.  Returns
    (lo, hi, J(lo), J(hi)).
    """
    fine = min(_SCAN_STEP, math.sqrt(nu + 1.0) / 3.0)
    head_end = min(math.pi, 2.0 * math.sqrt((nu + 1.0) * (nu + 2.0)))
    x = 0.5 * fine + fine * np.arange(math.ceil(head_end / fine) + 1)
    f = _jv_pair(nu, x)[0]
    # A zero must appear within this reach of the previous one (or of 0).
    first_reach = nu + 2.5 * (nu + 1.0) ** (1.0 / 3.0) + 8.0
    target = max(mcmahon_zero(nu, count) + math.pi, first_reach)
    found = []
    n_found = 0
    last_zero = 0.0
    while True:
        # A strict sign pair: where J_nu underflows to 0 near the origin, a
        # step from 0 to a positive value is no sign change.
        at = np.flatnonzero((f[:-1] > 0.0) & (f[1:] < 0.0) | (f[:-1] < 0.0) & (f[1:] > 0.0))
        if at.size:
            found.append((x[at], x[at + 1], f[at], f[at + 1]))
            n_found += at.size
            last_zero = float(x[at[-1] + 1])
        if n_found >= count:
            return tuple(np.concatenate(parts)[:count] for parts in zip(*found))
        if x[-1] - last_zero > (nu + 50.0 if n_found else first_reach):
            raise ConvergenceError(
                f"failed to bracket zero {n_found + 1} of J_{nu} on ({last_zero}, {x[-1]})"
            )
        points = max(math.ceil((target - x[-1]) / _SCAN_STEP), 12 * (count - n_found))
        ahead = x[-1] + _SCAN_STEP * np.arange(1, min(points, _SCAN_LANES) + 1)
        x = np.concatenate((x[-1:], ahead))
        f = np.concatenate((f[-1:], _jv_pair(nu, ahead)[0]))


def _polish(nu: float, lo, hi, f_lo, f_hi, abs_tol: float) -> np.ndarray:
    """Safeguarded Newton on every bracket at once.

    Each lane starts from the secant of its bracket, keeps its bracket
    updated from the sign of J, and stops at its first step below
    abs_tol / 4.  A longer step that leaves the bracket is replaced by
    bisection.
    """
    lo = lo.copy()
    hi = hi.copy()
    lo_positive = f_lo > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    x = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, x))
    live = np.flatnonzero((f_lo != 0.0) & (f_hi != 0.0))
    for _ in range(100):
        if live.size == 0:
            return x
        xl = x[live]
        f, f_up = _jv_pair(nu, xl)
        df = (nu / xl) * f - f_up
        lo_side = (f > 0.0) == lo_positive[live]
        lo[live] = np.where(lo_side, xl, lo[live])
        hi[live] = np.where(lo_side, hi[live], xl)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = xl - f / df
        done = (np.abs(x_new - xl) <= 0.25 * abs_tol) | (f == 0.0)
        inside = (lo[live] < x_new) & (x_new < hi[live])
        x_new = np.where(done | inside, x_new, 0.5 * (lo[live] + hi[live]))
        x_new = np.where(f == 0.0, xl, x_new)
        x[live] = x_new
        live = live[~done]
    raise ConvergenceError(
        f"Newton refinement for zeros of J_{nu} near {x[live[:3]]} did not reach {abs_tol}"
    )


@lru_cache(maxsize=256)
def _zero_tuple(nu_key: float, count: int, abs_tol: float) -> tuple[float, ...]:
    zeros = _polish(nu_key, *_scan_brackets(nu_key, count), abs_tol)
    if zeros[0] <= 0.0 or np.any(np.diff(zeros) <= 0.0):
        raise ConvergenceError(f"zero ordering violated for J_{nu_key}")
    return tuple(zeros.tolist())


def compute_zeros(order, count: int, abs_tol: float = 1e-11) -> ZeroTable:
    """First ``count`` positive zeros of J_nu for nu > -1.

    Each zero satisfies |J_nu(z)| <= abs_tol * |J'_nu(z)|.  Results are
    memoized on (nu, count, abs_tol); the computation is deterministic, so
    the cache is a pure memo and is safe under concurrent use.
    """
    nu = order_value(order)
    n = float(count)
    if not (1.0 <= n < math.inf and n == math.floor(n)):
        raise ValueError(f"compute_zeros: count must be an integer >= 1, got {count!r}")
    if not (0.0 < abs_tol <= 1e-6):
        raise ValueError(f"abs_tol must lie in (0, 1e-6], got {abs_tol}")
    nu_key = round(nu / 1e-14) * 1e-14  # collapse representation noise
    zeros = _zero_tuple(nu_key, int(n), float(abs_tol))
    return ZeroTable(nu=nu, zeros=np.array(zeros), abs_tol=abs_tol)


# --- Rayleigh-type inverse-square sum ---------------------------------------


@dataclass(frozen=True)
class RayleighResult:
    """Partial sum of 1/j^2 over a zero table, with an asymptotic tail."""

    partial_sum: float
    tail_estimate: float

    @property
    def corrected(self) -> float:
        return self.partial_sum + self.tail_estimate


def _trigamma(y: float) -> float:
    """psi'(y) for y > 0 via upward recurrence and the asymptotic series."""
    acc = 0.0
    while y < 10.0:
        acc += 1.0 / (y * y)
        y += 1.0
    inv = 1.0 / y
    inv2 = inv * inv
    # 1/y + 1/(2y^2) + 1/(6y^3) - 1/(30y^5) + 1/(42y^7) - 1/(30y^9)
    series = inv * (
        1.0
        + inv * (0.5 + inv * (1.0 / 6.0 + inv2 * (-1.0 / 30.0 + inv2 * (1.0 / 42.0 - inv2 / 30.0))))
    )
    return acc + series


def rayleigh_sum(table: ZeroTable) -> RayleighResult:
    """Sum of 1/j_{nu,n}^2 over the table plus an analytic tail estimate.

    The tail models the remaining zeros by their leading McMahon location
    j_{nu,n} ~ (n + nu/2 - 1/4) pi, which reduces the remainder to a
    trigamma value.  Both the raw partial sum and the tail-corrected value
    are exposed (the corrected value converges to 1/(4(nu+1))).
    """
    partial = float(np.sum(1.0 / table.rates))
    n_terms = len(table)
    offset = 0.5 * table.nu - 0.25
    tail = _trigamma(n_terms + 1.0 + offset) / (math.pi * math.pi)
    return RayleighResult(partial_sum=partial, tail_estimate=tail)
