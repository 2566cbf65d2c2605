"""Independent reference for the benchmark's output checks.

Nothing here imports besselvisc.  Zeros of J_nu come from
``scipy.special.jn_zeros`` for integer orders and otherwise from sign
changes of ``scipy.special.jv`` on a fine scan, each refined with
``brentq``.  The paper's series are summed directly over those zeros:

    psi(t) = 4(nu+1)(nu+2) + 4(nu+1) sum exp(-j^2 t)       zeros of J_{nu+2}
    phi(t) = 4(nu+1) sum exp(-j^2 t)                       zeros of J_nu
    J(t)   = 2(nu+2)/(nu+3) + 4(nu+1)(nu+2) t
             - 4(nu+1) sum exp(-j^2 t)/j^2                 zeros of J_{nu+2}
    G(t)   = 4(nu+1) sum exp(-j^2 t)/j^2                   zeros of J_nu

and hereditary responses are superpositions of step responses (J, G) and
ramp responses (the closed-form integrals of J and G).

The tables are long enough that every neglected term is below 1e-30 of
the kept sum at the times the benchmark checks (t >= MIN_CHECK_TIME), so
no tail model is needed; the ramp integrals add the exact remainder of
sum 1/j^4 = 1/(16 (o+1)^2 (o+2)) instead.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import optimize, special

# Smallest time (or lag after a load knot) at which series values are
# compared with the library.  With REFERENCE_ZEROS zeros, exp(-j_N^2 t)
# is below 1e-38 there for every order the benchmark uses.
MIN_CHECK_TIME = 1e-4
REFERENCE_ZEROS = 320


@lru_cache(maxsize=None)
def bessel_zeros(nu: float, count: int = REFERENCE_ZEROS) -> np.ndarray:
    """First ``count`` positive zeros of J_nu, nu > -1."""
    if nu == int(nu) and nu >= 0:
        return special.jn_zeros(int(nu), count)
    # j_{nu,n} < (n + nu/2) pi + pi for every nu > -1; zeros are at least
    # ~2.4 apart beyond the first, so a 0.02 scan cannot skip a pair.
    x_hi = (count + 0.5 * max(nu, 0.0) + 2.0) * math.pi
    x = np.arange(1e-3, x_hi, 0.02)
    f = special.jv(nu, x)
    idx = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]
    if idx.size < count:
        raise RuntimeError(f"scan found {idx.size} zeros of J_{nu}, need {count}")
    zeros = [
        optimize.brentq(lambda z: special.jv(nu, z), x[i], x[i + 1], xtol=1e-14)
        for i in idx[:count]
    ]
    return np.array(zeros)


def _rates(order: float) -> np.ndarray:
    return bessel_zeros(float(order)) ** 2


def _sum(rates: np.ndarray, t: np.ndarray, power: int) -> np.ndarray:
    """sum_n exp(-rate_n t) / rate_n^power for each t."""
    t = np.asarray(t, dtype=float)
    return np.exp(-np.outer(t, rates)) @ (rates ** -float(power))


def _require_checkable(t: np.ndarray) -> None:
    if np.any(t < MIN_CHECK_TIME):
        raise ValueError(f"reference series need t >= {MIN_CHECK_TIME}")


def curve(nu: float, kind: str, t) -> np.ndarray:
    """psi, phi, J or G at times t >= MIN_CHECK_TIME."""
    t = np.asarray(t, dtype=float)
    _require_checkable(t)
    a = 4.0 * (nu + 1.0)
    if kind == "creep_rate":
        return a * (nu + 2.0) + a * _sum(_rates(nu + 2.0), t, 0)
    if kind == "relax_rate":
        return a * _sum(_rates(nu), t, 0)
    if kind == "creep_compliance":
        return 2.0 * (nu + 2.0) / (nu + 3.0) + a * (nu + 2.0) * t - a * _sum(_rates(nu + 2.0), t, 1)
    if kind == "relax_modulus":
        return a * _sum(_rates(nu), t, 1)
    raise ValueError(f"unknown kind {kind!r}")


def _ramp_integral(nu: float, creep: bool, lag: np.ndarray) -> np.ndarray:
    """Integral of J (creep) or G over [0, lag]; lag is 0 or >= MIN_CHECK_TIME."""
    order = nu + 2.0 if creep else nu
    rates = _rates(order)
    a = 4.0 * (nu + 1.0)
    quartic = 1.0 / (16.0 * (order + 1.0) ** 2 * (order + 2.0))
    remainder = quartic - float(np.sum(rates ** -2.0))
    # sum (1 - exp(-rate lag)) / rate^2, with the exact beyond-table part
    # (exp(-rate lag) vanishes there once lag >= MIN_CHECK_TIME).
    saturated = float(np.sum(rates ** -2.0)) - _sum(rates, lag, 2) + np.where(lag > 0.0, remainder, 0.0)
    if creep:
        return 2.0 * (nu + 2.0) / (nu + 3.0) * lag + 0.5 * a * (nu + 2.0) * lag**2 - a * saturated
    return a * saturated


def _step_response(nu: float, creep: bool, lag: np.ndarray) -> np.ndarray:
    return curve(nu, "creep_compliance" if creep else "relax_modulus", lag)


def response(nu: float, mode: str, knots, values, interpolation: str, t) -> np.ndarray:
    """Strain (mode 'strain', input stress) or stress (input strain) response.

    The input is read between knots as ``interpolation`` says, like the
    library's LoadHistory.  Every knot at or before a check time must lie
    0 or at least MIN_CHECK_TIME before it, and t >= MIN_CHECK_TIME.
    """
    creep = mode == "strain"
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    t = np.asarray(t, dtype=float)
    _require_checkable(t)
    out = values[0] * _step_response(nu, creep, t)
    if interpolation == "piecewise_constant":
        for tk, jump in zip(knots[1:], np.diff(values)):
            lag = t - tk
            past = lag > 0.0
            _require_checkable(lag[past])
            out[past] += jump * _step_response(nu, creep, lag[past])
        return out
    slopes = np.diff(values) / np.diff(knots)
    for k, slope in enumerate(slopes):
        lag_start = np.maximum(t - knots[k], 0.0)
        lag_end = np.maximum(t - knots[k + 1], 0.0)
        _require_checkable(lag_start[lag_start > 0.0])
        out += slope * (_ramp_integral(nu, creep, lag_start) - _ramp_integral(nu, creep, lag_end))
    return out


def series_tolerance(nu: float, kind: str, t, value, tail_tol: float = 1e-12, zero_tol: float = 1e-11):
    """Allowed gap between a library series value of ``kind`` and the reference.

    The library bounds its neglected tail by ``tail_tol`` (absolute: the
    amplitude 4(nu+1) times the tail) and places each zero to ``zero_tol``.
    A zero error dj moves the term exp(-j^2 t) / j^(2p) (p = 0 for the
    rates, 1 for J and G) by (2 j t + 2 p / j) exp(-j^2 t) / j^(2p) dj;
    the bound sums that over the spectrum.  The 2p/j part dominates for G
    near nu = -1, where j_{nu,1} is small.  The relative term covers
    rounding in sums of up to ~1e4 terms.
    """
    t = np.asarray(t, dtype=float)
    _require_checkable(t)
    p = 0 if kind.endswith("_rate") else 1
    zeros = bessel_zeros(float(nu + 2.0 if kind.startswith("creep") else nu))
    weight = (2.0 * np.outer(t, zeros) + 2.0 * p / zeros) * np.exp(-np.outer(t, zeros**2)) / zeros ** (2 * p)
    return tail_tol + 4.0 * (nu + 1.0) * zero_tol * weight.sum(axis=1) + 1e-12 * np.abs(value)


def ramp_tail_bound(nu: float, mode: str, t_kernel: float = 1e-4, tail_tol: float = 1e-12) -> float:
    """Error per unit change of slope that a surrogate tail mode may cause.

    A response engine that resolves kernel lags down to ``t_kernel`` keeps
    the modes with exp(-rate t_kernel) > tail_tol / (4(nu+1)) and lumps the
    rest into one mode with their exact integrated weight.  A ramp then
    sees only the error in the first moment of the lumped modes, which is
    at most 4(nu+1) * sum_{rate > r_K} 1/rate / r_K, where r_K is the first
    rate dropped; the sum is the exact remainder of sum 1/j^2 = 1/(4(o+1)).
    """
    order = nu + 2.0 if mode == "strain" else nu
    a = 4.0 * (nu + 1.0)
    rates = _rates(order)
    kept = rates < math.log(a / tail_tol) / t_kernel
    first_dropped = rates[np.argmin(kept)]
    remainder = 0.25 / (order + 1.0) - float(np.sum(1.0 / rates[kept]))
    return a * remainder / first_dropped

