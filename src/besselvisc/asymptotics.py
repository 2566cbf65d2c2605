"""Short- and long-time closed-form approximants and crossover diagnostics.

Short times follow the inverse-square-root law shared by the whole model
class; long times reduce to the Newtonian-plus-constant creep behaviour
and to single-exponential relaxation at the first squared zero.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import order_value
from .zeros import compute_zeros

__all__ = [
    "approximants",
    "psi_short_time",
    "phi_short_time",
    "creep_short_time",
    "modulus_short_time",
    "crossover_report",
]

_SQRT_PI = math.sqrt(math.pi)


def _first_rate(nu: float) -> float:
    return float(compute_zeros(nu, 1, 1e-12).zeros[0]) ** 2


def psi_short_time(nu: float, t: float) -> float:
    return 2.0 * (nu + 1.0) / _SQRT_PI / math.sqrt(t)


def phi_short_time(nu: float, t: float) -> float:
    return psi_short_time(nu, t)


def creep_short_time(nu: float, t: float) -> float:
    return 1.0 + 4.0 * (nu + 1.0) / _SQRT_PI * math.sqrt(t)


def modulus_short_time(nu: float, t: float) -> float:
    # Goes negative past t ~ pi/(16 (nu+1)^2); returned unclamped, the
    # branch label tells consumers what they are looking at.
    return 1.0 - 4.0 * (nu + 1.0) / _SQRT_PI * math.sqrt(t)


def _short_time_rate_correction(kind: str, nu: float) -> float:
    """Constant first correction c1 to the short-time law of a memory function.

    The large-argument expansion I_mu(z) ~ e^z / sqrt(2 pi z)
    (1 - (4 mu^2 - 1)/(8 z) + ...) (DLMF 10.40.1) gives, for large s,

        I_{nu+1}/I_{nu+2}(sqrt s) = 1 + (2nu+3)/(2 sqrt s) + O(1/s),
        I_{nu+1}/I_nu(sqrt s)     = 1 - (2nu+1)/(2 sqrt s) + O(1/s),

    so s times either transform is 2(nu+1) sqrt(s) + c1 + O(1/sqrt s).
    Inverting term by term, psi and phi are 2(nu+1)/sqrt(pi t) + c1 +
    O(sqrt t) as t -> 0+, with c1 = (nu+1)(2nu+3) for the creep rate and
    c1 = -(nu+1)(2nu+1) for the relaxation rate.
    """
    if kind == "creep_rate":
        return (nu + 1.0) * (2.0 * nu + 3.0)
    if kind == "relax_rate":
        return -(nu + 1.0) * (2.0 * nu + 1.0)
    raise ValueError(f"first correction is defined for creep_rate and relax_rate, got {kind!r}")


_SHORT_TIME = {
    "creep_rate": psi_short_time,
    "relax_rate": phi_short_time,
    "creep_compliance": creep_short_time,
    "relax_modulus": modulus_short_time,
}


def approximants(order, kind: str, t: float) -> tuple[float, float]:
    """Short- and long-time approximants of one curve kind at a time t > 0.

    The long-time forms are the Newtonian-plus-constant creep side and the
    single exponential at the first squared zero on the relaxation side.
    """
    nu = order_value(order)
    if kind not in _SHORT_TIME:
        raise ValueError(f"approximants: unknown curve kind {kind!r}")
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError(f"approximants require a finite t > 0, got {t}")
    short = _SHORT_TIME[kind](nu, t)
    if kind == "creep_rate":
        return short, 4.0 * (nu + 1.0) * (nu + 2.0)
    if kind == "creep_compliance":
        return short, 2.0 * (nu + 2.0) / (nu + 3.0) + 4.0 * (nu + 1.0) * (nu + 2.0) * t
    rate = _first_rate(nu)
    if kind == "relax_rate":
        return short, 4.0 * (nu + 1.0) * math.exp(-rate * t)
    return short, 4.0 * (nu + 1.0) / rate * math.exp(-rate * t)


def crossover_report(order, kind: str, t_grid, policy=None):
    """Per-point comparison of the series value against both approximants.

    Returns a list of (t, series, short, long, best_branch) rows, where
    best_branch is whichever approximant has the smaller relative error.
    """
    from . import timedomain  # deferred: timedomain imports this module

    nu = order_value(order)
    if kind not in _SHORT_TIME:
        raise ValueError(f"unknown curve kind {kind!r}")
    policy = policy if policy is not None else timedomain.DEFAULT_POLICY
    curve = timedomain.sample_curve(nu, kind, np.asarray(t_grid, dtype=float), policy)
    rows = []
    for t, series in zip(curve.times, curve.values):
        short, long_ = approximants(nu, kind, float(t))
        err_s = abs(short - series) / max(abs(series), 1e-300)
        err_l = abs(long_ - series) / max(abs(series), 1e-300)
        best = "short_time" if err_s <= err_l else "long_time"
        rows.append((float(t), float(series), short, long_, best))
    return rows

