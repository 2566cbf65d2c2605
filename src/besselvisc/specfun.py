"""Bessel-function evaluation for real order nu > -1.

All evaluators here are pure functions of their arguments.  J is evaluated
by one lane-parallel evaluator over arrays of x, which the scalar
``bessel_j`` and ``bessel_j_deriv`` wrap.  The modified Bessel function I
enters only through the ratio of contiguous orders: a continued fraction
at real z, and one backward recurrence over a whole array of complex z.
Neither forms an unscaled I_nu(z), so the ratio stays finite for arguments
far beyond the range where I_nu itself is representable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "Order",
    "bessel_i_ratio",
    "bessel_j",
    "bessel_j_deriv",
]


@dataclass(frozen=True)
class Order:
    """Model-class parameter nu, restricted to nu > -1."""

    nu: float

    def __post_init__(self):
        nu = float(self.nu)
        if not math.isfinite(nu) or nu <= -1.0:
            raise ValueError(f"order must be a finite real > -1, got {self.nu!r}")
        object.__setattr__(self, "nu", nu)


def order_value(order) -> float:
    """Accept an Order or a bare real and return the validated float."""
    if isinstance(order, Order):
        return order.nu
    return Order(float(order)).nu


def _iv_ratio_nodes(lo: float, z: np.ndarray) -> np.ndarray:
    """I_{lo+1}(z)/I_lo(z) over an array of nonzero complex z.

    The ratio is the minimal solution of the three-term recurrence, so the
    backward pass r <- 1/(2(lo+k)/z + r) from a start index well beyond |z|
    converges to it in every lane (Gautschi, SIAM Rev. 9, 1967).  Unlike a
    quotient of ascending series it does not cancel near the imaginary
    axis, which the Talbot contours of the Laplace module hug.
    """
    zmax = float(np.max(np.abs(z)))
    n = math.ceil(zmax + 14.0 * zmax ** (1.0 / 3.0) + 30.0)  # start index, as for Miller's J
    coef = (2.0 * (lo + np.arange(n, 0, -1, dtype=float)))[:, None] / z
    r = np.zeros(z.shape, dtype=complex)
    for row in coef:
        np.add(row, r, out=r)
        np.reciprocal(r, out=r)
    return r


def _asymptotic_tail_sum(order: float, z):
    """Large-argument series sum_k (-1)^k a_k(order)/z^k.

    Truncated at the smallest term (the series is asymptotic); for the
    orders and arguments this library uses, the smallest term is far below
    double-precision resolution.
    """
    mu = 4.0 * order * order
    term = total = prev_mag = 1.0
    for k in range(1, 60):
        term = -term * (mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        mag = abs(term)
        if mag >= prev_mag:
            break
        total += term
        if mag < 1e-17 * abs(total):
            break
        prev_mag = mag
    return total


def _iv_ratio_cf(lo: float, z: float) -> float:
    """I_{lo+1}(z)/I_{lo}(z) by modified Lentz on the recurrence fraction."""
    tiny = 1e-290
    f = tiny
    c = tiny
    d = 0.0
    for k in range(1, 20001):
        b = 2.0 * (lo + k) / z
        d = b + d
        if d == 0.0:
            d = tiny
        c = b + 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return f
    raise ConvergenceError(f"I-ratio continued fraction stalled at z={z}")


def _iv_ratio_up(lo: float, z: float) -> float:
    """I_{lo+1}(z)/I_{lo}(z) for real z > 0."""
    hi = lo + 1.0
    if z >= 35.0 and 4.0 * hi * hi + 10.0 <= z:
        # Quotient of the large-argument expansions; the common factor
        # e^z / sqrt(2 pi z) cancels exactly, so nothing can overflow.
        return _asymptotic_tail_sum(hi, z) / _asymptotic_tail_sum(lo, z)
    return _iv_ratio_cf(lo, z)


def bessel_i_ratio(order_num: float, order_den: float, z) -> "float | complex":
    """Ratio I_{order_num}(z)/I_{order_den}(z) for contiguous orders.

    Evaluated without forming either function, so the result stays finite
    for z up to at least 1e6.  Real z must be positive; complex z (used by
    the Laplace-domain module) must lie off the negative real axis.
    """
    a = float(order_num)
    b = float(order_den)
    if not all(-1.0 + 1e-15 <= v < math.inf for v in (a, b)):
        raise ValueError(f"bessel_i_ratio: order_num and order_den must be finite "
                         f"and exceed -1, got {a}, {b}")
    if abs(abs(a - b) - 1.0) > 1e-12:
        raise ValueError(f"orders must be contiguous (|diff| = 1), got {a}, {b}")
    if isinstance(z, complex) and z.imag == 0.0:
        z = z.real
    if isinstance(z, complex):
        if not cmath.isfinite(z):
            raise ValueError(f"bessel_i_ratio: z must be finite, got {z}")
        ratio = complex(_iv_ratio_nodes(min(a, b), np.array([z]))[0])
    else:
        z = float(z)
        if not 0.0 < z < math.inf:
            raise ValueError(f"bessel_i_ratio: real z must be finite and positive, got {z}")
        ratio = _iv_ratio_up(min(a, b), z)
    # I_{b-1}/I_b is the reciprocal of the ascending ratio from b-1.
    return ratio if a > b else 1.0 / ratio


# --- Bessel functions of the first kind ------------------------------------
#
# One evaluator over arrays of x serves every caller: the zero finder passes
# whole scan chunks and Newton lanes, the scalar wrappers pass one lane.  The
# branch boundaries are the same for every lane: the ascending series up to
# x = 9, the Hankel phase-amplitude form from max(16, 4 order^2 + 10), and a
# backward Miller recurrence in between.

_J_SERIES_TOL = 1e-12
_J_SERIES_TERMS = 64  # ample for x <= 9 at every order > -1
_J_HANKEL_TERMS = 39
_J_LANES = 1024  # lanes per block of the two-dimensional series and Hankel sums
_MILLER_LANES = 512  # lanes per backward pass, sorted so each block's start index fits


def _jv_series(order: float, x: np.ndarray) -> np.ndarray:
    """Ascending series, each lane stopped at its first term below the tolerance."""
    q = 0.25 * x * x
    k = np.arange(1, _J_SERIES_TERMS + 1, dtype=float)[:, None]  # one row per term
    terms = np.empty((_J_SERIES_TERMS + 1, x.size))
    terms[0] = np.exp(order * np.log(0.5 * x) - math.lgamma(order + 1.0))
    terms[1:] = -q / (k * (order + k))
    np.cumprod(terms, axis=0, out=terms)
    totals = np.cumsum(terms, axis=0)
    done = np.abs(terms[1:]) <= _J_SERIES_TOL * (np.abs(totals[1:]) + 1e-300)
    done &= k * (order + k) > q
    if not np.all(done.any(axis=0)):
        raise ConvergenceError(
            f"J_{order}: series did not converge within {_J_SERIES_TERMS} terms"
        )
    return totals[np.argmax(done, axis=0) + 1, np.arange(x.size)]


def _jv_hankel(order: float, x: np.ndarray) -> np.ndarray:
    """Phase-amplitude asymptotic form, valid for x >> order^2.

    Each lane truncates the asymptotic series before its first term that
    stops decreasing, or after its first term below 1e-17.
    """
    mu = 4.0 * order * order
    k = np.arange(1, _J_HANKEL_TERMS + 1, dtype=float)[:, None]  # one row per term
    ratio = (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k)
    # Term k scales as x^-k, so no lane keeps a term beyond the first one
    # that falls below 1e-17 at the smallest x.
    tiny = np.flatnonzero(np.abs(np.cumprod(ratio / x.min())) < 1e-17)
    rows = tiny[0] + 1 if tiny.size else _J_HANKEL_TERMS
    k = k[:rows]
    c = np.cumprod(ratio[:rows] / x, axis=0)
    mag = np.abs(c)
    keep = np.empty(c.shape, dtype=bool)
    keep[0] = True
    keep[1:] = (mag[1:] < mag[:-1]) & (mag[:-1] >= 1e-17)
    np.logical_and.accumulate(keep, axis=0, out=keep)
    c *= keep
    # Signs (-1)^floor(k/2): odd k feed q, even k feed p.
    c *= np.array((1.0, 1.0, -1.0, -1.0))[(k % 4).astype(int)]
    p = 1.0 + c[1::2].sum(axis=0)
    q = c[0::2].sum(axis=0)
    omega = x - (0.5 * order + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (np.cos(omega) * p - np.sin(omega) * q)


def _jv_miller_pair(order: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_order and J_{order+1} from one backward recurrence per lane.

    The recurrence is normalized by the Neumann-series identity

        sum_k (order + 2k) Gamma(order + k) / k! * J_{order+2k}(x) = (x/2)^order,

    which is free of the cancellation that limits the ascending series at
    intermediate arguments.  Lanes are sorted and passed in blocks that
    start at the index the block's largest x needs; a higher start only
    makes Miller's algorithm more accurate.
    """
    j0 = np.empty(x.shape)
    j1 = np.empty(x.shape)
    lanes = np.argsort(x)
    for s in range(0, x.size, _MILLER_LANES):
        block = lanes[s:s + _MILLER_LANES]
        xs = x[block]
        if xs.size == 1:
            xs = xs[0]  # a lone lane steps on a numpy scalar, far cheaper than an array
        top = float(np.max(xs))
        m = int(top + 14.0 * top ** (1.0 / 3.0) + 22.0)
        m += m % 2
        # Neumann weights over even offsets, scaled by their largest value
        # (kept as a logarithm) so that no weighted term overflows.
        kk = np.arange(2, m // 2 + 1, dtype=float)
        factors = (order + 2.0 * kk) * (order + kk - 1.0) / (kk * (order + 2.0 * kk - 2.0))
        log_w = math.lgamma(order + 1.0) + np.cumsum(
            np.log(np.concatenate(([1.0, order + 2.0], factors))))
        log_w_max = float(log_w.max())
        weights = np.exp(log_w - log_w_max)
        two_over_x = 2.0 / xs
        hi = np.zeros_like(xs)  # ~ J_{order+i+1}, unnormalized
        cur = np.full_like(xs, 1e-155)  # ~ J_{order+i}
        norm = weights[m // 2] * cur
        for i in range(m, 0, -1):
            lo = (order + i) * two_over_x * cur - hi
            hi, cur = cur, lo
            if i % 2:
                norm += weights[(i - 1) // 2] * cur
            if i % 8 == 0:
                big = np.abs(cur) > 1e200
                if big.any():
                    scale = np.where(big, 1e-200, 1.0)
                    cur *= scale
                    hi *= scale
                    norm *= scale
        factor = np.exp(order * np.log(0.5 * xs) - log_w_max) / norm
        j0[block] = cur * factor
        j1[block] = hi * factor
    return j0, j1


def _jv_pair(order: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_order(x) and J_{order+1}(x) over a 1-d array of x > 0, order > -1.

    Every lane takes the branch its x selects for J_order; the Miller pass
    yields J_{order+1} alongside, so J' = (order/x) J_order - J_{order+1}
    costs no second pass.
    """
    j0 = np.empty(x.shape)
    j1 = np.empty(x.shape)
    series = x <= 9.0
    hankel = x >= max(16.0, 4.0 * order * order + 10.0)
    miller = ~(series | hankel)
    for branch, fn in ((series, _jv_series), (hankel, _jv_hankel)):
        lanes = np.flatnonzero(branch)
        for s in range(0, lanes.size, _J_LANES):
            block = lanes[s:s + _J_LANES]
            j0[block] = fn(order, x[block])
            j1[block] = fn(order + 1.0, x[block])
    if miller.any():
        j0[miller], j1[miller] = _jv_miller_pair(order, x[miller])
    return j0, j1


def _checked_j_args(name: str, order, x) -> tuple[float, float]:
    order = float(order)
    x = float(x)
    if not -1.0 < order < math.inf:
        raise ValueError(f"{name} requires a finite order > -1, got {order}")
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} requires a finite x > 0, got {x}")
    return order, x


def bessel_j(order: float, x: float) -> float:
    """Bessel function of the first kind J_order(x) for order > -1, x > 0."""
    order, x = _checked_j_args("bessel_j", order, x)
    return float(_jv_pair(order, np.array([x]))[0][0])


def bessel_j_deriv(order: float, x: float) -> float:
    """Derivative J'_order(x) via the recurrence J' = (order/x) J - J_{order+1}."""
    order, x = _checked_j_args("bessel_j_deriv", order, x)
    j0, j1 = _jv_pair(order, np.array([x]))
    return float((order / x) * j0[0] - j1[0])
