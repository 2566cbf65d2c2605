"""Laplace-domain memory functions and a fixed-contour inversion oracle.

The transformed rate-of-creep and rate-of-relaxation functions are ratios
of modified Bessel functions of contiguous order evaluated at sqrt(s).
Their poles all sit on the negative real s-axis (at minus squared Bessel
zeros), which is what makes the deformed-contour quadrature in
:func:`invert_numeric` legitimate: the contour wraps the negative axis and
every singularity stays inside it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PoleError
from .specfun import _iv_ratio_nodes, _jv_pair, bessel_i_ratio, order_value

__all__ = [
    "TalbotConfig",
    "psi_tilde",
    "phi_tilde",
    "check_reciprocity",
    "invert_numeric",
]

_POLE_EXCLUSION = 1e-6  # radius in s around each pole where we refuse to evaluate


@dataclass(frozen=True)
class TalbotConfig:
    """Fixed-Talbot quadrature parameters.

    The base abscissa of the contour follows the usual rule of thumb
    2*node_count/(5*t) per evaluation time.  ``compare_half`` re-runs the
    sum with half the nodes and warns when the two estimates disagree
    beyond ``agree_tol`` relative.
    """

    node_count: int = 48
    compare_half: bool = True
    agree_tol: float = 1e-6

    def __post_init__(self):
        if self.node_count < 16 or self.node_count % 2:
            raise ValueError(
                f"node_count must be even and >= 16, got {self.node_count}"
            )
        if not 0.0 <= self.agree_tol < math.inf:
            raise ValueError(f"agree_tol must be finite and >= 0, got {self.agree_tol}")


def _j_pair(order: float, x: float) -> tuple[float, float]:
    """J_order(x) and J_{order+1}(x) at one x > 0, from one evaluation."""
    j, j_up = _jv_pair(order, np.array([x]))
    return float(j[0]), float(j_up[0])


def _guard_pole(order_of_zeros: float, s) -> float | None:
    """Reject s within the exclusion radius of a pole -j_{order,n}^2.

    Proximity is measured without a zero table: x = sqrt(-Re s) sits near
    a zero j exactly when |J(x)/J'(x)| is small, and |s + j^2| ~ 2x|x - j|.
    Returns J_order(x) when it was evaluated, else None.
    """
    re, im = s.real, s.imag
    if re >= 0.0 or abs(im) > _POLE_EXCLUSION:
        return None
    x = math.sqrt(-re)
    if x < 1e-8:
        return None
    j, j_up = _j_pair(order_of_zeros, x)
    dj = (order_of_zeros / x) * j - j_up
    if dj == 0.0:
        return j
    dist = abs(j / dj) * 2.0 * x
    if dist < _POLE_EXCLUSION:
        raise PoleError(
            f"s={s} lies within {_POLE_EXCLUSION} of a pole of the "
            f"order-{order_of_zeros} Bessel ratio"
        )
    return j


def _real_lane(nu: float, s: float, denominator_order: float) -> float:
    """The transform at one real s != 0."""
    j_den = _guard_pole(denominator_order, s)
    if s > 0.0:
        root = math.sqrt(s)
        ratio = bessel_i_ratio(nu + 1.0, denominator_order, root)
        return 2.0 * (nu + 1.0) / root * ratio
    # Negative real axis, off the poles: sqrt(s) = i x and
    # I_mu(i x) = i^mu J_mu(x) reduce the transform to a real J ratio with
    # a sign fixed by i^(nu+1-den)/i = +1 (den = nu) or -1 (den = nu+2).
    x = math.sqrt(-s)
    if j_den is None:  # the guard skips |s| < 1e-16
        j_den = _j_pair(denominator_order, x)[0]
    ratio = _j_pair(nu + 1.0, x)[0] / j_den
    sign = 1.0 if denominator_order == nu else -1.0
    return sign * 2.0 * (nu + 1.0) / x * ratio


def _memory_transform(nu: float, s, denominator_order: float):
    """Common core: 2(nu+1)/sqrt(s) * I_{nu+1}(sqrt(s)) / I_den(sqrt(s)).

    A scalar s gives a scalar: a float on the real axis, else a complex.
    An array gives a complex array of the same shape.  Real lanes take the
    real-axis paths one by one; all other lanes share one recurrence.
    """
    lanes = np.asarray(s, dtype=complex)
    if not np.all(np.isfinite(lanes)):
        raise ValueError(f"the Laplace variable s must be finite, got {s}")
    if np.any(lanes == 0):
        raise PoleError("s = 0 is a pole of the transform")
    flat = lanes.ravel()
    out = np.empty(flat.shape, dtype=complex)
    real = flat.imag == 0.0
    for i in np.flatnonzero(real):
        out[i] = _real_lane(nu, float(flat[i].real), denominator_order)
    off = flat[~real]
    if off.size:
        for near in off[(off.real < 0.0) & (np.abs(off.imag) <= _POLE_EXCLUSION)]:
            _guard_pole(denominator_order, complex(near))
        root = np.sqrt(off)
        ratio = _iv_ratio_nodes(min(nu + 1.0, denominator_order), root)
        out[~real] = 2.0 * (nu + 1.0) / root * (ratio if denominator_order == nu else 1.0 / ratio)
    if lanes.ndim:
        return out.reshape(lanes.shape)
    return float(out[0].real) if real[0] else complex(out[0])


def psi_tilde(order, s):
    """Laplace transform of the rate-of-creep memory function.

    2(nu+1)/sqrt(s) * I_{nu+1}(sqrt(s))/I_{nu+2}(sqrt(s)); simple pole at
    s = 0 and at s = -j_{nu+2,n}^2.  Real positive s gives a real positive
    value; complex s uses the principal branch of sqrt.
    """
    nu = order_value(order)
    return _memory_transform(nu, s, nu + 2.0)


def phi_tilde(order, s):
    """Laplace transform of the rate-of-relaxation memory function.

    2(nu+1)/sqrt(s) * I_{nu+1}(sqrt(s))/I_nu(sqrt(s)); poles at
    s = -j_{nu,n}^2.  On the positive real axis the value lies in (0, 1).
    """
    nu = order_value(order)
    return _memory_transform(nu, s, nu)


def check_reciprocity(order, s: float) -> float:
    """Residual |(1 + psi_tilde)(1 - phi_tilde) - 1| at real s > 0."""
    if not 0.0 < s < math.inf:
        raise ValueError(f"check_reciprocity: s must be real, finite and > 0, got {s}")
    ps = psi_tilde(order, s)
    ph = phi_tilde(order, s)
    return abs((1.0 + ps) * (1.0 - ph) - 1.0)


def _talbot_sum(f, t: float, m: int, r: float) -> float:
    """Fixed-Talbot quadrature with m nodes and base abscissa r.

    The theta = 0 node s = r sits on the positive real axis with half
    weight.  Nodes where exp(s t) is below e^-40 exp(r t), far under the
    rounding floor, are dropped before f sees them (and before they set
    the I-ratio recurrence depth); the kept set depends on m only.
    """
    theta = np.arange(1, m) * (math.pi / m)
    cot = 1.0 / np.tan(theta)
    s = np.concatenate(([r], r * theta * (cot + 1j)))
    sigma = np.concatenate(([0.5], 1.0 + 1j * (theta * (1.0 + cot * cot) - cot)))
    keep = (s.real - r) * t >= -40.0
    s, sigma = s[keep], sigma[keep]
    return (r / m) * float(np.sum((np.exp(s * t) * f(s) * sigma).real))


def invert_numeric(f, t: float, cfg: TalbotConfig = TalbotConfig(),
                   shift: float = 0.0) -> float:
    """Numerically invert a Laplace transform at time t > 0.

    Deformed-contour (fixed Talbot) quadrature; valid when all
    singularities of f lie on the negative real axis, as they do for
    psi_tilde and phi_tilde.  ``f`` is called once per contour with a 1-d
    complex array of nodes and returns an array of their values.  With the
    default 48 nodes the accuracy for smooth targets is around 1e-8
    relative, set by the quadrature and not by the Bessel-I ratio behind
    psi_tilde and phi_tilde; a half-resolution comparison emits a warning
    when the two estimates disagree beyond cfg.agree_tol.

    ``shift`` translates the transform before inversion and undoes the
    translation afterwards (f(t) = e^{-a t} L^{-1}[F(. - a)]).  The result
    is shift-invariant in exact arithmetic; a shift near the decay rate of
    an exponentially small target keeps the quadrature's rounding floor
    below the answer instead of above it.  It must not exceed the distance
    from the origin to the transform's rightmost singularity.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"invert_numeric: t must be finite and positive, got {t}")
    if not math.isfinite(shift):
        raise ValueError(f"invert_numeric: shift must be finite, got {shift}")
    if shift != 0.0:
        g = lambda s: f(s - shift)  # noqa: E731
        damp = math.exp(-shift * t)
    else:
        g = f
        damp = 1.0
    m = cfg.node_count
    value = _talbot_sum(g, t, m, 2.0 * m / (5.0 * t))
    if cfg.compare_half:
        half = _talbot_sum(g, t, m // 2, 2.0 * (m // 2) / (5.0 * t))
        denom = max(abs(value), 1e-300)
        if abs(value - half) / denom > cfg.agree_tol:
            warnings.warn(
                f"Talbot inversion at t={t}: full/half-resolution estimates "
                f"disagree by {abs(value - half) / denom:.3e} relative",
                stacklevel=2,
            )
    return damp * value
