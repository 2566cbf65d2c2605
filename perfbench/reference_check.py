"""Tests that pin the benchmark's reference to facts outside besselvisc.

Run with:  python3 -m pytest perfbench/reference_check.py
(The file name keeps it out of the package's own test collection.)
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

import reference


def test_half_order_zero_families():
    n = np.arange(1, reference.REFERENCE_ZEROS + 1)
    np.testing.assert_allclose(reference.bessel_zeros(0.5), n * math.pi, rtol=1e-14)
    np.testing.assert_allclose(reference.bessel_zeros(-0.5), (n - 0.5) * math.pi, rtol=1e-14)


@pytest.mark.parametrize("nu, n", [(0.3, 1), (0.3, 40), (2.5, 7), (7.7, 1), (7.7, 2), (11.4, 300), (22.0, 1)])
def test_mpmath_spot_values(nu, n):
    expected = float(mpmath.besseljzero(mpmath.mpf(nu), n))
    assert reference.bessel_zeros(nu)[n - 1] == pytest.approx(expected, rel=1e-14)


def test_negative_order_against_mpmath_root():
    # mpmath.besseljzero takes nu >= 0 only; polish with its own J instead.
    mpmath.mp.dps = 30
    for n, zero in enumerate(reference.bessel_zeros(-0.75)[:3], start=1):
        root = mpmath.findroot(lambda x: mpmath.besselj(mpmath.mpf(-0.75), x), zero)
        assert zero == pytest.approx(float(root), rel=1e-14), n


@pytest.mark.parametrize("nu", [-0.75, -0.5, 0.0, 0.3, 1.0, 3.5, 9.9, 22.0])
def test_rayleigh_sums(nu):
    rates = reference.bessel_zeros(nu) ** 2
    n = rates.size
    # sum over n > N of 1/j^2, with j_n ~ (n + nu/2 - 1/4) pi, is 1/(pi^2 (N + nu/2 + 1/4)) + O(N^-2)
    tail = 1.0 / (math.pi**2 * (n + 0.5 * nu + 0.25))
    assert np.sum(1.0 / rates) + tail == pytest.approx(0.25 / (nu + 1.0), abs=1e-6)
    quartic = 1.0 / (16.0 * (nu + 1.0) ** 2 * (nu + 2.0))
    tail = 1.0 / (3.0 * math.pi**4 * (n + 0.5 * nu + 0.25) ** 3)
    assert np.sum(rates**-2.0) + tail == pytest.approx(quartic, abs=2e-12)


def test_material_functions_start_at_one():
    # G(0) = J(0) = 1 by the Rayleigh sums; at t = MIN_CHECK_TIME they are
    # one minus / plus the half-order law 4(nu+1) sqrt(t/pi) to O(t).
    t = reference.MIN_CHECK_TIME
    for nu in (-0.5, 0.0, 1.0):
        law = 4.0 * (nu + 1.0) * math.sqrt(t / math.pi)
        assert reference.curve(nu, "relax_modulus", [t])[0] == pytest.approx(1.0 - law, abs=50 * t)
        assert reference.curve(nu, "creep_compliance", [t])[0] == pytest.approx(1.0 + law, abs=50 * t)


@pytest.mark.parametrize("nu, t", [(0.3, 0.2), (-0.5, 0.05), (2.0, 1.0)])
def test_series_match_laplace_inversion(nu, t):
    """The series are the inverse transforms of the paper's Bessel-I ratios."""
    mpmath.mp.dps = 30
    a = 2 * (nu + 1)

    def psi_tilde(s):
        r = mpmath.sqrt(s)
        return a / r * mpmath.besseli(nu + 1, r) / mpmath.besseli(nu + 2, r)

    def phi_tilde(s):
        r = mpmath.sqrt(s)
        return a / r * mpmath.besseli(nu + 1, r) / mpmath.besseli(nu, r)

    for kind, transform in (("creep_rate", psi_tilde), ("relax_rate", phi_tilde)):
        expected = float(mpmath.invertlaplace(transform, t, method="talbot"))
        assert reference.curve(nu, kind, [t])[0] == pytest.approx(expected, rel=1e-10)


def test_responses_superpose_steps_and_ramps():
    nu, knots = 0.5, np.array([0.0, 0.4, 1.0])
    t = np.array([0.2, 0.7, 1.3])
    # A unit step of stress gives the creep compliance.
    step = reference.response(nu, "strain", knots, np.ones(3), "piecewise_constant", t)
    np.testing.assert_allclose(step, reference.curve(nu, "creep_compliance", t), rtol=1e-14)
    # A unit ramp of strain gives the integral of G, whose derivative is G.
    h = 1e-3
    ramp = lambda s: reference.response(nu, "stress", np.array([0.0, 2.0]), np.array([0.0, 2.0]),  # noqa: E731
                                        "piecewise_linear", s)
    derivative = (8 * (ramp(t + h) - ramp(t - h)) - (ramp(t + 2 * h) - ramp(t - 2 * h))) / (12 * h)
    np.testing.assert_allclose(derivative, reference.curve(nu, "relax_modulus", t), rtol=1e-8)
    # Linearity in the load.
    a = reference.response(nu, "stress", knots, np.array([1.0, -0.5, 0.25]), "piecewise_linear", t)
    b = reference.response(nu, "stress", knots, np.array([0.0, 2.0, 1.0]), "piecewise_linear", t)
    c = reference.response(nu, "stress", knots, np.array([1.0, 5.5, 3.25]), "piecewise_linear", t)
    np.testing.assert_allclose(c, a + 3.0 * b, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("nu", [-0.95, 0.0, 9.9])
@pytest.mark.parametrize("kind", ["creep_rate", "relax_rate", "creep_compliance", "relax_modulus"])
def test_series_tolerance_covers_zero_shift(nu, kind):
    # Moving every zero by zero_tol moves each term the same way, so the
    # series moves by the zero part of the tolerance, to first order (1% is
    # the rounding of a ~1e-12 difference of sums of order 10).
    t = np.logspace(-4.0, 1.0, 11)
    dj = 1e-11
    zeros = reference.bessel_zeros(nu + 2.0 if kind.startswith("creep") else nu)
    p = 0 if kind.endswith("_rate") else 1
    terms = lambda j: np.exp(-np.outer(t, j**2)) @ j ** (-2.0 * p)  # noqa: E731
    shift = 4.0 * (nu + 1.0) * np.abs(terms(zeros + dj) - terms(zeros))
    value = reference.curve(nu, kind, t)
    bound = reference.series_tolerance(nu, kind, t, value, 0.0, dj) - 1e-12 * np.abs(value)
    np.testing.assert_allclose(shift, bound, rtol=1e-2, atol=1e-24)
