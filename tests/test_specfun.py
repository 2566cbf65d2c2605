import math

import numpy as np
import pytest
import scipy.special as sp

from besselvisc.specfun import (
    Order,
    _iv_ratio_nodes,
    _jv_pair,
    bessel_i_ratio,
    bessel_j,
    bessel_j_deriv,
)

# High-precision reference values (30+ digit arithmetic, frozen).
RATIO_I2_I1_AT_10 = 0.85418530832368160972
J2_AT_5 = 0.046565116277752215532


class TestOrder:
    def test_accepts_valid(self):
        assert Order(0.0).nu == 0.0
        assert Order(-0.999).nu == -0.999

    @pytest.mark.parametrize("bad", [-1.0, -2.0, float("nan"), float("inf")])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            Order(bad)


class TestBesselIRatio:
    def test_small_argument_limit(self):
        # I_{nu+1}/I_nu -> z / (2 (nu+1)) as z -> 0
        for nu in [-0.5, 0.0, 1.3]:
            z = 1e-6
            assert bessel_i_ratio(nu + 1.0, nu, z) == pytest.approx(
                z / (2.0 * (nu + 1.0)), rel=1e-10
            )

    def test_half_integer_closed_form(self):
        for z in [0.2, 1.0, 8.0, 40.0, 300.0]:
            expect = 1.0 / math.tanh(z) - 1.0 / z
            assert bessel_i_ratio(1.5, 0.5, z) == pytest.approx(expect, rel=1e-12)

    def test_frozen_value(self):
        assert bessel_i_ratio(2.0, 1.0, 10.0) == pytest.approx(
            RATIO_I2_I1_AT_10, rel=1e-12
        )

    def test_no_overflow_at_huge_argument(self):
        val = bessel_i_ratio(1.0, 0.0, 1e6)
        assert 0.0 < val < 1.0
        # leading large-z behaviour: 1 - (mu1-mu0)/(8z) = 1 - 1/(2z)
        assert val == pytest.approx(1.0 - 0.5e-6, rel=1e-10)

    def test_ratio_times_denominator(self):
        rng = np.random.default_rng(3)
        for _ in range(80):
            nu = float(rng.uniform(-0.9, 2.5))
            z = float(rng.uniform(0.05, 60.0))
            ratio = bessel_i_ratio(nu + 1.0, nu, z)
            assert ratio * float(sp.iv(nu, z)) == pytest.approx(
                float(sp.iv(nu + 1.0, z)), rel=1e-10
            )

    def test_descending_direction(self):
        for z in [0.5, 5.0, 50.0]:
            up = bessel_i_ratio(2.0, 1.0, z)
            down = bessel_i_ratio(1.0, 2.0, z)
            assert up * down == pytest.approx(1.0, rel=1e-12)

    def test_complex_argument(self):
        import mpmath

        mpmath.mp.dps = 30
        for z in [1.5 + 2.0j, 0.4 + 9.0j, 30.0 + 40.0j]:
            got = bessel_i_ratio(1.5, 0.5, z)
            ref = complex(mpmath.besseli(1.5, z) / mpmath.besseli(0.5, z))
            assert abs(got - ref) / abs(ref) < 1e-10

    def test_non_contiguous_orders_rejected(self):
        with pytest.raises(ValueError):
            bessel_i_ratio(2.0, 0.0, 1.0)

    def test_complex_series_past_gamma_overflow(self):
        # Gamma(181) overflows a double; the series prefactor is formed in logs.
        import mpmath

        mpmath.mp.dps = 30
        z = 3.0 + 4.0j
        got = bessel_i_ratio(181.0, 180.0, z)
        ref = complex(mpmath.besseli(181, z) / mpmath.besseli(180, z))
        assert abs(got - ref) / abs(ref) < 1e-12

    @pytest.mark.parametrize("z", [math.inf, math.nan, complex(math.nan, 1.0),
                                   complex(1.0, math.inf)])
    def test_non_finite_argument_rejected(self, z):
        with pytest.raises(ValueError, match="bessel_i_ratio"):
            bessel_i_ratio(2.0, 1.0, z)

    def test_nan_order_rejected(self):
        # Used to run the continued fraction on NaN and raise ConvergenceError.
        with pytest.raises(ValueError, match="order_num"):
            bessel_i_ratio(math.nan, 1.0, 1.0)


def _talbot_nodes(t: float, m: int = 48) -> np.ndarray:
    """The complex nodes of the fixed-Talbot contour that the inversion keeps."""
    r = 2.0 * m / (5.0 * t)
    theta = np.arange(1, m) * (math.pi / m)
    s = r * theta * (1.0 / np.tan(theta) + 1j)
    return s[s.real * t >= -745.0]


def _mp_ratio(lo: float, z: np.ndarray) -> np.ndarray:
    import mpmath

    mpmath.mp.dps = 40
    out = []
    for zi in z:
        w = mpmath.mpc(zi.real, zi.imag)
        out.append(complex(mpmath.besseli(lo + 1, w) / mpmath.besseli(lo, w)))
    return np.array(out)


class TestIvRatioNodes:
    ORDERS = (-0.95, 0.0, 1.0, 12.0, 20.0, 30.0, 60.0)

    @pytest.mark.parametrize("t", [1e-3, 0.01, 0.3, 1.0, 10.0])
    def test_talbot_contours_against_mpmath(self, t):
        z = np.sqrt(_talbot_nodes(t))
        for nu in self.ORDERS:
            for lo in (nu, nu + 1.0):  # phi_tilde and psi_tilde
                got = _iv_ratio_nodes(lo, z)
                ref = _mp_ratio(lo, z)
                assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13, (nu, lo)

    def test_square_root_of_imaginary_axis(self):
        z = np.sqrt(1j * np.logspace(-4, 6, 41))
        for nu in self.ORDERS:
            got = _iv_ratio_nodes(nu, z)
            ref = _mp_ratio(nu, z)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13, nu

    def test_doubling_the_depth_changes_nothing(self):
        # The start index follows the largest |z|; one extra lane at
        # |z| = 2 * depth starts every lane more than twice as deep.
        for z in (np.sqrt(_talbot_nodes(1e-3)), np.sqrt(1j * np.logspace(-4, 6, 41))):
            zmax = float(np.max(np.abs(z)))
            depth = math.ceil(zmax + 14.0 * zmax ** (1.0 / 3.0) + 30.0)
            for nu in self.ORDERS:
                base = _iv_ratio_nodes(nu, z)
                deep = _iv_ratio_nodes(nu, np.append(z, 2.0 * depth))[:-1]
                assert np.max(np.abs(deep - base) / np.abs(base)) <= 1e-15, nu

    def test_scalar_complex_path_matches_lanes(self):
        z = np.sqrt(_talbot_nodes(0.3))
        lanes = _iv_ratio_nodes(1.5, z)
        for zi, lane in zip(z, lanes):
            assert bessel_i_ratio(2.5, 1.5, complex(zi)) == pytest.approx(lane, rel=1e-15)


class TestBesselJ:
    def test_half_integer_closed_forms(self):
        for x in np.linspace(0.1, 100.0, 173):
            x = float(x)
            sin_form = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            cos_form = math.sqrt(2.0 / (math.pi * x)) * math.cos(x)
            env = math.sqrt(2.0 / (math.pi * x))
            assert abs(bessel_j(0.5, x) - sin_form) <= 1e-12 * env
            assert abs(bessel_j(-0.5, x) - cos_form) <= 1e-12 * env

    def test_frozen_value(self):
        assert bessel_j(2.0, 5.0) == pytest.approx(J2_AT_5, rel=1e-12)

    def test_against_scipy_all_branches(self):
        orders = [-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 2.7, 3.5]
        args = np.concatenate(
            [np.linspace(0.05, 8.9, 45), np.linspace(9.1, 15.9, 35),
             np.linspace(16.1, 400.0, 80)]
        )
        for nu in orders:
            for x in args:
                x = float(x)
                ref = float(sp.jv(nu, x))
                env = math.sqrt(2.0 / (math.pi * max(x, 0.3)))
                assert abs(bessel_j(nu, x) - ref) <= max(1e-12 * x, 5e-14) * env + 1e-13 * abs(ref), (nu, x)

    def test_large_order(self):
        for nu, x in [(20.0, 10.0), (20.0, 30.0), (50.0, 57.0), (50.0, 200.0)]:
            assert bessel_j(nu, x) == pytest.approx(float(sp.jv(nu, x)), rel=1e-11)


class TestArrayEvaluator:
    # (order, x range) per branch: series x <= 9, Hankel x >= max(16, 4 nu^2 + 10),
    # Miller in between.
    BRANCHES = {
        "series": [(nu, (0.05, 9.0)) for nu in (-0.95, -0.5, 0.0, 1.0, 2.7, 20.0, 60.0)],
        "miller": [(-0.95, (9.01, 15.99)), (0.0, (9.01, 15.99)), (2.7, (9.01, 39.1)),
                   (9.345, (9.01, 359.0)), (20.0, (9.01, 1609.0)), (60.0, (9.01, 2000.0))],
        "hankel": [(-0.95, (16.0, 5000.0)), (0.5, (16.0, 5000.0)), (2.7, (39.2, 5000.0)),
                   (9.345, (359.4, 8000.0)), (20.0, (1610.0, 9000.0))],
    }

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_pair_against_scipy(self, branch):
        for nu, (lo, hi) in self.BRANCHES[branch]:
            x = np.linspace(lo, hi, 301)
            j0, j1 = _jv_pair(nu, x)
            env = np.sqrt(2.0 / (np.pi * np.maximum(x, 0.3)))
            for got, order in ((j0, nu), (j1, nu + 1.0)):
                ref = sp.jv(order, x)
                tol = np.maximum(1e-12 * x, 5e-14) * env + 1e-13 * np.abs(ref)
                assert np.all(np.abs(got - ref) <= tol), (branch, nu, order)

    def test_lanes_are_independent(self):
        # Mixed branches in one call give the same values as one lane at a time.
        x = np.array([40.0, 0.3, 12.0, 9.0, 600.0, 15.5, 3.0])
        j0, j1 = _jv_pair(1.5, x)
        for i, xi in enumerate(x):
            assert j0[i] == pytest.approx(bessel_j(1.5, float(xi)), rel=1e-13, abs=1e-16)
            single = _jv_pair(1.5, x[i:i + 1])
            assert j1[i] == pytest.approx(single[1][0], rel=1e-13, abs=1e-16)

    def test_scalar_wrappers_match(self):
        for nu, x in [(0.3, 4.0), (0.3, 12.0), (0.3, 80.0), (20.0, 300.0)]:
            j0, j1 = _jv_pair(nu, np.array([x]))
            assert bessel_j(nu, x) == j0[0]
            assert bessel_j_deriv(nu, x) == (nu / x) * j0[0] - j1[0]

    @pytest.mark.parametrize("fn", [bessel_j, bessel_j_deriv])
    @pytest.mark.parametrize("order,x", [(-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                                         (0.0, 0.0), (0.0, math.nan), (0.0, math.inf)])
    def test_scalar_argument_validation(self, fn, order, x):
        with pytest.raises(ValueError):
            fn(order, x)


class TestBesselJDeriv:
    def test_order_zero_identity(self):
        for x in [0.4, 3.0, 12.0, 80.0]:
            assert bessel_j_deriv(0.0, x) == pytest.approx(-bessel_j(1.0, x), rel=1e-14)

    def test_half_integer_closed_form(self):
        x = math.pi
        # d/dx [sqrt(2/(pi x)) sin x] at x = pi
        expect = math.sqrt(2.0 / (math.pi * x)) * (math.cos(x) - math.sin(x) / (2.0 * x))
        assert bessel_j_deriv(0.5, x) == pytest.approx(expect, rel=1e-12)

    def test_finite_difference_consistency(self):
        h = 1e-6
        rng = np.random.default_rng(19)
        for _ in range(60):
            nu = float(rng.uniform(-0.9, 3.0))
            x = float(rng.uniform(0.5, 40.0))
            fd = (bessel_j(nu, x + h) - bessel_j(nu, x - h)) / (2.0 * h)
            assert abs(bessel_j_deriv(nu, x) - fd) <= 1e-6

    def test_near_extremum_point(self):
        # J'_1 at the first zero of J_1 equals J_0 there minus J_1/x = J_0.
        x = 3.831706
        assert bessel_j_deriv(1.0, x) == pytest.approx(-0.40275939257099617351, rel=1e-9)
