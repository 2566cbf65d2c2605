import cmath
import math

import numpy as np
import pytest

from besselvisc import laplace
from besselvisc.errors import PoleError
from besselvisc.laplace import (
    TalbotConfig,
    check_reciprocity,
    invert_numeric,
    phi_tilde,
    psi_tilde,
)
from besselvisc.timedomain import psi
from besselvisc.zeros import compute_zeros

# Frozen 30-digit quotients of extended-precision Bessel series.
PSI_TILDE_1_AT_4 = 6.4769068318000997008
PHI_TILDE_0_AT_1 = 0.8927799317930690141

CFG = TalbotConfig(compare_half=False)


class TestTransforms:
    def test_frozen_values(self):
        assert psi_tilde(1.0, 4.0) == pytest.approx(PSI_TILDE_1_AT_4, rel=1e-12)
        assert phi_tilde(0.0, 1.0) == pytest.approx(PHI_TILDE_0_AT_1, rel=1e-12)

    def test_half_integer_closed_forms(self):
        for s in [0.01, 1.0, 7.3, 500.0]:
            z = math.sqrt(s)
            assert phi_tilde(-0.5, s) == pytest.approx(math.tanh(z) / z, rel=1e-12)
        # nu = -0.5 creep transform: I_{0.5}/I_{1.5} = 1/(coth z - 1/z)
        for s in [0.3, 2.0, 40.0]:
            z = math.sqrt(s)
            expect = (1.0 / z) / (1.0 / math.tanh(z) - 1.0 / z)
            assert psi_tilde(-0.5, s) == pytest.approx(expect, rel=1e-12)

    def test_pole_residue_limit(self):
        for nu in [-0.5, 0.0, 0.5, 1.0]:
            s = 1e-10
            assert s * psi_tilde(nu, s) == pytest.approx(
                4.0 * (nu + 1.0) * (nu + 2.0), rel=1e-8
            )

    def test_large_s_decay(self):
        # leading term 2(nu+1)/sqrt(s); first correction is O(1/sqrt(s))
        for nu in [-0.5, 0.0, 1.0]:
            for s in [1e4, 1e8, 1e12]:
                expect = 2.0 * (nu + 1.0) / math.sqrt(s)
                assert phi_tilde(nu, s) == pytest.approx(expect, rel=3.0 / math.sqrt(s))

    def test_large_s_first_correction(self):
        # s * transform - 2(nu+1) sqrt(s) -> c1, which inverts to the constant
        # first correction of the short-time law: +(nu+1)(2nu+3) for the
        # creep rate, -(nu+1)(2nu+1) for the relaxation rate.  The remainder
        # is about (nu+1)(2nu+3)(2nu+5)/(4 sqrt(s)) for psi_tilde and smaller
        # for phi_tilde; twice that is allowed.
        for nu in [-0.5, 0.0, 0.5, 1.0]:
            for s in [1e6, 1e8, 1e10]:
                lead = 2.0 * (nu + 1.0) * math.sqrt(s)
                bound = (nu + 1.0) * (2.0 * nu + 3.0) * (2.0 * nu + 5.0) / (2.0 * math.sqrt(s))
                assert s * psi_tilde(nu, s) - lead == pytest.approx(
                    (nu + 1.0) * (2.0 * nu + 3.0), abs=bound
                )
                assert s * phi_tilde(nu, s) - lead == pytest.approx(
                    -(nu + 1.0) * (2.0 * nu + 1.0), abs=bound
                )

    def test_positive_and_bounded_on_real_axis(self):
        for nu in [-0.5, 0.0, 0.5, 1.0]:
            values_psi = [psi_tilde(nu, float(s)) for s in np.logspace(-3, 6, 40)]
            values_phi = [phi_tilde(nu, float(s)) for s in np.logspace(-3, 6, 40)]
            assert all(v > 0.0 for v in values_psi)
            assert all(0.0 < v < 1.0 for v in values_phi)
            # monotone decreasing in s, mirroring complete monotonicity in t
            assert all(a > b for a, b in zip(values_psi, values_psi[1:]))
            assert all(a > b for a, b in zip(values_phi, values_phi[1:]))

    def test_complex_evaluation_matches_mpmath(self):
        import mpmath

        mpmath.mp.dps = 30
        for s in [2.0 + 3.0j, -4.0 + 0.5j, 100.0 + 250.0j]:
            root = cmath.sqrt(s)
            ref = complex(
                2.0 * 2.0 / mpmath.mpc(root)
                * mpmath.besseli(2, root) / mpmath.besseli(3, root)
            )
            got = psi_tilde(1.0, s)
            assert abs(got - ref) / abs(ref) < 1e-11

    def test_real_value_on_negative_axis_between_poles(self):
        # psi_tilde continues to a real value between adjacent poles
        val = psi_tilde(0.0, -1.0)
        assert isinstance(val, float)
        assert math.isfinite(val)

    def test_pole_guard(self):
        rate = float(compute_zeros(0.0, 1, 1e-12).zeros[0]) ** 2
        with pytest.raises(PoleError):
            phi_tilde(0.0, -rate)
        rate2 = float(compute_zeros(2.0, 1, 1e-12).zeros[0]) ** 2
        with pytest.raises(PoleError):
            psi_tilde(0.0, -rate2)
        with pytest.raises(PoleError):
            psi_tilde(0.0, 0.0)


class TestReciprocity:
    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0])
    def test_residual_on_log_grid(self, nu):
        for s in np.logspace(-3, 6, 25):
            assert check_reciprocity(nu, float(s)) <= 1e-10

    def test_half_integer_algebra(self):
        assert check_reciprocity(0.5, 10.0) <= 1e-12

    def test_random_orders(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            nu = float(rng.uniform(-0.95, 3.0))
            s = float(10.0 ** rng.uniform(-3, 6))
            assert check_reciprocity(nu, s) <= 1e-10


class TestInvertNumeric:
    def test_step(self):
        for t in [0.05, 0.8, 3.0]:
            assert invert_numeric(lambda s: 1.0 / s, t, CFG) == pytest.approx(1.0, rel=1e-7)

    def test_exponential(self):
        assert invert_numeric(lambda s: 1.0 / (s + 1.0), 1.0, CFG) == pytest.approx(
            math.exp(-1.0), rel=1e-7
        )

    def test_ramp(self):
        assert invert_numeric(lambda s: 1.0 / s**2, 2.5, CFG) == pytest.approx(2.5, rel=1e-7)

    def test_shift_invariance(self):
        base = invert_numeric(lambda s: 1.0 / (s + 1.0), 3.0, CFG)
        shifted = invert_numeric(lambda s: 1.0 / (s + 1.0), 3.0, CFG, shift=1.0)
        assert shifted == pytest.approx(math.exp(-3.0), rel=1e-7)
        assert base == pytest.approx(shifted, rel=1e-4)

    def test_cross_module_oracle(self):
        t = 0.1
        series = psi(1.0, t)
        oracle = invert_numeric(lambda s: psi_tilde(1.0, s), t, CFG)
        assert oracle == pytest.approx(series, rel=1e-6)

    def test_degraded_accuracy_warns(self):
        cfg = TalbotConfig(compare_half=True, agree_tol=1e-12)
        with pytest.warns(UserWarning):
            invert_numeric(lambda s: 1.0 / (s + 1.0), 1.0, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TalbotConfig(node_count=15)
        with pytest.raises(ValueError):
            TalbotConfig(node_count=14)
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="invert_numeric: t"):
                invert_numeric(lambda s: 1.0 / s, t, CFG)

    def test_nan_agree_tol_rejected(self):
        with pytest.raises(ValueError, match="agree_tol"):
            TalbotConfig(agree_tol=math.nan)

    def test_nan_shift_rejected(self):
        # Used to return NaN silently.
        with pytest.raises(ValueError, match="invert_numeric: shift"):
            invert_numeric(lambda s: 1.0 / s, 1.0, CFG, shift=math.nan)

    @pytest.mark.parametrize("compare_half,calls", [(False, 1), (True, 2)])
    def test_one_array_call_per_contour(self, compare_half, calls):
        seen = []

        def f(s):
            seen.append(s)
            return 1.0 / s

        cfg = TalbotConfig(compare_half=compare_half)
        assert invert_numeric(f, 0.8, cfg) == pytest.approx(1.0, rel=1e-7)
        assert len(seen) == calls
        for s, m in zip(seen, (48, 24)):
            assert s.ndim == 1 and s.dtype == complex and s.size <= m  # far nodes dropped
            assert s[0] == 2.0 * m / (5.0 * 0.8)


def _talbot_sum_underflow_cut(f, t, m, r):
    """The contour sum with the former cut, which kept every node where
    exp(s t) does not underflow (Re(s) t >= -745)."""
    theta = np.arange(1, m) * (math.pi / m)
    cot = 1.0 / np.tan(theta)
    s = np.concatenate(([r], r * theta * (cot + 1j)))
    sigma = np.concatenate(([0.5], 1.0 + 1j * (theta * (1.0 + cot * cot) - cot)))
    keep = s.real * t >= -745.0
    return (r / m) * float(np.sum((np.exp(s[keep] * t) * f(s[keep]) * sigma[keep]).real))


class TestContourCut:
    @pytest.mark.parametrize("t", [1e-3, 0.01])
    @pytest.mark.parametrize("nu", [-0.75, 0.5, 3.5, 12.0])
    def test_far_nodes_do_not_move_the_sum(self, nu, t):
        # Nodes more than e^40 below the theta = 0 node weigh far under the
        # quadrature's rounding floor; dropping them leaves the value alone.
        r = 2.0 * 48 / (5.0 * t)
        for transform in (psi_tilde, phi_tilde):
            f = lambda s: transform(nu, s)  # noqa: E731
            got = laplace._talbot_sum(f, t, 48, r)
            old = _talbot_sum_underflow_cut(f, t, 48, r)
            assert abs(got - old) <= 1e-15 * abs(old)

    def test_kept_nodes_depend_on_the_node_count_only(self):
        sizes = []
        for t in (1e-3, 0.3, 5.0):
            seen = []
            laplace._talbot_sum(lambda s: seen.append(s) or 1.0 / s, t, 48, 2.0 * 48 / (5.0 * t))
            sizes.append(seen[0].size)
        assert sizes == [32, 32, 32]


class TestArrayTransforms:
    @pytest.mark.parametrize("transform", [psi_tilde, phi_tilde])
    def test_array_matches_scalars(self, transform):
        # Real lanes keep their scalar paths bit for bit; the other lanes
        # share one recurrence whose start depends on the whole array.
        s = np.array([4.0, -1.0, 2.0 + 3.0j, -4.0 + 0.5j, 100.0 + 250.0j, 1e4 - 1e3j])
        got = transform(1.3, s)
        assert got.shape == s.shape and got.dtype == complex
        for lane, si in zip(got, s):
            scalar = transform(1.3, si.real if si.imag == 0.0 else complex(si))
            if si.imag == 0.0:
                assert isinstance(scalar, float) and lane == scalar
            else:
                assert isinstance(scalar, complex)
                assert lane == pytest.approx(scalar, rel=1e-14)

    def test_shifted_contour_keeps_the_real_lane_on_the_j_ratio(self):
        nu = 12.0
        shift = float(compute_zeros(nu, 1, 1e-12).zeros[0]) ** 2
        s = np.array([30.0 - shift, 30.0 - shift + 5.0j])
        got = phi_tilde(nu, s)
        assert got[0] == phi_tilde(nu, 30.0 - shift)
        assert got[1] == pytest.approx(phi_tilde(nu, complex(s[1])), rel=1e-14)

    def test_array_pole_and_finiteness_checks(self):
        with pytest.raises(PoleError):
            psi_tilde(0.0, np.array([1.0 + 1.0j, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            phi_tilde(0.0, np.array([1.0 + 1.0j, complex(math.nan, 1.0)]))


class TestNegativeAxisAndInput:
    @pytest.mark.parametrize("transform,den_shift", [(phi_tilde, 0.0), (psi_tilde, 2.0)])
    def test_negative_axis_needs_two_j_pairs(self, monkeypatch, transform, den_shift):
        import scipy.special as sp

        import besselvisc.laplace as laplace

        calls = []
        real_pair = laplace._jv_pair

        def counting(order, x):
            calls.append(order)
            return real_pair(order, x)

        monkeypatch.setattr(laplace, "_jv_pair", counting)
        nu, x = 1.3, 2.0
        got = transform(nu, -x * x)
        assert len(calls) == 2
        sign = 1.0 if den_shift == 0.0 else -1.0
        ref = sign * 2.0 * (nu + 1.0) / x * sp.jv(nu + 1.0, x) / sp.jv(nu + den_shift, x)
        assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_reciprocity_rejects_non_finite_s(self, s):
        with pytest.raises(ValueError, match="check_reciprocity"):
            check_reciprocity(1.0, s)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 1.0)])
    def test_non_finite_s_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            phi_tilde(1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            psi_tilde(1.0, bad)
