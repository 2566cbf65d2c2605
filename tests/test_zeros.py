import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from besselvisc.specfun import _jv_pair, bessel_j, bessel_j_deriv
from besselvisc.zeros import ZeroTable, compute_zeros, mcmahon_zero, rayleigh_sum

# Frozen 30-digit references.
J0_ZEROS = [2.40482555769577277, 5.52007811028631065, 8.65372791291101222]
J1_ZEROS = [3.83170597020751232, 7.01558666981561875, 10.1734681350627221]
J27_ZEROS = [6.01133543170474788, 9.3627122445744254, 12.6010599781004898]
JM09_FIRST = 0.647830880750377261


class TestComputeZeros:
    def test_half_integer_zeros_are_multiples_of_pi(self):
        tab = compute_zeros(0.5, 3, 1e-12)
        assert_allclose(tab.zeros, [math.pi, 2 * math.pi, 3 * math.pi], rtol=1e-12)
        tab = compute_zeros(-0.5, 2, 1e-12)
        assert_allclose(tab.zeros, [math.pi / 2, 3 * math.pi / 2], rtol=1e-12)

    @pytest.mark.parametrize(
        "nu,expected",
        [(0.0, J0_ZEROS), (1.0, J1_ZEROS), (2.7, J27_ZEROS)],
    )
    def test_reference_zeros(self, nu, expected):
        tab = compute_zeros(nu, 3, 1e-12)
        assert_allclose(tab.zeros, expected, atol=5e-12)

    def test_first_zero_table_printed_precision(self):
        # two-decimal reference for the standard orders
        for nu, j_ref in [(-0.5, 1.57), (0.0, 2.40), (0.5, 3.14), (1.0, 3.83)]:
            j = compute_zeros(nu, 1, 1e-10).zeros[0]
            assert abs(j - j_ref) <= 0.005

    def test_small_order_first_zero(self):
        tab = compute_zeros(-0.9, 2, 1e-11)
        assert tab.zeros[0] == pytest.approx(JM09_FIRST, abs=1e-10)

    def test_near_minus_one_order(self):
        # first zero collapses toward 0 as nu -> -1
        tab = compute_zeros(-0.99, 1, 1e-10)
        assert 0.0 < tab.zeros[0] < 0.3
        assert abs(bessel_j(-0.99, float(tab.zeros[0]))) <= 1e-10 * abs(
            bessel_j_deriv(-0.99, float(tab.zeros[0]))
        )

    def test_large_order(self):
        import scipy.special as sp

        tab = compute_zeros(50.0, 4, 1e-10)
        assert_allclose(tab.zeros, sp.jn_zeros(50, 4), atol=1e-9)

    def test_residual_bound(self):
        for nu in [-0.5, 0.0, 1.0, 2.7]:
            tab = compute_zeros(nu, 60, 1e-11)
            for z in tab.zeros:
                residual = abs(bessel_j(nu, float(z)))
                assert residual <= 1e-11 * abs(bessel_j_deriv(nu, float(z)))

    def test_gap_approaches_pi(self):
        tab = compute_zeros(1.0, 60, 1e-11)
        gaps = np.diff(tab.zeros)
        dev = np.abs(gaps - math.pi)
        assert np.all(np.diff(dev[10:]) < 0.0)

    def test_interlacing(self):
        for nu in [-0.5, 0.0, 0.5, 1.0, 2.7]:
            a = compute_zeros(nu, 25, 1e-11).zeros
            b = compute_zeros(nu + 1.0, 25, 1e-11).zeros
            assert np.all(a[:-1] < b[:-1])
            assert np.all(b[:-1] < a[1:])

    def test_first_zero_monotone_in_order(self):
        firsts = [compute_zeros(nu, 1, 1e-11).zeros[0]
                  for nu in [-0.5, 0.0, 0.5, 1.0, 2.0, 5.0]]
        assert np.all(np.diff(firsts) > 0.0)

    def test_determinism_and_memoization(self):
        t1 = compute_zeros(0.3, 20, 1e-11)
        t2 = compute_zeros(0.3, 20, 1e-11)
        assert np.array_equal(t1.zeros, t2.zeros)

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_zeros(0.0, 0, 1e-11)
        with pytest.raises(ValueError):
            compute_zeros(0.0, 3, 1e-3)
        with pytest.raises(ValueError):
            compute_zeros(-1.5, 3, 1e-11)
        for count in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="compute_zeros: count"):
                compute_zeros(1.0, count)

    def test_zero_table_invariants(self):
        with pytest.raises(ValueError):
            ZeroTable(nu=0.0, zeros=np.array([2.0, 1.0]), abs_tol=1e-11)
        with pytest.raises(ValueError):
            ZeroTable(nu=0.0, zeros=np.array([-1.0, 1.0]), abs_tol=1e-11)


class TestLongTables:
    @pytest.mark.parametrize("nu,count", [(0, 2048), (1, 2048), (5, 200), (20, 200), (60, 200)])
    def test_against_scipy_integer_orders(self, nu, count):
        import scipy.special as sp

        tab = compute_zeros(nu, count, 1e-11)
        assert_allclose(tab.zeros, sp.jn_zeros(nu, count), rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("nu", [-0.95, 2.7, 9.345])
    def test_against_mpmath_fractional_orders(self, nu):
        import mpmath

        tab = compute_zeros(nu, 100, 1e-11)
        with mpmath.workdps(30):
            for n in (1, 2, 10, 100):
                z = float(tab.zeros[n - 1])
                if nu > 0.0:
                    ref = mpmath.besseljzero(nu, n)
                else:  # besseljzero takes orders >= 0 only; solve on a bracket instead
                    lo, hi = z - 0.05, z + 0.05
                    f = lambda x: mpmath.besselj(nu, x)  # noqa: E731
                    assert f(lo) * f(hi) < 0
                    ref = mpmath.findroot(f, (lo, hi), solver="anderson")
                    # Interlacing with the zeros of J_{nu+1} pins the index n.
                    upper = float(tab.zeros[n]) if n < len(tab) else math.inf
                    assert z < float(mpmath.besseljzero(nu + 1.0, n)) < upper
                assert abs(z - float(ref)) <= 1e-11, (nu, n)

    @pytest.mark.parametrize("nu,count", [(-0.999, 2048), (9.345, 2048), (60.0, 200)])
    def test_residual_and_ordering(self, nu, count):
        tab = compute_zeros(nu, count, 1e-11)
        z = tab.zeros
        assert z[0] > 0.0 and np.all(np.diff(z) > 0.0)
        j0, j1 = _jv_pair(nu, z)
        assert np.all(np.abs(j0) <= 1e-11 * np.abs((nu / z) * j0 - j1))


class TestMcMahon:
    def test_estimates_track_true_zeros(self):
        tab = compute_zeros(0.7, 40, 1e-11)
        for n in range(5, 41):
            assert mcmahon_zero(0.7, n) == pytest.approx(float(tab.zeros[n - 1]), abs=2e-4)

    @pytest.mark.parametrize("nu,n", [(1.0, math.nan), (math.nan, 3)])
    def test_nan_argument_rejected(self, nu, n):
        # Both used to return NaN.
        with pytest.raises(ValueError, match="mcmahon_zero"):
            mcmahon_zero(nu, n)


class TestRayleighSum:
    def test_half_integer_exact(self):
        # zeros of J_{1/2} are n pi, so the sum is the Basel value / pi^2
        tab = compute_zeros(0.5, 100, 1e-11)
        rs = rayleigh_sum(tab)
        assert rs.corrected == pytest.approx(1.0 / 6.0, abs=1e-12)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0])
    def test_identity_with_hundred_zeros(self, nu):
        rs = rayleigh_sum(compute_zeros(nu, 100, 1e-11))
        assert abs(rs.corrected - 0.25 / (nu + 1.0)) <= 1e-8

    def test_partial_and_tail_both_reported(self):
        rs = rayleigh_sum(compute_zeros(0.0, 100, 1e-11))
        assert rs.partial_sum < rs.corrected
        assert rs.tail_estimate > 0.0
        # the paper-style fixed-truncation value is the partial sum
        assert rs.partial_sum == pytest.approx(0.25, abs=2e-3)


class TestLargeOrders:
    """Orders where J_nu underflows to 0 at the head of the sign scan."""

    @pytest.mark.parametrize("nu", [120.0, 200.0, 500.0])
    def test_against_mpmath(self, nu):
        import mpmath
        import scipy.special as sp

        tab = compute_zeros(nu, 100, 1e-11)
        assert tab.zeros[0] > nu and np.all(np.diff(tab.zeros) > 0.0)
        scipy_zeros = sp.jn_zeros(int(nu), 100)
        for n in (1, 2, 10, 100):
            z = float(tab.zeros[n - 1])
            if nu < 500.0:
                ref = float(mpmath.besseljzero(nu, n))
            else:
                # mpmath's index search takes over a minute at this order, so
                # scipy's integer-order table fixes the index and mpmath
                # confirms the root on a bracket.
                f = lambda x: mpmath.besselj(nu, x)  # noqa: E731
                assert f(z - 1e-3) * f(z + 1e-3) < 0
                ref = float(mpmath.findroot(f, (z - 1e-3, z + 1e-3), solver="anderson"))
                assert abs(float(scipy_zeros[n - 1]) - ref) <= 1e-11 * ref
            assert abs(z - ref) <= 1e-11 * ref, (nu, n)

    def test_relaxation_modulus_at_order_120(self):
        import scipy.special as sp

        from besselvisc.timedomain import relaxation_modulus

        # G(t) = 4(nu+1) sum_n exp(-j_n^2 t) / j_n^2 over scipy's zeros.
        j = sp.jn_zeros(120, 200)
        ref = float(np.sum(4.0 * 121.0 * np.exp(-j * j * 0.01) / (j * j)))
        assert ref == pytest.approx(6.0705009e-75, rel=1e-7)
        assert relaxation_modulus(120, 0.01) == pytest.approx(ref, rel=1e-10)

    def test_no_overflow_at_order_160(self):
        from besselvisc.timedomain import creep_compliance, relaxation_modulus

        assert 0.0 < relaxation_modulus(160, 0.01) < 1e-100
        assert creep_compliance(160, 0.01) > 1.0
