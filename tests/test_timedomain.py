import math

import numpy as np
import pytest

from besselvisc import timedomain
from besselvisc.errors import BelowMinTimeError, InsufficientZerosError
from besselvisc.hereditary import LoadHistory, strain_response, stress_response
from besselvisc.laplace import TalbotConfig, invert_numeric, psi_tilde
from besselvisc.timedomain import (
    CURVE_KINDS,
    MaterialCurve,
    SeriesPolicy,
    creep_compliance,
    phi,
    prony_modes,
    psi,
    relaxation_modulus,
    _certified_terms,
    required_zero_count,
    sample_curve,
)
from besselvisc.zeros import compute_zeros

# Frozen 40-digit Dirichlet-series sums (thousands of exact zeros).
PSI_1_AT_005 = 25.1150587017534301
PHI_0_AT_01 = 2.43558430806336639
CREEP_1_AT_05 = 13.4999999997154688
RELAX_1_AT_02 = 0.0289184799436463576

CFG = TalbotConfig(compare_half=False)
ORDERS = [-0.5, 0.0, 0.5, 1.0]


class TestPolicy:
    def test_defaults(self):
        p = SeriesPolicy()
        assert p.tail_tol == 1e-12 and p.min_time == 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesPolicy(tail_tol=0.0)
        with pytest.raises(ValueError):
            SeriesPolicy(min_time=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="min_time"):
                SeriesPolicy(min_time=bad)


class TestMemoryFunctions:
    def test_frozen_values(self):
        assert psi(1.0, 0.05) == pytest.approx(PSI_1_AT_005, rel=1e-12)
        assert phi(0.0, 0.1) == pytest.approx(PHI_0_AT_01, rel=1e-12)

    def test_long_time_constant(self):
        assert psi(0.0, 50.0) == pytest.approx(8.0, rel=1e-14)
        assert psi(1.0, 30.0) == pytest.approx(24.0, rel=1e-14)

    def test_half_integer_reductions(self):
        t = 0.07
        # psi(-0.5): zeros of J_{1.5} (roots of tan x = x)
        tab = compute_zeros(1.5, 300, 1e-11)
        expect = 3.0 + 2.0 * float(np.sum(np.exp(-tab.rates * t)))
        assert psi(-0.5, t) == pytest.approx(expect, rel=1e-12)
        # phi(-0.5): zeros of J_{-0.5} at (n - 1/2) pi
        n = np.arange(1, 300)
        expect = 2.0 * float(np.sum(np.exp(-(((n - 0.5) * math.pi) ** 2) * t)))
        assert phi(-0.5, t) == pytest.approx(expect, rel=1e-12)

    def test_talbot_oracle_agreement(self):
        for nu in ORDERS:
            for t in [0.02, 0.3, 1.7]:
                series = psi(nu, t)
                oracle = invert_numeric(lambda s: psi_tilde(nu, s), t, CFG)
                assert oracle == pytest.approx(series, rel=1e-6)

    def test_phi_single_mode_dominance(self):
        # beyond t ~ 2 the relaxation rate is a single exponential
        for nu in ORDERS:
            rate = float(compute_zeros(nu, 1, 1e-12).zeros[0]) ** 2
            for t in [2.0, 3.5]:
                single = 4.0 * (nu + 1.0) * math.exp(-rate * t)
                assert abs(phi(nu, t) - single) / phi(nu, t) <= 1e-3

    def test_positive_and_decreasing(self):
        grid = np.logspace(-3, 1, 40)
        for nu in ORDERS:
            v_psi = [psi(nu, float(t)) for t in grid]
            v_phi = [phi(nu, float(t)) for t in grid]
            assert all(v > 0 for v in v_psi) and all(v > 0 for v in v_phi)
            assert all(a >= b for a, b in zip(v_psi, v_psi[1:]))
            assert all(a > b for a, b in zip(v_phi, v_phi[1:]))

    def test_below_min_time_raises(self):
        with pytest.raises(BelowMinTimeError):
            psi(0.0, 1e-9)
        with pytest.raises(BelowMinTimeError):
            phi(0.0, 1e-7, SeriesPolicy(min_time=1e-6))

    def test_insufficient_zeros_carries_requirement(self):
        short_table = compute_zeros(2.0, 12, 1e-11)
        with pytest.raises(InsufficientZerosError) as err:
            _certified_terms(prony_modes(0.0, "creep", short_table), 1e-3, SeriesPolicy().tail_tol)
        assert err.value.required_count > 12
        # the advertised requirement is actually sufficient
        bigger = compute_zeros(2.0, err.value.required_count, 1e-11)
        _certified_terms(prony_modes(0.0, "creep", bigger), 1e-3, SeriesPolicy().tail_tol)

    def test_truncation_scaling_estimate(self):
        # required term count grows like sqrt(log(1/tol)/t)/pi
        n1 = required_zero_count(2.0, 1e-2, 1e-12, 8.0)
        n2 = required_zero_count(2.0, 1e-4, 1e-12, 8.0)
        assert 7.0 <= n2 / n1 <= 13.0

    def test_tail_tol_controls_error(self):
        t = 0.01
        loose = psi(1.0, t, SeriesPolicy(tail_tol=1e-4))
        tight = psi(1.0, t, SeriesPolicy(tail_tol=1e-13))
        assert abs(loose - tight) <= 2e-4
        assert loose != tight


class TestMaterialFunctions:
    def test_frozen_values(self):
        assert creep_compliance(1.0, 0.5) == pytest.approx(CREEP_1_AT_05, rel=1e-12)
        assert relaxation_modulus(1.0, 0.2) == pytest.approx(RELAX_1_AT_02, rel=1e-12)

    @pytest.mark.parametrize("nu", ORDERS)
    def test_normalization_at_zero(self, nu):
        assert abs(creep_compliance(nu, 0.0) - 1.0) <= 1e-8
        assert abs(relaxation_modulus(nu, 0.0) - 1.0) <= 1e-8

    def test_half_integer_modulus_basel(self):
        # G at nu = 0.5 sums 6 exp(-(n pi)^2 t)/(n pi)^2; at t = 0 the
        # Basel sum gives exactly 1
        val = relaxation_modulus(0.5, 0.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_long_time_creep_is_affine(self):
        for t in [1.0, 4.0, 10.0]:
            assert creep_compliance(0.0, t) == pytest.approx(4.0 / 3.0 + 8.0 * t, rel=1e-12)

    def test_quadrature_oracle(self):
        # J(t) = 1 + int_0^t Psi, integrated adaptively; the substitution
        # u = x^2 flattens the inverse-square-root edge, and the first
        # 1e-6 of the integral uses the two-term short-time expansion
        # (leading power law plus the O(1) constant of the next order).
        from scipy.integrate import quad

        nu, t, delta = 1.0, 0.5, 1e-6
        policy = SeriesPolicy(min_time=0.9 * delta)
        val, _ = quad(lambda x: 2.0 * x * psi(nu, x * x, policy),
                      math.sqrt(delta), math.sqrt(t),
                      limit=300, epsabs=1e-11, epsrel=1e-11)
        edge = (4.0 * (nu + 1.0) / math.sqrt(math.pi)) * math.sqrt(delta) \
            + (nu + 1.0) * (2.0 * nu + 3.0) * delta
        assert creep_compliance(nu, t) == pytest.approx(1.0 + val + edge, rel=3e-6)
        # G(t) = 1 - int_0^t Phi
        valg, _ = quad(lambda x: 2.0 * x * phi(nu, x * x, policy),
                       math.sqrt(delta), math.sqrt(0.2),
                       limit=300, epsabs=1e-11, epsrel=1e-11)
        edge_g = (4.0 * (nu + 1.0) / math.sqrt(math.pi)) * math.sqrt(delta) \
            - (nu + 1.0) * (2.0 * nu + 1.0) * delta
        assert relaxation_modulus(nu, 0.2) == pytest.approx(1.0 - valg - edge_g, rel=1e-4)

    def test_quadrature_oracle_interior(self):
        # away from the edge: J(t2) - J(t1) = int_{t1}^{t2} Psi exactly
        from scipy.integrate import quad

        for nu in (0.0, 1.0):
            val, _ = quad(lambda u: psi(nu, u), 0.05, 0.5, limit=200,
                          epsabs=1e-12, epsrel=1e-12)
            diff = creep_compliance(nu, 0.5) - creep_compliance(nu, 0.05)
            assert diff == pytest.approx(val, rel=1e-9)

    def test_derivative_consistency(self):
        for nu in ORDERS:
            for t in [0.1, 0.7, 2.0, 5.0]:
                h = 1e-6 * max(t, 1.0)
                fd_j = (creep_compliance(nu, t + h) - creep_compliance(nu, t - h)) / (2 * h)
                assert fd_j == pytest.approx(psi(nu, t), rel=1e-6)
                fd_g = (relaxation_modulus(nu, t + h) - relaxation_modulus(nu, t - h)) / (2 * h)
                assert fd_g == pytest.approx(-phi(nu, t), rel=1e-6)

    def test_monotone(self):
        grid = np.linspace(0.0, 3.0, 50)
        for nu in ORDERS:
            j_vals = [creep_compliance(nu, float(t)) for t in grid]
            g_vals = [relaxation_modulus(nu, float(t)) for t in grid]
            assert all(a < b for a, b in zip(j_vals, j_vals[1:]))
            assert all(a > b for a, b in zip(g_vals, g_vals[1:]))

    def test_modulus_vanishes_at_infinity(self):
        assert relaxation_modulus(0.0, 40.0) <= 1e-90

    def test_tail_bound_reported(self):
        val, bound = creep_compliance(0.0, 0.0, return_tail_bound=True)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert bound > 0.0
        val5, bound5 = creep_compliance(0.0, 5.0, return_tail_bound=True)
        assert bound5 == 0.0 or bound5 < 1e-300


class TestTableSizing:
    @pytest.mark.parametrize("fn", [creep_compliance, relaxation_modulus])
    def test_high_order_normalization_at_zero(self, fn):
        # t = 0 alone gets the minimum table; its tail correction is exact.
        assert abs(fn(60.0, 0.0) - 1.0) <= 1e-12

    @pytest.mark.parametrize("nu", [-0.9, 0.0, 1.0, 7.3])
    @pytest.mark.parametrize("kind", ["creep_compliance", "relax_modulus"])
    def test_zero_in_grid_leaves_positive_times_unchanged(self, nu, kind):
        grid = np.logspace(-3, 1, 25)
        with_zero = sample_curve(nu, kind, np.concatenate([[0.0], grid]))
        without = sample_curve(nu, kind, grid)
        assert abs(with_zero.values[0] - 1.0) <= 1e-12
        assert np.all(np.abs(with_zero.values[1:] - without.values) <= SeriesPolicy().tail_tol)


class TestNonFiniteInput:
    @pytest.mark.parametrize("fn", [psi, phi, creep_compliance, relaxation_modulus])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_evaluators_reject_non_finite_time(self, fn, t):
        with pytest.raises(ValueError, match="t must be finite"):
            fn(1.0, t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["creep_rate", "relax_modulus"])
    def test_sample_curve_rejects_non_finite_grid(self, kind, bad):
        with pytest.raises(ValueError, match="t_grid"):
            sample_curve(1.0, kind, [0.1, bad])

    def test_required_zero_count_rejects_nan(self):
        with pytest.raises(ValueError):
            required_zero_count(2.0, math.nan, 1e-12, 8.0)


class TestPronyModes:
    def test_step_weights_close_to_normalization(self):
        table = compute_zeros(2.0, 120, 1e-11)
        modes = prony_modes(0.0, "creep", table)
        total = modes.amp * float(np.sum(1.0 / modes.rates)) + modes.tail_weight
        # sum over all modes of amp/rate = 4(nu+1)/(4(nu+3)) = (nu+1)/(nu+3)
        assert total == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_wrong_table_order_rejected(self):
        table = compute_zeros(1.0, 10, 1e-11)
        with pytest.raises(ValueError):
            prony_modes(1.0, "creep", table)  # needs nu+2 = 3


class TestSampleCurve:
    def test_single_point_grid(self):
        c = sample_curve(0.0, "creep_rate", np.array([0.5]))
        assert c.values[0] == pytest.approx(psi(0.0, 0.5), rel=1e-14)
        assert c.provenance == ("series",)

    def test_mixed_provencance_below_min_time(self):
        policy = SeriesPolicy(min_time=3e-4)
        grid = np.logspace(-6, 0, 7)
        c = sample_curve(0.5, "relax_rate", grid, policy)
        assert set(c.provenance[:3]) == {"asymptotic_short"}
        assert set(c.provenance[3:]) == {"series"}

    def test_monotone_curves(self):
        # psi is flat at long times, so each step may go the wrong way by
        # rounding: 1e-9 of the curve's scale.
        for kind in ("creep_rate", "relax_rate", "creep_compliance", "relax_modulus"):
            grid = np.logspace(-3, 1, 30)
            c = sample_curve(0.0, kind, grid)
            slack = 1e-9 * max(float(np.max(np.abs(c.values))), 1.0)
            sign = 1.0 if kind == "creep_compliance" else -1.0
            assert np.all(sign * np.diff(c.values) >= -slack)

    def test_modes_built_once_per_curve(self, monkeypatch):
        built = []
        real = timedomain.prony_modes

        def counting(*args):
            built.append(args[1])
            return real(*args)

        monkeypatch.setattr(timedomain, "prony_modes", counting)
        for kind in CURVE_KINDS:
            sample_curve(0.5, kind, np.logspace(-7, 1, 40))
        assert built == ["creep", "relax", "creep", "relax"]

    @pytest.mark.parametrize("call", [
        lambda: sample_curve(1.0, "relax_modulus", np.concatenate([[0.0], np.logspace(-3, 1, 50)])),
        lambda: sample_curve(1.0, "creep_rate", np.logspace(-7, 1, 50)),
        lambda: strain_response(1.0, LoadHistory([0.0, 2.0], [1.0, 1.0]), np.linspace(0, 2, 41)),
        lambda: stress_response(1.0, LoadHistory([0.0, 2.0], [0.0, 1.0]), np.linspace(0, 2, 41)),
    ], ids=["relax_modulus", "creep_rate", "strain", "stress"])
    def test_one_zero_table_per_call(self, monkeypatch, call):
        # Each call sizes one table, inside its own span of the call tree.
        tables = []
        real = timedomain.compute_zeros

        def counting(*args):
            tables.append(args)
            return real(*args)

        monkeypatch.setattr(timedomain, "compute_zeros", counting)
        call()
        assert len(tables) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_curve(0.0, "nope", np.array([0.1]))
        with pytest.raises(ValueError):
            sample_curve(0.0, "creep_rate", np.array([0.2, 0.1]))
        with pytest.raises(ValueError):
            sample_curve(0.0, "creep_rate", np.array([0.0, 0.1]))

    def test_curve_type_validation(self):
        with pytest.raises(ValueError):
            MaterialCurve(0.0, "creep_rate", np.array([1.0, 2.0]),
                          np.array([1.0]), ("series",))
