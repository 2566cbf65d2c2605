import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from besselvisc.errors import ExtrapolationError
from besselvisc.hereditary import INTERPOLATIONS, LoadHistory, strain_response, stress_response
from besselvisc.timedomain import SeriesPolicy, creep_compliance, phi, psi, relaxation_modulus

ORDERS = [-0.5, 0.0, 0.5, 1.0]


def unit_step(t_end=2.0, interpolation="piecewise_linear"):
    return LoadHistory(np.array([0.0, t_end]), np.array([1.0, 1.0]), interpolation)


class TestLoadHistory:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoadHistory(np.array([0.5, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            LoadHistory(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            LoadHistory(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            LoadHistory(np.array([0.0, 1.0]), np.array([1.0, 1.0]), "quadratic")

    def test_interpolation_rules(self):
        h = LoadHistory(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 1.0]))
        assert h.value_at(0.5) == pytest.approx(1.0)
        assert h.value_at(1.5) == pytest.approx(1.5)
        hc = LoadHistory(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 1.0]),
                         "piecewise_constant")
        assert hc.value_at(0.5) == 0.0
        assert hc.value_at(1.0) == 2.0
        assert hc.value_at(1.999) == 2.0

    def test_extrapolation_guard(self):
        h = unit_step(1.0)
        with pytest.raises(ExtrapolationError):
            h.value_at(1.5)


class TestStepIdentities:
    @pytest.mark.parametrize("nu", ORDERS)
    def test_step_stress_gives_compliance(self, nu):
        t_eval = np.concatenate([[0.0], np.linspace(0.04, 2.0, 50)])
        eps = strain_response(nu, unit_step(), t_eval)
        expect = np.array([creep_compliance(nu, float(t)) for t in t_eval])
        assert np.max(np.abs(eps.values - expect) / np.maximum(np.abs(expect), 1.0)) <= 1e-8

    @pytest.mark.parametrize("nu", ORDERS)
    def test_step_strain_gives_modulus(self, nu):
        t_eval = np.concatenate([[0.0], np.linspace(0.04, 2.0, 50)])
        sig = stress_response(nu, unit_step(), t_eval)
        expect = np.array([relaxation_modulus(nu, float(t)) for t in t_eval])
        assert np.max(np.abs(sig.values - expect) / np.maximum(np.abs(expect), 1.0)) <= 1e-8

    def test_piecewise_constant_step_matches_too(self):
        t_eval = np.linspace(0.0, 2.0, 21)
        eps = strain_response(1.0, unit_step(interpolation="piecewise_constant"), t_eval)
        expect = np.array([creep_compliance(1.0, float(t)) for t in t_eval])
        assert_allclose(eps.values, expect, rtol=0.0, atol=1e-10)


class TestLinearityAndCausality:
    def test_zero_input(self):
        zero = LoadHistory(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        assert np.all(strain_response(0.5, zero, np.linspace(0, 1, 9)).values == 0.0)
        assert np.all(stress_response(0.5, zero, np.linspace(0, 1, 9)).values == 0.0)

    def test_superposition(self):
        tt = np.linspace(0.0, 1.5, 31)
        h1 = LoadHistory(np.array([0.0, 0.5, 1.5]), np.array([0.0, 1.0, 0.3]))
        h2 = LoadHistory(np.array([0.0, 0.7, 1.5]), np.array([1.0, -0.4, 0.9]))
        a, b = 2.3, -1.7
        knots = np.unique(np.concatenate([h1.times, h2.times]))
        mixed = LoadHistory(
            knots,
            a * np.array([h1.value_at(float(t)) for t in knots])
            + b * np.array([h2.value_at(float(t)) for t in knots]),
        )
        for responder in (strain_response, stress_response):
            combined = responder(1.0, mixed, tt).values
            separate = a * responder(1.0, h1, tt).values + b * responder(1.0, h2, tt).values
            assert np.max(np.abs(combined - separate)) <= 1e-12 * max(
                1.0, float(np.max(np.abs(combined)))
            )

    def test_causality_bitwise(self):
        full = LoadHistory(np.array([0.0, 0.5, 1.0, 2.0]), np.array([0.2, 1.0, -0.5, 0.7]))
        trunc = LoadHistory(np.array([0.0, 0.5, 1.0]), np.array([0.2, 1.0, -0.5]))
        te = np.linspace(0.0, 1.0, 21)
        assert np.array_equal(
            strain_response(0.0, full, te).values,
            strain_response(0.0, trunc, te).values,
        )
        assert np.array_equal(
            stress_response(0.0, full, te).values,
            stress_response(0.0, trunc, te).values,
        )


class TestQuadratureOracles:
    def test_ramp_stress(self):
        # sigma(t) = t: eps(t) = t + int_0^t Psi(t-u) u du, with the
        # integrable edge at u -> t handled by the creep-compliance
        # increment over the final sliver.
        from scipy.integrate import quad

        nu, t, delta = 0.0, 1.0, 1e-5
        ramp = LoadHistory(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        got = strain_response(nu, ramp, np.array([t])).values[0]
        policy = SeriesPolicy(min_time=0.9 * delta)
        val, _ = quad(lambda u: psi(nu, t - u, policy) * u, 0.0, t - delta,
                      limit=400, epsabs=1e-12, epsrel=1e-12)
        edge = t * (creep_compliance(nu, delta) - 1.0)  # sigma ~ sigma(t) on the sliver
        assert got == pytest.approx(t + val + edge, rel=1e-6)

    def test_sinusoidal_strain(self):
        # one period of eps(t) = sin(2 pi t): direct high-resolution
        # quadrature of sigma = eps - int Phi(t-u) eps(u) du
        from scipy.integrate import quad

        nu, t, delta = 0.5, 1.0, 1e-5
        times = np.linspace(0.0, 1.0, 2001)
        hist = LoadHistory(times, np.sin(2.0 * math.pi * times))
        got = stress_response(nu, hist, np.array([t])).values[0]
        policy = SeriesPolicy(min_time=0.9 * delta)
        val, _ = quad(lambda u: phi(nu, t - u, policy) * math.sin(2.0 * math.pi * u),
                      0.0, t - delta, limit=800, epsabs=1e-12, epsrel=1e-12)
        eps_t = math.sin(2.0 * math.pi * t)
        edge = eps_t * (1.0 - relaxation_modulus(nu, delta))
        expect = eps_t - val - edge
        assert got == pytest.approx(expect, abs=5e-6)


class TestRoundTrip:
    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_step_recovery_and_convergence(self, nu):
        step = unit_step()
        errors = []
        for n_pts in (201, 401):
            grid = np.linspace(0.0, 2.0, n_pts)
            eps = strain_response(nu, step, grid)
            sig = stress_response(nu, LoadHistory(eps.times, eps.values), grid)
            window = grid >= 0.1
            errors.append(float(np.max(np.abs(sig.values[window] - 1.0))))
        assert errors[0] <= 0.02
        assert math.log2(errors[0] / errors[1]) >= 1.0


class TestEvaluationGrid:
    def test_eval_outside_history_rejected(self):
        with pytest.raises(ExtrapolationError):
            strain_response(0.0, unit_step(1.0), np.array([0.0, 1.2]))

    def test_eval_grid_need_not_hit_knots(self):
        h = LoadHistory(np.array([0.0, 0.3, 1.0]), np.array([0.0, 1.0, 1.0]))
        curve = strain_response(0.0, h, np.array([0.1, 0.45, 0.77]))
        assert curve.values.shape == (3,)
        assert np.all(np.isfinite(curve.values))
        assert curve.kind == "strain"


class TestInputErrors:
    @pytest.mark.parametrize("times,values", [
        ([0.0, math.nan], [1.0, 1.0]),
        ([0.0, math.inf], [1.0, 1.0]),
        ([0.0, 1.0], [1.0, math.nan]),
        ([0.0, 1.0], [-math.inf, 1.0]),
    ])
    def test_history_rejects_non_finite(self, times, values):
        with pytest.raises(ValueError, match="finite"):
            LoadHistory(np.array(times), np.array(values))

    @pytest.mark.parametrize("responder,name", [(strain_response, "strain_response"),
                                                (stress_response, "stress_response")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_eval_time_names_the_function(self, responder, name, bad):
        with pytest.raises(ValueError, match=name):
            responder(1.0, unit_step(), [0.0, bad])

    @pytest.mark.parametrize("interpolation", INTERPOLATIONS)
    def test_one_knot_history(self, interpolation):
        h = LoadHistory(np.array([0.0]), np.array([2.5]), interpolation)
        with np.errstate(all="raise"):
            assert h.value_at(0.0) == 2.5
            assert strain_response(1.0, h, [0.0]).values[0] == 2.5
            assert stress_response(1.0, h, [0.0]).values[0] == 2.5


# --- exact superposition of step and ramp responses ----------------------------
#
# With a = 4(nu+1), rates l_n = j_{o,n}^2 (o = nu+2 for creep, nu for
# relaxation) and the Rayleigh sums sum 1/l = 1/(4(o+1)), sum 1/l^2 =
# 1/(16(o+1)^2(o+2)):
#   J(s) = 1 + 4(nu+1)(nu+2) s + a [1/(4(o+1)) - sum e^{-l s}/l]
#   G(s) = a sum e^{-l s}/l
# and their integrals from 0 to s follow term by term.  At lags s >= 1e-3 a
# 400-zero table leaves nothing representable out of the sums.

MIN_LAG = 1e-3


def _step_and_ramp(nu, creep, lag):
    """Unit-step response and its integral (the unit-ramp response) at lags >= 0."""
    from besselvisc.zeros import compute_zeros

    o = nu + 2.0 if creep else nu
    a = 4.0 * (nu + 1.0)
    rates = compute_zeros(o, 400, 1e-11).zeros ** 2
    lag = np.asarray(lag, dtype=float)
    s = np.where(lag > 0.0, lag, 1.0)[:, None]
    decay = np.exp(-rates * s)
    e1 = (decay / rates).sum(axis=1)
    e2 = (decay / rates**2).sum(axis=1)
    r1, r2 = 0.25 / (o + 1.0), 1.0 / (16.0 * (o + 1.0) ** 2 * (o + 2.0))
    s = s[:, 0]
    if creep:
        c = 4.0 * (nu + 1.0) * (nu + 2.0)
        step = 1.0 + c * s + a * (r1 - e1)
        ramp = s + 0.5 * c * s * s + a * (r1 * s - r2 + e2)
    else:
        step = a * e1
        ramp = a * (r2 - e2)
    return np.where(lag > 0.0, step, 1.0), np.where(lag > 0.0, ramp, 0.0)


def _superposition(nu, creep, history, t):
    """Response to ``history`` at times t, each 0 or at least MIN_LAG after
    every knot before it."""
    knots, values = history.times, history.values
    out = np.zeros(t.shape)
    if history.interpolation == "piecewise_constant":
        jumps = np.diff(values, prepend=0.0)
        for tk, jump in zip(knots, jumps):
            past = t >= tk
            out[past] += jump * _step_and_ramp(nu, creep, t[past] - tk)[0]
        return out
    out += values[0] * _step_and_ramp(nu, creep, t)[0]
    slopes = np.diff(values) / np.diff(knots)
    for k, slope in enumerate(slopes):
        start = _step_and_ramp(nu, creep, np.maximum(t - knots[k], 0.0))[1]
        end = _step_and_ramp(nu, creep, np.maximum(t - knots[k + 1], 0.0))[1]
        out += slope * (start - end)
    return out


def _ramp_bound(nu, creep):
    """Error per unit change of slope from the surrogate tail mode (as in the
    benchmark's reference): a * (sum of 1/rate over the lumped modes) /
    (first lumped rate), with modes kept while exp(-rate 1e-4) > 1e-12 / a."""
    from besselvisc.zeros import compute_zeros

    o = nu + 2.0 if creep else nu
    a = 4.0 * (nu + 1.0)
    rates = compute_zeros(o, 1024, 1e-11).zeros ** 2
    kept = rates < math.log(a / 1e-12) / 1e-4
    return a * (0.25 / (o + 1.0) - float(np.sum(1.0 / rates[kept]))) / rates[np.argmin(kept)]


def _checkable(history, t):
    """Mask of times that lie 0 or at least MIN_LAG after every earlier knot."""
    lags = t[:, None] - history.times[None, :]
    return np.all((lags <= 0.0) | (lags >= MIN_LAG), axis=1)


def _history_and_grid(rng, steps, interpolation, knots=12, t_end=6.0):
    """A random history and an irregular evaluation grid whose merged grid
    has exactly ``steps`` steps; the interior knots are not on the grid."""
    inner = np.sort(rng.uniform(0.05, t_end - 0.05, knots - 2))
    history = LoadHistory(np.concatenate([[0.0], inner, [t_end]]),
                          rng.uniform(-1.0, 1.0, knots), interpolation)
    n_eval = steps + 1 - (knots - 2)
    t = np.concatenate([[0.0], np.sort(rng.uniform(0.0, t_end, n_eval - 2)), [t_end]])
    grid = np.unique(np.concatenate([history.times, t]))
    assert grid.size - 1 == steps and np.unique(t).size == t.size
    return history, t


def _variation(values):
    return abs(values[0]) + float(np.sum(np.abs(np.diff(values))))


def _allowed_gap(nu, creep, history):
    """1e-13 of the total variation, plus for piecewise-linear input the
    surrogate tail's ramp error per unit change of slope, summed over the
    slope changes (the benchmark's derived ramp bound)."""
    gap = 1e-13 * _variation(history.values)
    if history.interpolation == "piecewise_linear":
        slopes = np.diff(history.values) / np.diff(history.times)
        gap += _variation(slopes) * _ramp_bound(nu, creep)
    return gap


class TestExactSuperposition:
    @pytest.mark.parametrize("steps", [255, 256, 257, 513, 4019])
    @pytest.mark.parametrize("responder,creep", [(strain_response, True),
                                                 (stress_response, False)])
    def test_piecewise_constant(self, steps, responder, creep):
        rng = np.random.default_rng(steps)
        nu = 0.5
        history, t = _history_and_grid(rng, steps, "piecewise_constant")
        got = responder(nu, history, t).values
        ok = _checkable(history, t)
        assert ok.sum() > 0.9 * t.size
        expect = _superposition(nu, creep, history, t[ok])
        assert np.max(np.abs(got[ok] - expect)) <= _allowed_gap(nu, creep, history)

    @pytest.mark.parametrize("steps", [255, 256, 257, 513, 4019])
    @pytest.mark.parametrize("responder,creep", [(strain_response, True),
                                                 (stress_response, False)])
    def test_piecewise_linear(self, steps, responder, creep):
        rng = np.random.default_rng(steps + 1)
        nu = 0.0
        history, t = _history_and_grid(rng, steps, "piecewise_linear")
        got = responder(nu, history, t).values
        ok = _checkable(history, t)
        expect = _superposition(nu, creep, history, t[ok])
        assert np.max(np.abs(got[ok] - expect)) <= _allowed_gap(nu, creep, history)

    @pytest.mark.parametrize("interpolation", INTERPOLATIONS)
    def test_evaluation_on_knots(self, interpolation):
        history = LoadHistory(np.array([0.0, 0.5, 1.25, 2.0]),
                              np.array([0.3, -1.0, 0.8, 0.1]), interpolation)
        t = history.times.copy()
        for responder, creep in ((strain_response, True), (stress_response, False)):
            got = responder(1.0, history, t).values
            expect = _superposition(1.0, creep, history, t)
            assert np.max(np.abs(got - expect)) <= _allowed_gap(1.0, creep, history)

    @pytest.mark.parametrize("interpolation", INTERPOLATIONS)
    def test_time_zero_only(self, interpolation):
        history = LoadHistory(np.array([0.0, 1.0]), np.array([-0.7, 0.4]), interpolation)
        assert strain_response(0.0, history, [0.0]).values[0] == -0.7
        assert stress_response(0.0, history, [0.0]).values[0] == -0.7


def _loop_response(nu, creep, history, t_eval):
    """The step-by-step engine the block engine replaced: one exact update of
    every mode per merged-grid step, reading the history one point at a time."""
    from besselvisc.timedomain import DEFAULT_POLICY, _modes

    modes = _modes(nu, "creep" if creep else "relax", 1e-4, DEFAULT_POLICY)
    rates = np.concatenate([modes.rates, [modes.tail_rate]])
    amps = np.concatenate([np.full(modes.rates.shape, modes.amp), [modes.tail_amp]])
    grid = np.unique(np.concatenate([history.times, t_eval]))
    state, running, out = np.zeros_like(rates), 0.0, {}
    for i in range(grid.size):
        if i:
            h = grid[i] - grid[i - 1]
            v0 = history.value_at(grid[i - 1])
            v1 = v0 if history.interpolation == "piecewise_constant" else history.value_at(grid[i])
            x = rates * h
            em1 = np.expm1(-x)
            ramp = np.where(x < 1e-3, h * (0.5 - x / 6.0 + x * x / 24.0 - x**3 / 120.0),
                            (x + em1) / (rates**2 * h))
            state = state * np.exp(-x) - v0 * em1 / rates + (v1 - v0) * ramp
            running += 0.5 * h * (v0 + v1)
        base = history.value_at(grid[i]) + (1.0 if creep else -1.0) * float(amps @ state)
        out[grid[i]] = base + (modes.constant * running if creep else 0.0)
    return np.array([out[t] for t in t_eval])


class TestAgainstStepLoop:
    @pytest.mark.parametrize("interpolation", INTERPOLATIONS)
    @pytest.mark.parametrize("responder,creep", [(strain_response, True),
                                                 (stress_response, False)])
    def test_block_engine_matches_loop(self, interpolation, responder, creep):
        # Only the summation order differs, so the gap is a few ulps of the
        # largest state times the mode count.
        rng = np.random.default_rng(7)
        history, t = _history_and_grid(rng, 600, interpolation)
        got = responder(-0.5, history, t).values
        expect = _loop_response(-0.5, creep, history, t)
        assert np.max(np.abs(got - expect)) <= 1e-13 * _variation(history.values)
