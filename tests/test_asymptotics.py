import math

import numpy as np
import pytest

from besselvisc.asymptotics import (
    approximants,
    creep_short_time,
    crossover_report,
    modulus_short_time,
    phi_short_time,
    psi_short_time,
)
from besselvisc.timedomain import (
    SeriesPolicy,
    creep_compliance,
    phi,
    psi,
    relaxation_modulus,
)
from besselvisc.zeros import compute_zeros

ORDERS = [-0.5, 0.0, 0.5, 1.0]


def short(nu, kind, t):
    return approximants(nu, kind, t)[0]


def long(nu, kind, t):
    return approximants(nu, kind, t)[1]


class TestClosedForms:
    def test_short_time_forms_at_nu_zero(self):
        t = 0.01
        expect = 2.0 / math.sqrt(math.pi) / math.sqrt(t)
        assert short(0.0, "creep_rate", t) == pytest.approx(expect, rel=1e-14)
        assert short(0.0, "relax_rate", t) == pytest.approx(expect, rel=1e-14)

    def test_long_time_plateau_and_decay(self):
        assert long(0.0, "creep_rate", 100.0) == 8.0
        rate = float(compute_zeros(1.0, 1, 1e-12).zeros[0]) ** 2
        assert rate == pytest.approx(14.68, abs=0.005)
        assert long(1.0, "relax_rate", 2.0) == pytest.approx(
            8.0 * math.exp(-rate * 2.0), rel=1e-12
        )

    def test_long_time_creep_affine(self):
        assert long(0.0, "creep_compliance", 3.0) == pytest.approx(4.0 / 3.0 + 24.0, rel=1e-14)

    def test_material_functions_normalize_at_zero(self):
        for nu in ORDERS:
            assert short(nu, "creep_compliance", 1e-12) == pytest.approx(1.0, abs=1e-5)
            assert short(nu, "relax_modulus", 1e-12) == pytest.approx(1.0, abs=1e-5)

    def test_short_modulus_goes_negative_unclamped(self):
        nu = 1.0
        t_neg = math.pi / (16.0 * (nu + 1.0) ** 2) * 1.5
        assert short(nu, "relax_modulus", t_neg) < 0.0

    def test_short_amplitude_increases_with_order(self):
        amps = [short(nu, "creep_rate", 1.0) for nu in ORDERS]
        assert all(a < b for a, b in zip(amps, amps[1:]))

    def test_log_log_slope_is_minus_half(self):
        for nu in ORDERS:
            r = short(nu, "creep_rate", 1e-4) / short(nu, "creep_rate", 1e-2)
            assert r == pytest.approx(10.0, rel=1e-12)

    def test_branch_validation(self):
        with pytest.raises(ValueError):
            approximants(0.0, "sideways", 1.0)
        for t in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="approximants"):
                approximants(1.0, "relax_modulus", t)

    def test_pair_matches_the_short_time_laws(self):
        t = 0.02
        for kind, law in (("creep_rate", psi_short_time), ("relax_rate", phi_short_time),
                          ("creep_compliance", creep_short_time),
                          ("relax_modulus", modulus_short_time)):
            assert short(0.5, kind, t) == law(0.5, t)


class TestSeriesConsistency:
    def test_long_time_psi_creep(self):
        # constant/affine terms dominate beyond t ~ 1
        for nu in ORDERS:
            for t in [1.0, 2.0, 5.0]:
                assert abs(long(nu, "creep_rate", t) - psi(nu, t)) \
                    <= 1e-6 * psi(nu, t)
                assert abs(long(nu, "creep_compliance", t) - creep_compliance(nu, t)) \
                    <= 1e-6 * creep_compliance(nu, t)

    def test_long_time_phi_modulus(self):
        for nu in ORDERS:
            for t in [5.0, 8.0]:
                assert abs(long(nu, "relax_rate", t) - phi(nu, t)) \
                    <= 1e-6 * phi(nu, t)
                assert abs(long(nu, "relax_modulus", t) - relaxation_modulus(nu, t)) \
                    <= 1e-6 * relaxation_modulus(nu, t)

    def test_short_time_phi_at_half_order(self):
        # relax-rate gap at nu = 0.5, t = 1e-4 stays under 2% (its first
        # correction is half the creep-rate one)
        t = 1e-4
        series = phi(0.5, t)
        approx = short(0.5, "relax_rate", t)
        assert abs(approx - series) / series <= 0.02

    def test_long_modulus_at_moderate_time(self):
        t = 2.0
        series = relaxation_modulus(1.0, t)
        approx = long(1.0, "relax_modulus", t)
        assert abs(approx - series) / series <= 1e-3

    def test_short_time_scaled_limit_phi(self):
        # series * sqrt(t) approaches 2(nu+1)/sqrt(pi); at t = 1e-5 the
        # relative gap is set by the first correction: (2nu+1) sqrt(pi t)/2
        policy = SeriesPolicy(tail_tol=1e-10)
        for nu in ORDERS:
            t = 1e-5
            target = 2.0 * (nu + 1.0) / math.sqrt(math.pi)
            measured = phi(nu, t, policy) * math.sqrt(t)
            assert abs(measured - target) / target <= 0.01

    def test_short_time_scaled_limit_psi_stated_tolerance(self):
        # Stated bound: 1% at t = 1e-5.  The creep rate's constant first
        # correction (nu+1)(2nu+3) alone is a 1.40% gap at nu = 1, so it is
        # removed before the scaled series is compared with 2(nu+1)/sqrt(pi).
        policy = SeriesPolicy(tail_tol=1e-10)
        worst = 0.0
        for nu in ORDERS:
            t = 1e-5
            target = 2.0 * (nu + 1.0) / math.sqrt(math.pi)
            first_correction = (nu + 1.0) * (2.0 * nu + 3.0)
            measured = (psi(nu, t, policy) - first_correction) * math.sqrt(t)
            worst = max(worst, abs(measured - target) / target)
        assert worst <= 0.01

    def test_short_time_limit_tightens_as_t_drops(self):
        nu = 1.0
        policy = SeriesPolicy(tail_tol=1e-10)
        gaps = []
        for t in (1e-4, 1e-5, 1e-6 * 1.01):
            target = 2.0 * (nu + 1.0) / math.sqrt(math.pi)
            gaps.append(abs(psi(nu, t, policy) * math.sqrt(t) - target) / target)
        assert gaps[0] > gaps[1] > gaps[2]
        # gap shrinks like sqrt(t)
        assert gaps[0] / gaps[1] == pytest.approx(math.sqrt(10.0), rel=0.08)


class TestCrossoverReport:
    def test_single_point(self):
        rows = crossover_report(0.0, "relax_rate", [0.5])
        assert len(rows) == 1
        t, series, short_v, long_v, best = rows[0]
        assert t == 0.5
        assert series == pytest.approx(phi(0.0, 0.5), rel=1e-12)
        assert best in ("short_time", "long_time")

    def test_branch_exchange_over_grid(self):
        rows = crossover_report(1.0, "relax_rate", np.logspace(-4, 1, 30))
        bests = [r[4] for r in rows]
        assert bests[0] == "short_time"
        assert bests[-1] == "long_time"
        flip = bests.index("long_time")
        assert all(b == "long_time" for b in bests[flip:])

    def test_all_kinds_report(self):
        for kind in ("creep_rate", "relax_rate", "creep_compliance", "relax_modulus"):
            rows = crossover_report(1.0, kind, np.logspace(-3, 0.7, 8))
            assert len(rows) == 8
