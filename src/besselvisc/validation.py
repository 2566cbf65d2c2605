"""Machine-checkable validation suite over the library's core guarantees.

Each check returns records with a name, tolerance, measured value and
pass flag; the CLI serializes them as JSON and the test suite asserts on
them.  Tolerances are fixed here, not configurable: they are the
contract.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import asymptotics, timedomain
from .hereditary import LoadHistory, strain_response, stress_response
from .laplace import TalbotConfig, check_reciprocity, invert_numeric, phi_tilde, psi_tilde
from .timedomain import (
    SeriesPolicy,
    creep_compliance,
    phi,
    psi,
    relaxation_modulus,
)
from .zeros import compute_zeros, rayleigh_sum

__all__ = ["CheckResult", "run_all_checks", "ALL_CHECKS", "STANDARD_ORDERS"]

STANDARD_ORDERS = (-0.5, 0.0, 0.5, 1.0)

# Reference first zeros of J_nu and their squares for the standard orders,
# at two-decimal precision.
FIRST_ZERO_REFERENCE = {
    -0.5: (1.57, 2.47),
    0.0: (2.40, 5.78),
    0.5: (3.14, 9.87),
    1.0: (3.83, 14.68),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    measured: float
    passed: bool

    def as_dict(self):
        return asdict(self)


def _record(name: str, tolerance: float, measured: float,
            passed: bool | None = None) -> CheckResult:
    if passed is None:
        passed = bool(measured <= tolerance)
    return CheckResult(name=name, tolerance=float(tolerance),
                       measured=float(measured), passed=bool(passed))


def check_first_zeros() -> list[CheckResult]:
    """First zeros and squares match the two-decimal reference, quickly."""
    out = []
    start = time.perf_counter()
    for nu, (j_ref, jsq_ref) in FIRST_ZERO_REFERENCE.items():
        j = float(compute_zeros(nu, 1, 1e-10).zeros[0])
        out.append(_record(f"first_zero[nu={nu}]", 0.005, abs(j - j_ref)))
        out.append(_record(f"first_zero_squared[nu={nu}]", 0.005, abs(j * j - jsq_ref)))
    elapsed = time.perf_counter() - start
    out.append(_record("first_zero_runtime_seconds", 1.0, elapsed))
    return out


def check_rayleigh_identity() -> list[CheckResult]:
    """Tail-corrected sum of 1/j^2 over 100 zeros matches 1/(4(nu+1))."""
    out = []
    for nu in STANDARD_ORDERS:
        rs = rayleigh_sum(compute_zeros(nu, 100, 1e-11))
        target = 0.25 / (nu + 1.0)
        out.append(_record(f"rayleigh_sum[nu={nu}]", 1e-8, abs(rs.corrected - target)))
    return out


def check_normalization() -> list[CheckResult]:
    """Tail-corrected material functions equal 1 at t = 0."""
    out = []
    for nu in STANDARD_ORDERS:
        out.append(_record(f"creep_compliance_at_zero[nu={nu}]", 1e-8,
                           abs(creep_compliance(nu, 0.0) - 1.0)))
        out.append(_record(f"relaxation_modulus_at_zero[nu={nu}]", 1e-8,
                           abs(relaxation_modulus(nu, 0.0) - 1.0)))
    return out


def check_reciprocity_grid() -> list[CheckResult]:
    """|(1 + psi_tilde)(1 - phi_tilde) - 1| on a 25-point log grid of s."""
    out = []
    s_grid = np.logspace(-3.0, 6.0, 25)
    for nu in STANDARD_ORDERS:
        worst = max(check_reciprocity(nu, float(s)) for s in s_grid)
        out.append(_record(f"reciprocity[nu={nu}]", 1e-10, worst))
    return out


def check_oracle_equivalence() -> list[CheckResult]:
    """Dirichlet series vs Talbot inversion on 20 log times in [0.01, 5].

    The relaxation transform is inverted with an exponential shift at its
    first decay rate; any shift is exact in exact arithmetic, it only
    keeps the quadrature's rounding floor below the exponentially small
    answer.
    """
    out = []
    cfg = TalbotConfig(compare_half=False)
    t_grid = np.logspace(math.log10(0.01), math.log10(5.0), 20)
    start = time.perf_counter()
    for nu in STANDARD_ORDERS:
        shift = float(compute_zeros(nu, 1, 1e-12).zeros[0]) ** 2
        worst = 0.0
        for t in t_grid:
            t = float(t)
            series_psi = psi(nu, t)
            oracle_psi = invert_numeric(lambda s: psi_tilde(nu, s), t, cfg)
            series_phi = phi(nu, t)
            oracle_phi = invert_numeric(lambda s: phi_tilde(nu, s), t, cfg,
                                        shift=shift)
            worst = max(
                worst,
                abs(series_psi - oracle_psi) / abs(series_psi),
                abs(series_phi - oracle_phi) / abs(series_phi),
            )
        out.append(_record(f"oracle_equivalence[nu={nu}]", 1e-6, worst))
    out.append(_record("oracle_equivalence_runtime_seconds", 30.0,
                       time.perf_counter() - start))
    return out


def check_asymptotic_match() -> list[CheckResult]:
    """Short/long approximants against the series for nu = 1.

    The short-time rate laws are compared together with their constant
    first correction: at t = 1e-4 that correction alone is 4.3% (creep
    rate) and 2.7% (relaxation rate) of the series, more than the 2%
    tolerance, while the remainder after it is below 0.1%.
    """
    nu = 1.0
    out = []
    policy = SeriesPolicy()
    t_short = 1e-4
    series = {
        "creep_rate": psi(nu, t_short, policy),
        "relax_rate": phi(nu, t_short, policy),
        "creep_compliance": creep_compliance(nu, t_short, policy),
        "relax_modulus": relaxation_modulus(nu, t_short, policy),
    }
    for kind in series:
        approx = asymptotics.approximants(nu, kind, t_short)[0]
        if kind in ("creep_rate", "relax_rate"):
            approx += asymptotics._short_time_rate_correction(kind, nu)
        rel = abs(approx - series[kind]) / abs(series[kind])
        out.append(_record(f"short_time_match[{kind}]", 0.02, rel))
    for kind, series_fn, t_min in (
        ("creep_rate", psi, 1.0),
        ("creep_compliance", creep_compliance, 1.0),
        ("relax_rate", phi, 5.0),
        ("relax_modulus", relaxation_modulus, 5.0),
    ):
        worst = 0.0
        for t in (t_min, 1.6 * t_min, 2.5 * t_min):
            s = series_fn(nu, float(t), policy)
            a = asymptotics.approximants(nu, kind, float(t))[1]
            worst = max(worst, abs(a - s) / abs(s))
        out.append(_record(f"long_time_match[{kind}]", 1e-6, worst))
    return out


def check_step_identities() -> list[CheckResult]:
    """Unit-step responses reproduce the material functions pointwise."""
    out = []
    t_eval = np.concatenate([[0.0], np.linspace(0.05, 2.0, 40)])
    step = LoadHistory(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    for nu in STANDARD_ORDERS:
        eps = strain_response(nu, step, t_eval)
        ref_j = np.array([creep_compliance(nu, float(t)) for t in t_eval])
        err_j = float(np.max(np.abs(eps.values - ref_j) / np.maximum(np.abs(ref_j), 1.0)))
        sig = stress_response(nu, step, t_eval)
        ref_g = np.array([relaxation_modulus(nu, float(t)) for t in t_eval])
        err_g = float(np.max(np.abs(sig.values - ref_g) / np.maximum(np.abs(ref_g), 1.0)))
        out.append(_record(f"step_strain_is_compliance[nu={nu}]", 1e-8, err_j))
        out.append(_record(f"step_stress_is_modulus[nu={nu}]", 1e-8, err_g))
    return out


def check_cm_alternation() -> list[CheckResult]:
    """Forward differences of orders 1-4 of the relaxation rate alternate."""
    out = []
    policy = SeriesPolicy(tail_tol=1e-13)
    grid = np.linspace(0.05, 5.0, 200)
    for nu in STANDARD_ORDERS:
        values = timedomain.sample_curve(nu, "relax_rate", grid, policy).values
        ok = True
        d = values.copy()
        for k in range(1, 5):
            d = np.diff(d)
            expected_sign = -1.0 if k % 2 else 1.0
            if np.any(expected_sign * d <= 0.0):
                ok = False
                break
        out.append(_record(f"cm_alternating_differences[nu={nu}]", 0.0, 0.0, ok))
    return out


def check_round_trip() -> list[CheckResult]:
    """Step -> strain -> stress recovers the step; error drops with the grid."""
    out = []
    step = LoadHistory(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    for nu in STANDARD_ORDERS:
        errors = []
        for n_pts in (201, 401):
            grid = np.linspace(0.0, 2.0, n_pts)
            eps = strain_response(nu, step, grid)
            sig = stress_response(nu, LoadHistory(eps.times, eps.values), grid)
            window = (grid >= 0.1)
            errors.append(float(np.max(np.abs(sig.values[window] - 1.0))))
        out.append(_record(f"round_trip_default[nu={nu}]", 0.02, errors[0]))
        order = math.log2(errors[0] / errors[1]) if errors[1] > 0.0 else math.inf
        out.append(_record(f"round_trip_order[nu={nu}]", 1.0, order,
                           passed=order >= 1.0))
    return out


ALL_CHECKS = (
    check_first_zeros,
    check_rayleigh_identity,
    check_normalization,
    check_reciprocity_grid,
    check_oracle_equivalence,
    check_asymptotic_match,
    check_step_identities,
    check_cm_alternation,
    check_round_trip,
)


def run_all_checks() -> list[CheckResult]:
    records = []
    for check in ALL_CHECKS:
        records.extend(check())
    return records
