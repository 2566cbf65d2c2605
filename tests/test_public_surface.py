"""Every exported name resolves, and names taken off the surface stay gone.

Tools that walk a module's ``__all__`` and ``getattr`` each entry break on
a stale entry, so each list is checked against its module.
"""

import dataclasses
import importlib
import inspect

import pytest

from besselvisc.cli import main
from besselvisc.laplace import TalbotConfig
from besselvisc.timedomain import (
    MaterialCurve,
    PronyModes,
    SeriesPolicy,
    creep_compliance,
    phi,
    psi,
    relaxation_modulus,
)

MODULES = ["besselvisc"] + [f"besselvisc.{name}" for name in (
    "specfun", "zeros", "timedomain", "asymptotics", "laplace", "hereditary",
    "validation", "cli")]

REMOVED = {
    "besselvisc.specfun": ["gamma", "bessel_i", "EvalAccuracy", "DEFAULT_ACCURACY",
                           "_iv_asymptotic_ok"],
    "besselvisc.asymptotics": ["AsymptoticBranch", "psi_asymptotic", "phi_asymptotic",
                               "creep_asymptotic", "modulus_asymptotic", "find_crossover_time"],
    "besselvisc.timedomain": ["PROVENANCES", "_CREEP_KINDS", "_sized_table",
                              "_rayleigh_remainder"],
    "besselvisc": ["gamma", "bessel_i", "EvalAccuracy", "DEFAULT_ACCURACY",
                   "AsymptoticBranch", "psi_asymptotic", "phi_asymptotic",
                   "creep_asymptotic", "modulus_asymptotic", "find_crossover_time"],
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    assert [n for n in REMOVED[name] if hasattr(module, n)] == []


def test_internal_helpers_not_exported():
    timedomain = importlib.import_module("besselvisc.timedomain")
    assert "required_zero_count" not in timedomain.__all__


def test_knobs_that_nothing_set_are_gone(capsys):
    assert [f.name for f in dataclasses.fields(SeriesPolicy)] == ["tail_tol", "min_time"]
    assert [f.name for f in dataclasses.fields(TalbotConfig)] == [
        "node_count", "compare_half", "agree_tol"]
    with pytest.raises(SystemExit) as exit_info:
        main(["curve", "--kind", "creep_rate", "--order", "1", "--times", "0.1",
              "--max-terms", "500"])
    assert exit_info.value.code == 2
    capsys.readouterr()


def test_one_model_representation():
    # Evaluators size their own modes; a caller-supplied table is gone.
    for fn in (psi, phi, creep_compliance, relaxation_modulus):
        assert "zeros" not in inspect.signature(fn).parameters
    fields = [f.name for f in dataclasses.fields(PronyModes)]
    assert "amp" in fields and "amps" not in fields
    assert not hasattr(MaterialCurve, "validate_shape")
