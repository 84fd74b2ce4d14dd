"""The library specs check their values when built, and NaN fails every check."""

import math

import pytest

from andnmf.solver import AndConfig, ThresholdSchedule
from andnmf.synth import InitSpec, NoiseSpec
from andnmf.weights import WeightSpec

NAN = math.nan


NAN_SPECS = {
    "eta": lambda: AndConfig(eta=NAN),
    "start": lambda: ThresholdSchedule.geometric(start=NAN),
    "c": lambda: ThresholdSchedule.constant(NAN),
    "concentration": lambda: WeightSpec.dirichlet(4, NAN),
    "rho": lambda: WeightSpec.logistic_normal(4, rho=NAN),
    "gamma": lambda: NoiseSpec(gamma=NAN),
    "r_l": lambda: InitSpec(r_l=NAN),
}


@pytest.mark.parametrize("name", NAN_SPECS)
def test_constructor_rejects_nan(name):
    with pytest.raises(ValueError, match=name):
        NAN_SPECS[name]()


def test_and_config_rejects_bool_batch():
    with pytest.raises(ValueError, match="batch"):
        AndConfig(batch=True)


@pytest.mark.parametrize("kwargs", [
    {"kind": "constant"},
], ids=["constant-without-c"])
def test_schedule_parameters_without_default_are_required(kwargs):
    with pytest.raises(ValueError):
        ThresholdSchedule(**kwargs)
