"""The library specs check their values when built, and NaN fails every check."""

import math

import pytest

from andnmf.solver import AndConfig, ThresholdSchedule
from andnmf.synth import InitSpec, NoiseSpec
from andnmf.weights import WeightSpec

NAN = math.nan


NAN_SPECS = {
    "start": lambda: ThresholdSchedule(start=NAN),
    "ratio": lambda: ThresholdSchedule(ratio=NAN),
    # a threshold c held for every stage is start=c at ratio 1
    "c": lambda: ThresholdSchedule(start=NAN, ratio=1.0),
    "concentration": lambda: WeightSpec("dirichlet", 4, concentration=NAN),
    "rho": lambda: WeightSpec("logistic_normal", 4, rho=NAN),
    "gamma": lambda: NoiseSpec(gamma=NAN),
    "r_l": lambda: InitSpec(r_l=NAN),
    "r_n": lambda: InitSpec(r_n=NAN),
}


@pytest.mark.parametrize("name", NAN_SPECS)
def test_constructor_rejects_nan(name):
    with pytest.raises(ValueError, match=name):
        NAN_SPECS[name]()


def test_and_config_rejects_bool_batch():
    with pytest.raises(ValueError, match="batch"):
        AndConfig(batch=True)
