"""Staged pseudo-inverse decoding with thresholded gradient updates for NMF."""

__version__ = "0.1.0"

from .baselines import BaselineConfig, run_baseline
from .linalg import spectral_norm, threshold_elementwise
from .metrics import (
    Decomposition,
    ErrorReport,
    Evaluator,
    total_correlation_error,
)
from .solver import (
    AndConfig,
    DivergenceError,
    ThresholdSchedule,
    decode,
    run,
    stage_threshold,
)
from .synth import (
    Dataset,
    GroundTruth,
    Initialization,
    InitSpec,
    NoiseSpec,
    generate_dataset,
    generate_ground_truth,
    generate_initialization,
)
from .weights import (
    DecayProfile,
    GccEstimate,
    GccParams,
    WeightSpec,
    decay_profile,
    gcc_closed_form,
    gcc_from_samples,
    sample_weights,
)

__all__ = [
    "AndConfig",
    "BaselineConfig",
    "Dataset",
    "DecayProfile",
    "Decomposition",
    "DivergenceError",
    "ErrorReport",
    "Evaluator",
    "GccEstimate",
    "GccParams",
    "GroundTruth",
    "InitSpec",
    "Initialization",
    "NoiseSpec",
    "ThresholdSchedule",
    "WeightSpec",
    "decay_profile",
    "decode",
    "gcc_closed_form",
    "gcc_from_samples",
    "generate_dataset",
    "generate_ground_truth",
    "generate_initialization",
    "run",
    "run_baseline",
    "sample_weights",
    "spectral_norm",
    "stage_threshold",
    "threshold_elementwise",
    "total_correlation_error",
]
