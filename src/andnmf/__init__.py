"""Staged pseudo-inverse decoding with thresholded gradient updates for NMF.

The public names load on first use (PEP 562), so `import andnmf` imports no
numpy: the CLI sets OpenBLAS's environment before numpy loads (see `cli`).
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    "BaselineConfig": "baselines",
    "run_baseline": "baselines",
    "spectral_norm": "linalg",
    "threshold_elementwise": "linalg",
    "Decomposition": "metrics",
    "ErrorReport": "metrics",
    "Evaluator": "metrics",
    "total_correlation_error": "metrics",
    "AndConfig": "solver",
    "DivergenceError": "solver",
    "ThresholdSchedule": "solver",
    "decode": "solver",
    "run": "solver",
    "stage_threshold": "solver",
    "Dataset": "synth",
    "GroundTruth": "synth",
    "Initialization": "synth",
    "InitSpec": "synth",
    "NoiseSpec": "synth",
    "generate_dataset": "synth",
    "generate_ground_truth": "synth",
    "generate_initialization": "synth",
    "DecayProfile": "weights",
    "GccEstimate": "weights",
    "GccParams": "weights",
    "WeightSpec": "weights",
    "decay_profile": "weights",
    "gcc_closed_form": "weights",
    "gcc_from_samples": "weights",
    "sample_weights": "weights",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
