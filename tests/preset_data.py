"""A preset's dataset and initialization, made as `andnmf generate` makes them.

`preset_problem(name, **dataset_keys)` resolves the preset with the given
dataset keys (a size, a seed) through `validate_config`, and returns
(config, ground truth, dataset, initialization) from the same draws that
`harness.generate` writes to disk.
"""

from andnmf.config import validate_config
from andnmf.synth import generate_dataset, generate_ground_truth, generate_initialization

# a size small enough for a unit test, with 2D = 16 sketch columns
SMALL = {"W": 80, "D": 8, "n": 400}


def preset_problem(name, **dataset_keys):
    cfg = validate_config({"dataset": {"preset": name, **dataset_keys}})
    ds = cfg.dataset
    gt = generate_ground_truth(ds.w, ds.d, ds.kind, seed=ds.truth_seed)
    data = generate_dataset(gt, ds.weights, ds.noise, ds.n, seed=ds.noise_seed)
    return cfg, gt, data, generate_initialization(gt, cfg.init)
