"""Experiment configuration: JSON schema, presets, validation, seeds.

Configs are plain JSON with exhaustive validation: unknown keys anywhere are
errors, so typos in experiment definitions fail loudly, and so are the keys
of another weight family. A key set to `null` counts as absent. A dataset
`preset` fills in family defaults (weight distribution, ground-truth kind,
noise level and solver tweaks); explicit keys always win over preset
defaults.

Each section is one table of JSON key -> type. The parser hands the keys a
config sets to the section's spec (`WeightSpec`, `ThresholdSchedule`,
`AndConfig`, `BaselineConfig`, `InitSpec`, `NoiseSpec`), whose constructor
holds the defaults and checks the values; the resolved config writes every
table key back from the built spec, so a manifest's `config` loads back to
itself.

Seeds: one top-level dataset seed drives everything. The ground truth,
weights, noise, initialization and each baseline solver take child streams
split off it deterministically; no config key sets them, and the manifest
records each one. The staged `and` solver draws no random numbers and takes
no seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .baselines import ALGORITHMS, BaselineConfig
from .solver import AndConfig, ThresholdSchedule
from .synth import InitSpec, NoiseSpec
from .weights import WeightSpec


class ConfigError(ValueError):
    """Invalid configuration; message carries the JSON path of the offense."""


PRESET_NAMES = ("DIR", "CTM", "NEG", "NOISE", "BINARY", "paper-scale")

# The CTM-style prior: softmax of a Toeplitz-correlated Gaussian. The
# covariance scale concentrates the simplex mass so that nonzero weights do
# not pile up arbitrarily close to zero (dense, flat weight vectors defeat
# threshold decoding at this dimension); the correlation structure rho^|i-j|
# is unchanged by the scale.
CTM_COV_SCALE = 25.0

_DEF_D = 20

# JSON key -> type of each section. `object` passes the value through for the
# spec to check.
_DATASET_KEYS = {"W": int, "D": int, "n": int, "kind": str, "gamma": float, "seed": int}
_WEIGHT_KEYS = {
    "sparse_binary": {"s": int},
    "dirichlet": {"concentration": float},
    "logistic_normal": {"rho": float, "cov_scale": float},
}
_SCHEDULE_KEYS = {"start": float, "ratio": float}
_AND_KEYS = {"stages": int, "iters_per_stage": int, "batch": object}
_BASELINE_KEYS = {"outer_iters": int}
_INIT_KEYS = {"r_l": float, "r_n": float}
# a label names the solver's output files, so it must be a plain file stem
_LABEL = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def _dataset_defaults(preset, d):
    base = {"W": 200, "D": _DEF_D, "n": 2000, "kind": "nonneg", "seed": 0}
    ctm_weights = {"family": "logistic_normal", "rho": 0.5, "cov_scale": CTM_COV_SCALE}
    if preset == "DIR":
        base["weights"] = {"family": "dirichlet", "concentration": 5.0 / d}
    elif preset == "CTM":
        base["weights"] = dict(ctm_weights)
    elif preset == "NEG":
        base["kind"] = "signed"
        base["weights"] = dict(ctm_weights)
    elif preset == "NOISE":
        base["gamma"] = 0.01
        base["weights"] = dict(ctm_weights)
    elif preset == "BINARY":
        base["weights"] = {"family": "sparse_binary", "s": 3}
    elif preset == "paper-scale":
        base.update({"W": 1000, "D": 100, "n": 5000})
        base["weights"] = {"family": "dirichlet", "concentration": 0.05}
    return base


def _solver_defaults(preset):
    if preset == "NOISE":
        return {"iters_per_stage": 100}
    if preset == "BINARY":
        return {"stages": 16, "schedule": {"start": 0.25, "ratio": 1.0}}
    return {}


@dataclass
class DatasetConfig:
    w: int
    d: int
    n: int
    kind: str
    seed: int
    truth_seed: int  # child seed of the ground-truth draw
    noise_seed: int  # child seed of the noise draw
    weights: WeightSpec
    noise: NoiseSpec


@dataclass
class SolverEntry:
    name: str  # and | mu | hals | anls
    label: str
    config: object  # AndConfig or BaselineConfig


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig
    init: InitSpec
    solvers: list[SolverEntry]
    eval_every: int | None
    raw: dict = field(repr=False, default_factory=dict)

    def derived_seeds(self) -> dict:
        return {
            "dataset": self.dataset.seed,
            "ground_truth": self.dataset.truth_seed,
            "weights": int(self.dataset.weights.seed),
            "noise": self.dataset.noise_seed,
            "init": self.init.seed,
            "solvers": {e.label: int(e.config.seed) for e in self.solvers
                        if e.name != "and"},
        }

    def effective_eval_every(self) -> int:
        if self.eval_every is not None:
            return self.eval_every
        return 1 if self.dataset.d <= 50 else 10

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()
        ).hexdigest()


def _section(obj, path) -> dict:
    """The object at `path` without its null keys, which count as absent."""
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return {k: v for k, v in obj.items() if v is not None}


def _require_keys(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {sorted(allowed)})")


def _typed(val, kind, path):
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{path}: expected an integer, got {val!r}")
    elif kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {val!r}")
        if not math.isfinite(val):
            raise ConfigError(f"{path}: must be finite, got {val!r}")
        return float(val)
    elif kind is str:
        if not isinstance(val, str):
            raise ConfigError(f"{path}: expected a string, got {val!r}")
    return val


def _fields(obj, table, path, extra=()):
    """Spec keyword arguments from the keys of `table` that `obj` sets; a key
    outside `table` and `extra` is an error."""
    _require_keys(obj, table.keys() | set(extra), path)
    return {k: _typed(obj[k], kind, f"{path}.{k}")
            for k, kind in table.items() if k in obj}


def _resolved(spec, table) -> dict:
    """Every key of `table`, valued from the built spec."""
    return {k: getattr(spec, k) for k in table}


def _build(cls, path, **kwargs):
    """cls(**kwargs), its ValueError re-raised as a ConfigError at `path`."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _choice(obj, key, choices, path):
    """The required string `obj[key]`, one of `choices`."""
    if key not in obj:
        raise ConfigError(f"{path}.{key}: missing required key")
    val = _typed(obj[key], str, f"{path}.{key}")
    if val not in choices:
        raise ConfigError(f"{path}.{key}: unknown {key} {val!r} (known: {sorted(choices)})")
    return val


def _child_seeds(root_seed: int, count: int) -> list[int]:
    seq = np.random.SeedSequence(root_seed)
    return [int(c.generate_state(1, dtype=np.uint64)[0]) for c in seq.spawn(count)]


def _parse_weights(obj, d, seed, path):
    obj = _section(obj, path)
    family = _choice(obj, "family", _WEIGHT_KEYS, path)
    return _build(WeightSpec, path, family=family, dim=d, seed=seed,
                  **_fields(obj, _WEIGHT_KEYS[family], path, {"family"}))


def _parse_and_solver(obj, defaults, path):
    merged = {**defaults, **obj}
    kwargs = _fields(merged, _AND_KEYS, path, {"name", "label", "schedule"})
    if "schedule" in merged:
        spath = f"{path}.schedule"
        kwargs["schedule"] = _build(ThresholdSchedule, spath, **_fields(
            _section(merged["schedule"], spath), _SCHEDULE_KEYS, spath))
    return _build(AndConfig, path, **kwargs)


def _parse_baseline_solver(obj, name, seed, path):
    return _build(BaselineConfig, path, algorithm=name, seed=seed,
                  **_fields(obj, _BASELINE_KEYS, path, {"name", "label"}))


def _solver_dict(entry: SolverEntry) -> dict:
    c = entry.config
    out = {"name": entry.name, "label": entry.label}
    if entry.name == "and":
        return {**out, **_resolved(c, _AND_KEYS),
                "schedule": _resolved(c.schedule, _SCHEDULE_KEYS)}
    return {**out, **_resolved(c, _BASELINE_KEYS)}


def validate_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a raw config dict (parsed JSON) into typed configuration.

    `seed_override` replaces the dataset seed, which re-derives every child
    seed.
    """
    raw = _section(raw, "config")
    top = _fields(raw, {"eval_every": int}, "config",
                  {"dataset", "init", "solvers"})
    ds_raw = _section(raw.get("dataset"), "config.dataset")
    preset = None
    if "preset" in ds_raw:
        preset = _choice(ds_raw, "preset", PRESET_NAMES, "config.dataset")
    d = _typed(ds_raw.get("D", 100 if preset == "paper-scale" else _DEF_D), int,
               "config.dataset.D")
    if d < 1:
        raise ConfigError(f"config.dataset.D: must be >= 1, got {d}")
    merged = {**_dataset_defaults(preset, d), **ds_raw}
    if "weights" not in merged:
        raise ConfigError("config.dataset.weights: required when no preset is given")
    ds = _fields(merged, _DATASET_KEYS, "config.dataset", {"preset", "weights"})

    seed = ds["seed"] if seed_override is None else seed_override
    if seed < 0:
        raise ConfigError(f"config.dataset.seed: must be >= 0, got {seed}")
    # child streams: 0 ground truth, 1 weights, 2 noise, 3 init, 4 + i solver i
    # (read by baselines only)
    solvers_raw = raw.get("solvers", [{"name": "and"}])
    if not isinstance(solvers_raw, list) or not solvers_raw:
        raise ConfigError("config.solvers: must be a nonempty list")
    children = _child_seeds(seed, 4 + len(solvers_raw))

    if ds["kind"] not in ("nonneg", "signed"):
        raise ConfigError(
            f"config.dataset.kind: must be 'nonneg' or 'signed', got {ds['kind']!r}")
    if ds["W"] < d:
        raise ConfigError(f"config.dataset: need W >= D, got W={ds['W']}, D={d}")
    if ds["n"] < 1:
        raise ConfigError(f"config.dataset.n: must be >= 1, got {ds['n']}")
    dataset = DatasetConfig(
        w=ds["W"], d=d, n=ds["n"], kind=ds["kind"], seed=seed,
        truth_seed=children[0], noise_seed=children[2],
        weights=_parse_weights(merged["weights"], d, children[1], "config.dataset.weights"),
        noise=_build(NoiseSpec, "config.dataset",
                     **({"gamma": ds["gamma"]} if "gamma" in ds else {})),
    )

    init_raw = _section(raw.get("init"), "config.init")
    init = _build(InitSpec, "config.init", seed=children[3],
                  **_fields(init_raw, _INIT_KEYS, "config.init"))

    entries = []
    labels = set()
    for i, sobj in enumerate(solvers_raw):
        path = f"config.solvers[{i}]"
        sobj = _section(sobj, path)
        name = _choice(sobj, "name", ("and", *ALGORITHMS), path)
        label = _typed(sobj.get("label", name), str, f"{path}.label")
        if not _LABEL.fullmatch(label):
            raise ConfigError(
                f"{path}.label: must match {_LABEL.pattern} (it names the solver's "
                f"output files), got {label!r}")
        if label in labels:
            raise ConfigError(f"{path}.label: duplicate label {label!r}; set explicit labels")
        labels.add(label)
        if name == "and":
            cfg = _parse_and_solver(sobj, _solver_defaults(preset), path)
        else:
            cfg = _parse_baseline_solver(sobj, name, children[4 + i], path)
        entries.append(SolverEntry(name=name, label=label, config=cfg))

    eval_every = top.get("eval_every")
    if eval_every is not None and eval_every < 1:
        raise ConfigError(f"config.eval_every: must be >= 1, got {eval_every}")

    resolved = {
        "dataset": {
            "preset": preset, "W": dataset.w, "D": d, "n": dataset.n,
            "kind": dataset.kind, "gamma": dataset.noise.gamma, "seed": seed,
            "weights": {"family": dataset.weights.family,
                        **_resolved(dataset.weights, _WEIGHT_KEYS[dataset.weights.family])},
        },
        "init": _resolved(init, _INIT_KEYS),
        "solvers": [_solver_dict(e) for e in entries],
        "eval_every": eval_every,
    }
    return ExperimentConfig(
        dataset=dataset, init=init, solvers=entries, eval_every=eval_every,
        raw=resolved,
    )


def load_config(path, seed_override=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return validate_config(raw, seed_override)


def preset_config(preset: str) -> dict:
    """A raw config dict for a named preset, ready for validate_config."""
    if preset not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset!r} (known: {PRESET_NAMES})")
    return {"dataset": {"preset": preset}, "solvers": [{"name": "and"}]}
