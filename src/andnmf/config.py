"""Experiment configuration: JSON schema, presets, validation, seeds.

Configs are plain JSON with exhaustive validation: unknown keys anywhere are
errors, so typos in experiment definitions fail loudly. A dataset `preset`
fills in family defaults (weight distribution, ground-truth kind, noise level
and solver tweaks); explicit keys always win over preset defaults.

Seeds: one top-level dataset seed drives everything. The ground truth,
weights, noise, initialization, and each baseline solver get child streams
split off deterministically, unless the config pins their seeds explicitly.
The staged `and` solver draws no random numbers and takes no seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .baselines import BaselineConfig
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

_DEF_W, _DEF_D, _DEF_N = 200, 20, 2000


def _dataset_defaults(preset, d):
    base = {"W": _DEF_W, "D": _DEF_D, "n": _DEF_N, "kind": "nonneg", "gamma": 0.0, "seed": 0}
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
        return {"stages": 16, "schedule": {"kind": "constant", "value": 0.25}}
    return {}


@dataclass
class DatasetConfig:
    preset: str | None
    w: int
    d: int
    n: int
    kind: str
    gamma: float
    seed: int
    weights: WeightSpec


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
    out_dir: str | None = None
    raw: dict = field(repr=False, default_factory=dict)
    children: list[int] = field(repr=False, default_factory=list)

    def noise(self) -> NoiseSpec:
        return NoiseSpec(gamma=self.dataset.gamma)

    def derived_seeds(self) -> dict:
        return {
            "dataset": self.dataset.seed,
            "ground_truth": self.children[0],
            "weights": int(self.dataset.weights.seed),
            "noise": self.children[2],
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


def _require_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {sorted(allowed)})")


def _get(obj, key, types, path, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigError(f"{path}.{key}: missing required key")
        return default
    val = obj[key]
    if types is bool:
        if not isinstance(val, bool):
            raise ConfigError(f"{path}.{key}: expected a bool, got {val!r}")
        return val
    if types is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{path}.{key}: expected an integer, got {val!r}")
        return val
    if types is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{path}.{key}: expected a number, got {val!r}")
        return float(val)
    if types is str:
        if not isinstance(val, str):
            raise ConfigError(f"{path}.{key}: expected a string, got {val!r}")
        return val
    return val


def _child_seeds(root_seed: int, count: int) -> list[int]:
    seq = np.random.SeedSequence(root_seed)
    return [int(c.generate_state(1, dtype=np.uint64)[0]) for c in seq.spawn(count)]


def _parse_weights(obj, d, seed, path):
    allowed = {"family", "s", "concentration", "rho", "cov_scale", "low", "high"}
    _require_keys(obj, allowed, path)
    family = _get(obj, "family", str, path, required=True)
    if family == "sparse_binary":
        return WeightSpec.sparse_binary(d, _get(obj, "s", int, path, required=True), seed)
    if family == "dirichlet":
        return WeightSpec.dirichlet(
            d, _get(obj, "concentration", float, path, required=True), seed
        )
    if family == "logistic_normal":
        return WeightSpec.logistic_normal(
            d,
            rho=_get(obj, "rho", float, path, default=0.5),
            cov_scale=_get(obj, "cov_scale", float, path, default=1.0),
            seed=seed,
        )
    if family == "sparse_uniform":
        return WeightSpec.sparse_uniform(
            d,
            _get(obj, "s", int, path, required=True),
            low=_get(obj, "low", float, path, default=0.0),
            high=_get(obj, "high", float, path, default=1.0),
            seed=seed,
        )
    raise ConfigError(f"{path}.family: unknown family {family!r}")


def _parse_schedule(obj, path):
    _require_keys(obj, {"kind", "value", "start", "ratio", "lambda", "r", "q"}, path)
    kind = _get(obj, "kind", str, path, required=True)
    if kind == "constant":
        return ThresholdSchedule.constant(_get(obj, "value", float, path, required=True))
    if kind == "geometric":
        return ThresholdSchedule.geometric(
            start=_get(obj, "start", float, path, default=0.1),
            ratio=_get(obj, "ratio", float, path, default=1.0 / 1.1),
        )
    if kind == "theory":
        return ThresholdSchedule.theory(
            lam=_get(obj, "lambda", float, path, required=True),
            r=_get(obj, "r", float, path, required=True),
            q=_get(obj, "q", float, path, required=True),
        )
    raise ConfigError(f"{path}.kind: unknown schedule kind {kind!r}")


def _parse_and_solver(obj, defaults, path):
    allowed = {"name", "label", "stages", "iters_per_stage", "eta", "eta_scale",
               "schedule", "batch", "pinv_rel_tol"}
    _require_keys(obj, allowed, path)
    merged = dict(defaults)
    merged.update(obj)
    schedule = ThresholdSchedule.geometric()
    if "schedule" in merged:
        schedule = _parse_schedule(merged["schedule"], f"{path}.schedule")
    batch = merged.get("batch", "full")
    if batch != "full" and (isinstance(batch, bool) or not isinstance(batch, int)):
        raise ConfigError(f"{path}.batch: expected 'full' or an integer, got {batch!r}")
    eta = merged.get("eta")
    if eta is not None:
        eta = _get(merged, "eta", float, path)
    cfg = AndConfig(
        stages=_get(merged, "stages", int, path, default=30),
        iters_per_stage=_get(merged, "iters_per_stage", int, path, default=50),
        eta=eta,
        eta_scale=_get(merged, "eta_scale", float, path, default=0.5),
        schedule=schedule,
        batch=batch,
        pinv_rel_tol=_get(merged, "pinv_rel_tol", float, path, default=1e-12),
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


def _parse_baseline_solver(obj, name, seed, path):
    allowed = {"name", "label", "outer_iters", "inner_iters", "epsilon_floor", "seed"}
    _require_keys(obj, allowed, path)
    cfg = BaselineConfig(
        algorithm=name,
        outer_iters=_get(obj, "outer_iters", int, path, default=200),
        inner_iters=_get(obj, "inner_iters", int, path, default=10),
        epsilon_floor=_get(obj, "epsilon_floor", float, path, default=1e-12),
        seed=_get(obj, "seed", int, path, default=seed),
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


def validate_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a raw config dict (parsed JSON) into typed configuration.

    `seed_override` replaces the dataset seed, which re-derives every child
    seed that the config does not pin explicitly.
    """
    _require_keys(raw, {"dataset", "init", "solvers", "eval_every", "out_dir"}, "config")
    ds_raw = raw.get("dataset", {})
    _require_keys(
        ds_raw,
        {"preset", "W", "D", "n", "kind", "gamma", "seed", "weights"},
        "config.dataset",
    )
    preset = _get(ds_raw, "preset", str, "config.dataset")
    if preset is not None and preset not in PRESET_NAMES:
        raise ConfigError(
            f"config.dataset.preset: unknown preset {preset!r} (known: {PRESET_NAMES})"
        )
    d = _get(ds_raw, "D", int, "config.dataset",
             default=100 if preset == "paper-scale" else _DEF_D)
    defaults = _dataset_defaults(preset, d) if preset else _dataset_defaults(None, d)
    merged = dict(defaults)
    merged.update({k: v for k, v in ds_raw.items() if k != "preset"})
    if "weights" not in merged or merged["weights"] is None:
        raise ConfigError("config.dataset.weights: required when no preset is given")

    seed = _get(merged, "seed", int, "config.dataset", default=0)
    if seed_override is not None:
        seed = seed_override
    # child streams: 0 ground truth, 1 weights, 2 noise, 3 init, 4 + i solver i
    # (read by baselines only)
    solver_count = len(raw.get("solvers", [])) or 1
    children = _child_seeds(seed, 4 + solver_count)

    wspec = _parse_weights(merged["weights"], d, children[1], "config.dataset.weights")
    try:
        wspec.validate()
    except ValueError as exc:
        raise ConfigError(f"config.dataset.weights: {exc}") from exc

    kind = _get(merged, "kind", str, "config.dataset", default="nonneg")
    if kind not in ("nonneg", "signed"):
        raise ConfigError(f"config.dataset.kind: must be 'nonneg' or 'signed', got {kind!r}")
    gamma = _get(merged, "gamma", float, "config.dataset", default=0.0)
    if gamma < 0:
        raise ConfigError(f"config.dataset.gamma: must be >= 0, got {gamma}")
    w = _get(merged, "W", int, "config.dataset", default=_DEF_W)
    n = _get(merged, "n", int, "config.dataset", default=_DEF_N)
    if w < d:
        raise ConfigError(f"config.dataset: need W >= D, got W={w}, D={d}")
    if n < 1:
        raise ConfigError(f"config.dataset.n: must be >= 1, got {n}")
    dataset = DatasetConfig(
        preset=preset, w=w, d=d, n=n, kind=kind, gamma=gamma, seed=seed, weights=wspec
    )

    init_raw = raw.get("init", {})
    _require_keys(init_raw, {"r_l", "r_n", "zero_diag", "seed"}, "config.init")
    try:
        init = InitSpec(
            r_l=_get(init_raw, "r_l", float, "config.init", default=1.0),
            r_n=_get(init_raw, "r_n", float, "config.init", default=0.0),
            seed=_get(init_raw, "seed", int, "config.init", default=children[3]),
            zero_diag=_get(init_raw, "zero_diag", bool, "config.init", default=False),
        )
    except ValueError as exc:
        raise ConfigError(f"config.init: {exc}") from exc

    solvers_raw = raw.get("solvers", [{"name": "and"}])
    if not isinstance(solvers_raw, list) or not solvers_raw:
        raise ConfigError("config.solvers: must be a nonempty list")
    entries = []
    labels = set()
    for i, sobj in enumerate(solvers_raw):
        path = f"config.solvers[{i}]"
        if not isinstance(sobj, dict):
            raise ConfigError(f"{path}: expected an object")
        name = _get(sobj, "name", str, path, required=True)
        label = _get(sobj, "label", str, path, default=name)
        if label in labels:
            raise ConfigError(f"{path}.label: duplicate label {label!r}; set explicit labels")
        labels.add(label)
        if name == "and":
            cfg = _parse_and_solver(sobj, _solver_defaults(preset), path)
        elif name in ("mu", "hals", "anls"):
            cfg = _parse_baseline_solver(sobj, name, children[4 + i], path)
        else:
            raise ConfigError(f"{path}.name: unknown solver {name!r}")
        entries.append(SolverEntry(name=name, label=label, config=cfg))

    eval_every = _get(raw, "eval_every", int, "config")
    if eval_every is not None and eval_every < 1:
        raise ConfigError(f"config.eval_every: must be >= 1, got {eval_every}")
    out_dir = _get(raw, "out_dir", str, "config")

    resolved = {
        "dataset": {
            "preset": preset,
            "W": w, "D": d, "n": n, "kind": kind, "gamma": gamma, "seed": seed,
            "weights": _weights_dict(wspec),
        },
        "init": {"r_l": init.r_l, "r_n": init.r_n, "seed": init.seed,
                 "zero_diag": init.zero_diag},
        "solvers": [_solver_dict(e) for e in entries],
        "eval_every": eval_every,
        "out_dir": out_dir,
    }
    return ExperimentConfig(
        dataset=dataset, init=init, solvers=entries, eval_every=eval_every,
        out_dir=out_dir, raw=resolved, children=children,
    )


def _weights_dict(w: WeightSpec) -> dict:
    out = {"family": w.family}
    if w.family in ("sparse_binary", "sparse_uniform"):
        out["s"] = w.s
    if w.family == "sparse_uniform":
        out.update(low=w.low, high=w.high)
    if w.family == "dirichlet":
        out["concentration"] = w.concentration
    if w.family == "logistic_normal":
        out.update(rho=w.rho, cov_scale=w.cov_scale)
    out["seed"] = int(w.seed)
    return out


def _schedule_dict(s: ThresholdSchedule) -> dict:
    if s.kind == "constant":
        return {"kind": "constant", "value": s.c}
    if s.kind == "geometric":
        return {"kind": "geometric", "start": s.start, "ratio": s.ratio}
    return {"kind": "theory", "lambda": s.lam, "r": s.r, "q": s.q}


def _solver_dict(entry: SolverEntry) -> dict:
    c = entry.config
    if entry.name == "and":
        return {
            "name": "and", "label": entry.label, "stages": c.stages,
            "iters_per_stage": c.iters_per_stage, "eta": c.eta,
            "eta_scale": c.eta_scale, "schedule": _schedule_dict(c.schedule),
            "batch": c.batch, "pinv_rel_tol": c.pinv_rel_tol,
        }
    return {
        "name": entry.name, "label": entry.label, "outer_iters": c.outer_iters,
        "inner_iters": c.inner_iters, "epsilon_floor": c.epsilon_floor,
        "seed": c.seed,
    }


def load_config(path, seed_override=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return validate_config(raw, seed_override)


def preset_config(preset: str, overrides: dict | None = None) -> dict:
    """A raw config dict for a named preset, ready for validate_config."""
    if preset not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset!r} (known: {PRESET_NAMES})")
    raw = {"dataset": {"preset": preset}, "solvers": [{"name": "and"}]}
    if overrides:
        raw.update(overrides)
    return raw
