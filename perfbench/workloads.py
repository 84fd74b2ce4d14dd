"""The benchmark's workloads: the experiment config each one hands the CLI.

Every workload is a function of a dataset seed. `config(seed)` is the JSON
config written for `andnmf generate` / `andnmf run`; `smoke_config(seed)` is
the same shape shrunk to a tiny size for the smoke mode. `jobs` is the
`--jobs` value of the measured run, and `also_jobs1` asks for a second run
at `--jobs 1` (the serial reference).

`expected_rows` states how many trace rows each solver must write. It is
computed here from the documented semantics (a row every `eval_every`
iterations plus the last iteration of each stage), not read from the
program, so it is part of the correctness gate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

# The dataset seed is the benchmark's --seed modulo this count. The reference
# outputs (dataset hashes, final errors) are pinned for each of these seeds.
REFERENCE_SEEDS = 16

# Defaults the shipped presets rely on (AndConfig, BaselineConfig, and the
# harness's eval_every rule); the expected row counts follow from them.
AND_STAGES, AND_ITERS = 30, 50
BASELINE_OUTER = 200


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], dict]
    smoke_config: Callable[[int], dict]
    jobs: Callable[[], int] = lambda: 1
    also_jobs1: bool = False


def _dir_preset(seed):
    # exactly the shipped preset: 30 x 50 full-batch iterations, eval_every 1
    return {"dataset": {"preset": "DIR", "seed": seed}}


def _dir_preset_smoke(seed):
    return {"dataset": {"preset": "DIR", "seed": seed, "W": 40, "D": 5, "n": 200},
            "solvers": [{"name": "and", "stages": 3, "iters_per_stage": 5}]}


def _ctm_minibatch(seed):
    return {"dataset": {"preset": "CTM", "seed": seed},
            "solvers": [{"name": "and", "stages": 110, "batch": 100}],
            "eval_every": 50}


def _ctm_minibatch_smoke(seed):
    return {"dataset": {"preset": "CTM", "seed": seed, "W": 40, "D": 5, "n": 200},
            "solvers": [{"name": "and", "stages": 4, "iters_per_stage": 5, "batch": 20}],
            "eval_every": 3}


def _paper_scale(seed):
    return {"dataset": {"preset": "paper-scale", "seed": seed},
            "solvers": [{"name": "and", "stages": 2}]}


def _paper_scale_smoke(seed):
    return {"dataset": {"preset": "paper-scale", "seed": seed, "W": 80, "D": 8, "n": 400},
            "solvers": [{"name": "and", "stages": 2, "iters_per_stage": 5}]}


def _compare(seed):
    return {"dataset": {"preset": "DIR", "seed": seed},
            "solvers": [{"name": "and", "stages": 10, "iters_per_stage": 10},
                        {"name": "hals", "outer_iters": 50},
                        {"name": "anls", "outer_iters": 50},
                        {"name": "mu", "outer_iters": 50}],
            "eval_every": 10}


def _compare_smoke(seed):
    return {"dataset": {"preset": "DIR", "seed": seed, "W": 40, "D": 5, "n": 200},
            "solvers": [{"name": "and", "stages": 2, "iters_per_stage": 5},
                        {"name": "hals", "outer_iters": 5},
                        {"name": "anls", "outer_iters": 5},
                        {"name": "mu", "outer_iters": 5}],
            "eval_every": 2}


WORKLOADS = {w.name: w for w in (
    Workload("dir-preset", _dir_preset, _dir_preset_smoke),
    Workload("ctm-minibatch", _ctm_minibatch, _ctm_minibatch_smoke),
    Workload("paper-scale", _paper_scale, _paper_scale_smoke),
    Workload("compare", _compare, _compare_smoke, jobs=nproc, also_jobs1=True),
)}


def _recorded(count, every):
    return sum(1 for t in range(count) if t % every == 0 or t == count - 1)


def expected_rows(config: dict) -> dict:
    """Trace rows each solver label must write under `config`."""
    d = config["dataset"].get("D", 100 if config["dataset"].get("preset") == "paper-scale" else 20)
    every = config.get("eval_every") or (1 if d <= 50 else 10)
    rows = {}
    for s in config.get("solvers", [{"name": "and"}]):
        label = s.get("label", s["name"])
        if s["name"] == "and":
            rows[label] = s.get("stages", AND_STAGES) * _recorded(s.get("iters_per_stage", AND_ITERS), every)
        else:
            rows[label] = _recorded(s.get("outer_iters", BASELINE_OUTER), every)
    return rows
