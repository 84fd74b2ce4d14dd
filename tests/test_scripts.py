"""Smoke runs of `scripts/experiments.py`, one experiment at a time under --quick,
and checks that the benchmark in `perfbench/` still fits the package."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from andnmf.cli import main
from andnmf.config import validate_config

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "experiments.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the dataclasses of workloads.py look it up
    spec.loader.exec_module(module)
    return module


experiments = _load("experiments", SCRIPT)
workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
gate = _load("perfbench_gate", ROOT / "perfbench" / "gate.py")
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


@pytest.mark.parametrize("experiment, args", [
    *((name, []) for name in experiments.EXPERIMENTS),
    # the only script path through the harness's thread pool
    ("comparison", ["--jobs", "2"]),
], ids=[*experiments.EXPERIMENTS, "comparison_jobs2"])
def test_script_writes_summaries_and_traces(tmp_path, experiment, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), experiment, "--quick",
         "--out", str(tmp_path), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    expected = [(point, solver.get("label", solver["name"]))
                for point, raw in experiments.EXPERIMENTS[experiment](0).items()
                for solver in raw["solvers"]]
    assert [(line["point"], line["label"]) for line in lines] == expected
    for line in lines:
        assert line["experiment"] == experiment
        assert line["status"] == "ok", line
        point = tmp_path / experiment / line["point"]
        assert (point / "summary.json").is_file()
        assert (point / f"{line['label']}_trace.csv").is_file()


def test_perfbench_tracer_instruments_the_package():
    # perfbench's tracer wraps the package's layer entry points by name, so a
    # renamed or deleted one breaks the traced benchmark runs
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import tracing; "
            "tracing.Tracer().instrument()")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
def test_perfbench_workload_configs_validate(name, smoke):
    # a config schema change would otherwise show only when the benchmark runs
    workload = workloads.WORKLOADS[name]
    make = workload.smoke_config if smoke else workload.config
    for seed in (0, workloads.REFERENCE_SEEDS - 1):
        validate_config(make(seed))


@pytest.mark.parametrize("section, name", [
    *(("smoke", name) for name in sorted(workloads.WORKLOADS)),
    ("workloads", "paper-scale"),
], ids=[*(f"smoke-{name}" for name in sorted(workloads.WORKLOADS)), "full-paper-scale"])
def test_cli_outputs_pass_the_benchmark_gate(tmp_path, section, name):
    # the benchmark gates every run against the final errors pinned in
    # perfbench/reference.json (rtol 1e-6), so a change that moves one fails
    # here first; the dataset hashes are pinned for one numpy version only
    workload = workloads.WORKLOADS[name]
    config = (workload.smoke_config if section == "smoke" else workload.config)(0)
    reference = REFERENCE[section][name]["0"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    if np.__version__ == REFERENCE["env"]["numpy"]:
        assert gate.check_dataset(out, reference) == []
    assert main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--jobs", str(workload.jobs())]) == 0
    failures, _ = gate.check_run(out, workloads.expected_rows(config), reference)
    assert failures == {}
