"""Smoke runs of the experiment scripts in `scripts/` at their smallest size."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, runs", [
    ("convergence_comparison.py", ["--stages", "1"], 3),
    # the only script that runs solvers in the harness's thread pool
    ("convergence_comparison.py", ["--stages", "1", "--jobs", "2"], 3),
    ("threshold_ablation.py", ["--stages", "1"], 2),
    ("noise_sweep.py", ["--stages", "1", "--gammas", "0.01"], 1),
    ("robustness_sweeps.py", ["--quick"], 10),
], ids=["convergence_comparison", "convergence_comparison_jobs2", "threshold_ablation",
        "noise_sweep", "robustness_sweeps"])
def test_script_writes_summaries_and_traces(tmp_path, script, args, runs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(tmp_path), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summaries = sorted(tmp_path.rglob("summary.json"))
    assert len(summaries) == runs
    for path in summaries:
        for solver in json.loads(path.read_text())["solvers"]:
            assert solver["status"] == "ok", (path, solver)
            assert (path.parent / f"{solver['label']}_trace.csv").is_file()


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
