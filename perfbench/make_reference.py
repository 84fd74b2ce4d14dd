"""Write perfbench/reference.json: the outputs the correctness gate pins.

    python3 perfbench/make_reference.py

For every workload and every dataset seed 0..REFERENCE_SEEDS-1 (and for the
smoke size at seed 0) it runs `andnmf generate` and `andnmf run --jobs 1` on
the checkout it sits in and records the SHA-256 of each dataset file and each
solver's final correlation error, recomputed by `gate.correlation_error`.
Run it on the commit whose outputs are to be pinned; dataset hashes are
bitwise only for the same numpy version and machine, so the file records the
environment it was made in.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
from workloads import REFERENCE_SEEDS, WORKLOADS, expected_rows


def reference_for(config: dict) -> dict:
    out = run.WORK / "reference"
    cfg = run.WORK / "reference_config.json"
    cfg.write_text(json.dumps(config))
    shutil.rmtree(out, ignore_errors=True)
    for command in (["generate"], ["run", "--jobs", "1"]):
        child = run.run_child([sys.executable, "-c", run.CLI, *command, "--config", str(cfg),
                               "--out", str(out)], run.WORK / "child.log")
        if child.rc:
            raise SystemExit(f"{command[0]} failed with exit {child.rc}: {child.log}")
    summary = json.loads((out / "summary.json").read_text())
    labels = expected_rows(config)
    if sorted(s["label"] for s in summary["solvers"] if s["status"] == "ok") != sorted(labels):
        raise SystemExit(f"not every solver finished ok: {summary}")
    a_star = gate.read_nmf1(out / "A_star.mat")
    entry = {
        "files": gate.dataset_hashes(out),
        "final_error": {label: gate.correlation_error(gate.read_nmf1(out / f"{label}_A_final.mat"),
                                                      a_star) for label in labels},
    }
    shutil.rmtree(out, ignore_errors=True)
    return entry


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    ref = {"env": run.environment(), "workloads": {}, "smoke": {}}
    for name, wl in WORKLOADS.items():
        ref["smoke"][name] = {"0": reference_for(wl.smoke_config(0))}
        ref["workloads"][name] = {}
        for seed in range(REFERENCE_SEEDS):
            ref["workloads"][name][str(seed)] = reference_for(wl.config(seed))
            print(f"{name} seed {seed}: {ref['workloads'][name][str(seed)]['final_error']}",
                  flush=True)
    run.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
