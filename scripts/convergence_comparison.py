"""Convergence-to-ground-truth comparison across solvers and datasets.

Runs the staged solver against HALS/ANLS (and MU where the data is
nonnegative) on the DIR, CTM, and NEG presets, writing one trace per solver
under <out>/<preset>/. Plot log10_error against seconds or stage externally.
"""

import argparse
import json
from pathlib import Path

from andnmf.config import validate_config
from andnmf.harness import generate, run


def build_config(preset, stages, seed):
    solvers = [
        {"name": "and", "stages": stages, "iters_per_stage": 50},
        {"name": "hals", "outer_iters": stages * 10},
        {"name": "anls", "outer_iters": stages * 2},
    ]
    if preset != "NEG":  # multiplicative updates refuse negative data
        solvers.append({"name": "mu", "outer_iters": stages * 10})
    return {
        "dataset": {"preset": preset, "seed": seed},
        "init": {"r_l": 1.0},
        "solvers": solvers,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/convergence")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--stages", type=int, default=110)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    for preset in ("DIR", "CTM", "NEG"):
        out = Path(args.out) / preset
        cfg = validate_config(build_config(preset, args.stages, args.seed))
        generate(cfg, out)
        summary = run(cfg, out, jobs=args.jobs)
        print(f"{preset}:")
        for solver in summary["solvers"]:
            print(f"  {solver['label']:>5}: {json.dumps(solver)}")


if __name__ == "__main__":
    main()
