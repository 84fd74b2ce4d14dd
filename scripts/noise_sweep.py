"""Noise-robustness sweep: error plateaus against the noise level.

Runs the NOISE preset at several gamma values (same weight and noise seeds
across levels, so plateau ordering reflects gamma alone) and reports the
plateau level of each run. The plateau grows about linearly with gamma.
"""

import argparse
from pathlib import Path

from andnmf.config import validate_config
from andnmf.harness import generate, run
from andnmf.matio import read_trace
from andnmf.solver import RunTrace


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/noise")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--stages", type=int, default=110)
    parser.add_argument("--gammas", type=float, nargs="+", default=[0.01, 0.02, 0.04])
    args = parser.parse_args()

    for gamma in args.gammas:
        out = Path(args.out) / f"gamma_{gamma:g}"
        raw = {
            "dataset": {"preset": "NOISE", "gamma": gamma, "seed": args.seed},
            "init": {"r_l": 1.0},
            "solvers": [{"name": "and", "stages": args.stages, "iters_per_stage": 100}],
        }
        cfg = validate_config(raw)
        generate(cfg, out)
        run(cfg, out)
        last5 = RunTrace(read_trace(out / "and_trace.csv")).stage_end_errors()[-5:]
        print(f"gamma={gamma:g}: plateau={last5.mean():.4g} "
              f"(last-5 change {(last5.max() - last5.min()) / last5.min():.1%})")


if __name__ == "__main__":
    main()
