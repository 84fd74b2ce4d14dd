"""The experiments behind the paper's empirical claims, run from one table.

Each experiment is a set of named points, each point a raw config (README,
"Config format"):

  comparison  the staged solver against HALS, ANLS and MU (MU refuses the
              signed NEG data) on DIR, CTM and NEG, and on CTM data at
              correlations rho = 0, 0.9 and 0.99 (CTM itself is rho = 0.5)
  thresholds  decreasing against held (ratio 1) thresholds on DIR and CTM
  noise       the NOISE preset at gamma = 0.01, 0.02 and 0.04
  init        in-span init noise r_l, then out-of-span init noise r_n
  sparsity    Dirichlet total mass alpha_total = 5, 20 and 80

The named experiments (default: all) run through `harness.generate` and
`harness.run` into <out>/<experiment>/<point>/, each point's solvers in the
harness's thread pool at --jobs. One JSON line per solver per point goes to
stdout: `experiment`, `point`, `label`, `status`, `final_error`, `plateau`
(the mean of the last five stage-end errors; a baseline's trace is one
stage, so its plateau is its final error) and `lambda` (of
`gcc_from_samples` on the point's X.mat). <out>/results.json collects the
lines with the environment and the wall time.

--quick shrinks every point by one rule, for a smoke run: each iteration
count is divided by QUICK_DIVISOR (at least 1) and n is capped at QUICK_N.
"""

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from andnmf import __version__
from andnmf.config import validate_config
from andnmf.harness import generate, run
from andnmf.matio import read_matrix, read_trace
from andnmf.solver import RunTrace
from andnmf.weights import gcc_from_samples

QUICK_DIVISOR = 50
QUICK_N = 800


def _point(dataset, solvers, init=None):
    return {"dataset": dataset, "init": init or {"r_l": 1.0}, "solvers": solvers}


def _and(stages, iters=50, **keys):
    return {"name": "and", "stages": stages, "iters_per_stage": iters, **keys}


def comparison(seed):
    def point(preset, weights=None):
        solvers = [_and(110), {"name": "hals", "outer_iters": 1100},
                   {"name": "anls", "outer_iters": 220}]
        if preset != "NEG":  # multiplicative updates refuse negative data
            solvers.append({"name": "mu", "outer_iters": 1100})
        dataset = {"preset": preset, "seed": seed}
        if weights:
            dataset["weights"] = weights
        return _point(dataset, solvers)

    points = {preset: point(preset) for preset in ("DIR", "CTM", "NEG")}
    for rho in (0.0, 0.9, 0.99):
        points[f"rho_{rho:g}"] = point("CTM", {"family": "logistic_normal", "rho": rho})
    return points


def thresholds(seed):
    arms = [
        _and(70, label="decreasing", schedule={"start": 0.1, "ratio": 1 / 1.1}),
        _and(70, label="constant_0.1", schedule={"start": 0.1, "ratio": 1.0}),
        _and(70, label="constant_0.03", schedule={"start": 0.03, "ratio": 1.0}),
    ]
    return {preset: _point({"preset": preset, "seed": seed}, arms) for preset in ("DIR", "CTM")}


def noise(seed):
    # the same weight and noise seeds at every level, so the plateaus differ by gamma alone
    return {f"gamma_{gamma:g}": _point({"preset": "NOISE", "gamma": gamma, "seed": seed},
                                       [_and(110, 100)])
            for gamma in (0.01, 0.02, 0.04)}


def init(seed):
    dataset = {"preset": "DIR", "seed": seed}
    points = {f"in_span_rl_{r_l:g}": _point(dataset, [_and(65)], {"r_l": r_l})
              for r_l in (0.5, 1.0, 2.0)}
    # r_n = 0 would repeat in_span_rl_1; r_n = 20 puts the out-of-span noise
    # at column-norm parity with A*
    points.update({f"out_span_rn_{r_n:g}": _point(dataset, [_and(65)], {"r_l": 1.0, "r_n": r_n})
                   for r_n in (5.0, 10.0, 20.0)})
    return points


def sparsity(seed):
    return {
        f"alpha_total_{alpha_total:g}": _point(
            {"preset": "DIR", "seed": seed, "n": 4000,
             "weights": {"family": "dirichlet", "concentration": alpha_total / 20}},
            [_and(stages, schedule={"start": 0.1, "ratio": ratio})])
        for alpha_total, stages, ratio in ((5.0, 110, 1 / 1.1), (20.0, 200, 1 / 1.05),
                                           (80.0, 210, 1 / 1.03))
    }


EXPERIMENTS = {f.__name__: f for f in (comparison, thresholds, noise, init, sparsity)}


def quick(raw):
    """`raw` resolved, every iteration count divided by QUICK_DIVISOR (at
    least 1) and n capped at QUICK_N."""
    small = validate_config(raw).raw
    small["dataset"]["n"] = min(small["dataset"]["n"], QUICK_N)
    for solver in small["solvers"]:
        for key in ("stages", "iters_per_stage", "outer_iters"):
            if key in solver:
                solver[key] = max(1, solver[key] // QUICK_DIVISOR)
    return small


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"andnmf": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0))}


def run_point(experiment, name, raw, out, jobs):
    cfg = validate_config(raw)
    generate(cfg, out)
    lam = float(gcc_from_samples(read_matrix(out / "X.mat")).params.lam)
    lines = []
    for solver in run(cfg, out, jobs=jobs)["solvers"]:
        plateau = None
        if solver["status"] == "ok":
            trace = RunTrace(read_trace(out / f"{solver['label']}_trace.csv"))
            plateau = float(trace.stage_end_errors()[-5:].mean())
        lines.append({"experiment": experiment, "point": name, "label": solver["label"],
                      "status": solver["status"], "final_error": solver.get("final_error"),
                      "plateau": plateau, "lambda": lam})
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiments", nargs="*", metavar="experiment",
                        help=f"any of {', '.join(EXPERIMENTS)} (default: all)")
    parser.add_argument("--out", default="runs/experiments")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="shrink every point by one rule, for a smoke run")
    args = parser.parse_args()
    unknown = sorted(set(args.experiments) - EXPERIMENTS.keys())
    if unknown:
        parser.error(f"unknown experiment(s) {', '.join(unknown)}")

    t0 = time.perf_counter()
    results = []
    for experiment in args.experiments or EXPERIMENTS:
        for name, raw in EXPERIMENTS[experiment](args.seed).items():
            if args.quick:
                raw = quick(raw)
            out = Path(args.out) / experiment / name
            for line in run_point(experiment, name, raw, out, args.jobs):
                print(json.dumps(line), flush=True)
                results.append(line)
    record = {"environment": environment(), "seed": args.seed, "jobs": args.jobs,
              "quick": args.quick, "wall_seconds": time.perf_counter() - t0,
              "results": results}
    with open(Path(args.out) / "results.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
