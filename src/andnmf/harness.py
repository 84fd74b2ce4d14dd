"""Experiment orchestration: dataset generation, solver runs, evaluation.

Directory layout written by `generate` / `run` under one output directory:

    A_star.mat  X.mat  Y.mat  Zeta.mat  A0.mat  manifest.json
    <label>_trace.csv  <label>_A_final.mat  summary.json

Traces stream to disk as their rows are evaluated: with a ground truth, a
stage's rows at a time (`solver.TraceRecorder`), by the stage's end, and
every earlier row before a divergence row, so a diverging run leaves its
whole partial trace behind. A divergence or runtime error is recorded in
summary.json rather than crashing the other solvers. The manifest carries
the resolved config, its hash, every derived seed, and library versions:
enough to reproduce each file bitwise on the same machine.

This module sets no BLAS thread count and changes no environment. A
caller that runs solvers in parallel sets `OPENBLAS_NUM_THREADS` before
numpy loads, as the `andnmf` command does (`cli`).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, metrics
from .baselines import run_baseline
from .config import ExperimentConfig
from .matio import TraceWriter, json_text, read_matrix, write_matrix
from .solver import DivergenceError, run as run_and
from .synth import generate_dataset, generate_ground_truth, generate_initialization
from .weights import gcc_from_samples


def generate(cfg: ExperimentConfig, out_dir) -> dict:
    """Generate ground truth, dataset, and initialization files plus manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = cfg.dataset
    gt = generate_ground_truth(ds.w, ds.d, ds.kind, seed=ds.truth_seed)
    data = generate_dataset(gt, ds.weights, ds.noise, ds.n, seed=ds.noise_seed)
    init = generate_initialization(gt, cfg.init)

    write_matrix(out / "A_star.mat", gt.a_star)
    write_matrix(out / "X.mat", data.x)
    write_matrix(out / "Y.mat", data.y)
    write_matrix(out / "Zeta.mat", data.zeta)
    write_matrix(out / "A0.mat", init.a0)

    manifest = {
        "config": cfg.raw,
        "config_sha256": cfg.config_hash(),
        "seeds": cfg.derived_seeds(),
        "ground_truth": {"provenance": gt.provenance, "cond": gt.cond},
        "initialization": {"ell": init.ell, "rho": init.rho},
        "versions": {
            "andnmf": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    (out / "manifest.json").write_text(json_text(manifest))
    return manifest


def _run_one(entry, y, a0, truth, eval_every, out):
    """Run one solver by one keyword call, streaming its trace to disk, and
    return its status. The solver is read from this module's attributes at
    each call, so a wrapper set on `run_and` or `run_baseline` sees the run."""
    t0 = time.perf_counter()
    status = {"label": entry.label, "solver": entry.name, "status": "ok"}
    solve = run_and if entry.name == "and" else run_baseline
    try:
        with TraceWriter(out / f"{entry.label}_trace.csv") as writer:
            result = solve(cfg=entry.config, y=y, a0=a0, truth=truth,
                           eval_every=eval_every, on_row=writer)
        write_matrix(out / f"{entry.label}_A_final.mat", result.a)
        rows = result.trace.rows
        status.update({
            "final_error": rows[-1].total_error if rows else None,
            "rows": len(rows),
        })
    except DivergenceError as exc:
        status.update({
            "status": "diverged",
            "detail": str(exc),
            "stage": exc.stage,
            "iteration": exc.iteration,
            "rows": len(exc.trace.rows),
        })
    except ValueError as exc:
        status.update({"status": "refused", "detail": str(exc)})
    except RuntimeError as exc:
        status.update({"status": "error", "detail": f"{type(exc).__name__}: {exc}"})
    status["wall_seconds"] = time.perf_counter() - t0
    return status


def run(cfg: ExperimentConfig, out_dir, jobs: int = 1) -> dict:
    """Run every configured solver against the dataset files in `out_dir`.

    Before any solver runs, `Y.mat` must be `W x n` and `A0.mat` (and
    `A_star.mat`, if present) `W x D` by the config, else `ValueError`.
    A ground truth in `A_star.mat` is checked by each solver's evaluator, so
    a rank-deficient one makes every solver `refused`. Any check that fails
    finds no results of an earlier run: `summary.json` and each configured
    label's trace and final matrix are deleted first.

    `workers = min(jobs, len(cfg.solvers))` solvers run at a time: in a
    thread pool, or on the calling thread when `workers` is 1, so that an
    interrupt stops the run at once.
    """
    out = Path(out_dir)
    for path in (out / "summary.json",
                 *(out / f"{e.label}_{name}" for e in cfg.solvers
                   for name in ("trace.csv", "A_final.mat"))):
        path.unlink(missing_ok=True)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for fname in ("Y.mat", "A0.mat"):
        if not (out / fname).exists():
            raise FileNotFoundError(f"missing dataset file {out / fname}; run generate first")
    y = read_matrix(out / "Y.mat")
    a0 = read_matrix(out / "A0.mat")
    truth = None
    if (out / "A_star.mat").exists():
        truth = read_matrix(out / "A_star.mat")
    ds = cfg.dataset
    for fname, m, dims, shape in (("Y.mat", y, "W x n", (ds.w, ds.n)),
                                  ("A0.mat", a0, "W x D", (ds.w, ds.d)),
                                  ("A_star.mat", truth, "W x D", (ds.w, ds.d))):
        if m is not None and m.shape != shape:
            raise ValueError(f"{out / fname} is {m.shape[0]}x{m.shape[1]}, "
                             f"but the config's {dims} is {shape[0]}x{shape[1]}")
    eval_every = cfg.effective_eval_every()

    def solve(entry):
        return _run_one(entry, y, a0, truth, eval_every, out)

    workers = min(jobs, len(cfg.solvers))
    if workers == 1:
        statuses = list(map(solve, cfg.solvers))
    else:
        import concurrent.futures  # loads threading and logging: only a pool needs them

        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            statuses = list(pool.map(solve, cfg.solvers))

    summary = {"config_sha256": cfg.config_hash(), "solvers": statuses}
    (out / "summary.json").write_text(json_text(summary))
    return summary


def evaluate(estimate_path, truth_path) -> dict:
    """Correlation-error report of an estimate file against a truth file."""
    return metrics.total_correlation_error(
        read_matrix(estimate_path), read_matrix(truth_path)
    ).to_json_dict()


def gcc_report(weights_path) -> dict:
    """Empirical correlation bounds and the raw moments they were fit to, of a
    weight sample stored as a D x n matrix."""
    est = gcc_from_samples(read_matrix(weights_path))
    return {
        "params": est.params.as_dict(),
        "moments": {
            "n_samples": est.n_samples,
            "max_diag": est.max_diag,
            "max_offdiag": est.max_offdiag,
            "min_eig": est.min_eig,
        },
    }
