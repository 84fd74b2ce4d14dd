"""Experiment orchestration: dataset generation, solver runs, evaluation.

Directory layout written by `generate` / `run` under one output directory:

    A_star.mat  X.mat  Y.mat  Zeta.mat  A0.mat  manifest.json
    <label>_trace.csv  <label>_A_final.mat  summary.json

Traces stream to disk row by row, so a diverging run leaves its partial trace
behind; a divergence or runtime error is recorded in summary.json rather than
crashing the other solvers. The manifest carries the resolved config, its
hash, every derived seed, and library versions: enough to reproduce each file
bitwise on the same machine.
"""

from __future__ import annotations

import concurrent.futures
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, metrics
from .baselines import run_baseline
from .config import ExperimentConfig
from .matio import TraceWriter, read_matrix, write_matrix
from .solver import DivergenceError, run as run_and
from .synth import GroundTruth, generate_dataset, generate_ground_truth, generate_initialization
from .weights import NoClosedFormError, decay_profile, gcc_closed_form, gcc_from_samples

DECAY_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


def generate(cfg: ExperimentConfig, out_dir) -> dict:
    """Generate ground truth, dataset, and initialization files plus manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = cfg.dataset
    gt = generate_ground_truth(ds.w, ds.d, ds.kind, seed=cfg.children[0])
    data = generate_dataset(gt, ds.weights, ds.noise, ds.n, seed=cfg.children[2])
    init = generate_initialization(gt, cfg.init)

    write_matrix(out / "A_star.mat", gt.a_star)
    write_matrix(out / "X.mat", data.x)
    write_matrix(out / "Y.mat", data.y)
    write_matrix(out / "Zeta.mat", data.zeta)
    write_matrix(out / "A0.mat", init.a0)

    try:
        closed_form = gcc_closed_form(ds.weights).as_dict()
    except NoClosedFormError:
        closed_form = None
    manifest = {
        "config": cfg.raw,
        "config_sha256": cfg.config_hash(),
        "seeds": cfg.derived_seeds(),
        "ground_truth": {"provenance": gt.provenance, "cond": gt.cond},
        "initialization": {"ell": init.ell, "rho": init.rho},
        "gcc_closed_form": closed_form,
        "versions": {
            "andnmf": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _run_one(entry, y, a0, truth, eval_every, out):
    t0 = time.perf_counter()
    status = {"label": entry.label, "solver": entry.name, "status": "ok"}
    try:
        with TraceWriter(out / f"{entry.label}_trace.csv") as writer:
            if entry.name == "and":
                result = run_and(a0, y, entry.config, truth=truth,
                                 eval_every=eval_every, on_row=writer)
            else:
                result = run_baseline(entry.config, y, a0, truth=truth,
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
    """Run every configured solver against the dataset files in `out_dir`."""
    out = Path(out_dir)
    for fname in ("Y.mat", "A0.mat"):
        if not (out / fname).exists():
            raise FileNotFoundError(f"missing dataset file {out / fname}; run generate first")
    y = read_matrix(out / "Y.mat")
    a0 = read_matrix(out / "A0.mat")
    truth = None
    if (out / "A_star.mat").exists():
        truth = GroundTruth.from_matrix(read_matrix(out / "A_star.mat"))
    eval_every = cfg.effective_eval_every()

    if jobs > 1 and len(cfg.solvers) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            statuses = list(pool.map(
                lambda e: _run_one(e, y, a0, truth, eval_every, out), cfg.solvers
            ))
    else:
        statuses = [_run_one(e, y, a0, truth, eval_every, out) for e in cfg.solvers]

    summary = {
        "config_sha256": cfg.config_hash(),
        "solvers": statuses,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def evaluate(estimate_path, truth_path) -> dict:
    """Correlation-error report of an estimate file against a truth file."""
    est = read_matrix(estimate_path)
    truth = read_matrix(truth_path)
    if est.shape[0] != truth.shape[0]:
        raise ValueError(
            f"row mismatch: estimate has {est.shape[0]}, truth has {truth.shape[0]}"
        )
    return metrics.total_correlation_error(est, truth).to_json_dict()


def gcc_report(weights_path) -> dict:
    """Empirical correlation bounds, raw moments, and the decay profile of a
    weight sample stored as a D x n matrix."""
    x = read_matrix(weights_path)
    est = gcc_from_samples(x)
    profile = decay_profile(x, DECAY_GRID)
    q_hat = profile.q_hat
    return {
        "params": est.params.as_dict(),
        "moments": {
            "n_samples": est.n_samples,
            "max_diag": est.max_diag,
            "max_offdiag": est.max_offdiag,
            "min_eig": est.min_eig,
        },
        "decay": {
            "alphas": [float(a) for a in profile.alphas],
            "max_cdf": [float(c) for c in profile.max_cdf],
            "q_hat": "inf" if np.isinf(q_hat) else float(q_hat),
            "skipped_coordinates": list(profile.skipped),
        },
    }
