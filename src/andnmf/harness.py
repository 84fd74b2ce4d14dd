"""Experiment orchestration: dataset generation, solver runs, evaluation.

Directory layout written by `generate` / `run` under one output directory:

    A_star.mat  X.mat  Y.mat  Zeta.mat  A0.mat  manifest.json
    <label>_trace.csv  <label>_A_final.mat  summary.json

Traces stream to disk as their rows are evaluated: with a ground truth, a
stack of recorded iterates at a time (`solver.TraceRecorder`), every stage's
rows by the stage's end, and every earlier row before a divergence row, so a
diverging run leaves its whole partial trace behind. A divergence or runtime
error is recorded in summary.json rather than crashing the other solvers. The manifest carries the resolved config, its
hash, every derived seed, and library versions: enough to reproduce each file
bitwise on the same machine.

`run` makes one OpenBLAS thread decision per run (`_blas_threads`). A run
of `and` solvers alone runs on one thread: its per-iteration product `A @ G`
is too small to thread, and only its stage GEMMs (decode `P @ Y`, `Y Zᵀ`)
are large enough to gain. At `paper-scale`, the largest preset, one thread
cost 7% of the CLI's wall time and saved 15% of its CPU time (benchmark, 10
pairs on a 2-core Xeon, OpenBLAS 0.3.31). The solve's output is then the
same bits whatever the host's count. Not measured: hosts with more than
2 CPUs, and `n` far above a preset's 5000, whose stage GEMMs would likely
gain from threads. A run with a baseline, whose products are threaded, caps
the count at `ncpu // workers`, `workers` being the number of solvers run at
a time. The count changes the order of BLAS sums, so outputs at one `jobs`
value are reproducible, and agree within rounding with those at another.
`summary.json` records the count as `blas_threads`.

No thread count decides how long an idle OpenBLAS worker spins. By default
each one busy-waits for `2**28` cycles (about 0.1 s) after it starts and
after every threaded call, whether or not more work comes; the timeout is
read once, when numpy loads OpenBLAS. The `andnmf` command therefore sets
`OPENBLAS_THREAD_TIMEOUT=4` (the minimum, `2**4` cycles) before numpy loads,
unless the environment already sets it (`cli`); this module, imported as a
library, changes no environment. Measured with the benchmark on a 2-core
Xeon (10 alternating pairs with and without it), `andnmf run`'s CPU time
fell from 1.11 to 0.81 s on `paper-scale` and by 10-17% on the other
workloads, with the same outputs. Wall times held, except that serial
baselines, whose threaded products now each wake a sleeping worker, took 9%
longer (`compare` at `--jobs 1`, 0.76 -> 0.84 s).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, metrics
from .baselines import run_baseline
from .config import ExperimentConfig
from .matio import TraceWriter, read_matrix, write_matrix
from .solver import DivergenceError, run as run_and
from .synth import generate_dataset, generate_ground_truth, generate_initialization
from .weights import NoClosedFormError, decay_profile, gcc_closed_form, gcc_from_samples

DECAY_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))

# (set, get) thread-count entry points of OpenBLAS builds, newest first: the
# scipy-openblas of numpy >= 2 wheels, 64-bit-integer builds, then plain ones
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


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


@functools.cache
def _openblas():
    """The (set, get) thread-count functions of the OpenBLAS loaded in this
    process, or None when none is found (another OS, MKL, Accelerate)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # the copy already loaded, not a second one
        except OSError:  # e.g. a file replaced on disk since it was loaded
            continue
        for set_name, get_name in _OPENBLAS_THREAD_FUNCS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


@contextlib.contextmanager
def _blas_threads(limit):
    """Run the block with OpenBLAS at `max(1, min(current, limit))` threads.

    The current count is restored after the block, also when it raises; at
    a limit at or above the count, it is only read.
    Yields the count the block runs with, or None when no OpenBLAS is found,
    in which case nothing is capped. The count is process-global: callers
    in a thread pool share one block around the whole pool.
    """
    found = _openblas()
    if found is None:
        yield None
        return
    set_threads, get_threads = found
    before = get_threads()
    capped = max(1, min(before, limit))
    if capped == before:
        yield before
        return
    set_threads(capped)
    try:
        yield capped
    finally:
        set_threads(before)


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
    """Run every configured solver against the dataset files in `out_dir`.

    Before any solver runs, `Y.mat` must be `W x n` and `A0.mat` (and
    `A_star.mat`, if present) `W x D` by the config, else `ValueError`.
    A ground truth in `A_star.mat` is checked by each solver's evaluator, so
    a rank-deficient one makes every solver `refused`. Any check that fails
    finds no results of an earlier run: `summary.json` and each configured
    label's trace and final matrix are deleted first.

    `workers = min(jobs, len(cfg.solvers))` solvers run at a time: in a
    thread pool, or on the calling thread when `workers` is 1, so that an
    interrupt stops the run at once. OpenBLAS runs on one thread when every
    solver is `and`, else on `ncpu // workers` threads (`_blas_threads`),
    until the last solver finishes. The summary records that count as
    `blas_threads` (None when no OpenBLAS is found).
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
    if all(e.name == "and" for e in cfg.solvers):
        limit = 1
    else:
        limit = len(os.sched_getaffinity(0)) // workers
    with _blas_threads(limit) as count:
        if workers == 1:
            statuses = list(map(solve, cfg.solvers))
        else:
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                statuses = list(pool.map(solve, cfg.solvers))

    summary = {"blas_threads": count, "config_sha256": cfg.config_hash(),
               "solvers": statuses}
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def evaluate(estimate_path, truth_path) -> dict:
    """Correlation-error report of an estimate file against a truth file."""
    return metrics.total_correlation_error(
        read_matrix(estimate_path), read_matrix(truth_path)
    ).to_json_dict()


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
