"""Reference NMF solvers for convergence comparisons.

Three standard alternating schemes over ||Y - A X||_F^2 with nonnegativity:
multiplicative updates (ratio rules with a denominator floor), hierarchical
ALS (cyclic exact single-column/row minimization, clipped at zero), and
alternating NNLS approximated by projected gradient with step 1/L per block.
All three are monotone per (half-)step up to the 1e-12 denominator floor.

`run_baseline` starts as the staged solver does (`solver.start`): one check
of Y and A0, one trace recorder, one operand for Y. The steps do arithmetic
on the checked arrays and read Y only as A^T Y and Y X^T, through that
operand. The residual ||Y - A X||_F of a row without a ground truth reads Y
itself. After each step the solver's divergence rule checks A and X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import first_non_finite, frobenius_norm, spectral_norm
from .solver import RunTrace, start

ALGORITHMS = ("mu", "hals", "anls")
_EPS = 1e-12  # denominator floor of every update
_ANLS_INNER_ITERS = 10  # projected-gradient steps per block of an ANLS step


@dataclass(frozen=True)
class BaselineConfig:
    """Baseline hyperparameters, checked when built."""

    algorithm: str = "hals"
    outer_iters: int = 200
    seed: int = 0

    # every check is negated so that NaN fails it
    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if (isinstance(self.outer_iters, bool) or not isinstance(self.outer_iters, int)
                or self.outer_iters < 0):
            raise ValueError(f"outer_iters must be an int >= 0, got {self.outer_iters!r}")


@dataclass
class BaselineResult:
    a: np.ndarray
    x: np.ndarray
    trace: RunTrace


def mu_step(a, x, y):
    """One multiplicative update of X then A; takes arrays run_baseline checked.

    A^T Y and Y X^T are clamped at 0: A, Y >= 0 make them nonnegative, and
    only the rounding of a factored Y (`linalg.LowRank`) can leave it."""
    x2 = x * np.maximum(a.T @ y, 0.0) / (a.T @ a @ x + _EPS)
    a2 = a * np.maximum(y @ x2.T, 0.0) / (a @ (x2 @ x2.T) + _EPS)
    return a2, x2


def hals_step(a, x, y):
    """One sweep of cyclic column updates of A, then row updates of X.

    Each block solves its single-variable least squares exactly and clips at
    zero; a zero denominator (unused component) leaves the block unchanged.
    Takes arrays that run_baseline checked, and copies them to update in place.
    """
    a = a.copy()
    x = x.copy()
    d = a.shape[1]
    xxt = x @ x.T
    yxt = y @ x.T
    for j in range(d):
        num = yxt[:, j] - a @ xxt[:, j]
        a[:, j] = np.maximum(0.0, a[:, j] + num / (xxt[j, j] + _EPS))
    ata = a.T @ a
    aty = a.T @ y
    for j in range(d):
        num = aty[j] - ata[j] @ x
        x[j] = np.maximum(0.0, x[j] + num / (ata[j, j] + _EPS))
    return a, x


def _pg_step(gram):
    """Projected-gradient step 1/||gram||_2; NaN when the Gram matrix
    overflowed, so the NaN iterate reaches the divergence rule."""
    if first_non_finite(gram) is not None:
        return np.nan
    return 1.0 / (spectral_norm(gram) + _EPS)


def anls_step(a, x, y):
    """Approximate alternating NNLS: `_ANLS_INNER_ITERS` projected-gradient
    steps on X with step 1/||A^T A||_2, then the same for A; takes arrays
    run_baseline checked."""
    ata = a.T @ a
    aty = a.T @ y
    step = _pg_step(ata)
    for _ in range(_ANLS_INNER_ITERS):
        x = np.maximum(0.0, x - step * (ata @ x - aty))
    xxt = x @ x.T
    yxt = y @ x.T
    step = _pg_step(xxt)
    for _ in range(_ANLS_INNER_ITERS):
        a = np.maximum(0.0, a - step * (a @ xxt - yxt))
    return a, x


def run_baseline(cfg: BaselineConfig, y, a0, truth=None, eval_every: int = 1, on_row=None) -> BaselineResult:
    """Drive one baseline from a0, tracing the same schema as the staged solver
    (stage fixed at 0, iteration = outer index, alpha = 0).

    X starts at seeded Unif[0, 1). Among `solver.start`'s checks, after those
    of the inputs and before Y is factored, MU rejects Y with negative
    entries; it clips a0 at zero, since its iterations cannot leave the
    nonnegative orthant. A NaN or an entry beyond `TraceRecorder.limit` in A
    or X raises DivergenceError.
    """
    mu = cfg.algorithm == "mu"
    a, y, recorder, yf = start(a0, y, truth, on_row, eval_every, nonnegative=mu)
    if mu:
        a = np.maximum(a, 0.0)
    x = np.random.default_rng(cfg.seed).random((a.shape[1], y.shape[1]))

    for it in range(cfg.outer_iters):
        if cfg.algorithm == "mu":
            a, x = mu_step(a, x, yf)
        elif cfg.algorithm == "hals":
            a, x = hals_step(a, x, yf)
        else:
            a, x = anls_step(a, x, yf)
        recorder.check_divergence(0, it, 0.0, a, x)
        if recorder.due(it, cfg.outer_iters):
            recorder.record(0, it, 0.0, recorder.coordinates(a),
                            lambda: frobenius_norm(y - a @ x))
            recorder.flush()  # a baseline's rows stream one by one
    return BaselineResult(a=a, x=x, trace=recorder.trace)
