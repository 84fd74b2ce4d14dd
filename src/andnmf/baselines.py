"""Reference NMF solvers for convergence comparisons.

Three standard alternating schemes over ||Y - A X||_F^2 with nonnegativity:
multiplicative updates (ratio rules with a denominator floor), hierarchical
ALS (cyclic exact single-column/row minimization, clipped at zero), and
alternating NNLS approximated by projected gradient with step 1/L per block.
All three are monotone per (half-)step up to the 1e-12 denominator floor.

`run_baseline` checks Y and A0 once; the steps do arithmetic on checked
arrays and read Y only as A^T Y and Y X^T, through the operand that
`linalg.factor_columns` makes of it once per run. The residual ||Y - A X||_F
of a row without a ground truth reads Y itself. After each step the
solver's divergence rule checks A and X (see `solver`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, factor_columns, frobenius_norm, spectral_norm
from .solver import RunTrace, TraceRecorder

ALGORITHMS = ("mu", "hals", "anls")
_EPS = 1e-12  # denominator floor of every update


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
    if not np.isfinite(gram).all():
        return np.nan
    return 1.0 / (spectral_norm(gram) + _EPS)


def anls_step(a, x, y, inner_iters: int = 10):
    """Approximate alternating NNLS: `inner_iters` projected-gradient steps on
    X with step 1/||A^T A||_2, then the same for A; takes arrays run_baseline checked."""
    if inner_iters == 0:
        return a, x
    ata = a.T @ a
    aty = a.T @ y
    step = _pg_step(ata)
    for _ in range(inner_iters):
        x = np.maximum(0.0, x - step * (ata @ x - aty))
    xxt = x @ x.T
    yxt = y @ x.T
    step = _pg_step(xxt)
    for _ in range(inner_iters):
        a = np.maximum(0.0, a - step * (a @ xxt - yxt))
    return a, x


def run_baseline(cfg: BaselineConfig, y, a0, truth=None, eval_every: int = 1, on_row=None) -> BaselineResult:
    """Drive one baseline from a0, tracing the same schema as the staged solver
    (stage fixed at 0, iteration = outer index, alpha = 0).

    X starts at seeded Unif[0, 1). Multiplicative updates require nonnegative
    data; Y with negative entries is rejected up front, and a0 is clipped at
    zero for MU since its iterations cannot leave the nonnegative orthant.
    A NaN or an entry beyond `TraceRecorder.limit` in A or X raises DivergenceError.
    """
    y = as_matrix(y, "y")
    a = as_matrix(a0, "a0").copy()
    if a.shape[0] != y.shape[0]:
        raise ValueError(f"a0 has {a.shape[0]} rows but y has {y.shape[0]}")
    if cfg.algorithm == "mu":
        if y.min() < 0:  # no W x n mask
            raise ValueError(
                "multiplicative updates require nonnegative data; "
                "this dataset has negative entries"
            )
        a = np.maximum(a, 0.0)
    d = a.shape[1]
    rng = np.random.default_rng(cfg.seed)
    x = rng.random((d, y.shape[1]))
    recorder = TraceRecorder(y, a.shape, truth, on_row=on_row, eval_every=eval_every)
    yf = factor_columns(y, d)

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
