"""Staged alternating solver: pseudo-inverse decode, threshold, gradient update.

One run is `stages` blocks of `iters_per_stage` gradient iterations. Within a
stage the decoding matrix is the pseudo-inverse of the stage-start working
matrix (computed once per stage) and the threshold is fixed by the schedule:

    decode   Z = phi_alpha(Pinv @ Y)
    update   A <- A + eta * (Y - A @ Z) @ Z.T

Batch semantics: the gradient accumulates over all columns of the batch before
A changes. The default is the whole dataset per iteration; `batch=b` uses a
cyclic window of b columns per iteration, starting at column (t * b) mod n
(b = n reproduces full batch bitwise; b = 1 is the one-sample-per-step variant).

Pinv, alpha and Y are all fixed within a stage, so the decode Z_w of each
window is too. Each stage therefore runs in its Gram form: at a window's first
visit in the stage, Z_w, G_w = Z_w Z_w^T and B_w = Y_w Z_w^T are computed once,
and every iteration is

    update   A <- A + eta * (B_w - A @ G_w)

which gives the same iterates up to rounding at O(W D^2) per iteration. The
full batch is the case of a single window, decoded once per stage.

`simulate_update_recurrence` is a numeric harness for the contraction that
drives the analysis of this update: iterating M <- M (I - eta L) + eta Q L
+ eta R with a PSD L and bounded disturbances R keeps
||M_t - Q|| <= ||M_0 - Q|| (1 - eta lmin)^t + ||R||_bound / lmin.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .linalg import as_matrix, full_rank_pseudo_inverse, spectral_norm, threshold_elementwise

DIVERGENCE_LIMIT = 1e12
_THEORY_ALPHA_FLOOR = 1e-12
# numerator of the curvature-scaled step eta = _ETA_SCALE / (||G||_2 + 1e-12)
_ETA_SCALE = 0.5


class DivergenceError(RuntimeError):
    """A working-matrix entry exceeded the divergence limit."""

    def __init__(self, stage, iteration, trace):
        super().__init__(
            f"solver diverged at stage {stage}, iteration {iteration} "
            f"(|entry| > {DIVERGENCE_LIMIT:g})"
        )
        self.stage = stage
        self.iteration = iteration
        self.trace = trace


class RecurrenceBoundError(AssertionError):
    """The contraction bound failed at some step of the simulated recurrence."""


@dataclass(frozen=True)
class ThresholdSchedule:
    """Stage threshold policy, checked when built.

    constant:  alpha_j = c
    geometric: alpha_j = start * ratio^j
    theory:    alpha_j = (lam * ||E||_2 / r)^(2 / (q + 1)), clamped to
               (0, 1/4]; requires an estimate of the current mixing norm.

    A kind's parameters without a default (c; lam, r and q) are required.
    """

    kind: str
    c: float | None = None
    start: float = 0.1
    ratio: float = 1.0 / 1.1
    lam: float | None = None
    r: float | None = None
    q: float | None = None

    @classmethod
    def constant(cls, c):
        return cls(kind="constant", c=c)

    @classmethod
    def geometric(cls, start=0.1, ratio=1.0 / 1.1):
        return cls(kind="geometric", start=start, ratio=ratio)

    @classmethod
    def theory(cls, lam, r, q):
        return cls(kind="theory", lam=lam, r=r, q=q)

    # every check is negated so that NaN fails it
    def __post_init__(self):
        if self.kind == "constant":
            if self.c is None or not self.c >= 0:
                raise ValueError(f"constant threshold c must be >= 0, got {self.c}")
        elif self.kind == "geometric":
            if not self.start > 0:
                raise ValueError(f"geometric start must be > 0, got {self.start}")
            if not 0 < self.ratio <= 1:
                raise ValueError(f"geometric ratio must be in (0, 1], got {self.ratio}")
        elif self.kind == "theory":
            if None in (self.lam, self.r, self.q) or not (
                self.lam > 0 and self.r >= 1 and self.q >= 1
            ):
                raise ValueError(
                    f"theory schedule needs lam > 0, r >= 1, q >= 1; "
                    f"got lam={self.lam}, r={self.r}, q={self.q}"
                )
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")


def stage_threshold(schedule: ThresholdSchedule, j: int, e_norm_estimate=None) -> float:
    if j < 0:
        raise ValueError(f"stage index must be >= 0, got {j}")
    if schedule.kind == "constant":
        return schedule.c
    if schedule.kind == "geometric":
        return schedule.start * schedule.ratio**j
    if e_norm_estimate is None:
        raise ValueError("theory schedule requires an e_norm_estimate")
    raw = (schedule.lam * e_norm_estimate / schedule.r) ** (2.0 / (schedule.q + 1.0))
    return float(min(max(raw, _THEORY_ALPHA_FLOOR), 0.25))


@dataclass(frozen=True)
class AndConfig:
    """Solver hyperparameters, checked when built.

    `eta=None` uses a curvature-scaled step recomputed at each stage start:
    0.5 / (||Z0 Z0^T||_2 + 1e-12) with Z0 the stage's decode of the full
    batch, or of its first window when `batch` is smaller than the dataset.
    `batch` is "full" or a positive window size.
    """

    stages: int = 30
    iters_per_stage: int = 50
    eta: float | None = None
    schedule: ThresholdSchedule = field(default_factory=ThresholdSchedule.geometric)
    batch: object = "full"

    # every check is negated so that NaN fails it
    def __post_init__(self):
        if not (self.stages >= 1 and self.iters_per_stage >= 1):
            raise ValueError("stages and iters_per_stage must be >= 1")
        if self.eta is not None and not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.batch != "full" and (
            isinstance(self.batch, bool) or not isinstance(self.batch, int) or self.batch < 1
        ):
            raise ValueError(f"batch must be 'full' or a positive int, got {self.batch!r}")


@dataclass
class TraceRow:
    stage: int
    iteration: int
    seconds: float
    alpha: float
    total_error: float
    log10_error: float
    e_norm: float | None
    n_norm: float | None


@dataclass
class RunTrace:
    rows: list[TraceRow] = field(default_factory=list)
    pinv_count: int = 0

    def append(self, row: TraceRow):
        self.rows.append(row)

    def stage_end_errors(self) -> np.ndarray:
        """Last recorded error of each stage, in stage order."""
        ends = {}
        for row in self.rows:
            ends[row.stage] = row.total_error
        return np.array([ends[s] for s in sorted(ends)])

    def stage_end_e_norms(self) -> np.ndarray:
        ends = {}
        for row in self.rows:
            if row.e_norm is not None:
                ends[row.stage] = row.e_norm
        return np.array([ends[s] for s in sorted(ends)])


# Iterates due a trace row are evaluated in stacks of at most this many bytes:
# several DIR-sized (200 x 20) iterates share each vectorised pass, and the
# stack stays cache-sized (a whole 50-iterate DIR stage is slower and larger).
EVAL_BATCH_BYTES = 192 * 1024


class TraceRecorder:
    """Builds trace rows for one run and streams each to `on_row`.

    With a ground truth a row records the total correlation error and the
    in-span/out-of-span norms of the decomposition; without one it records the
    no-truth residual norm that the caller supplies. A row is due every
    `eval_every` iterations and at the last iteration of each stage.

    With a ground truth, recorded iterates are copied into a stack of at most
    EVAL_BATCH_BYTES and evaluated together when it fills, at `flush()` (the
    caller's stage end) and before a divergence row. A row's `seconds` is the
    time its iterate was recorded, and rows reach `on_row` in order.
    """

    def __init__(self, truth=None, on_row=None, eval_every: int = 1):
        if not eval_every >= 1:
            raise ValueError(f"eval_every must be >= 1, got {eval_every}")
        self.eval_every = eval_every
        self.evaluator = None
        self._stack = None
        if truth is not None:
            a_star = getattr(truth, "a_star", truth)
            self.evaluator = metrics.Evaluator(a_star)
            shape = self.evaluator.a_star.shape
            capacity = max(1, EVAL_BATCH_BYTES // (8 * shape[0] * shape[1]))
            self._stack = np.empty((capacity,) + shape)
        self._pending = []  # (stage, iteration, alpha, seconds) of the stacked iterates
        self.trace = RunTrace()
        self._on_row = on_row
        self._t0 = time.perf_counter()

    def due(self, t: int, stage_length: int) -> bool:
        """Whether iteration `t` of a stage of `stage_length` iterations gets a row."""
        return t % self.eval_every == 0 or t == stage_length - 1

    def record(self, stage, iteration, alpha, a, residual_norm):
        """Record the row of estimate `a`; `residual_norm()` is called only
        without a ground truth, whose rows are emitted at once."""
        seconds = time.perf_counter() - self._t0
        if self.evaluator is None:
            self._emit(stage, iteration, seconds, alpha, float(residual_norm()), None, None)
            return
        if np.shape(a) != self.evaluator.a_star.shape:
            raise ValueError(f"shape mismatch: {np.shape(a)} != {self.evaluator.a_star.shape}")
        self._stack[len(self._pending)] = a
        self._pending.append((stage, iteration, alpha, seconds))
        if len(self._pending) == len(self._stack):
            self.flush()

    def flush(self):
        """Evaluate the stacked iterates and emit their rows in order."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        totals, e_norms, n_norms = self.evaluator.evaluate(self._stack[:len(pending)])
        for (stage, iteration, alpha, seconds), err, e, n in zip(pending, totals, e_norms, n_norms):
            self._emit(stage, iteration, seconds, alpha, float(err), float(e), float(n))

    def record_divergence(self, stage, iteration, alpha):
        """Emit the rows still stacked, then the row of a diverged estimate
        without evaluating it."""
        self.flush()
        self._emit(stage, iteration, time.perf_counter() - self._t0, alpha, math.inf, None, None)

    def _emit(self, stage, iteration, seconds, alpha, err, e_norm, n_norm):
        row = TraceRow(
            stage=stage,
            iteration=iteration,
            seconds=seconds,
            alpha=alpha,
            total_error=err,
            log10_error=math.log10(err) if err > 0 else -math.inf,
            e_norm=e_norm,
            n_norm=n_norm,
        )
        self.trace.append(row)
        if self._on_row is not None:
            self._on_row(row)


@dataclass
class AndResult:
    a: np.ndarray
    trace: RunTrace


def decode(pinv, y, alpha: float) -> np.ndarray:
    """Z = phi_alpha(pinv @ y), columnwise; output entries are >= alpha or 0."""
    pinv = as_matrix(pinv, "pinv")
    y = as_matrix(y, "y")
    if pinv.shape[1] != y.shape[0]:
        raise ValueError(f"shape mismatch: pinv is {pinv.shape}, y is {y.shape}")
    return threshold_elementwise(pinv @ y, alpha)


def _window(y, start: int, b: int) -> np.ndarray:
    """Columns start .. start + b - 1 of y, cyclically: a view unless the window
    wraps past the last column. Not cached with the stage's windows, since a
    wrapping copy is W x b where the cached Z_w is only D x b."""
    n = y.shape[1]
    if start + b <= n:
        return y[:, start:start + b]
    return y[:, (start + np.arange(b)) % n]


def run(a0, y, cfg: AndConfig, truth=None, eval_every: int = 1, on_row=None) -> AndResult:
    """Run the staged solver on Y from the initialization a0.

    With a ground truth the trace records the total correlation error (and the
    in-span/out-of-span norms from the decomposition); without one it records
    the residual ||Y_w - A Z_w||_F of the iteration's window and of the state
    entering the iteration.
    Rows are recorded every `eval_every` iterations plus the last iteration of
    each stage, and stream to `on_row` in order: with a ground truth, once per
    evaluated stack of iterates (see TraceRecorder), and every row of a stage
    before the next stage starts. An iterate with an entry
    beyond DIVERGENCE_LIMIT in magnitude (or a NaN) is not evaluated: its row
    records total_error = inf, and DivergenceError carries the partial trace.

    The theory-driven schedule needs the current mixing norm, which is only
    observable against a ground truth; without one the run is refused with
    ValueError before its first stage.
    """
    a = as_matrix(a0, "a0").copy()
    y = as_matrix(y, "y")
    w, n = y.shape
    if a.shape[0] != w:
        raise ValueError(f"a0 has {a.shape[0]} rows but y has {w}")
    recorder = TraceRecorder(truth, on_row, eval_every)
    evaluator, trace = recorder.evaluator, recorder.trace

    schedule = cfg.schedule
    if schedule.kind == "theory" and evaluator is None:
        raise ValueError("a theory schedule needs a ground truth to estimate the mixing norm")

    batch = n if cfg.batch == "full" else min(cfg.batch, n)

    for j in range(cfg.stages):
        pinv = full_rank_pseudo_inverse(a, name="working matrix")
        trace.pinv_count += 1
        if schedule.kind == "theory":
            e_est = evaluator.decompose(a).off_diag_norm
            alpha = stage_threshold(schedule, j, e_est)
        else:
            alpha = stage_threshold(schedule, j)
        eta = cfg.eta
        # pinv and alpha change between stages, so a window's Gram form is
        # valid for this stage only
        windows = {}
        for t in range(cfg.iters_per_stage):
            start = t * batch % n
            if start not in windows:
                y_w = _window(y, start, batch)
                z = decode(pinv, y_w, alpha)
                windows[start] = (z, z @ z.T, y_w @ z.T)
            z, g, bm = windows[start]
            if eta is None:
                # curvature-scaled step, fixed for the rest of the stage
                eta = _ETA_SCALE / (spectral_norm(g) + 1e-12)
            a_prev = a
            a = a + eta * (bm - a @ g)
            # negated so that a NaN entry counts as diverged too
            if not np.abs(a).max() <= DIVERGENCE_LIMIT:
                recorder.record_divergence(j, t, alpha)
                raise DivergenceError(j, t, trace)
            if recorder.due(t, cfg.iters_per_stage):
                # the residual of the state entering this iteration, not of `a`
                recorder.record(j, t, alpha, a,
                                lambda: np.linalg.norm(_window(y, start, batch) - a_prev @ z))
        recorder.flush()
    return AndResult(a=a, trace=trace)


@dataclass
class RecurrenceResult:
    deviations: np.ndarray  # ||M_t - Q||_2 for t = 0..steps
    bounds: np.ndarray      # the contraction bound at each t
    m_final: np.ndarray


def simulate_update_recurrence(
    sigma0, e0, lam, target, r_bound: float, eta: float, steps: int, seed: int = 0
) -> RecurrenceResult:
    """Iterate M <- M (I - eta L) + eta Q L + eta R_t and check the bound
    ||M_t - Q|| <= ||M_0 - Q|| (1 - eta lmin(L))^t + r_bound / lmin(L)
    at every step. Disturbances R_t are drawn from `seed` with spectral norm
    exactly r_bound. Raises RecurrenceBoundError if the bound ever fails.
    """
    sigma0 = as_matrix(sigma0, "sigma0")
    e0 = as_matrix(e0, "e0")
    lam = as_matrix(lam, "lam")
    target = as_matrix(target, "target")
    d = sigma0.shape[0]
    for name, m in (("sigma0", sigma0), ("e0", e0), ("lam", lam), ("target", target)):
        if m.shape != (d, d):
            raise ValueError(f"{name} must be {d}x{d}, got {m.shape}")
    if np.any(sigma0 - np.diag(np.diag(sigma0)) != 0):
        raise ValueError("sigma0 must be diagonal")
    if np.any(np.diag(e0) != 0):
        raise ValueError("e0 must have a zero diagonal")
    if not np.allclose(lam, lam.T, atol=1e-10):
        raise ValueError("lam must be symmetric")
    eigs = np.linalg.eigvalsh((lam + lam.T) / 2.0)
    if eigs[0] < -1e-10:
        raise ValueError(f"lam must be PSD, got min eigenvalue {eigs[0]:.3e}")
    lmin, lmax = max(eigs[0], 0.0), eigs[-1]
    if eta <= 0 or eta * lmax >= 1:
        raise ValueError(f"need 0 < eta * lmax(lam) < 1, got eta*lmax={eta * lmax:.3g}")
    if r_bound < 0:
        raise ValueError(f"r_bound must be >= 0, got {r_bound}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")

    rng = np.random.default_rng(seed)
    m = sigma0 + e0
    dev0 = spectral_norm(m - target)
    tail = r_bound / lmin if lmin > 0 else (math.inf if r_bound > 0 else 0.0)
    contraction = 1.0 - eta * lmin
    identity = np.eye(d)
    deviations = [dev0]
    bounds = [dev0 + tail]
    for t in range(1, steps + 1):
        if r_bound > 0:
            raw = rng.uniform(-1.0, 1.0, size=(d, d))
            r = raw * (r_bound / spectral_norm(raw))
        else:
            r = np.zeros((d, d))
        m = m @ (identity - eta * lam) + eta * target @ lam + eta * r
        dev = spectral_norm(m - target)
        bound = dev0 * contraction**t + tail
        deviations.append(dev)
        bounds.append(bound)
        if dev > bound * (1.0 + 1e-9) + 1e-12:
            raise RecurrenceBoundError(
                f"bound violated at step {t}: deviation {dev:.6e} > bound {bound:.6e}"
            )
    return RecurrenceResult(
        deviations=np.array(deviations), bounds=np.array(bounds), m_final=m
    )
