"""Staged alternating solver: pseudo-inverse decode, threshold, gradient update.

One run is `stages` blocks of `iters_per_stage` (T) gradient iterations.
Within a stage the decoding matrix is the pseudo-inverse of the stage-start
working matrix (computed once per stage), the threshold is
alpha_j = start * ratio^j, and the step eta = 0.5 / (lambda_max(G0) + 1e-12)
comes from the one `eigh` per stage of G0 = Z0 Z0^T, the Gram of the decode
Z0 of the stage's first window:

    decode   Z = phi_alpha(Pinv @ Y)
    update   A <- A + eta * (Y_w - A @ Z_w) @ Z_w.T

Iteration t of a stage sums the gradient over the cyclic window of b columns
from column (t * b) mod n; the default batch is the whole dataset, b = n.
Pinv, alpha and Y are fixed within a stage and the threshold acts columnwise,
so `_stage` decodes Y once and slices each window it visits, min(T, n /
gcd(n, b)) of them, out of Y and Z once, with G_w = Z_w Z_w^T and
B_w = Y_w Z_w^T. The decode and B_w read Y only through @ and column
windows, as the operand `linalg.factor_columns` makes of it once per run;
the residual of a row without a ground truth reads Y itself.
Every iteration is then

    update   A <- A + eta * (B_w - A @ G_w)

When that operand is the factor Y = Q R (`linalg.LowRank`, Q W x r with
orthonormal columns), a stage whose working matrix A lies in span(Q),
||A - Q Q^T A||_F <= 1e-12 ||A||_F (the factor's own tolerance), runs
rotated, on the r-row problem (Q^T A, R): P Y = (Q^T A)^+ R, and
B_w = Q R_w Z_w^T keeps every update in span(Q). Its pseudo-inverse, the
decode, each G_w and R_w Z_w^T and every update are r rows high, not W,
and its last iterate is lifted once, A = Q (Q^T A). Every stage decides
from its own explicit A, so chained one-stage runs end on the multi-stage
run's bits. A stage whose A is out of span(Q) (an A0 with a part outside
span(Y), until the stages shrink it), and every stage of a run whose factor
is refused (noisy Y), runs explicit, W rows high; `_stage` runs both.

A stage that visits one window (b = n, or T = 1) runs one fixed linear map,
in closed form. With G = V diag(lambda) V^T from that same `eigh`,
A~ = A V and B~ = B V, an update scales the columns: A~ <- A~ * mu + eta * B~
with mu = 1 - eta * lambda, so k updates are

    A_k = (A~ * mu^k + B~ * phi_k) V^T,   phi_k = eta * sum_{i<k} mu^i

for D-vectors mu^k and phi_k, which each iteration advances by one
multiply-add. A mode with lambda = 0 needs no special case (mu = 1,
phi_k = k * eta), and no pseudo-inverse of G is taken. Every A_k is formed
from the stage-start [A~ B~], so the stage-end A does not depend on which
rows were recorded.

A trace row keeps its iterate as `TraceRecorder.coordinates`: with a ground
truth, the split [u^T A; R] of `metrics.Evaluator.coordinates`, u the
orthonormal basis of the truth's column space; without one, A itself. For
any S, coordinates(M) S are coordinates of M S, so the stage splits
M = [A~ B~] once and forms each row's by the same scaling,

    (X_A * mu^k + X_B * phi_k) V^T,   [X_A X_B] = coordinates(M),

With a truth these are D + min(W, 2D) rows, evaluated in O(D^3), and A is
formed once, at the stage end; without one they are the iterate itself.
A rotated stage's rows use the same identity with M = Q: they keep
coordinates(Q) (Q^T A), D + min(W, r) rows, from the one coordinates(Q)
of the run; without a truth, the lifted Q (Q^T A), whose residual reads Y.

A stage that visits several windows cycles through different G_w, so it
keeps the per-iteration loop in Gram form, at O(h D^2) an iteration for
an iterate h = W or r rows high.

`start` checks the inputs once, for `run` and the baselines; the stages do
arithmetic, and `decode` checks P Y once: from finite inputs, a non-finite
one diverges at the stage's iteration 0 (the limit is not applied to Z).
`TraceRecorder.check_divergence` guards the stages and the baselines: an entry
that is NaN or beyond its `limit`, DIVERGENCE_LIMIT * max(1, max|Y|), in
magnitude diverges, a limit that scales with Y and A0 as the iterates do. A
stage of several windows checks every iterate; a one-window stage checks the
iterates of its trace rows (see `_closed_form`). An iterate passes on its
column norms, which Q keeps in a rotated stage; only one that fails that
bound is formed W rows high for the entrywise check.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import metrics
from .linalg import (_FACTOR_TOL, LowRank, SvdConvergenceError, as_matrix, factor_columns,
                     first_non_finite, frobenius_norm, full_rank_pseudo_inverse,
                     threshold_elementwise)

DIVERGENCE_LIMIT = 1e12
# numerator of the curvature-scaled step eta = _ETA_SCALE / (lambda_max(G0) + 1e-12)
_ETA_SCALE = 0.5


class DivergenceError(RuntimeError):
    """An iterate entry was NaN or exceeded the run's divergence limit, or
    `cause` happened (a decode that overflowed)."""

    def __init__(self, stage, iteration, trace, limit, cause=None):
        super().__init__(f"solver diverged at stage {stage}, iteration {iteration} "
                         f"({cause or f'NaN or |entry| > {limit:g}'})")
        self.stage = stage
        self.iteration = iteration
        self.trace = trace


@dataclass(frozen=True)
class ThresholdSchedule:
    """Stage threshold policy alpha_j = start * ratio^j, checked when built.

    ratio = 1 holds the threshold at `start` for every stage.
    """

    start: float = 0.1
    ratio: float = 1.0 / 1.1

    # every check is negated so that NaN fails it
    def __post_init__(self):
        if not self.start >= 0:
            raise ValueError(f"schedule start must be >= 0, got {self.start}")
        if not 0 < self.ratio <= 1:
            raise ValueError(f"schedule ratio must be in (0, 1], got {self.ratio}")


def stage_threshold(schedule: ThresholdSchedule, j: int) -> float:
    """The threshold alpha_j of stage j >= 0; it reads only the schedule."""
    if not j >= 0:  # negated so that NaN fails it
        raise ValueError(f"stage index must be >= 0, got {j}")
    return schedule.start * schedule.ratio**j


@dataclass(frozen=True)
class AndConfig:
    """Solver hyperparameters, checked when built.

    `batch` is "full" or a positive window size b; iteration t of a stage
    reads the b columns from (t * b) mod n on, cyclically. Each stage's step
    is curvature-scaled, set at the stage start from its one `eigh` of
    G0 = Z0 Z0^T: 0.5 / (lambda_max(G0) + 1e-12), with Z0 the decode of the
    stage's first window, the whole dataset at full batch. A Z0 of all zeros
    has no curvature, and `run` refuses it (ValueError). A stage that visits
    one window (full batch, or `iters_per_stage` 1) is one fixed linear map,
    which `run` applies in closed form in that eigenbasis of G0; any other
    stage updates every iteration. Either kind runs r rows high, not W, when
    Y is held as its factor Q R and the stage's working matrix lies in
    span(Q) (see the module docstring); the hyperparameters are the same.

    What a window smaller than the dataset leaves as it is: the step comes
    from the first window alone, so a later window of more curvature can
    make the stage diverge; and every stage restarts at column 0, so with
    iters_per_stage * b < n no stage reads the columns from
    iters_per_stage * b on, although each stage decodes all n columns,
    about n / (iters_per_stage * b) times the columns it reads. Fixing
    either changes the mini-batch iterates.
    """

    stages: int = 30
    iters_per_stage: int = 50
    schedule: ThresholdSchedule = field(default_factory=ThresholdSchedule)
    batch: object = "full"

    # every check is negated so that NaN fails it
    def __post_init__(self):
        for name in ("stages", "iters_per_stage"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
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

    def stage_end_errors(self) -> np.ndarray:
        """Last recorded error of each stage, in stage order."""
        ends = {}
        for row in self.rows:
            ends[row.stage] = row.total_error
        return np.array([ends[s] for s in sorted(ends)])


class TraceRecorder:
    """Builds trace rows for one run and streams each to `on_row`.

    With a ground truth a row records the total correlation error and the
    in-span/out-of-span norms of the decomposition; without one it records the
    residual norm of the row's iterate, which the caller supplies. A row is
    due every `eval_every` iterations and at the last iteration of each stage.
    `shape` is that of the run's estimates, checked once against the truth's.

    `limit`, DIVERGENCE_LIMIT * max(1, max|Y|) of the checked data `y` when
    built, is the run's one divergence limit; `check_divergence` reads it.

    With a ground truth, `record` keeps a row as its iterate's `coordinates`
    [X; R] (see `metrics`), D + min(W, D) rows for an explicit iterate,
    D + min(W, r) for a rotated one (see the module docstring). The
    kept rows are evaluated by one `Evaluator.evaluate_coordinates` call at
    `flush()` (the caller's stage end) and before a divergence row. A row's
    `seconds` is the time its iterate was recorded, and rows reach `on_row`
    in order.
    """

    def __init__(self, y, shape, truth=None, on_row=None, eval_every: int = 1):
        if not eval_every >= 1:
            raise ValueError(f"eval_every must be >= 1, got {eval_every}")
        self.eval_every = eval_every
        self.limit = DIVERGENCE_LIMIT * float(max(1.0, y.max(), -y.min()))  # no |Y| copy
        self.evaluator = None
        if truth is not None:
            self.evaluator = metrics.Evaluator(getattr(truth, "a_star", truth))
            if shape != self.evaluator.a_star.shape:
                raise ValueError(f"shape mismatch: {shape} != {self.evaluator.a_star.shape}")
        self._pending = []  # ((stage, iteration, alpha, seconds), coordinates) per row
        self.trace = RunTrace()
        self._on_row = on_row
        self._t0 = time.perf_counter()

    def due(self, t: int, stage_length: int) -> bool:
        """Whether iteration `t` of a stage of `stage_length` iterations gets a row."""
        return t % self.eval_every == 0 or t == stage_length - 1

    def coordinates(self, m):
        """What a row keeps of the W-row matrix `m`: its split
        `Evaluator.coordinates(m)` with a ground truth, `m` itself without."""
        return m if self.evaluator is None else self.evaluator.coordinates(m)

    def record(self, stage, iteration, alpha, x, residual_norm):
        """Record the row of the estimate whose `coordinates` are `x`;
        `residual_norm()`, that estimate's, is called only without a ground
        truth, whose rows are emitted at once."""
        seconds = time.perf_counter() - self._t0
        if self.evaluator is None:
            self._emit(stage, iteration, seconds, alpha, float(residual_norm()), None, None)
            return
        self._pending.append(((stage, iteration, alpha, seconds), x))

    def flush(self):
        """Evaluate the kept rows and emit them in order."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        values = self.evaluator.evaluate_coordinates(np.stack([x for _, x in pending]))
        for ((stage, iteration, alpha, seconds), _), err, e, n in zip(pending, *values):
            self._emit(stage, iteration, seconds, alpha, float(err), float(e), float(n))

    def check_divergence(self, stage, iteration, alpha, *iterates):
        """`diverge` if an iterate has a NaN or |entry| > `limit`."""
        # no |m| copy; a NaN maximum fails the comparison, so NaN counts as diverged
        if not all(m.max() <= self.limit and -m.min() <= self.limit for m in iterates):
            self.diverge(stage, iteration, alpha)

    def diverge(self, stage, iteration, alpha, cause=None):
        """Emit the kept rows and an unevaluated total_error = inf row; raise DivergenceError."""
        self.flush()
        self._emit(stage, iteration, time.perf_counter() - self._t0, alpha, math.inf, None, None)
        raise DivergenceError(stage, iteration, self.trace, self.limit, cause)

    def _emit(self, stage, iteration, seconds, alpha, err, e_norm, n_norm):
        row = TraceRow(stage, iteration, seconds, alpha, err,
                       math.log10(err) if err > 0 else -math.inf, e_norm, n_norm)
        self.trace.rows.append(row)
        if self._on_row is not None:
            self._on_row(row)


@dataclass
class AndResult:
    a: np.ndarray
    trace: RunTrace


def decode(pinv, y, alpha: float) -> np.ndarray:
    """Z = phi_alpha(pinv @ y), columnwise; output entries are >= alpha or 0.
    A product that overflowed to a non-finite entry raises FloatingPointError."""
    v = pinv @ y
    if first_non_finite(v) is not None:
        raise FloatingPointError("the decode pinv @ y has a non-finite entry")
    return threshold_elementwise(v, alpha)  # in place: v is the decode's own


def _window(m, start: int, b: int) -> np.ndarray:
    """Columns start .. start + b - 1 of m, cyclically: a view unless the window
    wraps past the last column, where it is a copy."""
    n = m.shape[1]
    if start + b <= n:
        return m[:, start:start + b]
    return m[:, (start + np.arange(b)) % n]


def _columns_within(x, limit) -> bool:
    """Whether every column of `x` has norm <= `limit`. max|x| is compared
    first, so a NaN or an overflowed entry fails without being squared, and
    the norms are taken of x / max|x|, which cannot overflow. No norm exceeds
    sqrt(rows) max|x|, so a small enough max|x| passes without them."""
    top = np.abs(x).max()
    if not top <= limit:  # negated so that NaN fails it
        return False
    if top * math.sqrt(len(x)) <= limit:
        return True
    unit = x / top
    return top * math.sqrt(np.einsum("ij,ij->j", unit, unit).max()) <= limit


def _iterate(m, mu_k, phi_k, vt) -> np.ndarray:
    """(M_A * mu^k + M_B * phi_k) V^T for M = [M_A M_B] of D columns each: the
    iterate A_k of a one-window stage from M = [A~ B~], or its coordinates
    from M = coordinates([A~ B~]) (see the module docstring)."""
    d = len(mu_k)
    return (m[:, :d] * mu_k + m[:, d:] * phi_k) @ vt


class _Frame(NamedTuple):
    """How a stage holds its iterates and reads Y. An explicit stage holds
    the W-row A and reads the run's operand for Y. A rotated stage holds the
    r-row Q^T A of an A that lies in span(Q), Q of the run's factor Y = Q R,
    and reads R; its iterates are A = Q (Q^T A)."""

    operand: object         # what the decode and each B_w read Y through
    coordinates: Callable   # what a trace row keeps of an iterate
    lift: Callable          # the W-row A of an iterate


def _in_span(a, q):
    """Q^T a when the working matrix `a` lies in the span of the orthonormal
    columns `q` to the factor's own tolerance (`linalg.factor_columns`),
    ||a - Q Q^T a||_F <= 1e-12 ||a||_F; else None."""
    c = q.T @ a
    if frobenius_norm(a - q @ c) <= _FACTOR_TOL * frobenius_norm(a):
        return c
    return None


def _stage(a, y, frame, pinv, alpha, j, iters, b, recorder):
    """One stage from `a` over cyclic windows of `b` columns; returns its last
    iterate. `a`, `pinv` and the iterates are held as `frame` holds them
    (`_Frame`): W rows high in an explicit stage, r in a rotated one.

    The decode P Y is taken once, from `frame.operand`. Iteration t reads the
    window starting at column (t * b) mod n; each window the stage visits is
    sliced out of the operand and Z once, in visit order, as
    (start, Z_w, G_w, B_w) with B_w = Y_w Z_w^T (R_w Z_w^T when rotated).
    Z_w is kept only for the residual of a row without a ground truth, which
    slices Y_w of `y` when it is taken. One `eigh` of the first G_w sets the
    step; a stage that visits one window advances in closed form in its
    eigenbasis (`_closed_form`), any other by one update per iteration, each
    iterate passing the divergence check on its column norms (which Q keeps)
    or, failing that, on the entries of its W-row A."""
    try:
        z = decode(pinv, frame.operand, alpha)
    except FloatingPointError as exc:  # no limit applies to Z, only finiteness
        recorder.diverge(j, 0, alpha, str(exc))
    n = y.shape[1]
    windows = []
    for t in range(min(iters, n // math.gcd(n, b))):
        start = t * b % n
        z_w = _window(z, start, b)
        # with a truth no row reads Z_w again, and Z is released below
        windows.append((start, z_w if recorder.evaluator is None else None,
                        z_w @ z_w.T, _window(frame.operand, start, b) @ z_w.T))
    del z, z_w
    try:
        lam, v = np.linalg.eigh(windows[0][2])
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"eigenvalues did not converge: {exc}") from exc
    if lam[-1] <= 0:
        raise ValueError(
            f"stage {j} decodes its first window to all zeros at "
            f"alpha={alpha:g}: no curvature to set the step from")
    eta = _ETA_SCALE / (lam[-1] + 1e-12)
    if len(windows) == 1:
        _, z_w, _, bm = windows[0]
        return _closed_form(a, _window(y, 0, b), z_w, bm, lam, v, eta, alpha, j, iters,
                            recorder, frame)
    for t in range(iters):
        start, z_w, g, bm = windows[t % len(windows)]
        a = a + eta * (bm - a @ g)
        if not _columns_within(a, recorder.limit):
            recorder.check_divergence(j, t, alpha, frame.lift(a))
        if recorder.due(t, iters):
            x = frame.coordinates(a)
            recorder.record(j, t, alpha, x,
                            lambda: frobenius_norm(_window(y, start, b) - x @ z_w))
    return a


def _closed_form(a, y, z, bm, lam, v, eta, alpha, j, iters, recorder, frame):
    """`iters` updates A <- A + eta (B - A G) of one window (Y, Z, B) from
    `a`, in the eigenbasis G = V diag(lam) V^T that the stage took; returns
    the last iterate. `a`, `bm` and the iterates are held as `frame` holds
    them (`_Frame`), so [A~ B~] is r rows high in a rotated stage.

    A row forms its iterate's `frame.coordinates` (the W-row iterate itself
    without a ground truth) and passes the divergence check when every column
    norm is within the recorder's `limit`, since no entry exceeds its
    column's norm; only a row that fails that bound forms its W-row iterate
    for the entrywise check."""
    mu = 1.0 - eta * lam
    vt = np.ascontiguousarray(v.T)  # a transposed view multiplies slower
    m = np.hstack([a @ v, bm @ v])  # [A~ B~]
    coords = frame.coordinates(m)
    mu_k, phi_k = np.ones_like(mu), np.zeros_like(mu)
    for t in range(iters):
        phi_k = phi_k + eta * mu_k
        mu_k = mu_k * mu
        if not recorder.due(t, iters):
            continue
        x = _iterate(coords, mu_k, phi_k, vt)
        if not _columns_within(x, recorder.limit):
            recorder.check_divergence(j, t, alpha, frame.lift(_iterate(m, mu_k, phi_k, vt)))
        recorder.record(j, t, alpha, x, lambda: frobenius_norm(y - x @ z))
    return _iterate(m, mu_k, phi_k, vt)


def start(a0, y, truth=None, on_row=None, eval_every: int = 1, nonnegative: bool = False):
    """The checked start of a run from a0 on Y, `run`'s and every baseline's:
    Y is checked, then A0 (copied), then that they have the same rows, then,
    for a `nonnegative` solver (MU), that Y has no negative entry, before Y
    is factored. Returns (a, y, recorder, yf): the checked arrays, the run's
    `TraceRecorder`, and the operand the run reads Y through
    (`linalg.factor_columns`)."""
    y = as_matrix(y, "y")
    a = as_matrix(a0, "a0").copy()
    if a.shape[0] != y.shape[0]:
        raise ValueError(f"a0 has {a.shape[0]} rows but y has {y.shape[0]}")
    recorder = TraceRecorder(y, a.shape, truth, on_row, eval_every)
    if nonnegative and y.min() < 0:  # no W x n mask
        raise ValueError("multiplicative updates require nonnegative data; "
                         "this dataset has negative entries")
    return a, y, recorder, factor_columns(y, a.shape[1])


def run(a0, y, cfg: AndConfig, truth=None, eval_every: int = 1, on_row=None) -> AndResult:
    """Run the staged solver on Y from the initialization a0.

    With a ground truth the trace records the total correlation error (and the
    in-span/out-of-span norms from the decomposition); without one it records
    the residual ||Y_w - A Z_w||_F of the iteration's window and of the
    row's iterate, the A that the iteration produced.
    Rows are recorded every `eval_every` iterations plus the last iteration of
    each stage, and stream to `on_row` in order: with a ground truth, a
    stage's rows in one evaluation at the stage end (see TraceRecorder), and
    every row of a stage before the next stage starts.

    `start` checks the inputs and makes the operand Y is read through, and
    each stage decodes all of it once and builds the windows it visits once
    (`_stage`). A stage that visits one window advances in closed form (the
    module docstring gives the form) and forms its stage-end A from the
    stage start alone, so the final matrix is the same bits at every
    `eval_every`.
    A stage of several windows updates A every iteration. The iterates agree
    up to rounding.

    Each stage starts from its explicit A. When Y is held as Q R and that A
    lies in span(Q), the stage runs rotated, r rows high, on Q^T A and R,
    and lifts its last iterate once; otherwise it runs explicit, W rows high
    (see the module docstring). Either way the rows and the final matrix
    agree up to rounding.

    An iterate with a NaN entry, or one beyond `TraceRecorder.limit` in
    magnitude, is not evaluated: its row records total_error = inf, and
    DivergenceError carries the partial trace. A stage of several windows
    checks every iterate, so `iteration` is the first that diverged. A
    one-window stage checks only the iterates of its rows, so `iteration` is
    the first row at or after the divergence: with `eval_every` > 1 the error
    may name a later iteration than an update-by-update check would, and the
    inf row is that row.

    The stage thresholds come from `cfg.schedule` alone, so a run with a
    ground truth and one without take the same steps and end on the same bits.
    """
    a, y, recorder, yf = start(a0, y, truth, on_row, eval_every)
    trace = recorder.trace
    n = y.shape[1]
    batch = n if cfg.batch == "full" else min(cfg.batch, n)
    explicit = _Frame(yf, recorder.coordinates, lambda m: m)
    rotated = None
    if isinstance(yf, LowRank):  # Q is the run's, so its row coordinates are taken once
        rotated = _Frame(yf.r, functools.partial(np.matmul, recorder.coordinates(yf.q)),
                         functools.partial(np.matmul, yf.q))

    for j in range(cfg.stages):
        a_q = None if rotated is None else _in_span(a, yf.q)
        frame, m = (explicit, a) if a_q is None else (rotated, a_q)
        pinv = full_rank_pseudo_inverse(m, name="working matrix")
        trace.pinv_count += 1
        alpha = stage_threshold(cfg.schedule, j)
        a = frame.lift(_stage(m, y, frame, pinv, alpha, j, cfg.iters_per_stage, batch,
                              recorder))
        recorder.flush()
    return AndResult(a=a, trace=trace)
