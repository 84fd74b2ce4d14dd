"""Differential checks of `solver.run` against the per-iteration reference loop.

`reference_run` is the staged solver as it was before stages ran in their Gram
form: every iteration decodes its batch and takes the gradient step through
`(Y - A Z) Z^T`, and every trace row is evaluated on its own by the exact-SVD
`per_row_oracle`. The production path must give the same rows and the same
final matrix up to rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from andnmf import solver
from andnmf.linalg import as_matrix, full_rank_pseudo_inverse, spectral_norm
from andnmf.solver import (
    AndConfig,
    AndResult,
    DivergenceError,
    RunTrace,
    ThresholdSchedule,
    TraceRow,
    decode,
    run,
    stage_threshold,
)
from andnmf.synth import InitSpec, NoiseSpec, generate_dataset, generate_ground_truth, generate_initialization
from andnmf.weights import WeightSpec

import per_row_oracle

DIVERGENCE_LIMIT = solver.DIVERGENCE_LIMIT
REL_TOL = 1e-12


def reference_run(a0, y, cfg: AndConfig, truth=None, eval_every: int = 1) -> AndResult:
    """The per-iteration solver loop, kept as the oracle for `solver.run`; each
    row is evaluated on its own by `per_row_oracle`."""
    a = as_matrix(a0, "a0").copy()
    y = as_matrix(y, "y")
    if eval_every < 1:
        raise ValueError(f"eval_every must be >= 1, got {eval_every}")
    w, n = y.shape
    if a.shape[0] != w:
        raise ValueError(f"a0 has {a.shape[0]} rows but y has {w}")
    a_star = None if truth is None else as_matrix(truth.a_star, "a_star")
    pinv_star = None if truth is None else full_rank_pseudo_inverse(a_star)
    trace = RunTrace()

    def row(j, t, alpha, err, e_norm=None, n_norm=None):
        log10 = math.log10(err) if err > 0 else -math.inf
        trace.append(TraceRow(j, t, 0.0, alpha, err, log10, e_norm, n_norm))

    schedule = cfg.schedule
    batch = n if cfg.batch == "full" else min(cfg.batch, n)

    for j in range(cfg.stages):
        pinv = full_rank_pseudo_inverse(a, name="working matrix")
        trace.pinv_count += 1
        if schedule.kind == "theory":
            e_est = per_row_oracle.row_values(a, a_star, pinv_star)[1]
            alpha = stage_threshold(schedule, j, e_est)
        else:
            alpha = stage_threshold(schedule, j)
        eta = cfg.eta
        for t in range(cfg.iters_per_stage):
            if batch == n:
                y_batch = y
            else:
                cols = (t * batch + np.arange(batch)) % n
                y_batch = y[:, cols]
            z = decode(pinv, y_batch, alpha)
            if eta is None:
                # curvature-scaled step, fixed for the rest of the stage
                eta = 0.5 / (spectral_norm(z @ z.T) + 1e-12)
            resid = y_batch - a @ z
            a = a + eta * (resid @ z.T)
            # negated so that a NaN entry counts as diverged too
            if not np.abs(a).max() <= DIVERGENCE_LIMIT:
                row(j, t, alpha, math.inf)
                raise DivergenceError(j, t, trace)
            if t % eval_every == 0 or t == cfg.iters_per_stage - 1:
                if truth is None:
                    row(j, t, alpha, float(np.linalg.norm(resid)))
                else:
                    row(j, t, alpha, *per_row_oracle.row_values(a, a_star, pinv_star))
    return AndResult(a=a, trace=trace)


def _problem(w, d, n, seed, weights="dirichlet"):
    gt = generate_ground_truth(w, d, seed=seed)
    if weights == "dirichlet":
        wspec = WeightSpec.dirichlet(d, 1.0, seed=seed + 1)
    else:
        wspec = WeightSpec.sparse_binary(d, min(2, d), seed=seed + 1)
    ds = generate_dataset(gt, wspec, NoiseSpec(0.0), n, seed=seed + 2)
    init = generate_initialization(gt, InitSpec(r_l=0.5, seed=seed + 3))
    return gt, ds.y, init.a0


def _outcome(fn, *args, **kwargs):
    """(result, None) of a finished run or (None, DivergenceError)."""
    try:
        return fn(*args, **kwargs), None
    except DivergenceError as exc:
        return None, exc


def _close(got, ref, floor):
    """|got - ref| <= 1e-12 * max(|ref|, floor), elementwise."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return bool(np.all(np.abs(got - ref) <= REL_TOL * np.maximum(np.abs(ref), floor)))


SCHEDULES = {
    "constant": ThresholdSchedule.constant(0.2),
    "geometric": ThresholdSchedule.geometric(),
    "theory": ThresholdSchedule.theory(lam=2 / 3, r=3.0, q=2.0),
}


# 100 draws under the default `ci` profile, the profile's count under `stress`
@settings(deadline=None, max_examples=max(100, settings.default.max_examples))
@given(
    d=st.integers(2, 4),
    extra_w=st.integers(0, 12),
    n=st.integers(12, 48),
    seed=st.integers(0, 10_000),
    weights=st.sampled_from(["dirichlet", "binary"]),
    batch_kind=st.sampled_from(["full", "n", "mini"]),
    window=st.integers(1, 47),
    schedule=st.sampled_from(sorted(SCHEDULES)),
    eta_kind=st.sampled_from(["curvature", "explicit"]),
    with_truth=st.booleans(),
    stages=st.integers(1, 4),
    iters=st.integers(1, 8),
    eval_every=st.integers(1, 4),
)
def test_run_matches_reference_loop(d, extra_w, n, seed, weights, batch_kind, window,
                                    schedule, eta_kind, with_truth, stages, iters,
                                    eval_every):
    gt, y, a0 = _problem(d + 2 + extra_w, d, n, seed, weights)
    batch = {"full": "full", "n": n, "mini": min(window, n - 1)}[batch_kind]
    # an explicit step a little under the curvature-scaled one of the first decode
    eta = None
    if eta_kind == "explicit":
        z0 = decode(full_rank_pseudo_inverse(a0, 1e-12, "a0"), y, 0.1)
        eta = 0.4 / (spectral_norm(z0 @ z0.T) + 1.0)
    cfg = AndConfig(stages=stages, iters_per_stage=iters, eta=eta,
                    schedule=SCHEDULES[schedule], batch=batch)
    truth = gt if with_truth else None
    if schedule == "theory" and truth is None:
        with pytest.raises(ValueError, match="ground truth"):
            run(a0, y, cfg, eval_every=eval_every)
        return

    ref, ref_exc = _outcome(reference_run, a0, y, cfg, truth=truth, eval_every=eval_every)
    got, got_exc = _outcome(run, a0, y, cfg, truth=truth, eval_every=eval_every)
    assert (ref_exc is None) == (got_exc is None)
    if ref_exc is not None:
        assert (got_exc.stage, got_exc.iteration) == (ref_exc.stage, ref_exc.iteration)
        ref_rows, got_rows = ref_exc.trace.rows, got_exc.trace.rows
    else:
        ref_rows, got_rows = ref.trace.rows, got.trace.rows
        assert got.trace.pinv_count == ref.trace.pinv_count
    floor = spectral_norm(gt.a_star)

    assert [(r.stage, r.iteration) for r in got_rows] == \
           [(r.stage, r.iteration) for r in ref_rows]
    for g, r in zip(got_rows, ref_rows):
        if schedule == "theory" and with_truth:
            assert g.alpha == pytest.approx(r.alpha, rel=REL_TOL, abs=0)
        else:
            assert g.alpha == r.alpha
        assert _close(g.total_error, r.total_error, floor)
        assert (g.e_norm is None) == (r.e_norm is None)
        assert (g.n_norm is None) == (r.n_norm is None)
        if r.e_norm is not None:
            assert _close(g.e_norm, r.e_norm, floor)
            assert _close(g.n_norm, r.n_norm, floor)
    if ref_exc is None:
        assert _close(got.a, ref.a, floor)


@pytest.mark.parametrize("batch", ["full", "n", 7, 10])
def test_one_decode_per_full_batch_stage(monkeypatch, batch):
    # each distinct window is decoded once per stage: windows start at
    # (t * b) mod n, so a stage of T iterations visits min(T, n / gcd(n, b))
    gt, y, a0 = _problem(24, 4, 40, seed=3)
    n = y.shape[1]
    batch = n if batch == "n" else batch
    b = n if batch == "full" else batch
    iters = 12 if b == 10 else 5
    cfg = AndConfig(stages=3, iters_per_stage=iters, batch=batch)
    calls = []
    original = solver.decode

    def counting_decode(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "decode", counting_decode)
    got = run(a0, y, cfg, truth=gt)
    assert len(calls) == cfg.stages * min(iters, n // math.gcd(n, b))
    ref = reference_run(a0, y, cfg, truth=gt)
    floor = spectral_norm(gt.a_star)
    assert [(r.stage, r.iteration) for r in got.trace.rows] == \
           [(r.stage, r.iteration) for r in ref.trace.rows]
    for g, r in zip(got.trace.rows, ref.trace.rows):
        assert g.alpha == r.alpha
        assert _close(g.total_error, r.total_error, floor)
    assert _close(got.a, ref.a, floor)


@pytest.mark.parametrize("batch", ["full", 9])
def test_no_truth_residual_is_of_the_entering_state(batch):
    # each row's residual is ||Y - A_prev Z||_F with A_prev the matrix entering
    # that iteration; the update moves A by far more than the tolerance here
    gt, y, a0 = _problem(30, 5, 60, seed=11)
    cfg = AndConfig(stages=3, iters_per_stage=7, batch=batch)
    ref = reference_run(a0, y, cfg, eval_every=3)
    got = run(a0, y, cfg, eval_every=3)
    assert [(r.stage, r.iteration) for r in got.trace.rows] == \
           [(r.stage, r.iteration) for r in ref.trace.rows] == \
           [(s, t) for s in range(3) for t in (0, 3, 6)]
    for g, r in zip(got.trace.rows, ref.trace.rows):
        assert g.total_error == pytest.approx(r.total_error, rel=REL_TOL, abs=0)
