"""Differential checks of `solver.run` against the per-iteration reference loop.

`reference_run` is the staged solver as it was before stages ran in their Gram
form: every iteration decodes its batch and takes the gradient step through
`(Y - A Z) Z^T`, and every trace row is evaluated on its own by the exact-SVD
`per_row_oracle`. The production path must give the same rows and the same
final matrix up to rounding. On noiseless data `run` reads Y through its
factor Y = Q R, and the reference loop reads Y itself; the baselines'
factored runs are checked against their runs with the factor refused.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from andnmf import baselines, solver
from andnmf.baselines import BaselineConfig, run_baseline
from andnmf.linalg import as_matrix, factor_columns, full_rank_pseudo_inverse, spectral_norm
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
from preset_data import SMALL, preset_problem

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
    limit = DIVERGENCE_LIMIT * max(1.0, np.abs(y).max())
    a_star = None if truth is None else as_matrix(truth.a_star, "a_star")
    pinv_star = None if truth is None else full_rank_pseudo_inverse(a_star)
    trace = RunTrace()

    def row(j, t, alpha, err, e_norm=None, n_norm=None):
        log10 = math.log10(err) if err > 0 else -math.inf
        trace.rows.append(TraceRow(j, t, 0.0, alpha, err, log10, e_norm, n_norm))

    batch = n if cfg.batch == "full" else min(cfg.batch, n)

    for j in range(cfg.stages):
        pinv = full_rank_pseudo_inverse(a, name="working matrix")
        trace.pinv_count += 1
        alpha = stage_threshold(cfg.schedule, j)
        for t in range(cfg.iters_per_stage):
            if batch == n:
                y_batch = y
            else:
                cols = (t * batch + np.arange(batch)) % n
                y_batch = y[:, cols]
            z = decode(pinv, y_batch, alpha)
            if t == 0:
                # curvature-scaled step, fixed for the rest of the stage; a
                # first decode of all zeros has no curvature and is refused
                curvature = spectral_norm(z @ z.T)
                if curvature == 0:
                    raise ValueError(f"stage {j} decodes its first window to all zeros "
                                     f"at alpha={alpha:g}")
                eta = 0.5 / (curvature + 1e-12)
            resid = y_batch - a @ z
            a = a + eta * (resid @ z.T)
            # negated so that a NaN entry counts as diverged too
            if not np.abs(a).max() <= limit:
                row(j, t, alpha, math.inf)
                raise DivergenceError(j, t, trace, limit)
            if t % eval_every == 0 or t == cfg.iters_per_stage - 1:
                if truth is None:
                    row(j, t, alpha, float(np.linalg.norm(y_batch - a @ z)))
                else:
                    row(j, t, alpha, *per_row_oracle.row_values(a, a_star, pinv_star))
    return AndResult(a=a, trace=trace)


def _problem(w, d, n, seed, weights="dirichlet"):
    gt = generate_ground_truth(w, d, seed=seed)
    if weights == "dirichlet":
        wspec = WeightSpec("dirichlet", d, concentration=1.0, seed=seed + 1)
    else:
        wspec = WeightSpec("sparse_binary", d, s=min(2, d), seed=seed + 1)
    ds = generate_dataset(gt, wspec, NoiseSpec(0.0), n, seed=seed + 2)
    init = generate_initialization(gt, InitSpec(r_l=0.5, seed=seed + 3))
    return gt, ds.y, init.a0


def _outcome(fn, *args, **kwargs):
    """(result, None) of a finished run, or (None, the DivergenceError or the
    ValueError of a refused stage)."""
    try:
        return fn(*args, **kwargs), None
    except (DivergenceError, ValueError) as exc:
        return None, exc


def _close(got, ref, floor):
    """|got - ref| <= 1e-12 * max(|ref|, floor), elementwise."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return bool(np.all(np.abs(got - ref) <= REL_TOL * np.maximum(np.abs(ref), floor)))


SCHEDULES = {
    "held": ThresholdSchedule(0.2, 1.0),
    "default": ThresholdSchedule(),
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
    with_truth=st.booleans(),
    stages=st.integers(1, 4),
    iters=st.integers(1, 8),
    eval_every=st.integers(1, 4),
)
def test_run_matches_reference_loop(d, extra_w, n, seed, weights, batch_kind, window,
                                    schedule, with_truth, stages, iters, eval_every):
    gt, y, a0 = _problem(d + 2 + extra_w, d, n, seed, weights)
    batch = {"full": "full", "n": n, "mini": min(window, n - 1)}[batch_kind]
    cfg = AndConfig(stages=stages, iters_per_stage=iters, schedule=SCHEDULES[schedule],
                    batch=batch)
    truth = gt if with_truth else None
    ref, ref_exc = _outcome(reference_run, a0, y, cfg, truth=truth, eval_every=eval_every)
    got, got_exc = _outcome(run, a0, y, cfg, truth=truth, eval_every=eval_every)
    assert type(got_exc) is type(ref_exc)
    if isinstance(ref_exc, ValueError):
        assert str(got_exc).startswith(str(ref_exc))
        return
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
        assert g.alpha == r.alpha
        assert _close(g.total_error, r.total_error, floor)
        assert (g.e_norm is None) == (r.e_norm is None)
        assert (g.n_norm is None) == (r.n_norm is None)
        if r.e_norm is not None:
            assert _close(g.e_norm, r.e_norm, floor)
            assert _close(g.n_norm, r.n_norm, floor)
    if ref_exc is None:
        assert _close(got.a, ref.a, floor)


@pytest.mark.parametrize("batch, iters", [
    pytest.param("full", 5, id="full"),
    pytest.param("n", 5, id="n"),
    pytest.param(7, 5, id="7"),
    pytest.param(10, 12, id="10"),
    pytest.param(7, 1, id="7-one-iteration"),
])
def test_one_decode_per_full_batch_stage(monkeypatch, batch, iters):
    # every stage decodes the whole of Y once, whatever its window, through
    # the run's factor Y = Q R, R D = 4 rows high since rank Y = D; b = 10
    # cycles through all 4 windows of n = 40 at T = 12, b = 7 visits 5 of 40
    # windows, and at T = 1 it visits one window, so the stage runs in closed
    # form, which forms its W x D iterate once, at the stage end
    gt, y, a0 = _problem(24, 4, 40, seed=3)
    n = y.shape[1]
    batch = n if batch == "n" else batch
    cfg = AndConfig(stages=3, iters_per_stage=iters, batch=batch)
    decodes, formed = [], []
    original_decode, original_iterate = solver.decode, solver._iterate

    def counting_decode(pinv, y_, alpha):
        decodes.append((y_.shape, y_.r.shape))
        return original_decode(pinv, y_, alpha)

    def counting_iterate(m, *args):
        if len(m) == len(y):  # a W-row iterate, not coordinates
            formed.append(1)
        return original_iterate(m, *args)

    monkeypatch.setattr(solver, "decode", counting_decode)
    monkeypatch.setattr(solver, "_iterate", counting_iterate)
    got = run(a0, y, cfg, truth=gt)
    assert decodes == [(y.shape, (4, n))] * cfg.stages
    closed_form = batch in ("full", n) or iters == 1
    assert len(formed) == (cfg.stages if closed_form else 0)
    ref = reference_run(a0, y, cfg, truth=gt)
    floor = spectral_norm(gt.a_star)
    assert [(r.stage, r.iteration) for r in got.trace.rows] == \
           [(r.stage, r.iteration) for r in ref.trace.rows]
    for g, r in zip(got.trace.rows, ref.trace.rows):
        assert g.alpha == r.alpha
        assert _close(g.total_error, r.total_error, floor)
    assert _close(got.a, ref.a, floor)


@pytest.mark.parametrize("batch", ["full", 9])
def test_no_truth_residual_is_of_the_row_iterate(batch):
    # each row's residual is ||Y - A Z||_F with A the matrix that iteration
    # produced; the update moves A by far more than the tolerance here
    gt, y, a0 = _problem(30, 5, 60, seed=11)
    cfg = AndConfig(stages=3, iters_per_stage=7, batch=batch)
    ref = reference_run(a0, y, cfg, eval_every=3)
    got = run(a0, y, cfg, eval_every=3)
    assert [(r.stage, r.iteration) for r in got.trace.rows] == \
           [(r.stage, r.iteration) for r in ref.trace.rows] == \
           [(s, t) for s in range(3) for t in (0, 3, 6)]
    for g, r in zip(got.trace.rows, ref.trace.rows):
        assert g.total_error == pytest.approx(r.total_error, rel=REL_TOL, abs=0)


@pytest.mark.parametrize("batch", ["full", 9])
def test_no_truth_last_row_is_the_final_residual(monkeypatch, batch):
    # the last row of a run without a truth is ||Y_w - A Z_w||_F of the final
    # matrix A, on the last iteration's window Y_w and its decode Z_w by the
    # last stage's pseudo-inverse
    gt, y, a0 = _problem(30, 5, 60, seed=11)
    cfg = AndConfig(stages=3, iters_per_stage=7, batch=batch)
    pinvs = []
    original = solver.full_rank_pseudo_inverse

    def recording_pinv(*args, **kwargs):
        pinvs.append(original(*args, **kwargs))
        return pinvs[-1]

    monkeypatch.setattr(solver, "full_rank_pseudo_inverse", recording_pinv)
    got = run(a0, y, cfg, eval_every=3)
    n = y.shape[1]
    b = n if batch == "full" else batch
    y_w = y[:, ((cfg.iters_per_stage - 1) * b + np.arange(b)) % n]
    last = got.trace.rows[-1]
    z_w = decode(pinvs[-1], y_w, last.alpha)
    assert (last.stage, last.iteration) == (cfg.stages - 1, cfg.iters_per_stage - 1)
    assert last.total_error == pytest.approx(np.linalg.norm(y_w - got.a @ z_w), rel=REL_TOL, abs=0)


def _edge_problem(kind, w=12, d=4, n=40, seed=0):
    """A problem whose full-batch decode gives G a zero mode or makes it nearly
    singular: Y = A* X with the last row of X zero ("zero-row") or with its
    first two rows equal up to 1e-7 ("near-singular"), from A0 near A*."""
    gt = generate_ground_truth(w, d, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.dirichlet(np.ones(d), n).T
    if kind == "zero-row":
        x[-1] = 0.0
        offset = 1e-2
    else:
        x[1] = x[0] * (1 + 1e-7 * rng.standard_normal(n))
        offset = 1e-6  # a larger one mixes the two rows apart
    a0 = gt.a_star + offset * rng.standard_normal((w, d))
    return gt, gt.a_star @ x, a0


@pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no-truth"])
@pytest.mark.parametrize("eval_every", [1, 3, 7])
@pytest.mark.parametrize("kind", ["zero-row", "near-singular"])
def test_full_batch_edge_cases_match_reference_loop(monkeypatch, kind, eval_every, with_truth):
    # the closed form scales G's eigenmodes, so a mode with lambda = 0 (mu = 1)
    # and a G with lambda_min / lambda_max ~ 1e-14 must still give the loop's
    # iterates; eval_every = 7 = T records only the first and last iteration
    gt, y, a0 = _edge_problem(kind)
    cfg = AndConfig(stages=3, iters_per_stage=7, schedule=ThresholdSchedule(0.05, 1.0))
    truth = gt if with_truth else None
    decodes = []
    original = solver.decode

    def recording_decode(*args, **kwargs):
        decodes.append(original(*args, **kwargs))
        return decodes[-1]

    monkeypatch.setattr(solver, "decode", recording_decode)
    got = run(a0, y, cfg, truth=truth, eval_every=eval_every)
    assert len(decodes) == cfg.stages
    for z in decodes:
        if kind == "zero-row":
            assert not z[-1].any()
        else:
            lam = np.linalg.eigvalsh(z @ z.T)
            assert 0 < lam[0] <= 1e-12 * lam[-1]
    ref = reference_run(a0, y, cfg, truth=truth, eval_every=eval_every)
    floor = spectral_norm(gt.a_star)
    assert [(r.stage, r.iteration) for r in got.trace.rows] == \
           [(r.stage, r.iteration) for r in ref.trace.rows]
    for g, r in zip(got.trace.rows, ref.trace.rows):
        assert _close(g.total_error, r.total_error, floor)
        if r.e_norm is not None:
            assert _close(g.e_norm, r.e_norm, floor)
            assert _close(g.n_norm, r.n_norm, floor)
    assert _close(got.a, ref.a, floor)


@pytest.mark.parametrize("w", [4, 5, 8, 12, 64], ids=["W=D", "W=D+1", "W=2D", "W=3D", "W>>3D"])
@pytest.mark.parametrize("eval_every", [1, 3])
def test_full_batch_rows_match_reference_loop_at_every_height(w, eval_every):
    # a full-batch row is evaluated from its coordinates: D in the truth's
    # span and min(W, 2D) out of it, which at W = D leave nothing out of span
    # and at W <= 2D make the out-of-span factor W rows tall
    gt, y, a0 = _problem(w, 4, 40, seed=w)
    cfg = AndConfig(stages=3, iters_per_stage=7)
    ref = reference_run(a0, y, cfg, truth=gt, eval_every=eval_every)
    got = run(a0, y, cfg, truth=gt, eval_every=eval_every)
    floor = spectral_norm(gt.a_star)
    assert [(r.stage, r.iteration) for r in got.trace.rows] == \
           [(r.stage, r.iteration) for r in ref.trace.rows]
    for g, r in zip(got.trace.rows, ref.trace.rows):
        assert _close(g.total_error, r.total_error, floor)
        assert _close(g.e_norm, r.e_norm, floor)
        assert _close(g.n_norm, r.n_norm, floor)
    assert _close(got.a, ref.a, floor)


def test_full_batch_stage_forms_its_iterate_once(monkeypatch):
    # with a truth, every row of a stage is evaluated from coordinates, and
    # the W x D iterate is formed only at the stage end
    gt, y, a0 = _problem(24, 4, 40, seed=3)
    cfg = AndConfig(stages=3, iters_per_stage=5)
    formed = []
    original = solver._iterate

    def counting_iterate(m, *args):
        result = original(m, *args)
        if len(m) == len(y):  # a W-row iterate, not coordinates
            formed.append(result)
        return result

    monkeypatch.setattr(solver, "_iterate", counting_iterate)
    got = run(a0, y, cfg, truth=gt)
    assert len(got.trace.rows) == cfg.stages * cfg.iters_per_stage
    assert len(formed) == cfg.stages
    assert formed[-1] is got.a


def _rows_close(got_rows, ref_rows, y):
    """Row by row, |got - ref| <= max(1e-12 |ref|, 1e-14 ||Y||_F), for each
    recorded value; the absolute floor covers rows at round-off (BINARY's)."""
    floor = 1e-14 * np.linalg.norm(y)
    assert [(g.stage, g.iteration, g.alpha) for g in got_rows] == \
           [(r.stage, r.iteration, r.alpha) for r in ref_rows]
    for g, r in zip(got_rows, ref_rows):
        for got, ref in ((g.total_error, r.total_error), (g.e_norm, r.e_norm),
                         (g.n_norm, r.n_norm)):
            assert (got is None) == (ref is None)
            if ref is not None:
                assert abs(got - ref) <= max(REL_TOL * abs(ref), floor)


def _final_close(got, ref):
    assert np.abs(got - ref).max() <= REL_TOL * np.abs(ref).max()


@pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no-truth"])
@pytest.mark.parametrize("batch", ["full", 60])
@pytest.mark.parametrize("name", ["DIR", "NEG", "BINARY"])
def test_factored_run_matches_the_explicit_reference_loop(name, batch, with_truth):
    # noiseless data has rank D, so `run` decodes R of Y = Q R; the reference
    # loop decodes Y itself, every iteration
    cfg, gt, ds, init = preset_problem(name, **SMALL)
    assert factor_columns(ds.y, SMALL["D"]) is not ds.y
    shipped = cfg.solvers[0].config
    and_cfg = AndConfig(stages=4, iters_per_stage=6, schedule=shipped.schedule, batch=batch)
    truth = gt if with_truth else None
    got = run(init.a0, ds.y, and_cfg, truth=truth, eval_every=2)
    ref = reference_run(init.a0, ds.y, and_cfg, truth=truth, eval_every=2)
    _rows_close(got.trace.rows, ref.trace.rows, ds.y)
    _final_close(got.a, ref.a)


def _explicit(monkeypatch):
    """Make every run refuse its factor, so it reads Y itself."""
    monkeypatch.setattr(solver, "factor_columns", lambda y, d: y)
    monkeypatch.setattr(baselines, "factor_columns", lambda y, d: y)


@pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no-truth"])
@pytest.mark.parametrize("algorithm", baselines.ALGORITHMS)
def test_factored_baseline_matches_the_explicit_path(monkeypatch, algorithm, with_truth):
    _, gt, ds, init = preset_problem("DIR", **SMALL)
    assert factor_columns(ds.y, SMALL["D"]) is not ds.y
    cfg = BaselineConfig(algorithm, outer_iters=30, seed=4)
    truth = gt if with_truth else None
    got = run_baseline(cfg, ds.y, init.a0, truth=truth, eval_every=4)
    _explicit(monkeypatch)
    ref = run_baseline(cfg, ds.y, init.a0, truth=truth, eval_every=4)
    _rows_close(got.trace.rows, ref.trace.rows, ds.y)
    _final_close(got.a, ref.a)


@pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no-truth"])
def test_noisy_data_runs_the_explicit_arithmetic(monkeypatch, with_truth):
    # the NOISE preset's Y has full rank: its factor is refused, and every
    # solver ends on the explicit path's bits
    cfg, gt, ds, init = preset_problem("NOISE", **SMALL)
    assert factor_columns(ds.y, SMALL["D"]) is ds.y
    truth = gt if with_truth else None
    and_cfg = AndConfig(stages=3, iters_per_stage=5, batch=60)

    def solve():
        return [run(init.a0, ds.y, and_cfg, truth=truth, eval_every=2)] + [
            run_baseline(BaselineConfig(algorithm, outer_iters=8), ds.y, init.a0,
                         truth=truth, eval_every=3)
            for algorithm in ("hals", "anls")]  # MU refuses NOISE's negative entries

    got = solve()
    _explicit(monkeypatch)
    for g, r in zip(got, solve()):
        assert np.array_equal(g.a, r.a)
        assert [dataclasses.replace(row, seconds=0.0) for row in g.trace.rows] == \
               [dataclasses.replace(row, seconds=0.0) for row in r.trace.rows]
