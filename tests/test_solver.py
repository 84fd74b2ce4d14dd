import itertools
import math
import types
import warnings

import numpy as np
import pytest

from andnmf import metrics, solver
from andnmf.baselines import BaselineConfig, run_baseline
from andnmf.linalg import factor_columns, full_rank_pseudo_inverse
from andnmf.solver import (
    AndConfig,
    DivergenceError,
    ThresholdSchedule,
    decode,
    run,
    stage_threshold,
)
from andnmf.synth import InitSpec, NoiseSpec, generate_dataset, generate_ground_truth, generate_initialization
from andnmf.weights import WeightSpec


def make_problem(w=60, d=6, n=400, s=2, r_l=1.0, seed=0):
    gt = generate_ground_truth(w, d, seed=seed)
    ds = generate_dataset(
        gt, WeightSpec("sparse_binary", d, s=s, seed=seed + 1), NoiseSpec(0.0), n, seed=seed + 2
    )
    init = generate_initialization(gt, InitSpec(r_l=r_l, seed=seed + 3))
    return gt, ds, init


class TestStageThreshold:
    def test_geometric_first_stage(self):
        sched = ThresholdSchedule(0.1, 1 / 1.1)
        assert stage_threshold(sched, 0) == pytest.approx(0.1)
        assert stage_threshold(sched, 3) == pytest.approx(0.1 / 1.1**3)

    def test_constant(self):
        assert stage_threshold(ThresholdSchedule(0.25, 1.0), 17) == 0.25

    def test_stage_index_must_be_nonnegative(self):
        for j in (-1, float("nan")):
            with pytest.raises(ValueError, match="stage index"):
                stage_threshold(ThresholdSchedule(0.25, 1.0), j)

    def test_invalid_schedules(self):
        for kwargs in ({"start": -0.1}, {"ratio": 0.0}, {"ratio": 1.5}):
            with pytest.raises(ValueError):
                ThresholdSchedule(**kwargs)
        # a zero threshold keeps every nonnegative decoded entry
        assert stage_threshold(ThresholdSchedule(0.0, 1.0), 3) == 0.0


class TestDecodeUpdate:
    def test_decode_direct(self):
        z = decode(np.eye(2), np.array([[0.5], [0.2]]), 0.25)
        assert np.array_equal(z, np.array([[0.5], [0.0]]))

    def test_decode_alpha_zero_nonneg_passthrough(self):
        y = np.abs(np.random.default_rng(0).standard_normal((3, 4)))
        z = decode(np.eye(3), y, 0.0)
        assert np.array_equal(z, y)

    def test_decode_support_property(self):
        rng = np.random.default_rng(1)
        z = decode(rng.standard_normal((5, 8)), rng.standard_normal((8, 30)), 0.3)
        assert np.all((z == 0.0) | (z >= 0.3))

    def test_decode_exact_at_ground_truth(self):
        gt, ds, _ = make_problem()
        z = decode(full_rank_pseudo_inverse(gt.a_star), ds.y, 0.25)
        assert z == pytest.approx(ds.x, abs=1e-9)

    @pytest.mark.parametrize("pinv", [[[1e300, 0.0]], [[1e300, -1e300]]], ids=["inf", "nan"])
    def test_decode_overflow_is_a_floating_point_error(self, pinv):
        # every input is finite; the product that overflows is no bad input
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite"):
            decode(np.array(pinv), np.array([[1e300], [1e300]]), 0.1)


class TestRun:
    def test_ground_truth_is_fixed_point_binary(self):
        gt, ds, _ = make_problem()
        cfg = AndConfig(stages=3, iters_per_stage=10,
                        schedule=ThresholdSchedule(0.25, 1.0))
        result = run(gt.a_star, ds.y, cfg, truth=gt)
        errs = [r.total_error for r in result.trace.rows]
        assert max(errs) <= 1e-10

    def test_binary_recovery_and_stagewise_mixing_contraction(self):
        gt, ds, init = make_problem(w=200, d=20, n=2000, s=3, seed=7)
        cfg = AndConfig(stages=12, iters_per_stage=50,
                        schedule=ThresholdSchedule(0.25, 1.0))
        result = run(init.a0, ds.y, cfg, truth=gt, eval_every=50)
        errs = result.trace.stage_end_errors()
        assert errs[-1] <= 1e-6
        for prev, cur in zip(errs, errs[1:]):
            assert cur <= prev * 1.05  # monotone up to 5% jitter
        e_norms = [r.e_norm for r in result.trace.rows if r.iteration == 49]
        for prev, cur in zip(e_norms, e_norms[1:]):
            assert cur <= prev / 2 or prev <= 1e-8
        assert result.trace.pinv_count == cfg.stages

    def test_minibatch_full_size_bitwise_equal(self):
        gt, ds, init = make_problem()
        base = AndConfig(stages=2, iters_per_stage=5)
        full = run(init.a0, ds.y, base, truth=gt)
        mini = run(init.a0, ds.y,
                   AndConfig(stages=2, iters_per_stage=5, batch=ds.y.shape[1]),
                   truth=gt)
        assert np.array_equal(full.a, mini.a)
        assert [r.total_error for r in full.trace.rows] == \
               [r.total_error for r in mini.trace.rows]

    def test_full_batch_final_matrix_does_not_depend_on_rows(self):
        # every stage-end A is formed from its stage's start, so neither the
        # rows recorded nor the truth they are evaluated against move a bit
        gt = generate_ground_truth(200, 20, seed=3)
        ds = generate_dataset(gt, WeightSpec("dirichlet", 20, concentration=0.25, seed=4),
                              NoiseSpec(0.0), 2000, seed=5)
        init = generate_initialization(gt, InitSpec(r_l=1.0, seed=6))
        cfg = AndConfig(stages=5, iters_per_stage=50)
        base = run(init.a0, ds.y, cfg, eval_every=50).a
        for eval_every, truth in itertools.product([1, 7, 50], [None, gt]):
            assert np.array_equal(run(init.a0, ds.y, cfg, truth=truth, eval_every=eval_every).a,
                                  base)

    def test_minibatch_one_runs(self):
        gt, ds, init = make_problem()
        cfg = AndConfig(stages=1, iters_per_stage=20, batch=1)
        result = run(init.a0, ds.y, cfg, truth=gt)
        assert result.a.shape == init.a0.shape

    def test_scaling_invariance_of_fixed_point(self):
        # A = A* Sigma for a power-of-two diagonal with exact decoding: one
        # update leaves A unchanged up to float error
        gt, ds, _ = make_problem(w=80, d=8, n=200, s=2, seed=11)
        scales = np.array([0.5, 1.0, 2.0, 1.0, 0.5, 2.0, 1.0, 0.5])
        a = gt.a_star * scales
        cfg = AndConfig(stages=1, iters_per_stage=1, schedule=ThresholdSchedule(0.25, 1.0))
        updated = run(a, ds.y, cfg).a
        assert np.abs(updated - a).max() <= 1e-10

    def test_residual_trace_without_truth(self):
        gt, ds, init = make_problem()
        cfg = AndConfig(stages=2, iters_per_stage=5)
        result = run(init.a0, ds.y, cfg)
        for row in result.trace.rows:
            assert row.e_norm is None and row.n_norm is None
            assert row.total_error >= 0

    def test_iterations_strictly_increasing_within_stage(self):
        gt, ds, init = make_problem()
        result = run(init.a0, ds.y, AndConfig(stages=2, iters_per_stage=7), truth=gt,
                     eval_every=3)
        by_stage = {}
        for row in result.trace.rows:
            by_stage.setdefault(row.stage, []).append(row.iteration)
        for its in by_stage.values():
            assert its == sorted(set(its))

    def test_divergence_guard(self, monkeypatch):
        gt, ds, init = make_problem()
        # 3x the stable step on the top curvature mode: |1 - 3| = 2 per step
        monkeypatch.setattr(solver, "_ETA_SCALE", 3.0)
        cfg = AndConfig(stages=1, iters_per_stage=500)
        with pytest.raises(DivergenceError) as exc:
            run(init.a0, ds.y, cfg, truth=gt)
        assert exc.value.stage == 0
        assert exc.value.trace.rows  # partial trace retained

    def test_full_batch_divergence_is_caught_at_the_next_row(self, monkeypatch):
        # a full-batch stage forms only the iterates of its rows, so with
        # eval_every = 4 a divergence at iteration t is reported at the first
        # row t' >= t, whose row is the inf one; the closed form's mu = -2
        # raises no RuntimeWarning on the way
        gt, ds, init = make_problem()
        monkeypatch.setattr(solver, "_ETA_SCALE", 3.0)
        cfg = AndConfig(stages=1, iters_per_stage=500)
        with pytest.raises(DivergenceError) as every:
            run(init.a0, ds.y, cfg, truth=gt)
        first = every.value.iteration
        assert first % 4 != 0  # so that the row is later than the divergence
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError) as exc:
                run(init.a0, ds.y, cfg, truth=gt, eval_every=4)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        row = first + (-first) % 4
        assert (exc.value.stage, exc.value.iteration) == (0, row)
        rows = exc.value.trace.rows
        assert [r.iteration for r in rows] == list(range(0, row + 1, 4))
        assert all(math.isfinite(r.total_error) for r in rows[:-1])
        assert rows[-1].total_error == math.inf and rows[-1].e_norm is None

    def test_column_norms_over_the_limit_fall_back_to_the_entrywise_check(self, monkeypatch):
        # a full-batch row with a truth passes the divergence check on its
        # column norms; a limit of 2 is above every entry of these iterates
        # (near A*, entries below about 1.1) and below every column norm
        # (about sqrt(60 / 3)), so each row forms its iterate, passes the
        # entrywise check and is recorded as under the default limit; these
        # stages are rotated (Y = Q R, Q 60 x 6), whose 6-row iterates have
        # the column norms of A, and the check lifts each one it forms
        gt, ds, init = make_problem()
        cfg = AndConfig(stages=2, iters_per_stage=5)
        base = run(init.a0, ds.y, cfg, truth=gt)
        formed = []
        iterate = solver._iterate

        def counting_iterate(m, *args):
            if len(m) == 6:  # a rotated iterate, not its D + 6 rows of coordinates
                formed.append(m)
            return iterate(m, *args)

        monkeypatch.setattr(solver, "_iterate", counting_iterate)
        monkeypatch.setattr(solver, "DIVERGENCE_LIMIT", 2.0 / max(1.0, ds.y.max()))
        got = run(init.a0, ds.y, cfg, truth=gt)
        # one iterate per row for the check, and each stage's last one again
        assert len(formed) == len(got.trace.rows) + cfg.stages
        values = [[(r.stage, r.iteration, r.alpha, r.total_error, r.e_norm, r.n_norm)
                   for r in result.trace.rows] for result in (got, base)]
        assert values[0] == values[1]
        assert np.array_equal(got.a, base.a)

    def test_column_norm_bound_compares_before_squaring(self):
        # squares of 1e200 overflow, and a NaN or inf entry fails at max|x|,
        # so no operation of the bound overflows or meets an invalid value
        big = np.full((3, 2), 1e200)  # column norms sqrt(3) * 1e200
        spike = np.zeros((4, 2))
        spike[0, 0] = 1e200  # column norms 1e200 and 0, below sqrt(4) * max|x|
        with np.errstate(over="raise", invalid="raise"):
            assert solver._columns_within(big, 2e200)
            assert not solver._columns_within(big, 1.5e200)
            assert solver._columns_within(spike, 1.5e200)
            for bad in (math.inf, -math.inf, math.nan):
                x = big.copy()
                x[1, 1] = bad
                assert not solver._columns_within(x, 1e300)
        small = np.array([[2.0, 0.0], [2.0, 1.0]])  # column norms sqrt(8), 1
        assert solver._columns_within(small, 3.0)
        assert not solver._columns_within(small, 2.5)
        assert solver._columns_within(np.zeros((4, 2)), 1.0)

    @pytest.mark.parametrize("scale", [1e6, 1e13])
    def test_scaling_the_problem_scales_the_run(self, scale):
        # Z = phi_alpha(P Y) is unchanged when Y and A scale together, so the
        # divergence limit scales with max|Y|; a fixed 1e12 bound stopped the
        # 1e13 run at its first iteration
        gt = generate_ground_truth(200, 20, seed=3)
        ds = generate_dataset(gt, WeightSpec("dirichlet", 20, concentration=0.25, seed=4),
                              NoiseSpec(0.0), 2000, seed=5)
        init = generate_initialization(gt, InitSpec(r_l=1.0, seed=6))
        cfg = AndConfig(stages=4, iters_per_stage=50)
        base = run(init.a0, ds.y, cfg, truth=gt, eval_every=50)
        scaled = run(init.a0 * scale, ds.y * scale, cfg, truth=gt.a_star * scale, eval_every=50)
        assert scaled.trace.rows[-1].total_error / scale == \
            pytest.approx(base.trace.rows[-1].total_error, rel=1e-12, abs=0)

    def test_overflow_to_nan_is_divergence_and_not_evaluated(self, monkeypatch):
        # an infinite step turns the first update into inf/NaN entries, which
        # a bare `max > limit` test lets through; metrics on such a matrix fail
        gt = generate_ground_truth(40, 5, seed=20)
        ds = generate_dataset(gt, WeightSpec("dirichlet", 5, concentration=1.0, seed=21),
                              NoiseSpec(0.0), 200, seed=22)
        init = generate_initialization(gt, InitSpec(r_l=1.0, seed=23))
        monkeypatch.setattr(solver, "_ETA_SCALE", math.inf)
        cfg = AndConfig(stages=1, iters_per_stage=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                run(init.a0, ds.y, cfg, truth=gt)
        last = exc.value.trace.rows[-1]
        assert (last.stage, last.iteration) == (exc.value.stage, exc.value.iteration)
        assert last.total_error == math.inf
        assert last.e_norm is None and last.n_norm is None

    @pytest.mark.parametrize("cols", [1, 5])
    def test_estimate_of_another_shape_than_truth_rejected(self, cols):
        # a W x 1 iterate would broadcast silently into a stacked W x D slot
        gt, ds, init = make_problem()
        with pytest.raises(ValueError, match="shape mismatch"):
            run(init.a0[:, :cols], ds.y, AndConfig(stages=1, iters_per_stage=2), truth=gt)

    def test_rank_deficient_a0_rejected(self):
        gt, ds, _ = make_problem()
        a0 = gt.a_star.copy()
        a0[:, 1] = a0[:, 0]
        with pytest.raises(ValueError, match="rank"):
            run(a0, ds.y, AndConfig(stages=1, iters_per_stage=1))

    def test_a0_in_the_span_of_a_factor_of_rank_below_d_rejected(self):
        # Y = A* X with a zero row of X has rank D - 1 = 5, and D of its
        # columns lie in the span of its factor Q: the stage runs rotated,
        # and its 5 x D working matrix has no full column rank
        gt, ds, _ = make_problem()
        x = ds.x.copy()
        x[-1] = 0.0
        y = gt.a_star @ x
        assert factor_columns(y, 6).r.shape == (5, y.shape[1])
        with pytest.raises(ValueError, match=r"working matrix has more columns than rows "
                                             r"\(5, 6\): not of full column rank"):
            run(y[:, :6], y, AndConfig(stages=1, iters_per_stage=1))

    def test_wide_a0_without_truth_rejected(self):
        # a start with more columns than rows has no full column rank, so no
        # stage pseudo-inverse P satisfies P A = I
        _, ds, _ = make_problem()
        a0 = np.random.default_rng(0).random((60, 70))
        with pytest.raises(ValueError, match="working matrix has more columns than rows"):
            run(a0, ds.y, AndConfig(stages=1, iters_per_stage=1))

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_curvature_full_batch_refused(self, seed):
        # a threshold above every decoded entry leaves G = 0: the curvature
        # step would be 0.5 / 1e-12 and the run would end on A0 unchanged
        gt, ds, init = make_problem(w=40, d=5, n=400, seed=seed)
        cfg = AndConfig(stages=2, iters_per_stage=3, schedule=ThresholdSchedule(1e9, 1.0))
        with pytest.raises(ValueError, match=r"stage 0 .* alpha=1e\+09"):
            run(init.a0, ds.y, cfg, truth=gt)

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_curvature_first_window_refused(self, seed):
        # the step is set from the stage's first window; one that decodes to
        # all zeros is refused, not run until another window diverges
        gt, ds, init = make_problem(w=40, d=5, n=400, seed=seed)
        y = ds.y.copy()
        y[:, :40] *= 0.01
        cfg = AndConfig(stages=2, iters_per_stage=5, batch=40,
                        schedule=ThresholdSchedule(0.1, 1.0))
        with pytest.raises(ValueError, match=r"stage 0 .* alpha=0\.1\b"):
            run(init.a0, y, cfg, truth=gt)

    @pytest.mark.parametrize("batch", ["full", 40])
    def test_one_eigendecomposition_per_stage(self, monkeypatch, batch):
        # the step and the closed form's eigenbasis come from one `eigh` of the
        # first window's Gram; without a truth no row evaluation takes one, so
        # every call counted here is a stage's
        gt, ds, init = make_problem(w=40, d=5, n=400)
        calls = []
        for name in ("eigh", "eigvalsh"):
            def spy(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        cfg = AndConfig(stages=3, iters_per_stage=5, batch=batch)
        run(init.a0, ds.y, cfg)
        assert calls == ["eigh"] * cfg.stages


class TestTraceStreaming:
    """A stage's rows are evaluated together, yet keep the time their iterate
    was produced, arrive in order, and never outlive a stage or a divergence.
    A full-batch row is kept as its coordinates: D rows in the truth's span
    and min(W, 2D) out of it, each D wide."""

    W, D = 200, 20

    def problem(self):
        return make_problem(w=self.W, d=self.D, n=400, s=3, seed=7)

    @pytest.fixture
    def log(self, monkeypatch):
        """`events` in call order: ("row", row, tick) at each `on_row`, ("eval", k)
        at each batched evaluation of coordinate rows and ("pinv",) at each
        stage pseudo-inverse.
        The solver's clock is a counter whose first tick, 0, is the recorder's
        start, so a row's `seconds` is the tick at which its iterate was recorded."""
        events = []
        clock = itertools.count()
        monkeypatch.setattr(solver, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
        evaluate, pinv = metrics.Evaluator.evaluate_coordinates, solver.full_rank_pseudo_inverse

        def logged_evaluate(ev, stack):
            events.append(("eval", len(stack)))
            return evaluate(ev, stack)

        def logged_pinv(*args, **kwargs):
            events.append(("pinv",))
            return pinv(*args, **kwargs)

        monkeypatch.setattr(metrics.Evaluator, "evaluate_coordinates", logged_evaluate)
        monkeypatch.setattr(solver, "full_rank_pseudo_inverse", logged_pinv)
        return types.SimpleNamespace(
            events=events, on_row=lambda row: events.append(("row", row, next(clock))))

    def test_seconds_are_production_times(self, log):
        gt, ds, init = self.problem()
        result = run(init.a0, ds.y, AndConfig(stages=2, iters_per_stage=20), truth=gt,
                     on_row=log.on_row)
        arrivals = [(e[1], e[2]) for e in log.events if e[0] == "row"]
        assert [row for row, _ in arrivals] == result.trace.rows
        seconds = [row.seconds for row in result.trace.rows]
        assert seconds == sorted(seconds)
        assert all(tick > row.seconds for row, tick in arrivals)
        # a stacked row arrives after later iterates were produced, and its
        # seconds still say when its own iterate was
        assert any(tick > later.seconds
                   for (_, tick), (later, _) in zip(arrivals, arrivals[1:]))

    def test_stage_rows_arrive_before_next_pseudo_inverse(self, log):
        gt, ds, init = self.problem()
        cfg = AndConfig(stages=3, iters_per_stage=18)
        run(init.a0, ds.y, cfg, truth=gt, eval_every=2, on_row=log.on_row)
        stages = [e[1].stage if e[0] == "row" else "pinv" for e in log.events if e[0] != "eval"]
        per_stage = len(range(0, 18, 2)) + 1  # every 2nd iteration, and the last
        expected = []
        for j in range(cfg.stages):
            expected += ["pinv"] + [j] * per_stage
        assert stages == expected

    def test_stage_is_evaluated_in_one_call(self, log):
        gt, ds, init = self.problem()
        run(init.a0, ds.y, AndConfig(stages=1, iters_per_stage=50), truth=gt,
            on_row=log.on_row)
        assert [e[0] for e in log.events] == ["pinv", "eval"] + ["row"] * 50
        assert log.events[1] == ("eval", 50)

    def test_divergence_mid_stage_writes_every_earlier_row_first(self, log, monkeypatch):
        gt, ds, init = self.problem()
        # a step 3x the stable one on the top curvature mode: |1 - 3| = 2 per step
        monkeypatch.setattr(solver, "_ETA_SCALE", 3.0)
        cfg = AndConfig(stages=1, iters_per_stage=200, schedule=ThresholdSchedule(0.25, 1.0))
        with pytest.raises(DivergenceError) as exc:
            run(init.a0, ds.y, cfg, truth=gt, on_row=log.on_row)
        t = exc.value.iteration
        assert 0 < t < cfg.iters_per_stage - 1
        rows = [e[1] for e in log.events if e[0] == "row"]
        assert rows == exc.value.trace.rows
        assert [row.iteration for row in rows] == list(range(t + 1))
        for row in rows[:-1]:
            assert math.isfinite(row.total_error)
            assert row.e_norm is not None and row.n_norm is not None
        assert rows[-1].total_error == math.inf and rows[-1].e_norm is None
        # the divergence evaluates the stage's t pending rows and emits them
        # before the inf row
        last = max(i for i, e in enumerate(log.events) if e[0] == "eval")
        assert log.events[last][1] == t
        assert [e[0] for e in log.events[last + 1:]] == ["row"] * (t + 1)


def test_every_row_is_evaluated_from_coordinates(monkeypatch):
    """Explicit iterates, those of a mini-batch stage and of a baseline, are
    evaluated as coordinates too: every row with a ground truth comes from
    `Evaluator.evaluate_coordinates`, the one evaluation path, as the
    D + min(W, D) rows of its QR split."""
    evaluated = []
    evaluate = metrics.Evaluator.evaluate_coordinates

    def logged_evaluate(ev, stack):
        evaluated.append(stack.shape)
        return evaluate(ev, stack)

    monkeypatch.setattr(metrics.Evaluator, "evaluate_coordinates", logged_evaluate)
    gt, ds, init = make_problem(w=40, d=5, n=400, seed=3)
    for solve in (
        lambda: run(init.a0, ds.y, AndConfig(stages=2, iters_per_stage=10, batch=40),
                    truth=gt, eval_every=3),
        lambda: run_baseline(BaselineConfig("hals", outer_iters=7), ds.y, init.a0, truth=gt),
    ):
        evaluated.clear()
        rows = solve().trace.rows
        assert rows and all(row.e_norm is not None for row in rows)
        assert sum(k for k, _, _ in evaluated) == len(rows)
        assert {shape[1:] for shape in evaluated} == {(5 + 5, 5)}


def test_run_rejects_bad_config():
    with pytest.raises(ValueError):
        AndConfig(stages=0)
    with pytest.raises(ValueError):
        AndConfig(batch=0)
    for bad in (2.5, 2.0, True, float("nan")):
        with pytest.raises(ValueError):
            AndConfig(stages=bad)
        with pytest.raises(ValueError):
            AndConfig(iters_per_stage=bad)
