import itertools
import math
import types

import numpy as np
import pytest

from andnmf import metrics, solver
from andnmf.linalg import full_rank_pseudo_inverse, pseudo_inverse, spectral_norm
from andnmf.solver import (
    EVAL_BATCH_BYTES,
    AndConfig,
    DivergenceError,
    ThresholdSchedule,
    decode,
    run,
    simulate_update_recurrence,
    stage_threshold,
)
from andnmf.synth import InitSpec, NoiseSpec, generate_dataset, generate_ground_truth, generate_initialization
from andnmf.weights import WeightSpec


def make_problem(w=60, d=6, n=400, s=2, r_l=1.0, seed=0):
    gt = generate_ground_truth(w, d, seed=seed)
    ds = generate_dataset(
        gt, WeightSpec.sparse_binary(d, s, seed=seed + 1), NoiseSpec(0.0), n, seed=seed + 2
    )
    init = generate_initialization(gt, InitSpec(r_l=r_l, seed=seed + 3))
    return gt, ds, init


class TestStageThreshold:
    def test_geometric_first_stage(self):
        sched = ThresholdSchedule.geometric(0.1, 1 / 1.1)
        assert stage_threshold(sched, 0) == pytest.approx(0.1)
        assert stage_threshold(sched, 3) == pytest.approx(0.1 / 1.1**3)

    def test_theory_instance(self):
        sched = ThresholdSchedule.theory(lam=1.0, r=1.0, q=1.0)
        assert stage_threshold(sched, 0, e_norm_estimate=0.25) == pytest.approx(0.25)

    def test_theory_clamped_to_quarter(self):
        sched = ThresholdSchedule.theory(lam=1.0, r=1.0, q=1.0)
        assert stage_threshold(sched, 0, e_norm_estimate=5.0) == 0.25

    def test_theory_requires_estimate(self):
        with pytest.raises(ValueError, match="e_norm_estimate"):
            stage_threshold(ThresholdSchedule.theory(1.0, 1.0, 1.0), 0)

    def test_constant(self):
        assert stage_threshold(ThresholdSchedule.constant(0.25), 17) == 0.25

    def test_invalid_schedules(self):
        with pytest.raises(ValueError):
            ThresholdSchedule.geometric(start=0.0)
        with pytest.raises(ValueError):
            ThresholdSchedule.geometric(ratio=1.5)
        with pytest.raises(ValueError):
            ThresholdSchedule.theory(lam=0.0, r=1.0, q=1.0)


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
        z = decode(pseudo_inverse(gt.a_star), ds.y, 0.25)
        assert z == pytest.approx(ds.x, abs=1e-9)


class TestRun:
    def test_ground_truth_is_fixed_point_binary(self):
        gt, ds, _ = make_problem()
        cfg = AndConfig(stages=3, iters_per_stage=10,
                        schedule=ThresholdSchedule.constant(0.25))
        result = run(gt.a_star, ds.y, cfg, truth=gt)
        errs = [r.total_error for r in result.trace.rows]
        assert max(errs) <= 1e-10

    def test_binary_recovery_and_stagewise_mixing_contraction(self):
        gt, ds, init = make_problem(w=200, d=20, n=2000, s=3, seed=7)
        cfg = AndConfig(stages=12, iters_per_stage=50,
                        schedule=ThresholdSchedule.constant(0.25))
        result = run(init.a0, ds.y, cfg, truth=gt, eval_every=50)
        errs = result.trace.stage_end_errors()
        assert errs[-1] <= 1e-6
        for prev, cur in zip(errs, errs[1:]):
            assert cur <= prev * 1.05  # monotone up to 5% jitter
        e_norms = result.trace.stage_end_e_norms()
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

    def test_minibatch_one_runs(self):
        gt, ds, init = make_problem()
        cfg = AndConfig(stages=1, iters_per_stage=20, batch=1, eta=1e-3)
        result = run(init.a0, ds.y, cfg, truth=gt)
        assert result.a.shape == init.a0.shape

    def test_scaling_invariance_of_fixed_point(self):
        # A = A* Sigma for a power-of-two diagonal with exact decoding: one
        # update leaves A unchanged up to float error
        gt, ds, _ = make_problem(w=80, d=8, n=200, s=2, seed=11)
        scales = np.array([0.5, 1.0, 2.0, 1.0, 0.5, 2.0, 1.0, 0.5])
        a = gt.a_star * scales
        cfg = AndConfig(stages=1, iters_per_stage=1, schedule=ThresholdSchedule.constant(0.25))
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

    def test_divergence_guard(self):
        gt, ds, init = make_problem()
        cfg = AndConfig(stages=1, iters_per_stage=500, eta=1e6)
        with pytest.raises(DivergenceError) as exc:
            run(init.a0, ds.y, cfg, truth=gt)
        assert exc.value.stage == 0
        assert exc.value.trace.rows  # partial trace retained

    def test_overflow_to_nan_is_divergence_and_not_evaluated(self):
        # eta = 1e308 overflows the first update to inf/NaN entries, which a
        # bare `max > limit` test lets through; metrics on such a matrix fail
        gt = generate_ground_truth(40, 5, seed=20)
        ds = generate_dataset(gt, WeightSpec.dirichlet(5, 1.0, seed=21), NoiseSpec(0.0),
                              200, seed=22)
        init = generate_initialization(gt, InitSpec(r_l=1.0, seed=23))
        cfg = AndConfig(stages=1, iters_per_stage=5, eta=1e308)
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

    def test_theory_schedule_with_truth(self):
        gt, ds, init = make_problem(w=200, d=20, n=1000, s=3, seed=5)
        cfg = AndConfig(stages=6, iters_per_stage=50,
                        schedule=ThresholdSchedule.theory(lam=2 / 3, r=3.0, q=2.0))
        result = run(init.a0, ds.y, cfg, truth=gt, eval_every=50)
        errs = result.trace.stage_end_errors()
        assert errs[-1] < errs[0]
        alphas = [r.alpha for r in result.trace.rows]
        assert all(0 < a <= 0.25 for a in alphas)

    def test_theory_schedule_without_truth_refuses(self):
        # the theory threshold reads the mixing norm, which needs a ground truth
        gt, ds, init = make_problem()
        cfg = AndConfig(stages=2, iters_per_stage=3,
                        schedule=ThresholdSchedule.theory(lam=1.0, r=1.0, q=1.0))
        rows = []
        with pytest.raises(ValueError, match="ground truth"):
            run(init.a0, ds.y, cfg, on_row=rows.append)
        assert rows == []


class TestTraceStreaming:
    """Rows are evaluated in stacks of at most EVAL_BATCH_BYTES, yet keep the
    time their iterate was produced, arrive in order, and never outlive a stage
    or a divergence."""

    W, D = 200, 20
    CAPACITY = EVAL_BATCH_BYTES // (8 * W * D)

    def problem(self):
        return make_problem(w=self.W, d=self.D, n=400, s=3, seed=7)

    @pytest.fixture
    def log(self, monkeypatch):
        """`events` in call order: ("row", row, tick) at each `on_row`, ("eval", k)
        at each batched evaluation and ("pinv",) at each stage pseudo-inverse.
        The solver's clock is a counter whose first tick, 0, is the recorder's
        start, so a row's `seconds` is the tick at which its iterate was recorded."""
        events = []
        clock = itertools.count()
        monkeypatch.setattr(solver, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
        evaluate, pinv = metrics.Evaluator.evaluate, solver.full_rank_pseudo_inverse

        def logged_evaluate(ev, stack):
            events.append(("eval", len(stack)))
            return evaluate(ev, stack)

        def logged_pinv(*args, **kwargs):
            events.append(("pinv",))
            return pinv(*args, **kwargs)

        monkeypatch.setattr(metrics.Evaluator, "evaluate", logged_evaluate)
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

    def test_stage_over_budget_is_evaluated_in_several_batches(self, log):
        gt, ds, init = self.problem()
        run(init.a0, ds.y, AndConfig(stages=1, iters_per_stage=50), truth=gt,
            on_row=log.on_row)
        batches = [e[1] for e in log.events if e[0] == "eval"]
        assert 1 < self.CAPACITY < 50
        assert batches == [self.CAPACITY] * (50 // self.CAPACITY) + [50 % self.CAPACITY]

    def test_divergence_mid_stage_writes_every_earlier_row_first(self, log):
        gt, ds, init = self.problem()
        z0 = decode(full_rank_pseudo_inverse(init.a0), ds.y, 0.25)
        # a step 3x the stable one on the top curvature mode: |1 - 3| = 2 per step
        cfg = AndConfig(stages=1, iters_per_stage=200, eta=3.0 / spectral_norm(z0 @ z0.T),
                        schedule=ThresholdSchedule.constant(0.25))
        with pytest.raises(DivergenceError) as exc:
            run(init.a0, ds.y, cfg, truth=gt, on_row=log.on_row)
        t = exc.value.iteration
        assert self.CAPACITY < t < cfg.iters_per_stage - 1
        rows = [e[1] for e in log.events if e[0] == "row"]
        assert rows == exc.value.trace.rows
        assert [row.iteration for row in rows] == list(range(t + 1))
        for row in rows[:-1]:
            assert math.isfinite(row.total_error)
            assert row.e_norm is not None and row.n_norm is not None
        assert rows[-1].total_error == math.inf and rows[-1].e_norm is None
        # the divergence evaluates a part-filled stack and emits its rows
        # before the inf row
        last = max(i for i, e in enumerate(log.events) if e[0] == "eval")
        assert log.events[last][1] == t % self.CAPACITY > 0
        assert [e[0] for e in log.events[last + 1:]] == ["row"] * (t % self.CAPACITY + 1)


class TestUpdateRecurrence:
    def test_geometric_decay_identity(self):
        d = 6
        rng = np.random.default_rng(0)
        sigma0 = np.diag(1.0 + 0.1 * rng.standard_normal(d))
        e0 = rng.uniform(-0.1, 0.1, (d, d))
        np.fill_diagonal(e0, 0.0)
        target = np.diag(rng.uniform(0.9, 1.1, d))
        eta = 0.3
        res = simulate_update_recurrence(sigma0, e0, np.eye(d), target, 0.0, eta, 40, seed=1)
        expected = res.deviations[0] * (1 - eta) ** np.arange(41)
        assert res.deviations == pytest.approx(expected, abs=1e-10)

    def test_no_disturbance_converges(self):
        d = 5
        rng = np.random.default_rng(2)
        q = rng.standard_normal((d, d))
        lam = q @ q.T / d + 0.5 * np.eye(d)
        lam /= 2 * spectral_norm(lam)
        sigma0 = np.diag(rng.uniform(0.8, 1.2, d))
        e0 = 0.1 * rng.standard_normal((d, d))
        np.fill_diagonal(e0, 0.0)
        res = simulate_update_recurrence(
            sigma0, e0, lam, np.diag(rng.uniform(0.9, 1.1, d)), 0.0, 0.9, 600, seed=3
        )
        assert res.deviations[-1] <= 1e-6

    @pytest.mark.parametrize("seed", range(50))
    def test_bound_holds_random_instances(self, seed):
        d = 10
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((d, d))
        lam = g @ g.T / d
        lam /= 2 * spectral_norm(lam)  # eta * lmax < 1 for eta below
        sigma0 = np.diag(rng.uniform(0.7, 1.3, d))
        e0 = rng.uniform(-0.2, 0.2, (d, d))
        np.fill_diagonal(e0, 0.0)
        target = rng.standard_normal((d, d))
        r_bound = abs(rng.normal(0.0, 0.05))
        res = simulate_update_recurrence(
            sigma0, e0, lam, target, r_bound, eta=0.8, steps=60, seed=seed + 1
        )
        lmin = max(np.linalg.eigvalsh((lam + lam.T) / 2)[0], 0.0)
        tail = r_bound / lmin if lmin > 0 else math.inf
        bound = res.deviations[0] * (1 - 0.8 * lmin) ** np.arange(61) + tail
        assert np.all(res.deviations <= bound * (1 + 1e-9) + 1e-12)

    def test_preconditions(self):
        d = 3
        eye = np.eye(d)
        off = np.zeros((d, d))
        with pytest.raises(ValueError, match="diagonal"):
            simulate_update_recurrence(np.ones((d, d)), off, eye, eye, 0.0, 0.1, 1)
        with pytest.raises(ValueError, match="zero diagonal"):
            simulate_update_recurrence(eye, eye, eye, eye, 0.0, 0.1, 1)
        with pytest.raises(ValueError, match="PSD"):
            simulate_update_recurrence(eye, off, -eye, eye, 0.0, 0.1, 1)
        with pytest.raises(ValueError, match="eta"):
            simulate_update_recurrence(eye, off, eye, eye, 0.0, 1.5, 1)

    def test_disturbances_hit_bound_scale(self):
        # disturbance norm is exactly r_bound, so deviations stay near the
        # tail term r_bound / lmin once contracted
        d = 4
        res = simulate_update_recurrence(
            np.eye(d), np.zeros((d, d)), 0.5 * np.eye(d), np.eye(d),
            r_bound=0.01, eta=1.0, steps=200, seed=9,
        )
        tail = 0.01 / 0.5
        assert res.deviations[-1] <= tail * (1 + 1e-9)
        assert res.deviations[-1] >= tail / 50


def test_run_rejects_bad_config():
    with pytest.raises(ValueError):
        AndConfig(stages=0)
    with pytest.raises(ValueError):
        AndConfig(eta=-1.0)
    with pytest.raises(ValueError):
        AndConfig(batch=0)
