import math

import numpy as np
import pytest

from andnmf import baselines, solver
from andnmf.baselines import BaselineConfig, anls_step, hals_step, mu_step, run_baseline
from andnmf.linalg import factor_columns
from andnmf.solver import AndConfig, DivergenceError, run as run_and
from andnmf.synth import InitSpec, NoiseSpec, generate_dataset, generate_ground_truth, generate_initialization
from andnmf.weights import WeightSpec

from preset_data import SMALL, preset_problem


def objective(a, x, y):
    return np.linalg.norm(y - a @ x)


def random_instance(seed, w=15, d=4, n=25):
    rng = np.random.default_rng(seed)
    return rng.random((w, d)) + 0.05, rng.random((d, n)) + 0.05, rng.random((w, n)) + 0.05


class TestMU:
    def test_stationary_point_barely_moves(self):
        rng = np.random.default_rng(0)
        a = rng.random((10, 3)) + 0.5
        x = rng.random((3, 20)) + 0.5
        y = a @ x
        a2, _ = mu_step(a, x, y)
        assert np.linalg.norm(a2 - a) < 1e-8

    def test_scalar_arithmetic(self):
        a2, x2 = mu_step(np.array([[2.0]]), np.array([[1.0]]), np.array([[4.0]]))
        assert x2[0, 0] == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("seed", range(100))
    def test_objective_monotone(self, seed):
        a, x, y = random_instance(seed)
        a2, x2 = mu_step(a, x, y)
        assert objective(a2, x2, y) <= objective(a, x, y) + 1e-9
        assert np.all(a2 >= 0) and np.all(x2 >= 0)


class TestHALS:
    def test_unused_component_unchanged(self):
        rng = np.random.default_rng(1)
        a = rng.random((8, 3))
        x = rng.random((3, 12))
        x[1] = 0.0  # component 1 unused: its (X X^T) diagonal entry is 0
        y = rng.random((8, 12))
        a2, _ = hals_step(a, x, y)
        assert np.array_equal(a2[:, 1], a[:, 1])

    def test_fixed_point_objective_change_tiny(self):
        rng = np.random.default_rng(2)
        a = rng.random((10, 3)) + 0.5
        x = rng.random((3, 30)) + 0.5
        y = a @ x
        a2, x2 = hals_step(a, x, y)
        assert abs(objective(a2, x2, y) - objective(a, x, y)) < 1e-10

    @pytest.mark.parametrize("seed", range(100))
    def test_objective_monotone(self, seed):
        a, x, y = random_instance(seed)
        a2, x2 = hals_step(a, x, y)
        assert objective(a2, x2, y) <= objective(a, x, y) + 1e-9
        assert np.all(a2 >= 0) and np.all(x2 >= 0)


class TestANLS:
    def test_orthonormal_basis_unconstrained_optimum(self, monkeypatch):
        monkeypatch.setattr(baselines, "_ANLS_INNER_ITERS", 200)
        rng = np.random.default_rng(3)
        # nonnegative orthonormal basis via disjoint supports, so the
        # unconstrained least-squares optimum A^T y is already feasible
        a = np.zeros((20, 4))
        for j in range(4):
            a[5 * j:5 * (j + 1), j] = 1.0 / np.sqrt(5.0)
        x_true = rng.random((4, 9))
        y = a @ x_true
        _, x2 = anls_step(a, np.zeros((4, 9)), y)
        assert x2 == pytest.approx(a.T @ y, abs=1e-6)

    def test_zero_inner_iters_noop(self, monkeypatch):
        monkeypatch.setattr(baselines, "_ANLS_INNER_ITERS", 0)
        a, x, y = random_instance(4)
        a2, x2 = anls_step(a, x, y)
        assert np.array_equal(a2, a) and np.array_equal(x2, x)

    @pytest.mark.parametrize("seed", range(100))
    def test_objective_monotone_per_half_step(self, seed):
        a, x, y = random_instance(seed)
        before = objective(a, x, y)
        _, x2 = anls_step(a, x, y)
        middle = objective(a, x2, y)
        a2, x2b = anls_step(a, x, y)
        assert np.array_equal(x2b, x2)
        after = objective(a2, x2, y)
        assert middle <= before + 1e-9
        assert after <= middle + 1e-9


class TestRunBaseline:
    def make_problem(self, kind="nonneg", gamma=0.0, seed=0):
        gt = generate_ground_truth(40, 5, kind=kind, seed=seed)
        ds = generate_dataset(
            gt, WeightSpec("dirichlet", 5, concentration=1.0, seed=seed + 1), NoiseSpec(gamma),
            150, seed + 2
        )
        init = generate_initialization(gt, InitSpec(r_l=1.0, seed=seed + 3))
        return gt, ds, init

    def test_zero_outers_returns_a0(self):
        gt, ds, init = self.make_problem()
        res = run_baseline(BaselineConfig("hals", outer_iters=0), ds.y, init.a0, truth=gt)
        assert np.array_equal(res.a, init.a0)
        assert res.trace.rows == []

    @pytest.mark.parametrize("outer_iters", [0, 3])
    def test_truth_of_another_shape_refused_before_any_step(self, monkeypatch, outer_iters):
        steps = []
        monkeypatch.setattr(baselines, "hals_step", lambda *args: steps.append(args) or args[:2])
        gt = generate_ground_truth(30, 5, seed=0)
        a0 = np.random.default_rng(1).random((30, 4))
        y = np.random.default_rng(2).random((30, 50))
        with pytest.raises(ValueError, match="shape mismatch"):
            run_baseline(BaselineConfig("hals", outer_iters=outer_iters), y, a0, truth=gt)
        assert steps == []

    def test_mu_iterates_stay_nonnegative_on_binary_data(self, monkeypatch):
        # BINARY's weights with the first 10 words used by no document: those
        # rows of Y are 0, and so are the entries of Y X^T in them, which the
        # factored Q (R X^T) rounds to about +-1e-16; unclamped, that leaves
        # entries of A near -1e-16 after nearly every step of this run
        _, gt, ds, init = preset_problem("BINARY", **SMALL)
        a_star = gt.a_star.copy()
        a_star[:10] = 0.0
        y = a_star @ ds.x
        assert factor_columns(y, SMALL["D"]) is not y
        iterates = []
        step = baselines.mu_step

        def recording_step(*args):
            iterates.append(step(*args))
            return iterates[-1]

        monkeypatch.setattr(baselines, "mu_step", recording_step)
        run_baseline(BaselineConfig("mu", outer_iters=50), y, init.a0)
        assert len(iterates) == 50
        assert all(np.all(a >= 0) and np.all(x >= 0) for a, x in iterates)

    def test_mu_refuses_negative_data(self):
        gt, ds, init = self.make_problem(kind="signed")
        assert np.any(ds.y < 0)
        with pytest.raises(ValueError, match="negative"):
            run_baseline(BaselineConfig("mu", outer_iters=3), ds.y, init.a0, truth=gt)

    def test_mu_refuses_negative_data_before_factoring_it(self, monkeypatch):
        # the refusal reads only the checked Y: a refused run takes no factor
        gt, ds, init = self.make_problem(kind="signed")
        calls = []
        monkeypatch.setattr(solver, "factor_columns", lambda y, d: calls.append(1) or y)
        with pytest.raises(ValueError, match="negative"):
            run_baseline(BaselineConfig("mu", outer_iters=3), ds.y, init.a0, truth=gt)
        assert calls == []
        run_baseline(BaselineConfig("hals", outer_iters=3), ds.y, init.a0, truth=gt)
        assert calls == [1]

    @pytest.mark.parametrize("with_truth", [True, False])
    @pytest.mark.parametrize("algorithm", ["hals", "mu", "anls"])
    def test_overflow_is_divergence(self, algorithm, with_truth):
        # at 1e160 the first step's A^T A overflows and leaves NaN in X: the
        # run ends as diverged, as the staged solver's would, not refused
        gt, ds, init = self.make_problem()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                run_baseline(BaselineConfig(algorithm, outer_iters=3), ds.y * 1e160,
                             init.a0 * 1e160, truth=gt if with_truth else None)
        assert (exc.value.stage, exc.value.iteration) == (0, 0)
        last = exc.value.trace.rows[-1]
        assert last.total_error == math.inf
        assert last.e_norm is None and last.n_norm is None

    def test_zero_eval_every_rejected(self):
        gt, ds, init = self.make_problem()
        with pytest.raises(ValueError, match="eval_every"):
            run_baseline(BaselineConfig("hals", outer_iters=3), ds.y, init.a0, truth=gt,
                         eval_every=0)

    def test_trace_schema_matches_and_solver(self):
        gt, ds, init = self.make_problem()
        res = run_baseline(BaselineConfig("hals", outer_iters=5), ds.y, init.a0, truth=gt)
        assert len(res.trace.rows) == 5
        row = res.trace.rows[0]
        assert row.stage == 0 and row.alpha == 0.0
        assert row.e_norm is not None and row.n_norm is not None

    def test_reproducible(self):
        gt, ds, init = self.make_problem()
        cfg = BaselineConfig("anls", outer_iters=4, seed=9)
        r1 = run_baseline(cfg, ds.y, init.a0)
        r2 = run_baseline(cfg, ds.y, init.a0)
        assert np.array_equal(r1.a, r2.a)
        assert np.array_equal(r1.x, r2.x)

    def test_hals_error_decreases_on_nonneg_data(self):
        gt, ds, init = self.make_problem(seed=5)
        res = run_baseline(BaselineConfig("hals", outer_iters=60), ds.y, init.a0, truth=gt)
        errs = [r.total_error for r in res.trace.rows]
        assert errs[-1] < errs[0]

    def test_hals_converges_slower_than_staged_solver_on_dirichlet(self):
        from andnmf.solver import AndConfig, run

        gt = generate_ground_truth(100, 10, seed=41)
        ds = generate_dataset(gt, WeightSpec("dirichlet", 10, concentration=0.5, seed=42),
                              NoiseSpec(0.0), 800, seed=43)
        init = generate_initialization(gt, InitSpec(r_l=1.0, seed=44))
        staged = run(init.a0, ds.y, AndConfig(stages=60, iters_per_stage=50),
                     truth=gt, eval_every=50)
        hals = run_baseline(BaselineConfig("hals", outer_iters=800, seed=2),
                            ds.y, init.a0, truth=gt, eval_every=100)
        hals_errs = [r.total_error for r in hals.trace.rows]
        assert hals_errs[-1] < hals_errs[0]  # it does make progress
        assert hals_errs[-1] >= 10 * staged.trace.stage_end_errors()[-1]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BaselineConfig("newton")
        for bad in (-1, 2.5, 2.0, True, float("nan")):
            with pytest.raises(ValueError):
                BaselineConfig("hals", outer_iters=bad)


def _one_step(name, y, a0, truth):
    """One short run of `and` or of a baseline, which starts by `solver.start`."""
    if name == "and":
        return run_and(a0, y, AndConfig(stages=1, iters_per_stage=1), truth=truth)
    return run_baseline(BaselineConfig(name, outer_iters=1), y, a0, truth=truth)


def _bad_inputs(case):
    a, x, _ = random_instance(0)
    y, truth = a @ x, None
    if case in ("y", "both"):
        y[2, 3] = np.nan
    if case in ("a0", "both"):
        a[1, 1] = np.inf
    if case == "rows":
        a = a[:-1]
    if case == "truth":
        truth = a[:, :-1]
    return y, a, truth


@pytest.mark.parametrize("case, message", [
    ("y", "y contains non-finite entry at (2, 3)"),
    ("a0", "a0 contains non-finite entry at (1, 1)"),
    ("both", "y contains non-finite entry at (2, 3)"),
    ("rows", "a0 has 14 rows but y has 15"),
    ("truth", "shape mismatch: (15, 4) != (15, 3)"),
])
def test_every_solver_refuses_bad_inputs_alike(case, message):
    # `and` and the baselines check Y, then A0, then the rows, then the truth
    for name in ("and", *baselines.ALGORITHMS):
        y, a0, truth = _bad_inputs(case)
        with pytest.raises(ValueError) as exc:
            _one_step(name, y, a0, truth)
        assert str(exc.value) == message, name
