"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every test here carries the
`acceptance` marker, so `pytest -m "not acceptance"` runs the unit tests
alone. Solver runs reuse session-scoped datasets where protocols coincide;
every tolerance is asserted exactly as stated. Criteria that pin no stage
count or annealing ratio use per-run values chosen for robust margins at desk
scale (documented inline).
"""

import itertools
import json
import time

import numpy as np
import pytest

from andnmf.baselines import BaselineConfig, anls_step, hals_step, mu_step, run_baseline
from andnmf.cli import main as cli_main
from andnmf.linalg import full_rank_pseudo_inverse, spectral_norm, threshold_elementwise
from andnmf.matio import read_trace
from andnmf.metrics import Evaluator, total_correlation_error
from andnmf.solver import AndConfig, ThresholdSchedule, run
from andnmf.synth import InitSpec, NoiseSpec, generate_dataset, generate_ground_truth, generate_initialization
from andnmf.weights import WeightSpec, gcc_from_samples, sample_weights

pytestmark = pytest.mark.acceptance

W, D, N = 200, 20, 2000
GEOMETRIC = ThresholdSchedule(0.1, 1.0 / 1.1)


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def fit_line(ys):
    xs = np.arange(len(ys), dtype=float)
    design = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return float(coef[0]), 1.0 - ss_res / ss_tot


@pytest.fixture(scope="session")
def dir_problem():
    gt = generate_ground_truth(W, D, kind="nonneg", seed=101)
    ds = generate_dataset(gt, WeightSpec("dirichlet", D, concentration=0.05 * (100 / D), seed=102),
                          NoiseSpec(0.0), N, seed=103)
    init = generate_initialization(gt, InitSpec(r_l=1.0, seed=104))
    return gt, ds, init


@pytest.fixture(scope="session")
def ctm_problem():
    gt = generate_ground_truth(W, D, kind="nonneg", seed=201)
    ds = generate_dataset(gt, WeightSpec("logistic_normal", D, rho=0.5, seed=202),
                          NoiseSpec(0.0), N, seed=203)
    init = generate_initialization(gt, InitSpec(r_l=1.0, seed=204))
    return gt, ds, init


@pytest.fixture(scope="session")
def neg_problem():
    gt = generate_ground_truth(W, D, kind="signed", seed=301)
    ds = generate_dataset(gt, WeightSpec("logistic_normal", D, rho=0.5, seed=302),
                          NoiseSpec(0.0), N, seed=303)
    init = generate_initialization(gt, InitSpec(r_l=1.0, seed=304))
    return gt, ds, init


def timed(solve):
    """The result of `solve()` and its wall time in seconds."""
    t0 = time.perf_counter()
    result = solve()
    return result, time.perf_counter() - t0


def and_110(problem):
    """`and` at 110 stages x T=50 under the geometric schedule, timed."""
    gt, ds, init = problem
    cfg = AndConfig(stages=110, iters_per_stage=50, schedule=GEOMETRIC)
    return timed(lambda: run(init.a0, ds.y, cfg, truth=gt, eval_every=50))


def baseline(problem, algorithm, outer_iters, seed, eval_every):
    gt, ds, init = problem
    cfg = BaselineConfig(algorithm, outer_iters=outer_iters, seed=seed)
    return timed(lambda: run_baseline(cfg, ds.y, init.a0, truth=gt, eval_every=eval_every))


# the `and` runs at 110 x 50 of C2 (CTM) and C3 (NEG)
@pytest.fixture(scope="session")
def ctm_and_run(ctm_problem):
    return and_110(ctm_problem)


@pytest.fixture(scope="session")
def neg_and_run(neg_problem):
    return and_110(neg_problem)


@pytest.fixture(scope="session")
def neg_hals_run(neg_problem):
    return baseline(neg_problem, "hals", 1000, 305, 100)


def test_c1_dir_linear_rate(dir_problem):
    """Full DIR protocol: Dirichlet(0.25), r_l=1, Geometric(0.1, 1/1.1),
    30 stages x T=50. Asserts stage-linear decay (slope < 0, R2 >= 0.9)
    within 120 s, and a final stage-end error of at most 5x the oracle floor
    at the last threshold alpha_29 = 0.1 / 1.1^29 ~ 6.3e-3.

    The oracle floor is computed here, not recorded: decode with the exact
    ground-truth pseudo-inverse, Z = phi_alpha(A*^+ Y), in place of the
    working matrix's, then solve the stage to its closed-form fixed point
    A = argmin ||Y - A Z||_F = Y Z^T (Z Z^T)^-1 in place of 50 gradient
    steps; the floor is that A's total correlation error. The threshold
    truncates the near-zero Dirichlet weights, a bias that scales like
    alpha^~1, so on this data the floor is 1.03 against an initial 12.55:
    the 30-stage schedule allows at most a 1.09-decade drop. A 4-decade
    drop, as an earlier form of this test demanded, needs error <= 1.25e-3,
    which even the oracle first reaches at stage 86.

    The stage budget is pinned rather than raised because a longer run does
    not rescue a 4-decade clause: past ~1e-3 absolute error the solver stalls
    on those truncated weights. On this data the drop at 150 stages is only
    3.9 decades, 4 decades first arrive at stage 169, and over 200 stages R2
    falls to 0.92; two other data draws stay below 4 decades at stage 200.

    The factor 5 lies between the correct program (~2.4x the floor) and the
    nearest broken one: a pseudo-inverse computed once and never refreshed
    ends at ~9.9x, a decode without threshold at ~12x (its decay is flat yet
    perfectly linear, so only this clause catches it), a constant 0.1
    schedule at ~26x. alpha_29 is taken from the schedule's definition, not
    from the solver, so a broken schedule cannot move the floor with it.
    """
    gt, ds, init = dir_problem
    stages = 30
    cfg = AndConfig(stages=stages, iters_per_stage=50, schedule=GEOMETRIC)
    t0 = time.perf_counter()
    result = run(init.a0, ds.y, cfg, truth=gt, eval_every=50)
    elapsed = time.perf_counter() - t0
    evaluator = Evaluator(gt.a_star)
    initial = evaluator.error_report(init.a0).total
    alpha_last = GEOMETRIC.start * GEOMETRIC.ratio ** (stages - 1)
    z = threshold_elementwise(full_rank_pseudo_inverse(gt.a_star) @ ds.y, alpha_last)
    floor = evaluator.error_report(np.linalg.lstsq(z.T, ds.y.T, rcond=None)[0].T).total
    ends = result.trace.stage_end_errors()
    log_ends = np.log10(ends)
    drop = np.log10(initial) - log_ends[-1]
    slope, r2 = fit_line(log_ends)
    ratio = ends[-1] / floor
    ok = ratio <= 5.0 and slope < 0 and r2 >= 0.9 and elapsed <= 120
    report(
        "C1 DIR linear-rate recovery", ok,
        f"(initial {initial:.3f}, oracle floor {floor:.3f}, final/floor {ratio:.2f} "
        f"[need <= 5], log10 drop {drop:.2f}, slope {slope:.4f} [need < 0], "
        f"R2 {r2:.3f} [need >= 0.9], {elapsed:.0f}s [need <= 120])",
    )


def test_c2_ctm_recovery(ctm_problem, ctm_and_run):
    """Strong-correlation recovery; stage count not pinned by the criterion,
    110 stages lets the schedule anneal to where the logistic-normal decode
    bias is negligible."""
    gt, _, init = ctm_problem
    result, elapsed = ctm_and_run
    initial = Evaluator(gt.a_star).error_report(init.a0).total
    final = result.trace.stage_end_errors()[-1]
    ok = final <= 1e-3 * initial and elapsed <= 120
    report("C2 CTM recovery", ok,
           f"(final/initial {final / initial:.2e} [need <= 1e-3], {elapsed:.0f}s)")


def test_c3_negative_ground_truth(neg_problem, neg_and_run, neg_hals_run):
    gt, _, init = neg_problem
    initial = Evaluator(gt.a_star).error_report(init.a0).total
    (and_result, and_s), (hals_result, hals_s) = neg_and_run, neg_hals_run
    elapsed = and_s + hals_s
    and_final = and_result.trace.stage_end_errors()[-1]
    hals_final = hals_result.trace.rows[-1].total_error
    ok = and_final <= 1e-3 * initial and hals_final >= 1e-1 * initial and elapsed <= 180
    report(
        "C3 NEG recovery vs HALS", ok,
        f"(AND {and_final / initial:.2e} [<= 1e-3], "
        f"HALS {hals_final / initial:.2e} [>= 1e-1], {elapsed:.0f}s)",
    )


# outer iterations per baseline in C10: on a 2-core Xeon each budget takes
# 1.6-2.1x the wall time of `and` at 110 x 50 (the baselines read Y through
# its factor Y = Q R, as `and` does)
C10_BUDGET = {"hals": 400, "anls": 200, "mu": 1000}
# timed rounds of C10: each runs `and`, then each baseline
C10_REPEATS = 3


@pytest.mark.parametrize("name", ["DIR", "CTM", "NEG"])
def test_c10_and_beats_the_baselines(name, request):
    """The paper's comparative claim: on correlated weights, `and` at
    110 stages x T=50 ends at <= 0.1x the final error of each baseline given
    at least its wall time. The factor 0.1 (a decade) is fixed from the
    claim, not read from the program; the correct program ends near 1e-3x
    on DIR and CTM and 2e-5x on NEG. MU refuses NEG's signed data, so NEG
    compares HALS (C3's 1000-iteration run) and ANLS only. Each baseline's
    budget is a fixed iteration count, and its measured wall time is
    asserted to be at least `and`'s, so a baseline is never stopped early.
    The solvers are timed back to back in C10_REPEATS interleaved rounds,
    and the minimum time of each is compared, so load that comes and goes
    on the host slows both sides of a comparison alike or neither. Every
    round gives the same results, since no solver's draws depend on time.

    Two broken programs fail it on every problem: a pseudo-inverse computed
    once and never refreshed ends at 1.0-4.1x the baselines' error on DIR
    and CTM and 0.13x on NEG, a decode without threshold at 1.2-4.1x and
    0.18x.
    """
    problem = request.getfixturevalue(f"{name.lower()}_problem")
    # (outer iterations, seed, eval_every) of each baseline
    budgets = {a: (iters, 1010, iters) for a, iters in C10_BUDGET.items()}
    if name == "NEG":
        del budgets["mu"]
        budgets["hals"] = (1000, 305, 100)  # C3's run
    results, seconds = {}, {a: [] for a in ("and", *budgets)}
    for _ in range(C10_REPEATS):
        results["and"], s = and_110(problem)
        seconds["and"].append(s)
        for algorithm, args in budgets.items():
            results[algorithm], s = baseline(problem, algorithm, *args)
            seconds[algorithm].append(s)
    and_final = results["and"].trace.stage_end_errors()[-1]
    and_s = min(seconds["and"])
    ratios = {a: and_final / results[a].trace.rows[-1].total_error for a in budgets}
    times = {a: min(seconds[a]) for a in budgets}
    ok = all(r <= 0.1 for r in ratios.values()) and all(s >= and_s for s in times.values())
    report(
        f"C10 {name} and vs baselines", ok,
        "(and/baseline final error "
        + ", ".join(f"{a} {r:.2e}" for a, r in ratios.items()) + " [need <= 0.1]; "
        + f"minimum wall s and {and_s:.2f}, "
        + ", ".join(f"{a} {s:.2f}" for a, s in times.items()) + " [need >= and])",
    )


def test_c4_threshold_ablation(dir_problem):
    """Identical DIR runs, constant vs decreasing threshold; 70 stages each
    (count not pinned) so the decreasing arm separates by the required factor."""
    gt, ds, init = dir_problem
    stages = 70
    geo = run(init.a0, ds.y,
              AndConfig(stages=stages, iters_per_stage=50, schedule=GEOMETRIC),
              truth=gt, eval_every=50)
    const = run(init.a0, ds.y,
                AndConfig(stages=stages, iters_per_stage=50,
                          schedule=ThresholdSchedule(0.1, 1.0)),
                truth=gt, eval_every=50)
    geo_final = geo.trace.stage_end_errors()[-1]
    const_final = const.trace.stage_end_errors()[-1]
    const_ends = const.trace.stage_end_errors()
    plateaued = const_ends[29] >= 0.5 * const_ends[4]
    ok = const_final >= 100 * geo_final and plateaued
    report(
        "C4 threshold ablation", ok,
        f"(constant/decreasing {const_final / geo_final:.0f}x [need >= 100], "
        f"constant stage30/stage5 {const_ends[29] / const_ends[4]:.2f} [need >= 0.5])",
    )


def test_c5_binary_recovery():
    gt = generate_ground_truth(W, D, kind="nonneg", seed=501)
    ds = generate_dataset(gt, WeightSpec("sparse_binary", D, s=3, seed=502),
                          NoiseSpec(0.0), N, seed=503)
    init = generate_initialization(gt, InitSpec(r_l=1.0, seed=504))
    cfg = AndConfig(stages=16, iters_per_stage=50,
                    schedule=ThresholdSchedule(0.25, 1.0))
    result = run(init.a0, ds.y, cfg, truth=gt, eval_every=50)
    dec = Evaluator(gt.a_star).decompose(result.a)
    rel = spectral_norm(result.a - gt.a_star @ np.diag(dec.sigma)) / spectral_norm(gt.a_star)
    ok = rel <= 1e-6 and dec.sigma_min >= 0.5
    report("C5 binary-case recovery", ok,
           f"(||A - A* Sigma|| / ||A*|| = {rel:.2e} [<= 1e-6], "
           f"min diag {dec.sigma_min:.3f} [>= 1/2])")


def test_c6_noise_plateau():
    """Common random numbers across gamma levels: same weights and unit noise,
    scaled per level, so plateau monotonicity is not washed out by draws."""
    gt = generate_ground_truth(W, D, kind="nonneg", seed=601)
    x = sample_weights(WeightSpec("logistic_normal", D, rho=0.5, seed=602), N)
    unit = np.random.default_rng(603).standard_normal((W, N)) / np.sqrt(W)
    init = generate_initialization(gt, InitSpec(r_l=1.0, seed=604))
    plateaus, changes = {}, {}
    for gamma in (0.01, 0.02, 0.04):
        y = gt.a_star @ x + gamma * unit
        result = run(init.a0, y,
                     AndConfig(stages=110, iters_per_stage=100, schedule=GEOMETRIC),
                     truth=gt, eval_every=100)
        ends = result.trace.stage_end_errors()
        last5 = ends[-5:]
        plateaus[gamma] = float(last5.mean())
        changes[gamma] = float((last5.max() - last5.min()) / last5.min())
    ratio = plateaus[0.04] / plateaus[0.01]
    flat = all(c <= 0.10 for c in changes.values())
    monotone = plateaus[0.01] < plateaus[0.02] < plateaus[0.04]
    ok = flat and monotone and 2.0 <= ratio <= 8.0
    report(
        "C6 noise plateau", ok,
        f"(plateaus {plateaus[0.01]:.3g}/{plateaus[0.02]:.3g}/{plateaus[0.04]:.3g}, "
        f"last-5 change {max(changes.values()):.1%} [<= 10%], "
        f"ratio {ratio:.2f} [in [2, 8]])",
    )


class TestC7Robustness:
    def test_in_span_level_two(self, dir_problem):
        gt, ds, _ = dir_problem
        init2 = generate_initialization(gt, InitSpec(r_l=2.0, seed=701))
        initial = Evaluator(gt.a_star).error_report(init2.a0).total
        result = run(init2.a0, ds.y,
                     AndConfig(stages=65, iters_per_stage=50, schedule=GEOMETRIC),
                     truth=gt, eval_every=50)
        final = result.trace.stage_end_errors()[-1]
        report("C7a in-span r_l=2 converges", final <= 1e-2 * initial,
               f"(final/initial {final / initial:.2e} [need <= 1e-2])")

    def test_out_of_span_column_norm_parity(self, dir_problem):
        gt, ds, init = dir_problem
        # r_n = 20 puts the out-of-span component at column-norm parity with
        # the signal: ||N col|| ~ 0.05 * r_n * sqrt(W/3) ~ ||A* col||
        init_n = generate_initialization(gt, InitSpec(r_l=1.0, r_n=20.0, seed=702))
        n_cols = np.linalg.norm(init_n.n_mat, axis=0).mean()
        star_cols = np.linalg.norm(gt.a_star, axis=0).mean()
        assert 0.7 <= n_cols / star_cols <= 1.3  # parity, not just "large"
        cfg = AndConfig(stages=65, iters_per_stage=50, schedule=GEOMETRIC)
        noisy = run(init_n.a0, ds.y, cfg, truth=gt, eval_every=50)
        clean = run(init.a0, ds.y, cfg, truth=gt, eval_every=50)
        f_noisy = noisy.trace.stage_end_errors()[-1]
        f_clean = clean.trace.stage_end_errors()[-1]
        report(
            "C7b out-of-span parity degrades <= 10x", f_noisy <= 10 * f_clean,
            f"(degradation {f_noisy / f_clean:.2f}x [need <= 10], "
            f"||N col||/||A* col|| {n_cols / star_cols:.2f})",
        )

    @pytest.mark.parametrize(
        "alpha_total, stages, ratio, seed",
        [(5.0, 110, 1.0 / 1.1, 710), (20.0, 200, 1.0 / 1.05, 720)],
    )
    def test_sparsity_converges(self, alpha_total, stages, ratio, seed):
        """`converges`: error falls by at least a decade and lands at a
        normalized total error (relative to the total ground-truth column
        mass) of at most 0.01. n and the annealing rate are not pinned;
        n=4000 keeps the finite-sample floor below the target."""
        gt = generate_ground_truth(W, D, kind="nonneg", seed=seed)
        weights = WeightSpec("dirichlet", D, concentration=alpha_total / D, seed=seed + 1)
        ds = generate_dataset(gt, weights, NoiseSpec(0.0), 4000, seed=seed + 2)
        init = generate_initialization(gt, InitSpec(r_l=1.0, seed=seed + 3))
        evaluator = Evaluator(gt.a_star)
        initial = evaluator.error_report(init.a0).total
        sched = ThresholdSchedule(0.1, ratio)
        result = run(init.a0, ds.y,
                     AndConfig(stages=stages, iters_per_stage=50, schedule=sched),
                     truth=gt, eval_every=50)
        final = result.trace.stage_end_errors()[-1]
        normalized = final / np.linalg.norm(gt.a_star, axis=0).sum()
        ok = final <= 0.1 * initial and normalized <= 0.01
        report(
            f"C7c sparsity alpha_total={alpha_total:g} converges", ok,
            f"(drop {np.log10(initial / final):.2f} decades, "
            f"normalized {normalized:.2e} [need <= 0.01])",
        )

    def test_sparsity_dense_plateaus(self):
        gt = generate_ground_truth(W, D, kind="nonneg", seed=730)
        ds = generate_dataset(gt, WeightSpec("dirichlet", D, concentration=80.0 / D, seed=731),
                              NoiseSpec(0.0), 4000, seed=732)
        init = generate_initialization(gt, InitSpec(r_l=1.0, seed=733))
        sched = ThresholdSchedule(0.1, 1.0 / 1.03)
        result = run(init.a0, ds.y,
                     AndConfig(stages=210, iters_per_stage=50, schedule=sched),
                     truth=gt, eval_every=50)
        ends = result.trace.stage_end_errors()
        last5 = ends[-5:]
        change = (last5.max() - last5.min()) / last5.min()
        normalized = last5.mean() / np.linalg.norm(gt.a_star, axis=0).sum()
        ok = change <= 0.10 and normalized <= 0.1
        report(
            "C7d sparsity alpha_total=80 plateaus", ok,
            f"(last-5 change {change:.1%}, normalized error {normalized:.3f} [<= 0.1])",
        )


class TestC8InvariantSuites:
    def test_penrose(self):
        for seed in range(5):
            m = np.random.default_rng(seed).standard_normal((20, 10))
            p = full_rank_pseudo_inverse(m)
            assert np.linalg.norm(m @ p @ m - m) <= 1e-9 * np.linalg.norm(m)
            assert np.linalg.norm(p @ m @ p - p) <= 1e-9 * np.linalg.norm(p)
            assert np.linalg.norm(m @ p - (m @ p).T) <= 1e-9
            assert np.linalg.norm(p @ m - (p @ m).T) <= 1e-9
        report("C8 Penrose identities", True, "(5 random 20x10 instances, 1e-9)")

    def test_metric_invariance_exact(self):
        rng = np.random.default_rng(81)
        a = rng.standard_normal((20, 6))
        star = rng.standard_normal((20, 6))
        base = total_correlation_error(a, star).total
        perm = rng.permutation(6)
        pow2 = np.array([0.5, 2.0, 8.0, 0.25, 1.0, 4.0])
        exact = total_correlation_error(a[:, perm] * pow2, star).total == base
        general = abs(
            total_correlation_error(a[:, perm] * rng.uniform(0.2, 3.0, 6), star).total - base
        ) <= 1e-12 * max(base, 1.0)
        report("C8 metric permutation/scale invariance", exact and general,
               "(power-of-two scalings bitwise, general within 1e-12)")

    def test_decompose_round_trip(self):
        rng = np.random.default_rng(82)
        star = rng.random((30, 8))
        a = rng.standard_normal((30, 8))
        dec = Evaluator(star).decompose(a)
        rebuilt = star @ (np.diag(dec.sigma) + dec.off_diag) + dec.residual
        ok = np.linalg.norm(rebuilt - a) <= 1e-9 * np.linalg.norm(a)
        report("C8 decompose round trip", ok, "(1e-9 relative)")

    def test_baseline_monotonicity(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a = rng.random((15, 4)) + 0.05
            x = rng.random((4, 25)) + 0.05
            y = rng.random((15, 25)) + 0.05
            before = np.linalg.norm(y - a @ x)
            for stepper in (
                lambda: mu_step(a, x, y),
                lambda: hals_step(a, x, y),
                lambda: anls_step(a, x, y),
            ):
                a2, x2 = stepper()
                worst = max(worst, np.linalg.norm(y - a2 @ x2) - before)
        report("C8 MU/HALS/ANLS monotone", worst <= 1e-9,
               f"(worst increase {worst:.2e} over 100 seeded instances)")

    @pytest.mark.parametrize("name", ["DIR", "CTM"])
    def test_stage_contraction_bound(self, name, request):
        """Every full-batch stage of the program contracts toward its own
        least-squares fixed point at the rate the analysis states:

            ||A_t - F||_F <= (1 - eta lambda_min(G))^t ||A_j - F||_F

        after t = 1, 11, 21, 31, 41 and 50 updates of each of 30 stages, up to
        a 1e-9 relative rounding slack, with lambda_min(G) > 0 asserted.

        The stage quantities are computed here from their definitions, not
        read from the solver: P = A_j^+, alpha_j = 0.1 (1/1.1)^j from the
        schedule's parameters, Z = phi_alpha(P Y), G = Z Z^T, B = Y Z^T,
        eta = 0.5 / (||G||_2 + 1e-12) and F = B G^-1. The iterates A_t are the
        program's own: one-stage `run` calls at the constant threshold
        alpha_j, chained stage by stage, and the chain's last matrix must
        equal the 30-stage run's final matrix bitwise.

        The bound holds because the full-batch update is
        A_t - F = (A_j - F)(I - eta G)^t and eta lambda_max(G) ~ 0.5. The
        correct program peaks at 0.82 of the bound on DIR and 0.87 on CTM
        (eta lambda_min(G) is 0.08 to 0.15 on DIR, 0.23 to 0.27 on CTM).
        Broken programs land far above it, worst ratio DIR / CTM: a step scale
        of 1.9 in place of 0.5 at 10.4 / 1.9e4; a decode without threshold
        (P Y) at 2.0e3 / 4.6e6, or with phi_0 at 2.3e3 / 6.3e6; a pseudo-
        inverse kept from the first call at 5.6e3 / 8.3e6. A pseudo-inverse
        computed once per run stays under the bound, since each one-stage run
        refreshes it, and fails the bitwise comparison instead; a flipped-sign
        update decodes all zeros at stage 1, where lambda_min(G) = 0. This
        clause covers full batch only: with a mini-batch each window has its
        own fixed point, and the bound with that disturbance term still holds
        the 1.9 step scale on DIR (0.86 of it).
        """
        gt, ds, init = request.getfixturevalue(f"{name.lower()}_problem")
        label = f"C8 {name} stage contraction bound"
        stages, iters = 30, 50
        checks = (1, 11, 21, 31, 41, iters)  # the last check ends the stage
        a_j = init.a0
        worst, rates = 0.0, []
        for j in range(stages):
            alpha = GEOMETRIC.start * GEOMETRIC.ratio ** j
            z = threshold_elementwise(full_rank_pseudo_inverse(a_j) @ ds.y, alpha)
            g, b = z @ z.T, ds.y @ z.T
            lam_min, lam_max = np.linalg.eigvalsh(g)[[0, -1]]
            if not lam_min > 0:
                report(label, False, f"(stage {j}: lambda_min(G) {lam_min:.3g} [need > 0])")
            eta = 0.5 / (lam_max + 1e-12)
            f = np.linalg.solve(g, b.T).T
            d0 = np.linalg.norm(a_j - f)
            rates.append(eta * lam_min)
            for t in checks:
                cfg = AndConfig(stages=1, iters_per_stage=t,
                                schedule=ThresholdSchedule(alpha, 1.0))
                a_t = run(a_j, ds.y, cfg, truth=gt, eval_every=t).a
                bound = (1.0 - eta * lam_min) ** t * d0
                worst = max(worst, np.linalg.norm(a_t - f) / bound)
            a_j = a_t
        full = run(init.a0, ds.y, AndConfig(stages=stages, iters_per_stage=iters,
                                            schedule=GEOMETRIC), truth=gt, eval_every=iters)
        bitwise = np.array_equal(a_j, full.a)
        report(
            label, worst <= 1.0 + 1e-9 and bitwise,
            f"(worst ratio to bound {worst:.3g} [need <= 1], eta*lambda_min(G) "
            f"{min(rates):.3f}-{max(rates):.3f} [need > 0], chained stages bitwise "
            f"equal to the 30-stage run: {bitwise})",
        )

    def test_gcc_enumeration_exact(self):
        supports = list(itertools.combinations(range(4), 2))
        x = np.zeros((4, len(supports)))
        for col, sup in enumerate(supports):
            x[list(sup), col] = 1.0
        est = gcc_from_samples(x)
        exact = (
            est.params.r == 2.0
            and est.params.k == 1.0
            and est.params.m == 8.0 / 3.0
            and abs(est.params.lam - 4.0 / 3.0) <= 1e-12
        )
        report("C8 GCC enumeration (s=2, D=4)", exact,
               "(r, k, m bitwise; lambda within eigensolver 1e-12)")

    def test_gcc_empirical_three_standard_errors(self):
        d, s, n = 4, 2, 50000
        x = sample_weights(WeightSpec("sparse_binary", d, s=s, seed=83), n)
        est = gcc_from_samples(x)
        delta = np.zeros((d, d))
        for sup in itertools.combinations(range(d), s):
            v = np.zeros(d)
            v[list(sup)] = 1.0
            delta += np.outer(v, v)
        delta /= 6.0
        se = np.sqrt(delta * (1 - delta) / n)
        ok = bool(np.all(np.abs(est.second_moment - delta) <= 3 * se + 1e-12))
        report("C8 empirical GCC within 3 SE at n=50k", ok, "")


def test_c9_cli_run_determinism(tmp_path):
    raw = {
        "dataset": {"preset": "DIR", "seed": 9},
        "init": {"r_l": 1.0},
        "solvers": [
            {"name": "and", "stages": 3, "iters_per_stage": 10},
            {"name": "hals", "outer_iters": 10},
        ],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli_main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0

    def snapshot():
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        snap = {}
        for label in ("and", "hals"):
            rows = read_trace(out / f"{label}_trace.csv")
            snap[label] = [
                (r.stage, r.iteration, r.alpha, r.total_error, r.log10_error,
                 r.e_norm, r.n_norm)
                for r in rows  # everything except the seconds column
            ]
        return snap

    first, second = snapshot(), snapshot()
    report("C9 cli run determinism", first == second,
           "(two runs identical modulo the seconds column)")
