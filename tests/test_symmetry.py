"""The symmetries of the solvers, asserted on their own runs.

`and` acts on A only through products, never entry by entry (the divergence
check reads entries but changes none), so its runs transform exactly with
their inputs:

- scaling by c = 2^k: run(c A0, c Y) = c run(A0, Y), bit for bit while
  nothing over- or underflows, since P Y, Z and the step are unchanged;
  with c A* as the truth, total_error and n_norm scale by c and e_norm is
  unchanged, and a no-truth residual scales by c;
- rotation by an orthogonal W x W matrix U: run(U A0, U Y) = U run(A0, Y),
  with U A* as the truth and every row unchanged, up to rounding;
- permutation of A0's D columns: run(A0 Pi, Y) = run(A0, Y) Pi, with A* Pi
  as the truth and every row unchanged, up to rounding.

Permuting Y's columns leaves a full-batch run unchanged up to rounding too,
but a mini-batch run reads its windows in column order and has no such
symmetry, so that is not asserted.

The baselines keep A and X nonnegative entry by entry, so they have no
rotation symmetry. They scale, X unchanged, but their denominator floor
1e-12 does not: the scaling holds bit for bit only at scales where the floor
is lost to rounding in every denominator, so it is asserted from 2^64 Y on.
MU and ANLS update every column of A at once and are permutation-equivariant
up to rounding, which is asserted step by step, since `run_baseline` draws
X0 from its seed and cannot be handed Pi^T X0. HALS sweeps the columns in
order, so a permutation changes its iterates, and is left out.

The bounds were fixed before running: 1e-12 max|A| for a final matrix, and
max(1e-12 |ref|, 1e-14 ||Y||_F) for a row value (n_norm is at round-off on
this data, whose iterates stay in the span of A*).
"""

import functools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from andnmf.baselines import BaselineConfig, anls_step, mu_step, run_baseline
from andnmf.linalg import factor_columns
from andnmf.solver import AndConfig, run

from preset_data import preset_problem

TOL = 1e-12
D = 5
_, GT, DS, INIT = preset_problem("DIR", W=40, D=D, n=400, seed=0)
Y, A0, A_STAR = DS.y, INIT.a0, GT.a_star
CASES = [(batch, with_truth) for batch in ("full", 40) for with_truth in (True, False)]
IDS = [f"{batch}-{'truth' if t else 'no-truth'}" for batch, t in CASES]


def _and(a0, y, a_star, batch, with_truth):
    cfg = AndConfig(stages=5, iters_per_stage=20, batch=batch)
    return run(a0, y, cfg, truth=a_star if with_truth else None)


@functools.cache
def _base(batch, with_truth):
    """The untransformed run of a case, made once."""
    return _and(A0, Y, A_STAR, batch, with_truth)


def _values(rows):
    return np.array([[np.nan if v is None else v for v in (r.total_error, r.e_norm, r.n_norm)]
                     for r in rows])


def _same_rows(got, ref):
    """Rows of the same (stage, iteration, alpha), each value within the row bound."""
    assert [(r.stage, r.iteration, r.alpha) for r in got] == \
           [(r.stage, r.iteration, r.alpha) for r in ref]
    g, r = _values(got), _values(ref)
    assert np.array_equal(np.isnan(g), np.isnan(r))
    bound = np.maximum(TOL * np.abs(r), 1e-14 * np.linalg.norm(Y))
    assert np.all(np.abs(g - r)[~np.isnan(r)] <= bound[~np.isnan(r)])


def _orthogonal(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(Y), len(Y))))
    return q


@pytest.mark.parametrize("batch, with_truth", CASES, ids=IDS)
@given(k=st.integers(-40, 300))
def test_scaling_by_a_power_of_two_scales_the_run_bitwise(batch, with_truth, k):
    base = _base(batch, with_truth)
    got = _and(np.ldexp(A0, k), np.ldexp(Y, k), np.ldexp(A_STAR, k), batch, with_truth)
    assert np.array_equal(got.a, np.ldexp(base.a, k))
    g, r = _values(got.trace.rows), _values(base.trace.rows)
    # total_error and n_norm scale with A*, e_norm (of the mixing) does not
    assert np.array_equal(g, r * np.ldexp(1.0, [k, 0, k]), equal_nan=True)


@pytest.mark.parametrize("batch, with_truth", CASES, ids=IDS)
@given(seed=st.integers(0, 2**32 - 1))
def test_rotating_the_problem_rotates_the_run(batch, with_truth, seed):
    u = _orthogonal(seed)
    base = _base(batch, with_truth)
    got = _and(u @ A0, u @ Y, u @ A_STAR, batch, with_truth)
    assert np.abs(u.T @ got.a - base.a).max() <= TOL * np.abs(base.a).max()
    _same_rows(got.trace.rows, base.trace.rows)


@pytest.mark.parametrize("batch, with_truth", CASES, ids=IDS)
@given(perm=st.permutations(range(D)))
def test_permuting_a0s_columns_permutes_the_run(batch, with_truth, perm):
    base = _base(batch, with_truth)
    got = _and(A0[:, perm], Y, A_STAR[:, perm], batch, with_truth)
    assert np.abs(got.a - base.a[:, perm]).max() <= TOL * np.abs(base.a).max()
    _same_rows(got.trace.rows, base.trace.rows)


@given(seed=st.integers(0, 2**32 - 1))
def test_factoring_a_rotated_y_rotates_its_projector(seed):
    u = _orthogonal(seed)
    yf, rotated = factor_columns(Y, D), factor_columns(u @ Y, D)
    projector = u @ yf.q @ yf.q.T @ u.T
    assert np.abs(rotated.q @ rotated.q.T - projector).max() <= TOL


@pytest.mark.parametrize("algorithm", ["mu", "hals", "anls"])
@given(k=st.integers(-24, 236))
def test_scaling_a_baseline_by_a_power_of_two_scales_its_run_bitwise(algorithm, k):
    cfg = BaselineConfig(algorithm, outer_iters=30, seed=4)

    def solve(e):
        return run_baseline(cfg, np.ldexp(Y, e), np.ldexp(A0, e), truth=np.ldexp(A_STAR, e))

    base, got = solve(64), solve(64 + k)
    assert np.array_equal(got.a, np.ldexp(base.a, k))
    assert np.array_equal(got.x, base.x)
    g, r = _values(got.trace.rows), _values(base.trace.rows)
    assert np.array_equal(g, r * np.ldexp(1.0, [k, 0, k]))


@pytest.mark.parametrize("step", [mu_step, anls_step], ids=["mu", "anls"])
@given(perm=st.permutations(range(D)))
def test_permuting_a_baselines_components_permutes_its_steps(step, perm):
    yf = factor_columns(Y, D)
    a, x = np.maximum(A0, 0.0), np.random.default_rng(4).random((D, Y.shape[1]))
    a_p, x_p = a[:, perm], x[perm]
    for _ in range(30):
        a, x = step(a, x, yf)
        a_p, x_p = step(a_p, x_p, yf)
    assert np.abs(a_p - a[:, perm]).max() <= TOL * np.abs(a).max()
    assert np.abs(x_p - x[perm]).max() <= TOL * np.abs(x).max()
