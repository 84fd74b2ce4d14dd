import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from andnmf.linalg import full_rank_pseudo_inverse, spectral_norm
from andnmf.metrics import Evaluator, total_correlation_error

import per_row_oracle


def grid_search_column_error(a_star_col, a, sigmas=None):
    """Independent oracle: brute-force the scale over a grid."""
    if sigmas is None:
        sigmas = np.arange(-2.0, 2.0, 1e-4)
    best = np.inf
    col = a_star_col.ravel()
    for j in range(a.shape[1]):
        norms = np.linalg.norm(col[:, None] - sigmas[None, :] * a[:, [j]], axis=0)
        best = min(best, norms.min())
    return best


class TestColumnError:
    def test_exact_column_present(self):
        rng = np.random.default_rng(0)
        a = rng.random((10, 4))
        r = total_correlation_error(a, a[:, [2]])
        assert r.per_column[0] == pytest.approx(0.0, abs=1e-7)
        assert r.matches == [2]
        assert r.scales[0] == pytest.approx(1.0)

    def test_scaled_column_present(self):
        rng = np.random.default_rng(1)
        a = rng.random((10, 4))
        star = 7.0 * a[:, [1]]
        r = total_correlation_error(a, star)
        assert r.per_column[0] == pytest.approx(0.0, abs=1e-6)
        assert r.matches == [1]
        assert r.scales[0] == pytest.approx(7.0)

    def test_projection_formula_and_grid_oracle(self):
        star = np.array([[1.0], [0.0]])
        a = np.array([[1.0], [1.0]])
        r = total_correlation_error(a, star)
        assert r.scales[0] == pytest.approx(0.5)
        assert r.per_column[0] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert r.per_column[0] == pytest.approx(grid_search_column_error(star, a), abs=1e-4)

    def test_pythagoras(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((15, 5))
        star = rng.standard_normal((15, 1))
        r = total_correlation_error(a, star)
        eps, j = r.per_column[0], r.matches[0]
        proj = (a[:, j] @ star.ravel()) ** 2 / (a[:, j] @ a[:, j])
        assert eps**2 + proj == pytest.approx(float(star.ravel() @ star.ravel()), abs=1e-10)

    def test_zero_columns_skipped(self):
        star = np.array([[1.0], [1.0]])
        a = np.array([[0.0, 1.0], [0.0, 0.9]])
        r = total_correlation_error(a, star)
        assert r.matches == [1]
        assert r.per_column[0] < np.linalg.norm(star)

    def test_all_zero_estimate(self):
        star = np.array([[3.0], [4.0]])
        r = total_correlation_error(np.zeros((2, 3)), star)
        assert r.per_column[0] == pytest.approx(5.0)
        assert r.matches == [-1] and r.scales == [0.0]


class TestTotalError:
    def test_identity(self):
        rng = np.random.default_rng(3)
        a = rng.random((12, 5))
        report = total_correlation_error(a, a)
        assert report.total == pytest.approx(0.0, abs=1e-6)
        assert report.matches == [0, 1, 2, 3, 4]

    def test_total_is_sum(self):
        rng = np.random.default_rng(4)
        a = rng.random((12, 5))
        b = rng.random((12, 5))
        report = total_correlation_error(a, b)
        assert report.total == pytest.approx(float(np.sum(report.per_column)), abs=1e-12)
        assert np.all(report.per_column >= 0)

    def test_permutation_and_pow2_scale_exact(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 6))
        star = rng.standard_normal((20, 6))
        base = total_correlation_error(a, star).total
        perm = rng.permutation(6)
        scales = np.array([0.5, 2.0, 4.0, 1.0, 0.25, 8.0])  # powers of two: exact
        transformed = a[:, perm] * scales
        assert total_correlation_error(transformed, star).total == base

    @given(st.integers(0, 2**32 - 1))
    def test_permutation_scale_invariance_general(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((10, 4))
        star = rng.standard_normal((10, 4))
        base = total_correlation_error(a, star).total
        perm = rng.permutation(4)
        scales = rng.uniform(0.1, 3.0, 4) * rng.choice([-1.0, 1.0], 4)
        got = total_correlation_error(a[:, perm] * scales, star).total
        assert got == pytest.approx(base, rel=1e-12, abs=1e-12)

    # the squares of A^T a* and of ||A_j|| overflow a float64 at these scales
    @pytest.mark.parametrize("scale", [1e160, 1e170])
    def test_huge_estimate_keeps_its_winners(self, scale):
        rng = np.random.default_rng(8)
        star = rng.random((30, 6))
        a = (star @ (np.eye(6) + 0.1 * rng.standard_normal((6, 6))))[:, [3, 1, 5, 0, 2, 4]]
        ref = total_correlation_error(a, star)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = total_correlation_error(scale * a, star)
            ev = Evaluator(star)
            totals = ev.evaluate_coordinates(ev.coordinates(np.stack([a, scale * a])))[0]
        assert ref.matches == [3, 1, 4, 0, 5, 2]
        assert big.matches == ref.matches
        assert big.total == pytest.approx(ref.total, rel=1e-12, abs=0)
        assert totals[0] == ref.total
        assert totals[1] == pytest.approx(ref.total, rel=1e-12, abs=0)

    def test_zero_column_cutoff_is_absolute_in_a_huge_estimate(self):
        # column 0 of `a` has a norm near 1e-15, under the 1e-12 cutoff; 1e170
        # times it is a real column even though the estimate is rescaled
        rng = np.random.default_rng(9)
        star = rng.random((30, 4))
        a = star * np.array([1e-15, 1.0, 1.0, 1.0])
        assert total_correlation_error(a, star).matches[0] != 0
        assert total_correlation_error(1e170 * a, star).matches == [0, 1, 2, 3]

    def test_one_replaced_column_vs_grid_oracle(self):
        rng = np.random.default_rng(6)
        star = rng.random((20, 5))
        a = star.copy()
        # replace column 3 with a unit vector orthogonal to all of A*
        q, _ = np.linalg.qr(np.hstack([star, rng.standard_normal((20, 1))]))
        a[:, 3] = q[:, 5]
        report = total_correlation_error(a, star)
        expected = grid_search_column_error(star[:, [3]], a)
        assert report.per_column[3] == pytest.approx(expected, abs=1e-4)
        others = [report.per_column[i] for i in range(5) if i != 3]
        assert max(others) == pytest.approx(0.0, abs=1e-7)

    def test_json_round_trip(self):
        rng = np.random.default_rng(7)
        report = total_correlation_error(rng.random((6, 3)), rng.random((6, 3)))
        d = report.to_json_dict()
        assert set(d) == {"per_column", "total", "matches", "scales"}
        assert len(d["per_column"]) == len(d["matches"]) == len(d["scales"]) == 3


class TestDecompose:
    def test_identity(self):
        rng = np.random.default_rng(8)
        star = rng.random((15, 4))
        dec = Evaluator(star).decompose(star)
        assert dec.sigma == pytest.approx(np.ones(4), abs=1e-10)
        assert dec.off_diag_norm == pytest.approx(0.0, abs=1e-10)
        assert dec.residual_norm == pytest.approx(0.0, abs=1e-10)

    def test_in_span_mixing(self):
        rng = np.random.default_rng(9)
        star = rng.random((30, 6))
        u = rng.uniform(-0.05, 0.05, (6, 6))
        a = star @ (np.eye(6) + u)
        dec = Evaluator(star).decompose(a)
        assert dec.residual_norm <= 1e-10
        assert dec.sigma == pytest.approx(1.0 + np.diag(u), abs=1e-10)
        assert dec.off_diag == pytest.approx(u - np.diag(np.diag(u)), abs=1e-10)
        assert np.all(np.diag(dec.off_diag) == 0.0)

    def test_orthogonal_perturbation(self):
        rng = np.random.default_rng(10)
        star = rng.random((25, 5))
        # build a perturbation in the orthogonal complement of range(A*)
        q, _ = np.linalg.qr(star)
        raw = rng.standard_normal((25, 5))
        p = raw - q @ (q.T @ raw)
        a = star + p
        dec = Evaluator(star).decompose(a)
        assert dec.sigma == pytest.approx(np.ones(5), abs=1e-10)
        assert dec.off_diag_norm <= 1e-10
        assert dec.residual_norm == pytest.approx(spectral_norm(p), rel=1e-7)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        star = rng.random((18, 4))
        a = rng.standard_normal((18, 4))
        dec = Evaluator(star).decompose(a)
        rebuilt = star @ (np.diag(dec.sigma) + dec.off_diag) + dec.residual
        assert np.linalg.norm(rebuilt - a) <= 1e-9 * np.linalg.norm(a)

    def test_residual_orthogonal_to_span(self):
        rng = np.random.default_rng(12)
        star = rng.random((18, 4))
        dec = Evaluator(star).decompose(rng.standard_normal((18, 4)))
        assert np.linalg.norm(star.T @ dec.residual) <= 1e-8

    def test_rank_deficient_truth_rejected(self):
        star = np.ones((10, 3))
        with pytest.raises(ValueError, match="rank deficient"):
            Evaluator(star).decompose(np.ones((10, 3)))


def test_evaluator_matches_free_functions():
    rng = np.random.default_rng(14)
    star = rng.random((20, 5))
    a = rng.random((20, 5))
    report, free = Evaluator(star).error_report(a), total_correlation_error(a, star)
    assert report.total == free.total
    assert np.array_equal(report.per_column, free.per_column)
    assert report.matches == free.matches and report.scales == free.scales


def _estimates(star, k, rng, scale=1.0):
    """k estimates near the truth: in-span mixing plus a residual of `scale`."""
    w, d = star.shape
    mix = np.diag(rng.uniform(0.5, 2.0, d)) + 0.1 * rng.standard_normal((k, d, d))
    return star @ mix + scale * rng.standard_normal((k, w, d))


def _assert_matches_per_row_oracle(star, stack, rel_only=False):
    """Evaluator.evaluate_coordinates of the estimates' coordinates against
    the exact-SVD per-row path, within 1e-12 * max(|ref|, ||A*||_2) (or
    1e-12 * |ref| with `rel_only`); returns the values."""
    ev = Evaluator(star)
    got = ev.evaluate_coordinates(ev.coordinates(stack))
    pinv = full_rank_pseudo_inverse(star)
    ref = np.array([per_row_oracle.row_values(a, star, pinv) for a in stack]).T
    floor = 0.0 if rel_only else spectral_norm(star)
    for g, r in zip(got, ref):
        assert g.shape == (len(stack),)
        assert np.all(np.isfinite(g)) and np.all(g >= 0)
        assert np.all(np.abs(g - r) <= 1e-12 * np.maximum(np.abs(r), floor))
    return got


class TestBatchedEvaluate:
    @pytest.mark.parametrize("shape", [(200, 20), (40, 5), (12, 3), (7, 7)])
    @pytest.mark.parametrize("k", [1, 2, 50, 51])
    def test_matches_per_row_oracle(self, shape, k):
        # a trace stack is a whole stage's rows; 51 is one more than a DIR
        # stage (50 iterations) records at eval_every 1
        w, d = shape
        rng = np.random.default_rng(w * d + k)
        star = rng.random(shape)
        _assert_matches_per_row_oracle(star, _estimates(star, k, rng, 0.01))

    def test_zero_columns_and_zero_estimate(self):
        rng = np.random.default_rng(20)
        star = rng.random((15, 4))
        stack = _estimates(star, 3, rng, 0.01)
        stack[0, :, 1] = 0.0
        stack[1, :, :3] = 0.0
        stack[2] = 0.0
        totals, e_norms, n_norms = _assert_matches_per_row_oracle(star, stack)
        assert totals[2] == pytest.approx(np.linalg.norm(star, axis=0).sum(), rel=1e-15)
        assert e_norms[2] == 0.0 and n_norms[2] == 0.0

    def test_duplicate_columns_tie_to_the_first(self):
        rng = np.random.default_rng(21)
        star = rng.random((15, 4))
        a = star.copy()
        a[:, 3] = a[:, 1]  # a*_1 is matched exactly by columns 1 and 3
        report = total_correlation_error(a, star)
        eps, matches, scales = per_row_oracle.column_errors(a, star)
        assert report.matches == matches and matches[1] == 1
        assert report.scales == scales
        assert np.array_equal(report.per_column, eps)
        _assert_matches_per_row_oracle(star, np.stack([a, a[:, ::-1]]))

    def test_exactly_in_span_gives_zero_residual_norm(self):
        # A* = 2 [I; 0] inverts exactly, so N = A - A* Pinv* A is exactly zero
        star = 2.0 * np.vstack([np.eye(4), np.zeros((8, 4))])
        a = star @ np.diag([0.5, 2.0, 4.0, 1.0])
        totals, e_norms, n_norms = _assert_matches_per_row_oracle(star, np.stack([a, star]))
        assert np.array_equal(n_norms, [0.0, 0.0])
        assert np.array_equal(e_norms, [0.0, 0.0]) and np.array_equal(totals, [0.0, 0.0])

    # squared, 1e-170 underflows a float64
    @pytest.mark.parametrize("scale", [1e-12, 1e-14, 1e-150, 1e-170])
    def test_residual_at_extreme_scale(self, scale):
        rng = np.random.default_rng(22)
        star = rng.random((30, 6))
        # a residual of `scale` on top of an in-span estimate ...
        _assert_matches_per_row_oracle(star, _estimates(star, 5, rng, scale))
        # ... and a whole estimate of that scale, where each norm must keep
        # its relative accuracy (no Gram-form underflow)
        tiny = scale * rng.standard_normal((5, 30, 6))
        _, e_norms, n_norms = _assert_matches_per_row_oracle(star, tiny, rel_only=True)
        assert np.all(n_norms > 0) and np.all(e_norms > 0)

    def test_huge_estimates_are_rescaled(self):
        # squares of entries near 2^600 overflow; the error search divides an
        # estimate beyond 2^256 by a power of two first, which moves no bit of
        # the total, and both norms scale with the estimate
        rng = np.random.default_rng(24)
        star = rng.random((12, 3))
        stack = _estimates(star, 4, rng, 0.01)
        ev = Evaluator(star)
        base = ev.evaluate_coordinates(ev.coordinates(stack))
        for m in (300, 600):
            huge = np.ldexp(stack, m)
            with np.errstate(over="raise", invalid="raise"):
                got = ev.evaluate_coordinates(ev.coordinates(huge))
            assert np.array_equal(got[0], base[0])
            for g, b in zip(got[1:], base[1:]):
                assert np.allclose(g, np.ldexp(b, m), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("w", [4, 5, 8, 12, 64], ids=["W=D", "W=D+1", "W=2D", "W=3D", "W=16D"])
    def test_split_commutes_with_a_right_factor(self, w):
        # a one-window stage splits M = [A~ B~] (2D columns) once and reads
        # each row as coordinates(M) S; that must evaluate as the split of
        # M S itself, at every height: R has min(W, 2D) rows against
        # min(W, D), and at W = D nothing is out of span
        d = 4
        rng = np.random.default_rng(w)
        star = rng.random((w, d))
        ev = Evaluator(star)
        m = np.concatenate([_estimates(star, 3, rng, 0.1), rng.random((3, w, d))], axis=2)
        s = rng.standard_normal((3, 2 * d, d))
        got = ev.evaluate_coordinates(ev.coordinates(m) @ s)
        ref = ev.evaluate_coordinates(ev.coordinates(m @ s))
        floor = spectral_norm(star)
        for g, r in zip(got, ref):
            assert np.all(np.abs(g - r) <= 1e-12 * np.maximum(np.abs(r), floor))

    def test_coordinates_reject_wrong_shape_and_non_finite(self):
        star = np.random.default_rng(25).random((10, 3))
        ev = Evaluator(star)
        coords = ev.coordinates(np.stack([star, 2 * star]))
        for bad in (coords[0], coords[:, :2], coords[:, :, :2]):
            with pytest.raises(ValueError, match="shape"):
                ev.evaluate_coordinates(bad)
        coords[1, -1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            ev.evaluate_coordinates(coords)

    def test_rejects_wrong_shape_and_non_finite(self):
        star = np.random.default_rng(23).random((10, 3))
        ev = Evaluator(star)
        with pytest.raises(ValueError, match="shape"):
            ev.evaluate_coordinates(ev.coordinates(star))
        with pytest.raises(ValueError, match="shape"):
            ev.evaluate_coordinates(ev.coordinates(np.zeros((2, 10, 4))))
        bad = np.stack([star, star])
        bad[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ev.evaluate_coordinates(ev.coordinates(bad))

    @given(
        d=st.integers(1, 6),
        extra_w=st.integers(0, 10),
        k=st.integers(1, 12),
        scale=st.sampled_from([1.0, 1e-3, 1e-12, 1e-14, 1e-150, 1e-170]),
        zero_column=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_per_row_oracle(self, d, extra_w, k, scale, zero_column, seed):
        rng = np.random.default_rng(seed)
        star = rng.random((d + extra_w, d)) + np.vstack(
            [np.eye(d), np.zeros((extra_w, d))])  # well conditioned
        stack = _estimates(star, k, rng, scale)
        if zero_column:
            stack[0, :, rng.integers(d)] = 0.0
        _assert_matches_per_row_oracle(star, stack)
