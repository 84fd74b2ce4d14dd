import itertools
import math

import numpy as np
import pytest

from andnmf.weights import (
    NoClosedFormError,
    WeightSpec,
    decay_profile,
    gcc_closed_form,
    gcc_from_samples,
    sample_weights,
)


def exact_sparse_binary_second_moment(d, s):
    """Brute-force E[x x^T] over all C(d, s) supports, uniformly weighted."""
    supports = list(itertools.combinations(range(d), s))
    delta = np.zeros((d, d))
    for sup in supports:
        x = np.zeros(d)
        x[list(sup)] = 1.0
        delta += np.outer(x, x)
    return delta / len(supports)


class TestSampling:
    def test_sparse_binary_full_support(self):
        x = sample_weights(WeightSpec.sparse_binary(5, 5, seed=0), 7)
        assert np.array_equal(x, np.ones((5, 7)))

    def test_sparse_binary_column_sums(self):
        x = sample_weights(WeightSpec.sparse_binary(10, 3, seed=1), 200)
        assert np.array_equal(np.sort(np.unique(x)), [0.0, 1.0])
        assert np.array_equal(x.sum(axis=0), np.full(200, 3.0))

    def test_sparse_binary_marginals(self):
        x = sample_weights(WeightSpec.sparse_binary(4, 2, seed=2), 60000)
        freq = x.mean(axis=1)
        assert freq == pytest.approx(np.full(4, 0.5), abs=0.01)

    def test_dirichlet_simplex(self):
        x = sample_weights(WeightSpec.dirichlet(6, 0.3, seed=3), 500)
        assert x.sum(axis=0) == pytest.approx(np.ones(500), abs=1e-12)
        assert np.all(x >= 0)

    def test_logistic_normal_simplex(self):
        x = sample_weights(WeightSpec.logistic_normal(6, rho=0.5, seed=4), 500)
        assert x.sum(axis=0) == pytest.approx(np.ones(500), abs=1e-12)
        assert np.all(x > 0)

    def test_sparse_uniform_range(self):
        x = sample_weights(WeightSpec.sparse_uniform(8, 2, low=0.25, high=0.75, seed=5), 300)
        nz = x[x != 0]
        assert nz.size == 600
        assert np.all((nz >= 0.25) & (nz < 0.75))

    def test_reproducible_bitwise(self):
        spec = WeightSpec.logistic_normal(5, seed=11)
        assert np.array_equal(sample_weights(spec, 64), sample_weights(spec, 64))

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            sample_weights(WeightSpec.sparse_binary(4, 0), 1)
        with pytest.raises(ValueError):
            sample_weights(WeightSpec.dirichlet(4, -1.0), 1)
        with pytest.raises(ValueError):
            sample_weights(WeightSpec.sparse_binary(4, 2), 0)
        with pytest.raises(ValueError):
            WeightSpec.sparse_uniform(4, 2, low=0.5, high=0.5)


class TestClosedForm:
    def test_sparse_binary_s3(self):
        p = gcc_closed_form(WeightSpec.sparse_binary(20, 3))
        assert (p.r, p.k, p.m) == (3.0, 3.0, 9.0)
        assert p.lam == pytest.approx(2.0 / 3.0)
        assert math.isinf(p.q)

    def test_sparse_binary_s1_lambda_zero(self):
        assert gcc_closed_form(WeightSpec.sparse_binary(6, 1)).lam == 0.0

    def test_dirichlet(self):
        d, s = 40, 5
        p = gcc_closed_form(WeightSpec.dirichlet(d, s / d))
        assert (p.r, p.k) == (1.0, 1.0)
        assert p.m == pytest.approx(1.0 / (5 * d))
        assert p.lam == pytest.approx(4.0 / 5.0)
        assert p.q is None  # measured empirically, not asserted

    def test_no_closed_form(self):
        with pytest.raises(NoClosedFormError):
            gcc_closed_form(WeightSpec.logistic_normal(4))


class TestEmpirical:
    def test_degenerate_single_column(self):
        x = np.array([[1.0], [0.0]])
        est = gcc_from_samples(x)
        assert np.array_equal(est.second_moment, np.diag([1.0, 0.0]))
        assert est.params.r == 1.0
        assert est.params.k == 1.0
        assert est.params.m == 0.0
        assert est.params.lam == pytest.approx(0.0, abs=1e-12)

    def test_all_ones(self):
        d = 5
        x = np.ones((d, 8))
        est = gcc_from_samples(x)
        assert est.params.r == float(d)
        assert est.params.lam == pytest.approx(0.0, abs=1e-9)

    def test_enumeration_oracle_sparse_binary(self):
        # every support of the s=2, d=4 family exactly once: the empirical
        # moment equals the population one bitwise
        d, s = 4, 2
        delta = exact_sparse_binary_second_moment(d, s)
        cols = []
        for sup in itertools.combinations(range(d), s):
            x = np.zeros(d)
            x[list(sup)] = 1.0
            cols.append(x)
        x = np.array(cols).T
        est = gcc_from_samples(x)
        assert np.array_equal(est.second_moment, delta)
        assert est.params.r == 2.0
        assert est.params.k == 1.0
        assert est.params.m == 8.0 / 3.0
        # lambda_min of (1/3) I + (1/6) J is 1/3, so lam = d * (1/3) / k
        assert est.params.lam == pytest.approx(4.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("d, s", [(4, 2), (8, 3)])
    def test_sampled_moments_within_three_standard_errors(self, d, s):
        n = 50000
        x = sample_weights(WeightSpec.sparse_binary(d, s, seed=7), n)
        est = gcc_from_samples(x)
        delta = exact_sparse_binary_second_moment(d, s)
        se = np.sqrt(delta * (1 - delta) / n)
        assert np.all(np.abs(est.second_moment - delta) <= 3 * se + 1e-12)

    def test_fitted_params_satisfy_conditions(self):
        x = sample_weights(WeightSpec.dirichlet(8, 0.4, seed=8), 2000)
        est = gcc_from_samples(x)
        d = 8
        delta = est.second_moment
        assert np.all(np.diag(delta) <= 2 * est.params.k / d + 1e-12)
        off = delta[~np.eye(d, dtype=bool)]
        assert np.all(off <= est.params.m / d**2 + 1e-12)
        floor = (est.params.k / d) * est.params.lam
        assert np.linalg.eigvalsh(delta)[0] >= floor - 1e-9

    def test_out_of_range_rejected(self):
        x = np.array([[0.5, 1.5], [0.2, 0.1]])
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            gcc_from_samples(x)


class TestDecayProfile:
    def test_binary_is_infinite_order(self):
        x = sample_weights(WeightSpec.sparse_binary(6, 2, seed=9), 4000)
        prof = decay_profile(x, [0.1, 0.3, 0.5, 0.9])
        assert np.all(prof.max_cdf == 0.0)
        assert math.isinf(prof.q_hat)

    def test_uniform_values_order_one(self):
        x = sample_weights(WeightSpec.sparse_uniform(4, 2, low=0.0, high=1.0, seed=10), 200000)
        prof = decay_profile(x, np.arange(1, 10) * 0.1)
        # conditional CDF of Unif(0, 1] at alpha is alpha, so the fitted order
        # sits at 1 up to the sampling slack
        assert 0.95 <= prof.q_hat <= 1.15

    def test_point_mass_above_grid(self):
        x = np.zeros((2, 50))
        x[0, ::2] = 0.9
        x[1, 1::2] = 0.9
        prof = decay_profile(x, np.arange(1, 9) * 0.1)
        assert np.all(prof.max_cdf == 0.0)
        assert math.isinf(prof.q_hat)

    def test_all_zero_coordinate_skipped(self):
        x = np.zeros((3, 40))
        x[0] = 0.8
        x[1, :20] = 0.6
        prof = decay_profile(x, [0.5])
        assert prof.skipped == (2,)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            decay_profile(np.ones((2, 2)), [])
        with pytest.raises(ValueError):
            decay_profile(np.ones((2, 2)), [0.0, 0.5])
