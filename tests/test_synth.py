import numpy as np
import pytest

from andnmf.linalg import spectral_norm
from andnmf.metrics import Evaluator
from andnmf.synth import (
    GroundTruth,
    InitSpec,
    NoiseSpec,
    generate_dataset,
    generate_ground_truth,
    generate_initialization,
)
from andnmf.weights import WeightSpec


def test_ground_truth_signed_range():
    gt = generate_ground_truth(50, 8, kind="signed", seed=0)
    assert np.all(gt.a_star >= -0.5) and np.all(gt.a_star < 0.5)
    assert gt.provenance == "random-uniform-signed"


def test_ground_truth_nonneg_range():
    gt = generate_ground_truth(50, 8, kind="nonneg", seed=0)
    assert np.all(gt.a_star >= 0.0) and np.all(gt.a_star < 1.0)


def test_ground_truth_full_rank():
    gt = generate_ground_truth(200, 20, seed=1)
    assert np.linalg.matrix_rank(gt.a_star) == 20
    assert gt.cond > 1.0


def test_ground_truth_rejects_wide():
    with pytest.raises(ValueError, match="left inverse"):
        generate_ground_truth(10, 20)


def test_noise_spec_rejects_negative_gamma():
    with pytest.raises(ValueError):
        NoiseSpec(gamma=-1.0)


def test_dataset_noiseless_exact():
    gt = generate_ground_truth(60, 6, seed=2)
    ds = generate_dataset(gt, WeightSpec.dirichlet(6, 0.5, seed=3), NoiseSpec(0.0), 100, seed=4)
    assert not ds.zeta.any()
    assert np.array_equal(ds.y, gt.a_star @ ds.x)


def test_dataset_noise_column_norms():
    gamma, w, n = 0.2, 200, 5000
    gt = generate_ground_truth(w, 10, seed=5)
    ds = generate_dataset(
        gt, WeightSpec.sparse_binary(10, 2, seed=6), NoiseSpec(gamma), n, seed=7
    )
    mean_norm = np.linalg.norm(ds.zeta, axis=0).mean()
    assert mean_norm == pytest.approx(gamma, rel=0.05)


def test_dataset_binary_columns_are_column_sums():
    gt = generate_ground_truth(40, 8, seed=8)
    ds = generate_dataset(gt, WeightSpec.sparse_binary(8, 3, seed=9), NoiseSpec(0.0), 50, seed=10)
    for col in range(5):
        support = np.flatnonzero(ds.x[:, col])
        assert support.size == 3
        assert ds.y[:, col] == pytest.approx(gt.a_star[:, support].sum(axis=1), abs=1e-12)


def test_dataset_reproducible():
    gt = generate_ground_truth(30, 5, seed=11)
    spec = WeightSpec.logistic_normal(5, seed=12)
    a = generate_dataset(gt, spec, NoiseSpec(0.1), 40, seed=13)
    b = generate_dataset(gt, spec, NoiseSpec(0.1), 40, seed=13)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.zeta, b.zeta)


def test_dataset_dirichlet_in_span():
    gt = generate_ground_truth(80, 10, seed=14)
    ds = generate_dataset(gt, WeightSpec.dirichlet(10, 0.5, seed=15), NoiseSpec(0.0), 200, seed=16)
    assert ds.x.sum(axis=0) == pytest.approx(np.ones(200), abs=1e-12)
    coeffs = Evaluator(gt.a_star).pinv @ ds.y
    assert np.linalg.norm(ds.y - gt.a_star @ coeffs) <= 1e-9


def test_init_zero_levels_is_ground_truth():
    gt = generate_ground_truth(40, 6, seed=17)
    init = generate_initialization(gt, InitSpec(r_l=0.0, r_n=0.0, seed=18))
    assert np.array_equal(init.a0, gt.a_star)
    assert init.ell == 0.0 and init.rho == 0.0


def test_init_in_span_recipe():
    gt = generate_ground_truth(40, 6, seed=19)
    init = generate_initialization(gt, InitSpec(r_l=1.0, r_n=0.0, seed=20))
    # a0 = A* (I + U) means the implied U = A*^+ (a0 - A*) has entries in
    # [-0.05, 0.05)
    u = np.linalg.pinv(gt.a_star) @ (init.a0 - gt.a_star)
    assert np.all(np.abs(u) <= 0.05 + 1e-9)
    assert init.ell > 0.0


def test_init_out_span_level_scales_linearly():
    gt = generate_ground_truth(40, 6, seed=21)
    rhos = []
    for r_n in (1.0, 2.0, 4.0):
        init = generate_initialization(gt, InitSpec(r_l=0.0, r_n=r_n, seed=22))
        n_mat = init.a0 - gt.a_star
        assert init.rho == pytest.approx(spectral_norm(n_mat), rel=1e-10)
        rhos.append(init.rho)
    # spectral_norm is accurate to 1e-8 relative, which bounds the comparison
    assert rhos[1] == pytest.approx(2 * rhos[0], rel=1e-8)
    assert rhos[2] == pytest.approx(4 * rhos[0], rel=1e-8)


def test_ground_truth_from_matrix_rejects_zero_column():
    a = np.ones((4, 2))
    a[:, 1] = 0.0
    with pytest.raises(ValueError, match="zero column"):
        GroundTruth.from_matrix(a)
