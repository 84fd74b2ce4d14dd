import numpy as np
import pytest
from hypothesis import given, strategies as st

from andnmf.linalg import (
    full_rank_pseudo_inverse,
    least_squares_coefficients,
    pseudo_inverse,
    spectral_norm,
    svd_factors,
    threshold_elementwise,
)

finite_arrays = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=40
).map(lambda v: np.array(v).reshape(-1, 1))


def test_pinv_identity():
    assert np.array_equal(pseudo_inverse(np.eye(3)), np.eye(3))


def test_pinv_rank_deficient_diagonal():
    m = np.diag([2.0, 0.0])
    assert pseudo_inverse(m) == pytest.approx(np.diag([0.5, 0.0]), abs=1e-15)


def test_pinv_invertible_equals_inverse():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert pseudo_inverse(m) == pytest.approx(np.array([[1.0, -1.0], [0.0, 1.0]]), abs=1e-12)


def test_pinv_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        pseudo_inverse(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_pinv_rejects_bad_tol():
    with pytest.raises(ValueError, match="rel_tol"):
        pseudo_inverse(np.eye(2), rel_tol=2.0)


@pytest.mark.parametrize("seed", range(10))
def test_penrose_identities_random(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((20, 10))
    p = pseudo_inverse(m)
    mf = np.linalg.norm(m)
    pf = np.linalg.norm(p)
    assert np.linalg.norm(m @ p @ m - m) <= 1e-9 * mf
    assert np.linalg.norm(p @ m @ p - p) <= 1e-9 * pf
    assert np.linalg.norm(m @ p - (m @ p).T) <= 1e-9
    assert np.linalg.norm(p @ m - (p @ m).T) <= 1e-9


def test_spectral_norm_diag():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-10)


def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((3, 2))) == 0.0


def test_spectral_norm_nilpotent_vs_svd_oracle():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    oracle = np.linalg.svd(m, compute_uv=False)[0]
    assert spectral_norm(m) == pytest.approx(oracle, rel=1e-8)


def test_spectral_norm_ones_start_degenerate():
    # top singular vector orthogonal to the all-ones vector
    m = np.array([[1.0, -1.0], [0.0, 0.0]])
    assert spectral_norm(m) == pytest.approx(np.sqrt(2.0), rel=1e-8)


@pytest.mark.parametrize("seed", range(8))
def test_spectral_norm_matches_svd(seed):
    # the norm is relative to the matrix: tiny matrices (round-off level
    # residuals in the decomposition) must be as exact as unit-scale ones
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((15, 7))
    for scale in (1.0, 1e-6, 1e-9, 1e-12):
        m = base * scale
        assert spectral_norm(m) == pytest.approx(svd_factors(m).s[0], rel=1e-12)


def test_full_rank_pinv_equals_pseudo_inverse_bitwise():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((20, 6))
    assert np.array_equal(full_rank_pseudo_inverse(m), pseudo_inverse(m))


def test_full_rank_pinv_cutoff_scales_with_shape():
    # sigma_min / sigma_max = 1e-11 is kept by pseudo_inverse (rel_tol 1e-12)
    # but fails the full-rank rule rel_tol * sigma_max * max(shape) = 2e-11
    m = np.zeros((20, 2))
    m[0, 0], m[1, 1] = 1.0, 1e-11
    assert pseudo_inverse(m)[1, 1] == pytest.approx(1e11)
    with pytest.raises(ValueError, match="rank deficient"):
        full_rank_pseudo_inverse(m)


def test_svd_reconstruction():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((12, 5))
    f = svd_factors(m)
    assert np.all(np.diff(f.s) <= 0)
    assert np.all(f.s >= 0)
    assert np.linalg.norm(f.reconstruct() - m) <= 1e-9 * np.linalg.norm(m)


def test_threshold_basic():
    v = np.array([[0.3, 0.2, -0.1]])
    assert np.array_equal(threshold_elementwise(v, 0.25), np.array([[0.3, 0.0, 0.0]]))


def test_threshold_zero_alpha_keeps_nonneg():
    v = np.array([[0.5, 0.0, 1.0]])
    assert np.array_equal(threshold_elementwise(v, 0.0), v)


def test_threshold_boundary_inclusive():
    assert threshold_elementwise(np.array([[0.25]]), 0.25)[0, 0] == 0.25


def test_threshold_rejects_negative_alpha():
    with pytest.raises(ValueError):
        threshold_elementwise(np.zeros((1, 1)), -0.1)


@given(finite_arrays, st.floats(min_value=0, max_value=5))
def test_threshold_idempotent(v, alpha):
    once = threshold_elementwise(v, alpha)
    assert np.array_equal(threshold_elementwise(once, alpha), once)


@given(finite_arrays, st.floats(min_value=0, max_value=5), st.floats(min_value=0, max_value=3))
def test_threshold_monotone(v, alpha, bump):
    w = v + bump
    lo = threshold_elementwise(v, alpha)
    hi = threshold_elementwise(w, alpha)
    assert np.all(lo <= hi)


def test_lstsq_identity_basis():
    t = np.arange(6.0).reshape(3, 2)
    assert least_squares_coefficients(np.eye(3), t) == pytest.approx(t, abs=1e-12)


def test_lstsq_self_target_full_rank():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((8, 3))
    assert least_squares_coefficients(b, b) == pytest.approx(np.eye(3), abs=1e-10)


def test_lstsq_projection_oracle_1d():
    basis = np.array([[1.0], [1.0]])
    target = np.array([[0.0], [2.0]])
    # 1-D oracle: <b, t> / <b, b>
    assert least_squares_coefficients(basis, target)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_lstsq_residual_orthogonal():
    rng = np.random.default_rng(4)
    basis = rng.standard_normal((20, 5))
    target = rng.standard_normal((20, 3))
    c = least_squares_coefficients(basis, target)
    assert np.linalg.norm(basis.T @ (target - basis @ c)) <= 1e-8


def test_lstsq_shape_mismatch():
    with pytest.raises(ValueError, match="row mismatch"):
        least_squares_coefficients(np.ones((3, 1)), np.ones((4, 1)))
