import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from andnmf.linalg import (
    BLOCK_BYTES,
    HUGE_EXP,
    LowRank,
    as_matrix,
    factor_columns,
    frobenius_norm,
    full_rank_pseudo_inverse,
    full_rank_svd,
    spectral_norm,
    spectral_norms,
    svd_factors,
    threshold_elementwise,
)
from andnmf.solver import _window

from preset_data import SMALL, preset_problem

finite_arrays = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=40
).map(lambda v: np.array(v).reshape(-1, 1))


def test_pinv_identity():
    assert np.array_equal(full_rank_pseudo_inverse(np.eye(3)), np.eye(3))


def test_pinv_invertible_equals_inverse():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    inverse = np.array([[1.0, -1.0], [0.0, 1.0]])
    assert full_rank_pseudo_inverse(m) == pytest.approx(inverse, abs=1e-12)


def test_pinv_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        full_rank_pseudo_inverse(np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.mark.parametrize("seed", range(10))
def test_penrose_identities_random(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((20, 10))
    p = full_rank_pseudo_inverse(m)
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
    # the old exact SVD is the oracle. The Gram form is relative to each
    # matrix, so a round-off-level residual or a huge estimate must be as
    # exact as a unit-scale one, and a zero matrix in a stack gives 0.0
    rng = np.random.default_rng(seed)
    for k in (1, 6):
        for shape in ((200, 20), (20, 20), (9, 4), (4, 9)):
            base = rng.standard_normal((k,) + shape)
            if k > 1:
                base[k // 2] = 0.0
            for scale in (1e-150, 1.0, 1e150):
                stack = base * scale
                oracle = np.linalg.svd(stack, compute_uv=False)[..., 0]
                got = spectral_norms(stack)
                assert got == pytest.approx(oracle, rel=1e-12, abs=0)
                assert [spectral_norm(m) for m in stack] == list(got)


def test_spectral_norm_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        spectral_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_full_rank_pinv_cutoff_scales_with_shape():
    # sigma_min / sigma_max = 1e-11 is above 1e-12 but fails the full-rank
    # rule 1e-12 * sigma_max * max(shape) = 2e-11
    m = np.zeros((20, 2))
    m[0, 0], m[1, 1] = 1.0, 1e-11
    with pytest.raises(ValueError, match="rank deficient"):
        full_rank_pseudo_inverse(m)


@pytest.mark.parametrize("column", ["zero", "duplicate"])
def test_full_rank_svd_names_rank_deficient_matrix(column):
    m = np.random.default_rng(2).random((8, 3))
    m[:, 2] = 0.0 if column == "zero" else m[:, 0]
    with pytest.raises(ValueError, match="ground truth is rank deficient"):
        full_rank_svd(m, "ground truth")


def test_full_rank_svd_refuses_a_wide_matrix():
    # its singular values are well conditioned, but a 2 x 3 matrix has no
    # full column rank: no P gives P M = I
    m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match=r"working matrix has more columns than rows \(2, 3\)"):
        full_rank_svd(m, "working matrix")
    with pytest.raises(ValueError, match="more columns than rows"):
        full_rank_pseudo_inverse(m)
    full_rank_svd(m.T)


def test_full_rank_svd_returns_the_factors():
    m = np.random.default_rng(3).standard_normal((9, 4))
    u, s, vt = full_rank_svd(m)
    assert np.array_equal(s, svd_factors(m)[1])
    assert np.linalg.norm((u * s) @ vt - m) <= 1e-9 * np.linalg.norm(m)


def test_svd_factors_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((12, 5))
    u, s, vt = svd_factors(m)
    assert np.all(np.diff(s) <= 0)
    assert np.all(s >= 0)
    assert np.linalg.norm((u * s) @ vt - m) <= 1e-9 * np.linalg.norm(m)


def test_threshold_basic():
    v = np.array([[0.3, 0.2, -0.1]])
    assert np.array_equal(threshold_elementwise(v, 0.25), np.array([[0.3, 0.0, 0.0]]))


def test_threshold_zero_alpha_keeps_nonneg():
    v = np.array([[0.5, 0.0, 1.0]])
    assert np.array_equal(threshold_elementwise(v.copy(), 0.0), v)


def test_threshold_boundary_inclusive():
    assert threshold_elementwise(np.array([[0.25]]), 0.25)[0, 0] == 0.25


def test_threshold_rejects_negative_alpha():
    with pytest.raises(ValueError):
        threshold_elementwise(np.zeros((1, 1)), -0.1)
    with pytest.raises(ValueError):
        threshold_elementwise(np.zeros((1, 1)), float("nan"))


@pytest.mark.parametrize("top", [1.0, 2.0**HUGE_EXP * (1 - 2**-52)])
def test_frobenius_norm_is_numpys_below_the_threshold(top):
    m = np.random.default_rng(0).standard_normal((30, 7))
    m *= top / np.abs(m).max()
    assert frobenius_norm(m) == np.linalg.norm(m)


@pytest.mark.parametrize("scale", [2.0**HUGE_EXP, 1e160, 2.0**600, 1e300])
def test_frobenius_norm_of_a_huge_matrix_does_not_overflow(scale):
    m = np.random.default_rng(1).standard_normal((30, 7))
    assert frobenius_norm(scale * m) == pytest.approx(scale * np.linalg.norm(m),
                                                      rel=1e-15, abs=0)


@given(finite_arrays, st.floats(min_value=0, max_value=5))
def test_threshold_idempotent(v, alpha):
    once = threshold_elementwise(v, alpha).copy()
    assert np.array_equal(threshold_elementwise(v, alpha), once)


@given(finite_arrays, st.floats(min_value=0, max_value=5))
def test_threshold_in_place_is_the_where_form(v, alpha):
    # the same bits, signs of zeros too, as np.where, which made a new array
    v[0, 0] = np.nan  # a NaN entry becomes 0
    expected = np.where(v >= alpha, v, 0.0)
    assert threshold_elementwise(v, alpha) is v
    assert np.array_equal(v, expected)
    assert np.array_equal(np.signbit(v), np.signbit(expected))


@given(finite_arrays, st.floats(min_value=0, max_value=5), st.floats(min_value=0, max_value=3))
def test_threshold_monotone(v, alpha, bump):
    w = v + bump
    lo = threshold_elementwise(v, alpha)
    hi = threshold_elementwise(w, alpha)
    assert np.all(lo <= hi)


# a matrix of two columns, each taller than one scan block
TALL = BLOCK_BYTES // 8 + 3


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("entries, named", [
    ({(0, 1): np.inf, (TALL - 1, 0): np.nan}, (0, 1)),
    ({(TALL - 1, 0): np.nan}, (TALL - 1, 0)),
    ({(TALL - 2, 1): -np.inf, (TALL - 1, 0): np.nan}, (TALL - 2, 1)),
])
def test_as_matrix_names_the_first_non_finite_entry_in_row_major_order(order, entries, named):
    m = np.zeros((TALL, 2), order=order)
    for at, value in entries.items():
        m[at] = value
    with pytest.raises(ValueError, match=rf"contains non-finite entry at \({named[0]}, {named[1]}\)$"):
        as_matrix(m)


@pytest.mark.parametrize("order", ["C", "F"])
def test_as_matrix_peak_memory_is_a_small_fraction_of_the_matrix(order):
    # the finiteness check holds one block's mask at a time, not one bool per entry
    m = np.asarray(np.random.default_rng(2).random((2000, 2000)), order=order)
    tracemalloc.start()
    try:
        as_matrix(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes / 16


def _sketched(n, d):
    """The columns `factor_columns` sketches: min(2d, n) evenly spaced ones."""
    k = min(2 * d, n)
    return np.arange(k) * n // k


@pytest.mark.parametrize("name", ["DIR", "CTM", "NEG", "BINARY", "paper-scale"])
def test_factor_columns_accepts_a_noiseless_preset_at_rank_d(name):
    # at D = 8; BINARY's sparse columns can leave a 2D-column sketch short of
    # rank D at smaller D, and the factor is then refused (3 of 50 seeds at D = 6)
    _, _, ds, _ = preset_problem(name, **SMALL)
    w, d, n = SMALL["W"], SMALL["D"], SMALL["n"]
    yf = factor_columns(ds.y, d)
    q, r = yf.q, yf.r
    assert yf.shape == (w, n)
    assert q.shape == (w, d) and r.shape == (d, n)
    assert np.abs(q.T @ q - np.eye(d)).max() <= 1e-14
    assert np.array_equal(r, q.T @ ds.y)
    assert np.linalg.norm(ds.y - q @ r) <= 1e-12 * np.linalg.norm(ds.y)


def test_factor_columns_refuses_noisy_data():
    _, _, ds, _ = preset_problem("NOISE", **SMALL)
    assert factor_columns(ds.y, SMALL["D"]) is ds.y


def test_factor_columns_refuses_a_rank_d_matrix_plus_a_perturbation():
    _, _, ds, _ = preset_problem("DIR", **SMALL)
    y = ds.y + 1e-10 * np.abs(ds.y).max() * np.random.default_rng(0).standard_normal(ds.y.shape)
    assert factor_columns(y, SMALL["D"]) is y


@pytest.mark.parametrize("missing", ["all", "one-direction"])
def test_factor_columns_refuses_a_sketch_that_misses_a_direction(missing):
    # Y = A* X has rank D, but its sketched columns are zero, or span only
    # D - 1 directions: the residual check refuses the sketch's basis
    _, gt, ds, _ = preset_problem("DIR", **SMALL)
    x = ds.x.copy()
    cols = _sketched(SMALL["n"], SMALL["D"])
    if missing == "all":
        x[:, cols] = 0.0
    else:
        x[-1, cols] = 0.0
    y = gt.a_star @ x
    assert np.linalg.matrix_rank(y) == SMALL["D"]
    assert factor_columns(y, SMALL["D"]) is y


def test_factor_columns_refuses_a_rank_above_half_the_height():
    # an exact factor of rank 6 > W / 2 = 5 saves nothing and is refused
    rng = np.random.default_rng(3)
    y = rng.random((10, 6)) @ rng.random((6, 40))
    assert factor_columns(y, 4) is y


@pytest.mark.parametrize("k", [-600, -3, 5, 600])
@pytest.mark.parametrize("name", ["DIR", "NOISE"])
def test_factor_columns_decides_alike_at_a_power_of_two_scale(name, k):
    # Y / 2^e is the same array at every power-of-two scale of Y, so the
    # decision and Q are the same and R scales with Y; 2^600 Y squares past
    # the float range and 2^-600 Y below it
    _, _, ds, _ = preset_problem(name, **SMALL)
    y = np.ldexp(ds.y, k)
    base = factor_columns(ds.y, SMALL["D"])
    scaled = factor_columns(y, SMALL["D"])
    assert (base is ds.y) == (scaled is y) == (name == "NOISE")
    if base is not ds.y:
        assert np.array_equal(scaled.q, base.q)
        assert np.array_equal(scaled.r, np.ldexp(base.r, k))


def test_factor_columns_peak_memory_is_a_small_fraction_of_the_matrix():
    # the residual is checked in column blocks, not formed whole
    rng = np.random.default_rng(4)
    y = rng.random((2000, 10)) @ rng.random((10, 2000))
    tracemalloc.start()
    try:
        assert factor_columns(y, 10) is not y
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < y.nbytes / 16


def _operand():
    _, _, ds, _ = preset_problem("DIR", **SMALL)
    yf = factor_columns(ds.y, SMALL["D"])
    assert isinstance(yf, LowRank) and yf.shape == ds.y.shape
    return ds.y, yf


def test_low_rank_products_are_the_factored_products_bitwise():
    y, yf = _operand()
    rng = np.random.default_rng(5)
    left, right = rng.random((SMALL["D"], y.shape[0])), rng.random((y.shape[1], SMALL["D"]))
    assert np.array_equal(left @ yf, (left @ yf.q) @ yf.r)
    assert np.array_equal(yf @ right, yf.q @ (yf.r @ right))


@pytest.mark.parametrize("start", [0, 380], ids=["slice", "wrap-around"])
def test_low_rank_window_is_the_factor_of_those_columns(start):
    # `solver._window` slices a window, or indexes one that wraps past column n
    y, yf = _operand()
    b = 40
    cols = (start + np.arange(b)) % y.shape[1]
    win = _window(yf, start, b)
    assert isinstance(win, LowRank) and win.shape == (y.shape[0], b)
    right = np.random.default_rng(6).random((b, SMALL["D"]))
    # I Q is Q exactly, so I @ win is the window as the product Q R_w
    assert np.array_equal(np.eye(y.shape[0]) @ win, yf.q @ yf.r[:, cols])
    assert np.array_equal(win @ right, yf.q @ (yf.r[:, cols] @ right))


@pytest.mark.parametrize("use", [
    lambda y: y - np.ones(y.shape),
    lambda y: np.ones(y.shape) - y,
    lambda y: np.maximum(y, 0.0),
    lambda y: np.asarray(y),
    lambda y: y[0],
    lambda y: y[0, :],
    lambda y: y[:2, :],
    lambda y: y[:, 0],
], ids=["y-m", "m-y", "maximum", "asarray", "row", "row-all-columns", "row-slice", "one-column"])
def test_low_rank_refuses_every_other_use(use):
    _, yf = _operand()
    with pytest.raises(TypeError):
        use(yf)
