"""Dense matrix primitives shared by the solvers, metrics, and generators.

Everything operates on plain 2-D float64 numpy arrays, or on (k, p, q)
stacks of them. Inputs are validated once at the boundary (finite entries,
nonempty shape) and the operations are pure, so results can be shared freely
across threads. `first_non_finite` is the one finiteness scan, shared with the
NMF1 reader: it checks blocks of about `BLOCK_BYTES`, so validating a matrix
adds a small temporary, not a boolean mask the size of the matrix.

`full_rank_svd` is the one place that decides whether a matrix has full
column rank; the stage pseudo-inverse, the evaluator's ground truth and the
generated ground truth all go through it, and get numpy's (u, s, vt) tuple.
`spectral_norms` is the one spectral-norm routine (`spectral_norm` is its
one-matrix case): the ANLS step sizes, initialization levels and the
evaluator's ||E||_2 and ||N||_2 all come from it.

`factor_columns` is the one low-rank test of the data and the one place that
knows how Y is held: a run factors Y = Q R once, Q W x r with orthonormal
columns and R = Q^T Y, and gets a `LowRank` operand, or Y itself when the
factor is refused. Either is read only as m @ Y, Y @ m and Y[:, cols].
"""

from __future__ import annotations

import math

import numpy as np

_RANK_TOL = 1e-12
# `factor_columns` accepts a factor whose residual is within this share of ||R||_F.
_FACTOR_TOL = 1e-12

# Large arrays are scanned and written in blocks of about this many bytes.
BLOCK_BYTES = 1 << 20
# An array with an |entry| >= 2^HUGE_EXP is scaled by a power of two to be squared.
HUGE_EXP = 256
# `factor_columns` checks its residual in column blocks of about this many bytes.
FACTOR_BLOCK_BYTES = 1 << 18


class SvdConvergenceError(RuntimeError):
    """SVD failed to converge; distinct from input-validation failures."""


def first_non_finite(a: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first non-finite entry of `a` in row-major order, or None.

    `a` is scanned in blocks of whole rows (of entries, for 1-D `a`) of about
    BLOCK_BYTES, at least one row, so the scan holds one block's boolean mask
    at a time; an array that fits in one block takes one `np.isfinite` call.
    """
    step = max(1, BLOCK_BYTES // (a.itemsize * (a.size // a.shape[0])))
    for start in range(0, a.shape[0], step):
        finite = np.isfinite(a[start:start + step])
        if not finite.all():
            bad = np.argwhere(~finite)[0]
            bad[0] += start
            return tuple(map(int, bad))
    return None


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be nonempty, got shape {m.shape}")
    # Scan in memory order, which is fast; a column-major matrix is rescanned
    # row by row only to name its first non-finite entry.
    if first_non_finite(m.T if m.strides[0] < m.strides[1] else m) is not None:
        bad = first_non_finite(m)
        raise ValueError(
            f"{name} contains non-finite entry at ({bad[0]}, {bad[1]})"
        )
    return m


def svd_factors(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vt) of `m`, with s sorted nonincreasing."""
    m = as_matrix(m)
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc


def full_rank_svd(m, name: str = "matrix") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vt) of a matrix that must have full column rank.

    The one full-rank rule of the package: raises ValueError when the matrix
    has more columns than rows, or when s_min <= 1e-12 * s_max * max(shape).
    """
    m = as_matrix(m, name)
    if m.shape[1] > m.shape[0]:
        raise ValueError(f"{name} has more columns than rows {m.shape}: "
                         f"not of full column rank")
    u, s, vt = svd_factors(m)
    if s[-1] <= _RANK_TOL * s[0] * max(m.shape):
        raise ValueError(
            f"{name} is rank deficient "
            f"(sigma_min={s[-1]:.3e}, sigma_max={s[0]:.3e})"
        )
    return u, s, vt


def full_rank_pseudo_inverse(m, name: str = "matrix") -> np.ndarray:
    """Pseudo-inverse of a full-column-rank matrix (`full_rank_svd`), from one SVD."""
    u, s, vt = full_rank_svd(m, name)
    return (vt.T * (1.0 / s)) @ u.T


def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix in a finite (k, p, q) stack.

    Each matrix M is scaled by its largest |entry| and the norm is
    scale * sqrt(lambda_max(U^T U)), U = M / scale: the Gram form neither
    underflows nor overflows, a zero matrix gives 0.0, and the clamp keeps a
    top eigenvalue that rounds negative from giving NaN.
    """
    scale = np.abs(stack).max(axis=(1, 2))
    unit = stack / np.where(scale > 0, scale, 1.0)[:, None, None]
    try:
        top = np.linalg.eigvalsh(np.swapaxes(unit, 1, 2) @ unit)[:, -1]
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"eigenvalues did not converge: {exc}") from exc
    return scale * np.sqrt(np.maximum(top, 0.0))


def spectral_norm(m) -> float:
    """Largest singular value of `m`: the one-matrix case of `spectral_norms`."""
    return float(spectral_norms(as_matrix(m)[None])[0])


def huge_exponent(top):
    """The e with 2^(e-1) <= top < 2^e where `top` (a max |entry|, or an array
    of them) reaches 2^HUGE_EXP, else 0: dividing by 2^e is exact."""
    e = np.frexp(top)[1]
    return np.where(e > HUGE_EXP, e, 0)


def frobenius_norm(m) -> float:
    """||m||_F of a finite array, squared after division by 2^huge_exponent(max|m|):
    no overflow on the way, and np.linalg.norm's bits while max|m| < 2^HUGE_EXP."""
    e = int(huge_exponent(max(m.max(), -m.min())))  # no |m| copy
    return float(np.ldexp(np.linalg.norm(np.ldexp(m, -e) if e else m), e))


def threshold_elementwise(v, alpha: float) -> np.ndarray:
    """Keep entries >= alpha (inclusive), zero all others including negatives,
    in `v` itself, which is returned: no second array of v's size.
    Arithmetic on an array the caller checked: a NaN entry becomes 0."""
    if not alpha >= 0:  # negated so that NaN fails it
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    np.copyto(v, 0.0, where=~(v >= alpha))
    return v


class LowRank:
    """Y = Q R held as its factors (see `factor_columns`), read only as
    m @ Y = (m @ Q) @ R, Y @ m = Q @ (R @ m), and Y[:, cols] = the LowRank of
    Q and R[:, cols] for a slice or a 1-D index array; `shape` is Y's. Any
    other use raises TypeError: with `__array_ufunc__ = None` numpy's ufuncs
    and operators refuse it (and ndarray @ defers to `__rmatmul__`), and
    `__array__` refuses a dense copy."""

    __array_ufunc__ = None

    def __init__(self, q, r):
        self.q, self.r = q, r
        self.shape = (q.shape[0], r.shape[1])

    def __matmul__(self, m):
        return self.q @ (self.r @ m)

    def __rmatmul__(self, m):
        return (m @ self.q) @ self.r

    def __getitem__(self, key):
        rows, cols = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
        if not (isinstance(rows, slice) and rows == slice(None)
                and (isinstance(cols, slice) or np.ndim(cols) == 1)):
            raise TypeError(f"a LowRank operand takes only [:, cols], got {key!r}")
        return LowRank(self.q, self.r[:, cols])

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a LowRank operand is read through @ and [:, cols], not as an array")


def factor_columns(y, d: int):
    """A `LowRank` operand for Y = Q R to rounding, Q W x r with orthonormal
    columns and R = Q^T Y, or `y` itself (the same object) when Y has no such
    factor of height r <= W / 2.

    Q is the left singular basis of a sketch of k = min(2d, n) evenly spaced
    columns of Y, cut at singular values above 1e-13 sigma_1. It is accepted
    only if r <= W / 2 and ||Y - Q R||_F <= 1e-12 ||R||_F (<= 1e-12 ||Y||_F),
    so a sketch that misses a direction of Y is refused, never accepted. A
    sketch of full rank k shows no deficiency (noisy data; or all n columns,
    where the factored products cost more than Y's) and is refused before R
    is formed. The sketch and the residual are divided by 2^e, e the
    exponent of max|Y| (an exact rescale, as in `frobenius_norm`), so c Y for
    c a power of two gets the same decision, the same Q and c R, and no
    square overflows or underflows for the scale of Y. The residual streams
    column blocks of about FACTOR_BLOCK_BYTES. Takes a checked `y`.
    """
    w, n = y.shape
    e = int(np.frexp(max(y.max(), -y.min()))[1])  # no |Y| copy
    k = min(2 * d, n)
    u, s, _ = svd_factors(np.ldexp(y[:, np.arange(k) * n // k], -e))
    r = int(np.count_nonzero(s > 1e-13 * s[0]))
    if r in (0, k) or 2 * r > w:
        return y
    q = np.ascontiguousarray(u[:, :r])
    rm = q.T @ y
    step = max(1, FACTOR_BLOCK_BYTES // (y.itemsize * w))
    resid2 = kept2 = 0.0
    for start in range(0, n, step):
        rb = rm[:, start:start + step]
        diff = q @ rb
        diff -= y[:, start:start + step]
        np.ldexp(diff, -e, out=diff)
        resid2 += np.vdot(diff, diff)
        rb = np.ldexp(rb, -e)
        kept2 += np.vdot(rb, rb)
    if not math.sqrt(resid2) <= _FACTOR_TOL * math.sqrt(kept2):  # NaN refuses
        return y
    return LowRank(q, rm)
