"""Dense matrix primitives shared by the solvers, metrics, and generators.

Everything operates on plain 2-D float64 numpy arrays, or on (k, p, q)
stacks of them. Inputs are validated once at the boundary (finite entries,
nonempty shape) and the operations are pure, so results can be shared freely
across threads.

`full_rank_svd` is the one place that decides whether a matrix has full
column rank; the stage pseudo-inverse, the evaluator's ground truth and the
generated ground truth all go through it, and get numpy's (u, s, vt) tuple.
`spectral_norms` is the one spectral-norm routine (`spectral_norm` is its
one-matrix case): the ANLS step sizes, initialization levels and the
evaluator's ||E||_2 and ||N||_2 all come from it.
"""

from __future__ import annotations

import numpy as np

_RANK_TOL = 1e-12


class SvdConvergenceError(RuntimeError):
    """SVD failed to converge; distinct from input-validation failures."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        bad = np.argwhere(~np.isfinite(m))[0]
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


def threshold_elementwise(v, alpha: float) -> np.ndarray:
    """Keep entries >= alpha (inclusive), zero all others including negatives."""
    if not alpha >= 0:  # negated so that NaN fails it
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    v = as_matrix(v, "input")
    return np.where(v >= alpha, v, 0.0)
