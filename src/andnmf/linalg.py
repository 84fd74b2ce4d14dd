"""Dense matrix primitives shared by the solvers, metrics, and generators.

Everything operates on plain 2-D float64 numpy arrays. Inputs are validated
once at the boundary (finite entries, nonempty shape) and the operations are
pure, so results can be shared freely across threads.

`full_rank_svd` is the one place that decides whether a matrix has full
rank; the stage pseudo-inverse, the evaluator's ground truth and the
generated ground truth all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class SvdFactors:
    """Thin SVD M = u @ diag(s) @ vt with s sorted nonincreasing."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.vt


def svd_factors(m) -> SvdFactors:
    m = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc
    return SvdFactors(u, s, vt)


def full_rank_svd(m, name: str = "matrix") -> SvdFactors:
    """Thin SVD of a matrix that must have full rank.

    The one full-rank rule of the package: raises ValueError when
    s_min <= 1e-12 * s_max * max(shape).
    """
    m = as_matrix(m, name)
    f = svd_factors(m)
    if f.s[-1] <= _RANK_TOL * f.s[0] * max(m.shape):
        raise ValueError(
            f"{name} is rank deficient "
            f"(sigma_min={f.s[-1]:.3e}, sigma_max={f.s[0]:.3e})"
        )
    return f


def full_rank_pseudo_inverse(m, name: str = "matrix") -> np.ndarray:
    """Pseudo-inverse of a full-rank matrix (`full_rank_svd`), from one SVD."""
    f = full_rank_svd(m, name)
    return (f.vt.T * (1.0 / f.s)) @ f.u.T


def spectral_norm(m) -> float:
    """Largest singular value of `m`, computed exactly from its singular values."""
    m = as_matrix(m)
    try:
        return float(np.linalg.norm(m, 2))
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc


def threshold_elementwise(v, alpha: float) -> np.ndarray:
    """Keep entries >= alpha (inclusive), zero all others including negatives."""
    if not alpha >= 0:  # negated so that NaN fails it
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    v = as_matrix(v, "input")
    return np.where(v >= alpha, v, 0.0)
