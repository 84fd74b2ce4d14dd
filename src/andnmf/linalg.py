"""Dense matrix primitives shared by the solvers, metrics, and generators.

Everything operates on plain 2-D float64 numpy arrays. Inputs are validated
once at the boundary (finite entries, nonempty shape) and the operations are
pure, so results can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def _invert(f: SvdFactors, rel_tol: float) -> np.ndarray:
    """Pseudo-inverse from thin SVD factors, zeroing s <= rel_tol * s_max."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    inv = np.zeros_like(f.s)
    keep = f.s > rel_tol * f.s[0]
    inv[keep] = 1.0 / f.s[keep]
    return (f.vt.T * inv) @ f.u.T


def pseudo_inverse(m, rel_tol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values below `rel_tol * s_max` are treated as exactly zero, so
    rank-deficient inputs invert only on their row/column space.
    """
    return _invert(svd_factors(m), rel_tol)


def full_rank_pseudo_inverse(m, rel_tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Pseudo-inverse of a matrix that must keep full rank, from one SVD.

    Raises ValueError when s_min <= rel_tol * s_max * max(shape); otherwise
    every singular value is inverted.
    """
    m = as_matrix(m, name)
    f = svd_factors(m)
    if f.s[-1] <= rel_tol * f.s[0] * max(m.shape):
        raise ValueError(
            f"{name} is rank deficient "
            f"(sigma_min={f.s[-1]:.3e}, sigma_max={f.s[0]:.3e})"
        )
    return _invert(f, rel_tol)


def spectral_norm(m) -> float:
    """Largest singular value of `m`, computed exactly from its singular values."""
    m = as_matrix(m)
    try:
        return float(np.linalg.norm(m, 2))
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc


def threshold_elementwise(v, alpha: float) -> np.ndarray:
    """Keep entries >= alpha (inclusive), zero all others including negatives."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    v = as_matrix(v, "input")
    return np.where(v >= alpha, v, 0.0)


def least_squares_coefficients(basis, target) -> np.ndarray:
    """Coefficients C minimizing ||target - basis @ C||_F, via the pseudo-inverse."""
    basis = as_matrix(basis, "basis")
    target = as_matrix(target, "target")
    if basis.shape[0] != target.shape[0]:
        raise ValueError(
            f"row mismatch: basis has {basis.shape[0]} rows, "
            f"target has {target.shape[0]}"
        )
    return pseudo_inverse(basis) @ target
