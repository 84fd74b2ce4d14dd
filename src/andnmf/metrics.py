"""Ground-truth comparison metrics.

The per-column error of an estimate A against a ground truth A_star is the
distance from each ground-truth column to the best scaled column of A,

    eps_i = min_{j, sigma} || a_star_i - sigma * A_j ||_2,

solved in closed form by projection (sigma = <A_j, a*_i> / ||A_j||^2). The
total error sums eps_i over i; it is invariant to column permutations and
nonzero column scalings of A. `decompose` splits an estimate into a diagonal
scale, an off-diagonal in-span mixing part, and an out-of-span residual:
A = A_star (Sigma + E) + N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, full_rank_pseudo_inverse, spectral_norm

_ZERO_COL_TOL = 1e-24  # squared-norm cutoff below which a column is "zero"


@dataclass
class ErrorReport:
    per_column: np.ndarray  # eps_i for each ground-truth column
    total: float
    matches: list[int]      # argmin estimate column per i (-1 if none valid)
    scales: list[float]     # optimal sigma per i

    def to_json_dict(self):
        return {
            "per_column": [float(e) for e in self.per_column],
            "total": float(self.total),
            "matches": [int(j) for j in self.matches],
            "scales": [float(s) for s in self.scales],
        }


@dataclass
class Decomposition:
    """A = A_star (diag(sigma) + off_diag) + residual."""

    sigma: np.ndarray       # (D,) diagonal scales
    off_diag: np.ndarray    # (D, D), exact zeros on the diagonal
    residual: np.ndarray    # (W, D), orthogonal to the column space of A_star
    sigma_min: float
    off_diag_norm: float
    residual_norm: float


def _residual_table(a, a_star):
    """res2[j, i]: squared residual of projecting a*_i on span(A_j); plus the
    projection coefficients and validity mask for zero columns of A."""
    h = a.T @ a_star                      # h[j, i] = <A_j, a*_i>
    cn = np.einsum("ij,ij->j", a, a)      # ||A_j||^2
    ok = cn > _ZERO_COL_TOL
    star2 = np.einsum("ij,ij->j", a_star, a_star)
    res2 = np.tile(star2, (a.shape[1], 1))
    if ok.any():
        res2[ok] = star2[None, :] - h[ok] ** 2 / cn[ok, None]
    return res2, h, cn, ok


def column_correlation_error(a_star_col, a):
    """Error of one ground-truth column against the best scaled column of `a`.

    Returns (eps, j, sigma); ties in j break toward the smaller index and zero
    columns of `a` are excluded (j = -1 with sigma = 0 if every column is zero).
    """
    col = as_matrix(a_star_col, "a_star_col")
    if col.shape[1] != 1:
        raise ValueError("a_star_col must be a single column")
    a = as_matrix(a, "estimate")
    if a.shape[0] != col.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} != {col.shape[0]}")
    report = total_correlation_error(a, col)
    return float(report.per_column[0]), report.matches[0], report.scales[0]


def total_correlation_error(a, a_star) -> ErrorReport:
    a = as_matrix(a, "estimate")
    a_star = as_matrix(a_star, "a_star")
    if a.shape[0] != a_star.shape[0]:
        raise ValueError(f"row mismatch: {a.shape[0]} != {a_star.shape[0]}")
    res2, h, cn, ok = _residual_table(a, a_star)
    if ok.any():
        masked = np.where(ok[:, None], res2, np.inf)
        js = np.argmin(masked, axis=0)  # first minimum = smallest index
        sigmas = h[js, np.arange(a_star.shape[1])] / cn[js]
        # evaluate the winner through the explicit residual vector: the
        # closed-form ||a||^2 - proj^2 cancels catastrophically near exact
        # matches, the direct difference does not
        resid = a_star - a[:, js] * sigmas[None, :]
        eps = np.sqrt(np.einsum("ij,ij->j", resid, resid))
        matches = [int(j) for j in js]
        scales = [float(s) for s in sigmas]
    else:
        eps = np.sqrt(np.einsum("ij,ij->j", a_star, a_star))
        matches = [-1] * a_star.shape[1]
        scales = [0.0] * a_star.shape[1]
    return ErrorReport(
        per_column=eps, total=float(np.sum(eps)), matches=matches, scales=scales
    )


class Evaluator:
    """Caches the pseudo-inverse of a ground truth so per-iteration metric
    evaluation inside solver loops stays cheap."""

    def __init__(self, a_star, pinv_rel_tol: float = 1e-12):
        self.a_star = as_matrix(a_star, "a_star")
        self.pinv = full_rank_pseudo_inverse(self.a_star, pinv_rel_tol, "ground truth")
        self.column_norm_total = float(np.linalg.norm(self.a_star, axis=0).sum())

    def error_report(self, a) -> ErrorReport:
        return total_correlation_error(a, self.a_star)

    def total(self, a) -> float:
        return self.error_report(a).total

    def decompose(self, a) -> Decomposition:
        a = as_matrix(a, "estimate")
        if a.shape != self.a_star.shape:
            raise ValueError(f"shape mismatch: {a.shape} != {self.a_star.shape}")
        c = self.pinv @ a
        sigma = np.diag(c).copy()
        off = c - np.diag(sigma)
        residual = a - self.a_star @ c
        return Decomposition(
            sigma=sigma,
            off_diag=off,
            residual=residual,
            sigma_min=float(sigma.min()),
            off_diag_norm=spectral_norm(off),
            residual_norm=spectral_norm(residual),
        )


def decompose(a, a_star) -> Decomposition:
    """One-shot A = A_star (Sigma + E) + N split; A_star must have full column rank."""
    return Evaluator(a_star).decompose(a)


def noise_moments(zeta):
    """(gamma1_hat, gamma2_hat): spectral norm of the empirical second moment
    (1/n) Z Z^T and the maximum column norm."""
    zeta = as_matrix(zeta, "zeta")
    n = zeta.shape[1]
    gamma1 = spectral_norm(zeta @ zeta.T / n)
    gamma2 = float(np.linalg.norm(zeta, axis=0).max())
    return gamma1, gamma2
