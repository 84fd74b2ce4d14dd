"""Ground-truth comparison metrics.

The per-column error of an estimate A against a ground truth A_star is the
distance from each ground-truth column to the best scaled column of A,

    eps_i = min_{j, sigma} || a_star_i - sigma * A_j ||_2,

solved in closed form by projection (sigma = <A_j, a*_i> / ||A_j||^2). The
total error sums eps_i over i; it is invariant to column permutations and
nonzero column scalings of A. `Evaluator.decompose` splits an estimate into a
diagonal scale, an off-diagonal in-span mixing part, and an out-of-span
residual: A = A_star (Sigma + E) + N. `Evaluator.evaluate` gives the total
error and the spectral norms of E and N for a whole stack of estimates in one
vectorised pass; every single-estimate entry point is its k = 1 case. Those
norms come from the Gram form sqrt(lambda_max(M^T M)) of each M scaled by its
largest |entry|; `linalg.spectral_norm` stays the exact SVD for other callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SvdConvergenceError, as_matrix, full_rank_pseudo_inverse

_ZERO_COL_TOL = 1e-24  # squared-norm cutoff below which a column is "zero"
# Below 2^_HUGE_EXP an estimate's squared entries, and h^2 = <A_j, a*_i>^2
# while W max|a*| < 2^256, stay inside the float64 range.
_HUGE_EXP = 256


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


def _correlation_errors(stack, a_star):
    """Per-column errors of each estimate in a (k, W, Da) stack against a_star
    (W, Ds): eps (k, Ds), the winning estimate column (k, Ds; -1 when every
    column of that estimate is zero) and its optimal scale (k, Ds).

    An estimate whose largest |entry| reaches 2^_HUGE_EXP is searched divided
    by 2^e, the power of two just above that entry, so that squaring it cannot
    overflow. The winners do not depend on the scale of the estimate, and a
    power-of-two scaling is exact."""
    e = np.frexp(np.abs(stack).max(axis=(1, 2)))[1]
    e = np.where(e > _HUGE_EXP, e, 0)                    # (k,)
    unit = np.ldexp(stack, -e[:, None, None]) if e.any() else stack
    h = np.swapaxes(unit, 1, 2) @ a_star                 # h[k, j, i] = <U_j, a*_i>
    cn = np.einsum("kwj,kwj->kj", unit, unit)            # ||U_j||^2
    ok = cn > np.ldexp(_ZERO_COL_TOL, -2 * e)[:, None]   # ||A_j||^2 = ||U_j||^2 4^e
    cn = np.where(ok, cn, 1.0)
    star2 = np.einsum("ij,ij->j", a_star, a_star)
    # squared residual of projecting a*_i on span(A_j); zero columns never win
    res2 = np.where(ok[:, :, None], star2 - h**2 / cn[:, :, None], np.inf)
    js = np.argmin(res2, axis=1)                         # first minimum = smallest index
    kk = np.arange(stack.shape[0])[:, None]
    any_ok = ok.any(axis=1)[:, None]
    sigmas = np.where(any_ok, h[kk, js, np.arange(a_star.shape[1])] / cn[kk, js], 0.0)
    # evaluate the winner through the explicit residual vector: the
    # closed-form ||a||^2 - proj^2 cancels catastrophically near exact
    # matches, the direct difference does not (sigma = 0 leaves a*_i itself)
    resid = a_star.T - unit[kk, :, js] * sigmas[:, :, None]   # (k, Ds, W)
    eps = np.sqrt(np.einsum("kiw,kiw->ki", resid, resid))
    return eps, np.where(any_ok, js, -1), np.ldexp(sigmas, -e[:, None])


def _top_singular_values(m) -> np.ndarray:
    """Largest singular value of each matrix in a (k, p, q) stack, from the top
    eigenvalue of its q x q Gram matrix. Each matrix is first scaled by its
    largest |entry|, so the Gram form neither underflows nor overflows; a zero
    matrix stays zero, and the clamp keeps its eigenvalue from rounding to a
    negative whose square root is NaN."""
    scale = np.abs(m).max(axis=(1, 2))
    unit = m / np.where(scale > 0, scale, 1.0)[:, None, None]
    try:
        top = np.linalg.eigvalsh(np.swapaxes(unit, 1, 2) @ unit)[:, -1]
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"eigenvalues did not converge: {exc}") from exc
    return scale * np.sqrt(np.maximum(top, 0.0))


def total_correlation_error(a, a_star) -> ErrorReport:
    a = as_matrix(a, "estimate")
    a_star = as_matrix(a_star, "a_star")
    if a.shape[0] != a_star.shape[0]:
        raise ValueError(f"row mismatch: {a.shape[0]} != {a_star.shape[0]}")
    eps, js, sigmas = _correlation_errors(a[None], a_star)
    return ErrorReport(
        per_column=eps[0],
        total=float(eps[0].sum()),
        matches=[int(j) for j in js[0]],
        scales=[float(s) for s in sigmas[0]],
    )


class Evaluator:
    """Caches the pseudo-inverse of a ground truth so per-iteration metric
    evaluation inside solver loops stays cheap."""

    def __init__(self, a_star):
        self.a_star = as_matrix(a_star, "a_star")
        self.pinv = full_rank_pseudo_inverse(self.a_star, name="ground truth")
        self.column_norm_total = float(np.linalg.norm(self.a_star, axis=0).sum())

    def error_report(self, a) -> ErrorReport:
        return total_correlation_error(a, self.a_star)

    def total(self, a) -> float:
        return self.error_report(a).total

    def _split(self, stack):
        """C = Pinv* A and its off-diagonal part, and N = A - A* C, per estimate."""
        c = self.pinv @ stack
        off = c.copy()
        d = np.arange(c.shape[1])
        off[:, d, d] = 0.0
        return c, off, stack - self.a_star @ c

    def evaluate(self, stack):
        """(total, E_norm, N_norm) of each estimate in a (k, W, D) stack, as
        length-k arrays: `total` and the two norms of `decompose`, batched."""
        stack = np.asarray(stack, dtype=np.float64)
        if stack.ndim != 3 or stack.shape[1:] != self.a_star.shape:
            raise ValueError(
                f"shape mismatch: {stack.shape} is not a stack of {self.a_star.shape}"
            )
        if not np.all(np.isfinite(stack)):
            raise ValueError("estimate contains a non-finite entry")
        _, off, residual = self._split(stack)
        eps = _correlation_errors(stack, self.a_star)[0]
        return eps.sum(axis=1), _top_singular_values(off), _top_singular_values(residual)

    def decompose(self, a) -> Decomposition:
        a = as_matrix(a, "estimate")
        if a.shape != self.a_star.shape:
            raise ValueError(f"shape mismatch: {a.shape} != {self.a_star.shape}")
        c, off, residual = self._split(a[None])
        sigma = np.diagonal(c[0]).copy()
        return Decomposition(
            sigma=sigma,
            off_diag=off[0],
            residual=residual[0],
            sigma_min=float(sigma.min()),
            off_diag_norm=float(_top_singular_values(off)[0]),
            residual_norm=float(_top_singular_values(residual)[0]),
        )
