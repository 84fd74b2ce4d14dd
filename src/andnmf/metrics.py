"""Ground-truth comparison metrics.

The per-column error of an estimate A against a ground truth A_star is the
distance from each ground-truth column to the best scaled column of A,

    eps_i = min_{j, sigma} || a_star_i - sigma * A_j ||_2,

solved in closed form by projection (sigma = <A_j, a*_i> / ||A_j||^2). The
total error sums eps_i over i; it is invariant to column permutations and
nonzero column scalings of A. `Evaluator.decompose` splits an estimate into a
diagonal scale, an off-diagonal in-span mixing part, and an out-of-span
residual: A = A_star (Sigma + E) + N. `Evaluator.evaluate_coordinates` gives
the total error and the spectral norms of E and N for a whole stack of
estimates in one vectorised pass; every single-estimate entry point is its
k = 1 case. Both norms come from `linalg.spectral_norms`.

Every evaluation works on an estimate's coordinates. With the SVD
A_star = u diag(s) vt, an estimate is A = u X + Q Y for X = u^T A (D x D) and
any orthonormal Q orthogonal to u, so that N = Q Y and ||N||_2 = ||Y||_2.
Then C = (vt^T / s) X, ||A_j||^2 = ||X_j||^2 + ||Y_j||^2, and with
r_i = s_i vt[:, i] the coordinates of a*_i,

    ||a*_i - sigma A_j||^2 = ||r_i - sigma X_j||^2 + sigma^2 ||Y_j||^2.

`Evaluator.coordinates` is the one split: the stack [X; R] of a matrix M,
with R the R factor of M - u X. For every S, [X; R] S are coordinates of
M S, so a W x c matrix is split once into D + min(W, c) rows and any
estimate M S is evaluated from them with no W-sized work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, full_rank_svd, huge_exponent, spectral_norms

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


def _correlation_errors(stack, a_star, perp):
    """Per-column errors of each estimate in a (k, m, Da) stack against a_star
    (m, Ds): eps (k, Ds), the winning estimate column (k, Ds; -1 when every
    column of that estimate is zero) and its optimal scale (k, Ds).

    The rows of `stack` and `a_star` are coordinates in one orthonormal basis
    (explicit W-vectors are the standard basis). `perp` (k, p, Da) holds the
    coordinates of each estimate's part orthogonal to that basis, in an
    orthonormal basis of its own (p = 0 when there is none); it adds to the
    column norms and to the error of the winning column (see the module
    docstring).

    An estimate whose largest |coordinate| reaches 2^HUGE_EXP, and a_star
    when m max|a*| does, is searched divided by 2^e, the power of two just
    above that value (`linalg.huge_exponent`), so that no square and no
    h^2 = <U_j, a*_i>^2 overflows. The winners depend on the scale of
    neither, errors and scales are linear in a_star, and a power-of-two
    scaling is exact."""
    top = np.maximum(np.abs(stack).max(axis=(1, 2)),
                     np.abs(perp).max(axis=(1, 2), initial=0.0))
    e = huge_exponent(top)                               # (k,)
    if e.any():
        stack = np.ldexp(stack, -e[:, None, None])
        perp = np.ldexp(perp, -e[:, None, None])
    f = int(huge_exponent(a_star.shape[0] * np.abs(a_star).max()))
    a_star = np.ldexp(a_star, -f)                        # a copy of a_star when f = 0
    h = np.swapaxes(stack, 1, 2) @ a_star                # h[k, j, i] = <U_j, a*_i>
    perp2 = np.einsum("kpj,kpj->kj", perp, perp)
    cn = np.einsum("kwj,kwj->kj", stack, stack) + perp2  # ||U_j||^2
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
    # matches, the direct difference does not (sigma = 0 leaves a*_i itself);
    # the out-of-basis term is a sum of squares, so it cancels nothing either
    resid = a_star.T - stack[kk, :, js] * sigmas[:, :, None]   # (k, Ds, m)
    eps2 = np.einsum("kiw,kiw->ki", resid, resid) + sigmas**2 * perp2[kk, js]
    return np.ldexp(np.sqrt(eps2), f), np.where(any_ok, js, -1), np.ldexp(sigmas, f - e[:, None])


def total_correlation_error(a, a_star) -> ErrorReport:
    a = as_matrix(a, "estimate")
    a_star = as_matrix(a_star, "a_star")
    if a.shape[0] != a_star.shape[0]:
        raise ValueError(f"row mismatch: estimate has {a.shape[0]}, a_star has {a_star.shape[0]}")
    eps, js, sigmas = _correlation_errors(a[None], a_star, np.empty((1, 0, a.shape[1])))
    return ErrorReport(
        per_column=eps[0],
        total=float(eps[0].sum()),
        matches=[int(j) for j in js[0]],
        scales=[float(s) for s in sigmas[0]],
    )


def _off_diagonal(c):
    """A copy of a (k, D, D) stack with exact zeros on each diagonal."""
    off = c.copy()
    d = np.arange(c.shape[1])
    off[:, d, d] = 0.0
    return off


class Evaluator:
    """Evaluates estimates against one ground truth A* = u diag(s) vt.

    The SVD that checks A*'s rank gives the orthonormal `basis` u of its
    column space, in which `coordinates` splits an estimate."""

    def __init__(self, a_star):
        self.a_star = as_matrix(a_star, "a_star")
        u, s, vt = full_rank_svd(self.a_star, name="ground truth")
        self.basis = u
        self._mix = vt.T * (1.0 / s)   # C = Pinv* A = _mix @ (u^T A)
        self._star = s[:, None] * vt   # A* = u @ _star

    def error_report(self, a) -> ErrorReport:
        return total_correlation_error(a, self.a_star)

    def coordinates(self, m):
        """[X; R] of a W-row matrix M, or of each in a stack of them:
        X = u^T M in the truth's column basis u, over the R factor of
        M - u X, the part out of it (R^T R = N^T N for N = M - u X)."""
        x = self.basis.T @ m
        return np.concatenate([x, np.linalg.qr(m - self.basis @ x, mode="r")], axis=-2)

    def evaluate_coordinates(self, stack):
        """(total, E_norm, N_norm) of each estimate A, as length-k arrays:
        `total` and the two norms of `decompose`, batched. The (k, D + p, D)
        `stack` holds each estimate's coordinates: X = basis^T A, then p rows
        Y of N = A - A* C in any orthonormal basis (Y^T Y = N^T N), as
        `coordinates` gives them."""
        d = self.a_star.shape[1]
        if np.ndim(stack) != 3 or np.shape(stack)[1] < d or np.shape(stack)[2] != d:
            raise ValueError(
                f"shape mismatch: {np.shape(stack)} is not a coordinate stack "
                f"of a {self.a_star.shape} estimate"
            )
        if not np.all(np.isfinite(stack)):
            raise ValueError("estimate contains a non-finite entry")
        inspan, perp = stack[:, :d], stack[:, d:]
        off = _off_diagonal(self._mix @ inspan)
        eps = _correlation_errors(inspan, self._star, perp)[0]
        return eps.sum(axis=1), spectral_norms(off), spectral_norms(perp)

    def decompose(self, a) -> Decomposition:
        a = as_matrix(a, "estimate")
        if a.shape != self.a_star.shape:
            raise ValueError(f"shape mismatch: {a.shape} != {self.a_star.shape}")
        x = self.basis.T @ a
        residual = a - self.basis @ x
        c = self._mix @ x
        off = _off_diagonal(c[None])
        sigma = np.diagonal(c).copy()
        return Decomposition(
            sigma=sigma,
            off_diag=off[0],
            residual=residual,
            sigma_min=float(sigma.min()),
            off_diag_norm=float(spectral_norms(off)[0]),
            residual_norm=float(spectral_norms(residual[None])[0]),
        )
