"""Per-row trace evaluation as it was before `Evaluator.evaluate` batched it.

Kept as the oracle for the batched path: the total correlation error of one
estimate through its own residual table, and the norms of the in-span mixing
E and the out-of-span residual N from exact SVDs, not from the Gram form
of `linalg.spectral_norms` that the batched path uses.
"""

import numpy as np

ZERO_COL_TOL = 1e-24


def svd_norm(m):
    """Largest singular value of `m` from numpy's SVD."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def column_errors(a, a_star):
    """(eps, matches, scales) of estimate `a` against every column of `a_star`."""
    h = a.T @ a_star
    cn = np.einsum("ij,ij->j", a, a)
    ok = cn > ZERO_COL_TOL
    star2 = np.einsum("ij,ij->j", a_star, a_star)
    if not ok.any():
        return np.sqrt(star2), [-1] * a_star.shape[1], [0.0] * a_star.shape[1]
    res2 = np.tile(star2, (a.shape[1], 1))
    res2[ok] = star2[None, :] - h[ok] ** 2 / cn[ok, None]
    js = np.argmin(np.where(ok[:, None], res2, np.inf), axis=0)
    sigmas = h[js, np.arange(a_star.shape[1])] / cn[js]
    resid = a_star - a[:, js] * sigmas[None, :]
    eps = np.sqrt(np.einsum("ij,ij->j", resid, resid))
    return eps, [int(j) for j in js], [float(s) for s in sigmas]


def row_values(a, a_star, pinv):
    """(total_error, E_norm, N_norm) of one estimate; `pinv` is A*'s pseudo-inverse."""
    c = pinv @ a
    off = c - np.diag(np.diag(c))
    return (float(np.sum(column_errors(a, a_star)[0])),
            svd_norm(off), svd_norm(a - a_star @ c))
