"""Weight-vector distributions and their correlation diagnostics.

A `WeightSpec` describes one of three column distributions on the nonnegative
orthant (all bounded by [0, 1] entrywise). It has one constructor, which
takes the family's own fields by keyword, e.g.
`WeightSpec("dirichlet", 20, concentration=0.25, seed=1)`.
`gcc_from_samples` fits the tightest (r, k, m, lambda) correlation bounds
satisfied by an empirical second moment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

FAMILIES = ("sparse_binary", "dirichlet", "logistic_normal")

# The logistic_normal covariance scale. It concentrates the simplex mass so
# that nonzero weights do not pile up arbitrarily close to zero (dense, flat
# weight vectors defeat threshold decoding at this dimension); the
# correlation structure rho^|i-j| is unchanged by the scale.
COV_SCALE = 25.0


@dataclass(frozen=True)
class WeightSpec:
    """Distribution of one weight column, checked when built; columns are
    sampled i.i.d.

    Family-specific fields:
      sparse_binary    s ones on a uniformly random support
      dirichlet        symmetric Dirichlet with per-coordinate `concentration`
      logistic_normal  softmax of N(0, COV_SCALE * rho^|i-j|) (Toeplitz)
    """

    family: str
    dim: int
    seed: int = 0
    s: int | None = None
    concentration: float | None = None
    rho: float = 0.5

    # every check is negated so that NaN fails it
    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown weight family {self.family!r}")
        if not self.dim >= 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.family == "sparse_binary":
            if self.s is None or not 1 <= self.s <= self.dim:
                raise ValueError(f"need 1 <= s <= dim, got s={self.s}, dim={self.dim}")
        if self.family == "dirichlet":
            if self.concentration is None or not self.concentration > 0:
                raise ValueError(f"concentration must be > 0, got {self.concentration}")
        if self.family == "logistic_normal":
            # rho^|i-j| is a covariance (positive definite) only for |rho| < 1
            if not -1 < self.rho < 1:
                raise ValueError(f"rho must be in (-1, 1), got {self.rho}")

    def covariance(self) -> np.ndarray:
        """Gaussian covariance of the logistic_normal family."""
        idx = np.arange(self.dim)
        return COV_SCALE * self.rho ** np.abs(idx[:, None] - idx[None, :])


def sample_weights(spec: WeightSpec, n: int) -> np.ndarray:
    """Draw n i.i.d. weight columns; returns a (dim, n) array.

    Deterministic for a fixed (spec, seed, n): the generator is created per
    call from spec.seed, so concurrent calls are independent.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(spec.seed)
    d = spec.dim
    if spec.family == "sparse_binary":
        # indices of the s smallest of d iid uniforms = uniform random s-subset
        idx = np.argpartition(rng.random((n, d)), spec.s - 1, axis=1)[:, :spec.s]
        x = np.zeros((d, n))
        x[idx.ravel(), np.repeat(np.arange(n), spec.s)] = 1.0
        return x
    if spec.family == "dirichlet":
        return rng.dirichlet(np.full(d, spec.concentration), size=n).T
    # logistic_normal
    g = rng.multivariate_normal(np.zeros(d), spec.covariance(), size=n, method="svd")
    g -= g.max(axis=1, keepdims=True)
    e = np.exp(g)
    return (e / e.sum(axis=1, keepdims=True)).T


@dataclass(frozen=True)
class GccParams:
    """Correlation bounds: l1 cap r, diagonal scale k, pairwise scale m and
    lower-eigenvalue scale lam."""

    r: float
    k: float
    m: float
    lam: float

    def as_dict(self):
        return {"r": self.r, "k": self.k, "m": self.m, "lambda": self.lam}


@dataclass
class GccEstimate:
    """Tightest empirical bounds plus the raw moments they were fit to."""

    params: GccParams
    second_moment: np.ndarray
    n_samples: int
    max_diag: float
    max_offdiag: float
    min_eig: float


def gcc_from_samples(x) -> GccEstimate:
    """Fit the tightest (r, k, m, lambda) satisfied by the empirical second
    moment of the columns of x. Entries must lie in [0, 1] (1e-9 slack)."""
    x = as_matrix(x, "weights")
    d, n = x.shape
    bad = np.argwhere((x < -1e-9) | (x > 1.0 + 1e-9))
    if bad.size:
        coords = ", ".join(f"({i}, {j})" for i, j in bad[:10])
        more = "" if len(bad) <= 10 else f" and {len(bad) - 10} more"
        raise ValueError(f"entries outside [0, 1] at {coords}{more}")
    delta = (x @ x.T) / n
    r_hat = float(np.abs(x).sum(axis=0).max())
    max_diag = float(delta.diagonal().max())
    k_hat = d / 2.0 * max_diag
    if d > 1:
        off = delta[~np.eye(d, dtype=bool)]
        max_off = float(off.max())
        m_hat = d * d * max_off
    else:
        max_off = 0.0
        m_hat = 0.0
    min_eig = float(np.linalg.eigvalsh((delta + delta.T) / 2.0)[0])
    lam_hat = max(0.0, d * min_eig / k_hat) if k_hat > 0 else 0.0
    return GccEstimate(
        params=GccParams(r=r_hat, k=k_hat, m=m_hat, lam=lam_hat),
        second_moment=delta,
        n_samples=n,
        max_diag=max_diag,
        max_offdiag=max_off,
        min_eig=min_eig,
    )
