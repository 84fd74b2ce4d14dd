"""Weight-vector distributions and their correlation diagnostics.

A `WeightSpec` describes one of four column distributions on the nonnegative
orthant (all bounded by [0, 1] entrywise). `gcc_closed_form` returns the
known (r, k, m, lambda) correlation bounds for the families that have them;
`gcc_from_samples` fits the tightest bounds satisfied by an empirical second
moment, and `decay_profile` measures how much conditional mass the nonzero
coordinates put near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

FAMILIES = ("sparse_binary", "dirichlet", "logistic_normal", "sparse_uniform")


class NoClosedFormError(ValueError):
    """No closed-form correlation bounds for this family; use gcc_from_samples."""


@dataclass(frozen=True)
class WeightSpec:
    """Distribution of one weight column, checked when built; columns are
    sampled i.i.d.

    Family-specific fields:
      sparse_binary    s ones on a uniformly random support
      dirichlet        symmetric Dirichlet with per-coordinate `concentration`
      logistic_normal  softmax of N(0, cov_scale * rho^|i-j|) (Toeplitz)
      sparse_uniform   s-sparse support, values Unif[low, high)
    """

    family: str
    dim: int
    seed: int = 0
    s: int | None = None
    concentration: float | None = None
    rho: float = 0.5
    cov_scale: float = 1.0
    low: float = 0.0
    high: float = 1.0

    @classmethod
    def sparse_binary(cls, dim, s, seed=0):
        return cls(family="sparse_binary", dim=dim, s=s, seed=seed)

    @classmethod
    def dirichlet(cls, dim, concentration, seed=0):
        return cls(family="dirichlet", dim=dim, concentration=concentration, seed=seed)

    @classmethod
    def logistic_normal(cls, dim, rho=0.5, cov_scale=1.0, seed=0):
        return cls(family="logistic_normal", dim=dim, rho=rho, cov_scale=cov_scale, seed=seed)

    @classmethod
    def sparse_uniform(cls, dim, s, low=0.0, high=1.0, seed=0):
        return cls(family="sparse_uniform", dim=dim, s=s, low=low, high=high, seed=seed)

    # every check is negated so that NaN fails it
    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown weight family {self.family!r}")
        if not self.dim >= 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.family in ("sparse_binary", "sparse_uniform"):
            if self.s is None or not 1 <= self.s <= self.dim:
                raise ValueError(f"need 1 <= s <= dim, got s={self.s}, dim={self.dim}")
        if self.family == "sparse_uniform":
            if not 0.0 <= self.low < self.high <= 1.0:
                raise ValueError(f"need 0 <= low < high <= 1, got [{self.low}, {self.high})")
        if self.family == "dirichlet":
            if self.concentration is None or not self.concentration > 0:
                raise ValueError(f"concentration must be > 0, got {self.concentration}")
        if self.family == "logistic_normal":
            if not self.cov_scale > 0:
                raise ValueError(f"cov_scale must be > 0, got {self.cov_scale}")

    def covariance(self) -> np.ndarray:
        """Gaussian covariance of the logistic_normal family."""
        idx = np.arange(self.dim)
        return self.cov_scale * self.rho ** np.abs(idx[:, None] - idx[None, :])


def _sparse_support(rng, dim, s, n):
    # indices of the s smallest of dim iid uniforms = uniform random s-subset
    u = rng.random((n, dim))
    return np.argpartition(u, s - 1, axis=1)[:, :s]


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
        idx = _sparse_support(rng, d, spec.s, n)
        x = np.zeros((d, n))
        x[idx.ravel(), np.repeat(np.arange(n), spec.s)] = 1.0
        return x
    if spec.family == "sparse_uniform":
        idx = _sparse_support(rng, d, spec.s, n)
        vals = rng.uniform(spec.low, spec.high, size=(n, spec.s))
        x = np.zeros((d, n))
        x[idx.ravel(), np.repeat(np.arange(n), spec.s)] = vals.ravel()
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
    """Correlation bounds: l1 cap r, diagonal scale k, pairwise scale m,
    lower-eigenvalue scale lam, and decay order q (math.inf for binary
    values, None when only measurable empirically)."""

    r: float
    k: float
    m: float
    lam: float
    q: float | None

    def as_dict(self):
        q = self.q
        if q is not None and math.isinf(q):
            q = "inf"
        return {"r": self.r, "k": self.k, "m": self.m, "lambda": self.lam, "q": q}


def gcc_closed_form(spec: WeightSpec) -> GccParams:
    """Known closed-form bounds for the sparse-binary and Dirichlet families.

    Dirichlet bounds are parameterized by the total mass s = concentration * dim;
    its decay order has no closed form and is reported as None (measure it with
    decay_profile). Other families raise NoClosedFormError.
    """
    if spec.family == "sparse_binary":
        s = float(spec.s)
        return GccParams(r=s, k=s, m=s * s, lam=1.0 - 1.0 / s, q=math.inf)
    if spec.family == "dirichlet":
        s = spec.concentration * spec.dim
        return GccParams(
            r=1.0, k=1.0, m=1.0 / (s * spec.dim), lam=max(0.0, 1.0 - 1.0 / s), q=None
        )
    raise NoClosedFormError(
        f"no closed form for family {spec.family!r}; use gcc_from_samples"
    )


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
        params=GccParams(r=r_hat, k=k_hat, m=m_hat, lam=lam_hat, q=None),
        second_moment=delta,
        n_samples=n,
        max_diag=max_diag,
        max_offdiag=max_off,
        min_eig=min_eig,
    )


@dataclass
class DecayProfile:
    """Empirical conditional CDF max_i Pr[x_i <= alpha | x_i != 0] on a grid,
    the largest decay order consistent with it, and coordinates that had no
    nonzero samples (skipped)."""

    alphas: np.ndarray
    max_cdf: np.ndarray
    q_hat: float
    skipped: tuple[int, ...]


def decay_profile(x, alphas) -> DecayProfile:
    x = as_matrix(x, "weights")
    alphas = np.asarray(sorted(alphas), dtype=np.float64)
    if alphas.size == 0:
        raise ValueError("alphas must be nonempty")
    if np.any(alphas <= 0) or np.any(alphas >= 1):
        raise ValueError("alphas must lie in (0, 1)")
    d, n = x.shape
    nonzero = x != 0
    counts = nonzero.sum(axis=1)
    skipped = tuple(int(i) for i in np.flatnonzero(counts == 0))
    active = counts > 0
    max_cdf = np.empty_like(alphas)
    for j, a in enumerate(alphas):
        hits = (nonzero & (x <= a)).sum(axis=1)
        cdf = hits[active] / counts[active]
        max_cdf[j] = cdf.max() if cdf.size else 0.0
    # Largest q with max_cdf(a) <= a^q + slack at every grid point; the slack
    # absorbs sampling noise so clean distributions are not rejected.
    slack = 2.0 / np.sqrt(n)
    q_hat = math.inf
    for a, c in zip(alphas, max_cdf):
        excess = c - slack
        if excess > 0:
            q_hat = min(q_hat, math.log(excess) / math.log(a))
    return DecayProfile(alphas=alphas, max_cdf=max_cdf, q_hat=q_hat, skipped=skipped)
