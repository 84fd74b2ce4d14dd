"""Synthetic ground truths, observation datasets, and initializations.

The observation model is Y = A_star @ X + Zeta with X drawn from a
`WeightSpec` and Zeta columns i.i.d. gamma * N(0, I/W), scaled so a noise
column has norm about gamma. Initializations follow the in-span/out-of-span
recipe A0 = A_star @ (I + U) + N with uniform entries in +-0.05 times the
respective level.

All randomness flows through numpy Generators created from explicit seeds
(child streams split off with SeedSequence), so every artifact is bitwise
reproducible for a fixed seed and numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, spectral_norm, svd_factors
from .weights import WeightSpec, sample_weights

_RANK_RETRIES = 8


@dataclass
class GroundTruth:
    a_star: np.ndarray
    provenance: str
    cond: float

    @classmethod
    def from_matrix(cls, a, provenance="loaded-from-file"):
        a = as_matrix(a, "a_star")
        norms = np.linalg.norm(a, axis=0)
        if norms.min() <= 1e-12:
            raise ValueError("ground truth has a zero column")
        f = svd_factors(a)
        cond = float(f.s[0] / f.s[-1]) if f.s[-1] > 0 else np.inf
        return cls(a_star=a, provenance=provenance, cond=cond)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise level; zeta ~ gamma * N(0, I/W) per column."""

    gamma: float = 0.0

    def __post_init__(self):
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class InitSpec:
    """Levels for the init recipe A0 = A_star (I + U) + N.

    U and N entries are i.i.d. Unif[-0.05, 0.05) times r_l and r_n, drawn
    from `seed`; the diagonal of U is included.
    """

    r_l: float = 1.0
    r_n: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.r_l >= 0 and self.r_n >= 0):
            raise ValueError("r_l and r_n must be >= 0")


@dataclass
class Dataset:
    y: np.ndarray
    x: np.ndarray
    zeta: np.ndarray


@dataclass
class Initialization:
    a0: np.ndarray
    u: np.ndarray       # the in-span mixing draw, a0 = A*(I + u) + n_mat
    n_mat: np.ndarray   # the out-of-span draw
    ell: float          # spectral norm of offdiag(u), the in-span mixing level
    rho: float          # spectral norm of n_mat, the out-of-span level


def generate_ground_truth(w: int, d: int, kind: str = "nonneg", seed: int = 0) -> GroundTruth:
    """Random ground truth with entries Unif[0, 1) (nonneg) or Unif[-0.5, 0.5)
    (signed). Requires w >= d; redraws with a derived seed in the measure-zero
    event of a column-rank deficiency."""
    if kind not in ("nonneg", "signed"):
        raise ValueError(f"kind must be 'nonneg' or 'signed', got {kind!r}")
    if w < d:
        raise ValueError(f"need w >= d for a left inverse, got w={w} < d={d}")
    for attempt in range(_RANK_RETRIES):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        a = rng.random((w, d))
        if kind == "signed":
            a = a - 0.5
        s = svd_factors(a).s
        if s[-1] > 1e-10 * s[0] * max(w, d):
            return GroundTruth(
                a_star=a,
                provenance=f"random-uniform-{kind}",
                cond=float(s[0] / s[-1]),
            )
    raise RuntimeError(f"could not draw a rank-{d} matrix in {_RANK_RETRIES} attempts")


def generate_dataset(
    gt: GroundTruth, wspec: WeightSpec, noise: NoiseSpec, n: int, seed: int = 0
) -> Dataset:
    """Form Y = A_star X + Zeta with X drawn from wspec (its own seed) and the
    noise stream seeded by `seed`.

    With gamma == 0 the zeta term is skipped entirely, so Y equals the product
    bitwise. X is returned for diagnostics only; solvers see just Y (and A0).
    """
    w, d = gt.a_star.shape
    if wspec.dim != d:
        raise ValueError(f"weight dim {wspec.dim} != ground truth columns {d}")
    x = sample_weights(wspec, n)
    if noise.gamma > 0:
        rng = np.random.default_rng(seed)
        zeta = noise.gamma * rng.standard_normal((w, n)) / np.sqrt(w)
        y = gt.a_star @ x + zeta
    else:
        zeta = np.zeros((w, n))
        y = gt.a_star @ x
    return Dataset(y=y, x=x, zeta=zeta)


def generate_initialization(gt: GroundTruth, ispec: InitSpec) -> Initialization:
    w, d = gt.a_star.shape
    rng = np.random.default_rng(ispec.seed)
    u = rng.uniform(-0.05, 0.05, size=(d, d)) * ispec.r_l
    nmat = rng.uniform(-0.05, 0.05, size=(w, d)) * ispec.r_n
    a0 = gt.a_star @ (np.eye(d) + u) + nmat
    offdiag = u - np.diag(np.diag(u))
    return Initialization(
        a0=a0,
        u=u,
        n_mat=nmat,
        ell=spectral_norm(offdiag) if ispec.r_l > 0 else 0.0,
        rho=spectral_norm(nmat) if ispec.r_n > 0 else 0.0,
    )
