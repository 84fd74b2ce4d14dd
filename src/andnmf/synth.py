"""Synthetic ground truths, observation datasets, and initializations.

The observation model is Y = A_star @ X + Zeta with X drawn from a
`WeightSpec` and Zeta columns i.i.d. gamma * N(0, I/W), scaled so a noise
column has norm about gamma. Initializations follow the in-span/out-of-span
recipe A0 = A_star @ (I + U) + N with uniform entries in +-0.05 times the
respective level. A ground truth is drawn once from its seed;
`linalg.full_rank_svd` checks that it has full column rank and gives the
condition number the manifest records.

All randomness flows through numpy Generators created from explicit seeds
(child streams split off with SeedSequence), so every artifact is bitwise
reproducible for a fixed seed and numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import full_rank_svd, spectral_norm
from .weights import WeightSpec, sample_weights


@dataclass
class GroundTruth:
    a_star: np.ndarray
    provenance: str
    cond: float


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
    a0: np.ndarray      # A*(I + U) + n_mat for the in-span mixing draw U
    n_mat: np.ndarray   # the out-of-span draw
    ell: float          # spectral norm of offdiag(U), the in-span mixing level
    rho: float          # spectral norm of n_mat, the out-of-span level


def generate_ground_truth(w: int, d: int, kind: str = "nonneg", seed: int = 0) -> GroundTruth:
    """Random ground truth with entries Unif[0, 1) (nonneg) or Unif[-0.5, 0.5)
    (signed). Requires w >= d. A draw without full column rank (probability
    zero) raises ValueError through `full_rank_svd`."""
    if kind not in ("nonneg", "signed"):
        raise ValueError(f"kind must be 'nonneg' or 'signed', got {kind!r}")
    if w < d:
        raise ValueError(f"need w >= d for a left inverse, got w={w} < d={d}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    a = rng.random((w, d))
    if kind == "signed":
        a = a - 0.5
    s = full_rank_svd(a, "ground truth")[1]
    return GroundTruth(a_star=a, provenance=f"random-uniform-{kind}", cond=float(s[0] / s[-1]))


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
        n_mat=nmat,
        ell=spectral_norm(offdiag),
        rho=spectral_norm(nmat),
    )
