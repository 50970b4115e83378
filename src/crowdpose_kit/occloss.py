"""Dual-branch occlusion loss kernels.

total = (visible_term + alpha * occluded_term) / n, where n is the pair's
keypoint count K and each per-keypoint term is the mean of squared
differences between predicted and ground-truth heatmaps on its branch
(MSE). Because wrong-branch ground truth is zero, peaks predicted in the
wrong branch are penalized. Every kernel makes one pass over the pair's
(2, K, H, W) array, with the branch weight (1, alpha) applied per branch,
in the pair's dtype: float32 for encoded and read-back pairs, float64 for
the gradient check and any pair built in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .heatmaps import HeatmapPair
from .seeding import substream

DEFAULT_ALPHA = 1.5
# Caps on the occluded-branch weight and on grad_check's step: with both,
# the check's losses over unit-normal cells stay far from overflow.
MAX_ALPHA = 1e6
MAX_FD_STEP = 1.0


@dataclass(frozen=True)
class LossConfig:
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if not 0 < self.alpha <= MAX_ALPHA:
            raise DimensionError(f"alpha must be in (0, {MAX_ALPHA:g}], got {self.alpha}")


@dataclass(frozen=True)
class LossValue:
    total: float
    visible_term: float
    occluded_term: float


def _check_shapes(p: HeatmapPair, g: HeatmapPair) -> None:
    if p.shape != g.shape:
        raise DimensionError(f"prediction shape {p.shape} != ground truth {g.shape}")


def loss(p: HeatmapPair, g: HeatmapPair, cfg: LossConfig) -> LossValue:
    """Evaluate the weighted dual-branch loss."""
    _check_shapes(p, g)
    diff = p.values - g.values
    diff *= diff
    vis, occ = np.mean(diff, axis=(2, 3)).sum(axis=1).tolist()
    return LossValue(total=(vis + cfg.alpha * occ) / p.shape[0],
                     visible_term=vis, occluded_term=occ)


def loss_grad(p: HeatmapPair, g: HeatmapPair, cfg: LossConfig) -> HeatmapPair:
    """Analytic gradient of loss().total with respect to the prediction."""
    _check_shapes(p, g)
    k, h, w = p.shape
    # in place, in the order (p - g) * 2.0 * weight / (K * H * W)
    grad = p.values - g.values
    grad *= np.array([2.0, 2.0 * cfg.alpha], dtype=grad.dtype)[:, None, None, None]
    grad /= k * h * w
    return HeatmapPair(grad)


def _random_pair(rng: np.random.Generator, k: int, h: int, w: int) -> HeatmapPair:
    return HeatmapPair(rng.standard_normal((2, k, h, w)))


def grad_check(cfg: LossConfig, trials: int = 100, fd_step: float = 1e-4,
               seed: int = 0) -> float:
    """Worst relative error between analytic and central FD gradients.

    Random prediction/target pairs of a reduced 3x16x12 size; every cell of
    both branches is perturbed by +-fd_step. Relative error per cell is
    |analytic - fd| / max(|analytic|, |fd|, 1e-3); the 1e-3 floor sits at
    the typical gradient magnitude, so near-zero cells are still held to an
    absolute deviation of 1e-8 at the 1e-5 acceptance bound instead of
    dividing FD rounding noise by itself. With alpha and fd_step under
    their caps no loss here overflows; a NaN error, from any other cause,
    is returned at once: it fails any bound.
    """
    if trials < 1:
        raise DimensionError(f"trials must be >= 1, got {trials}")
    if not 0 < fd_step <= MAX_FD_STEP:
        raise DimensionError(f"fd_step must be in (0, {MAX_FD_STEP:g}], got {fd_step}")
    k, h, w = 3, 16, 12
    rng = substream(seed, "grad_check")
    worst = 0.0
    for _ in range(trials):
        p = _random_pair(rng, k, h, w)
        g = _random_pair(rng, k, h, w)
        grad = loss_grad(p, g, cfg).values.reshape(-1)
        flat = p.values.reshape(-1)  # a view: visible cells, then occluded
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + fd_step
            up = loss(p, g, cfg).total
            flat[idx] = orig - fd_step
            down = loss(p, g, cfg).total
            flat[idx] = orig
            fd = (up - down) / (2.0 * fd_step)
            a = grad[idx]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-3)
            if math.isnan(rel):  # a NaN loss: nothing was checked
                return rel
            if rel > worst:
                worst = rel
    return worst

