"""Saliency training losses and the per-step weighting schedule.

Per-map loss is BCE + soft-IoU + SSIM. Multi-step
training weights the per-step losses with a decreasing schedule
(T-i+1)/sum, putting more mass on early steps; the vanilla alternative
scores the unweighted mean of the step maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grad as G
from .grad import Tensor

CLAMP_EPS = 1e-7
_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2


def step_weights(steps: int) -> np.ndarray:
    """Decreasing convex weights (T, T-1, ..., 1) / sum."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    raw = np.arange(steps, 0, -1, dtype=np.float64)
    return raw / raw.sum()


@dataclass
class LossConfig:
    steps: int = 5
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.weights = step_weights(self.steps)


def bce(pred, target) -> Tensor:
    """Mean binary cross-entropy; prediction clamped away from {0,1}
    so the logs stay finite."""
    pred = G.clip(G.as_tensor(pred), CLAMP_EPS, 1.0 - CLAMP_EPS)
    target = G.as_tensor(target)
    pos = G.mul(target, G.log(pred))
    neg = G.mul(G.sub(1.0, target), G.log(G.sub(1.0, pred)))
    return G.mul(G.mean(G.add(pos, neg)), -1.0)


def iou_loss(pred, target) -> Tensor:
    """1 - soft intersection over union, summed over the whole batch."""
    pred, target = G.as_tensor(pred), G.as_tensor(target)
    inter = G.sum_(G.mul(pred, target))
    union = G.sub(G.add(G.sum_(pred), G.sum_(target)), inter)
    return G.sub(1.0, G.div(inter, union))


def _gaussian_taps(window: int, sigma: float) -> np.ndarray:
    """1-d gaussian normalised to sum 1; the 2-d window is its outer product."""
    ax = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def ssim_target_stats(target, window: int = 11, sigma: float = 1.5):
    """Windowed mean and variance of the target: (mu_t, var_t).

    They do not depend on the prediction, so a caller scoring several maps
    against one target computes them once and hands them to
    :func:`ssim_loss`.
    """
    target = G.as_tensor(target)
    taps = _gaussian_taps(window, sigma)
    mu_t = G.blur2d(target, taps)
    var_t = G.sub(G.blur2d(G.mul(target, target), taps), G.mul(mu_t, mu_t))
    return mu_t, var_t


def ssim_loss(pred, target, window: int = 11, sigma: float = 1.5, *,
              target_stats=None) -> Tensor:
    """1 - mean SSIM over valid (fully inside) gaussian windows.

    ``target_stats`` is the result of :func:`ssim_target_stats` for the same
    target, window and sigma; it is computed here when not given.
    """
    pred, target = G.as_tensor(pred), G.as_tensor(target)
    if pred.shape[-1] < window or pred.shape[-2] < window:
        raise ValueError("input smaller than the ssim window")
    if pred.shape[1] != 1:
        raise ValueError("ssim expects single-channel maps")
    taps = _gaussian_taps(window, sigma)
    mu_t, var_t = target_stats or ssim_target_stats(target, window, sigma)

    mu_p = G.blur2d(pred, taps)
    var_p = G.sub(G.blur2d(G.mul(pred, pred), taps), G.mul(mu_p, mu_p))
    cov = G.sub(G.blur2d(G.mul(pred, target), taps), G.mul(mu_p, mu_t))
    num = G.mul(G.add(G.mul(2.0, G.mul(mu_p, mu_t)), _SSIM_C1),
                G.add(G.mul(2.0, cov), _SSIM_C2))
    den = G.mul(G.add(G.add(G.mul(mu_p, mu_p), G.mul(mu_t, mu_t)), _SSIM_C1),
                G.add(G.add(var_p, var_t), _SSIM_C2))
    return G.sub(1.0, G.mean(G.div(num, den)))


def map_loss(pred, target, *, ssim_stats=None) -> Tensor:
    """BCE + IoU + SSIM of one map. ``ssim_stats`` is passed on to
    :func:`ssim_loss` as its ``target_stats``."""
    return G.add(G.add(bce(pred, target), iou_loss(pred, target)),
                 ssim_loss(pred, target, target_stats=ssim_stats))


def multi_step_loss(maps, target, cfg: LossConfig | None = None) -> Tensor:
    """Weighted sum of per-step map losses, early steps heaviest."""
    cfg = cfg or LossConfig(steps=len(maps))
    if len(maps) != cfg.steps:
        raise ValueError(f"expected {cfg.steps} maps, got {len(maps)}")
    stats = ssim_target_stats(target)
    total = None
    for w, m in zip(cfg.weights, maps):
        t = G.mul(map_loss(m, target, ssim_stats=stats), float(w))
        total = t if total is None else G.add(total, t)
    return total


def vanilla_loss(maps, target) -> Tensor:
    """Unweighted loss on the mean of the step maps."""
    mean_map = G.mean(G.stack(list(maps), axis=0), axis=0)
    return map_loss(mean_map, target)
