"""Saliency training losses and the per-step weighting schedule.

Per-map loss is BCE + soft-IoU + SSIM. Multi-step
training weights the per-step losses with a decreasing schedule
(T-i+1)/sum, putting more mass on early steps; the vanilla alternative
scores the unweighted mean of the step maps.

Each term is one graph node with a hand-written backward. It scores
either one (B, 1, H, W) map, giving a scalar, or T step maps stacked as
(T, B, 1, H, W) against one target, giving the length-T vector of
per-step values. Every loss is the weighted step sum of such terms; a
single map is the one-step case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grad as G
from .grad import Tensor
from .grad.nnops import blur_adjoint, blur_valid
from .grad.tensor import _give, make

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


def _step_rows(pred: Tensor, target: Tensor):
    """(T, N) rows of the prediction's step maps, the target's N values and
    the output shape: () for one map shaped like the target, (T,) for T
    stacked step maps."""
    p, y = pred.data, target.data
    if p.shape == y.shape:
        return p.reshape(1, -1), y.reshape(-1), ()
    if p.shape[1:] == y.shape:
        return p.reshape(len(p), -1), y.reshape(-1), (len(p),)
    raise ValueError(f"prediction of shape {p.shape} does not match "
                     f"target of shape {y.shape}")


def _term(vals: np.ndarray, shape, pred: Tensor, grad_rows) -> Tensor:
    """Graph node of per-step values ``vals`` (T,) shaped ``shape``;
    ``grad_rows(g)`` maps the (T,) upstream gradient to the prediction's
    gradient in any shape of the same size."""
    def vjp(g):
        _give(pred, grad_rows(np.reshape(g, -1)).reshape(pred.shape))

    return make(vals.reshape(shape), (pred,), vjp)


def bce(pred, target) -> Tensor:
    """Mean binary cross-entropy; prediction clamped away from {0,1}
    so the logs stay finite, with zero gradient where it is clamped."""
    pred, target = G.as_tensor(pred), G.as_tensor(target)
    p, y, shape = _step_rows(pred, target)
    pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    s = y * np.log(pc)
    s += (1.0 - y) * np.log(1.0 - pc)
    vals = s.mean(axis=1) * -1.0

    def grad_rows(g):
        # d/dp of -mean(y log p + (1-y) log(1-p)), zero outside (eps, 1-eps)
        gp = (1.0 - y) / (1.0 - pc)
        gp -= y / pc
        gp *= (g / y.size)[:, None]
        gp *= (p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)
        return gp

    return _term(vals, shape, pred, grad_rows)


def iou_loss(pred, target) -> Tensor:
    """1 - soft intersection over union, summed over the whole batch."""
    pred, target = G.as_tensor(pred), G.as_tensor(target)
    p, y, shape = _step_rows(pred, target)
    inter = (p * y).sum(axis=1)
    union = (p.sum(axis=1) + y.sum()) - inter
    vals = 1.0 - inter / union

    def grad_rows(g):
        g_union = g * inter / (union * union)
        g_inter = -g / union - g_union
        return g_inter[:, None] * y + g_union[:, None]

    return _term(vals, shape, pred, grad_rows)


def _gaussian_taps(window: int, sigma: float) -> np.ndarray:
    """1-d gaussian normalised to sum 1; the 2-d window is its outer product."""
    ax = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


# the SSIM window: SSIM_WINDOW gaussian taps of width SSIM_SIGMA per axis
SSIM_WINDOW, SSIM_SIGMA = 11, 1.5
_SSIM_TAPS = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)


def ssim_loss(pred, target) -> Tensor:
    """1 - mean SSIM over valid (fully inside) SSIM_WINDOW-wide gaussian
    windows.

    With K the gaussian blur, mu_p = K p, s_pp = K p², s_pt = K p·t and the
    target's K t, K t² computed once for all steps, the backward is

        grad p = Kᵀ G_mu + 2 p · Kᵀ G_pp + t · Kᵀ G_pt

    where G_mu, G_pp, G_pt are the loss gradients with respect to mu_p,
    s_pp and s_pt: three adjoint blurs, done as one.
    """
    pred, target = G.as_tensor(pred), G.as_tensor(target)
    if pred.shape[-1] < SSIM_WINDOW or pred.shape[-2] < SSIM_WINDOW:
        raise ValueError("input smaller than the ssim window")
    if pred.shape[-3] != 1:
        raise ValueError("ssim expects single-channel maps")
    _, _, shape = _step_rows(pred, target)
    h, w = target.shape[-2:]
    y = target.data.reshape(-1, h, w)
    p = pred.data.reshape(-1, len(y), h, w)
    steps = len(p)

    moments = np.empty((3,) + p.shape)
    moments[0] = p
    np.multiply(p, p, out=moments[1])
    np.multiply(p, y, out=moments[2])
    mu_p, s_pp, s_pt = blur_valid(moments, _SSIM_TAPS)
    mu_t, s_tt = blur_valid(np.stack([y, y * y]), _SSIM_TAPS)

    # ssim = a1 a2 / (b1 b2), in the graph-composed form's order of ops
    mu_pt = mu_p * mu_t
    mu_pp = mu_p * mu_p
    mu_tt = mu_t * mu_t
    a1 = 2.0 * mu_pt + _SSIM_C1
    a2 = 2.0 * (s_pt - mu_pt) + _SSIM_C2
    b1 = (mu_pp + mu_tt) + _SSIM_C1
    b2 = ((s_pp - mu_pp) + (s_tt - mu_tt)) + _SSIM_C2
    den = b1 * b2
    ssim = a1 * a2 / den
    vals = 1.0 - ssim.reshape(steps, -1).mean(axis=1)

    def grad_rows(g):
        # q = dL/d(a1 a2) and -q * ssim = dL/d(b1 b2), so a1, a2, b1, b2
        # get q a2, q a1, -qs b2, -qs b1, and
        #   G_mu = 2 mu_t (q a2 - q a1) + 2 mu_p (qs b1 - qs b2)
        #   G_pp = -qs b1,  G_pt = 2 q a1
        q = (-g / (ssim[0].size))[:, None, None, None] / den
        qs = q * ssim
        gs = np.empty((3,) + ssim.shape)
        g_mu, g_pp, g_pt = gs
        np.multiply(mu_t, q * (a2 - a1), out=g_mu)
        g_mu -= mu_p * qs * (b2 - b1)
        g_mu *= 2.0
        np.multiply(qs, b1, out=g_pp)
        np.negative(g_pp, out=g_pp)
        np.multiply(q, a1, out=g_pt)
        g_pt *= 2.0
        adj = blur_adjoint(gs, _SSIM_TAPS)
        gp = adj[1] * p
        gp *= 2.0
        gp += adj[0]
        gp += adj[2] * y
        return gp

    return _term(vals, shape, pred, grad_rows)


def _step_sum(per_step: Tensor, weights: np.ndarray) -> Tensor:
    """sum_t weights[t] * per_step[t], added in step order."""
    w = np.asarray(weights, dtype=np.float64)
    if per_step.size != w.size:     # e.g. T stacked maps given to map_loss
        raise ValueError(f"{per_step.size} step values for {w.size} "
                         f"step weights")
    total = np.cumsum(per_step.data.reshape(-1) * w)[-1]

    def vjp(g):
        _give(per_step, (g * w).reshape(per_step.shape))

    return make(total, (per_step,), vjp)


def _hybrid(pred, target, weights: np.ndarray) -> Tensor:
    per_step = G.add(G.add(bce(pred, target), iou_loss(pred, target)),
                     ssim_loss(pred, target))
    return _step_sum(per_step, weights)


def map_loss(pred, target) -> Tensor:
    """BCE + IoU + SSIM of one map."""
    return _hybrid(pred, target, step_weights(1))


def _step_maps(maps) -> Tensor:
    """T step maps as one (T, B, 1, H, W) tensor: ``maps`` itself, as
    ``RSTModel.forward_full`` returns it, or a sequence of T (B, 1, H, W)
    maps, stacked."""
    if isinstance(maps, (list, tuple)):
        return G.stack(list(maps), axis=0)
    return G.as_tensor(maps)


def multi_step_loss(maps, target, cfg: LossConfig | None = None) -> Tensor:
    """Weighted sum of per-step map losses, early steps heaviest."""
    maps = _step_maps(maps)
    cfg = cfg or LossConfig(steps=maps.shape[0])
    if maps.shape[0] != cfg.steps:
        raise ValueError(f"expected {cfg.steps} maps, got {maps.shape[0]}")
    return _hybrid(maps, target, cfg.weights)


def vanilla_loss(maps, target) -> Tensor:
    """Unweighted loss on the mean of the step maps."""
    return map_loss(G.mean(_step_maps(maps), axis=0), target)
