"""Network-level ops: convolution, pooling, normalization, spike gates.

Convolution is stride-1 only (spatial reduction happens in the pooling
stage) and runs as an im2col matrix product, forward and input-backward
alike. Inputs are NCHW.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, as_tensor, make, _accumulate


def _im2col(xp: np.ndarray, k: int) -> np.ndarray:
    # xp: padded (B, C, Hp, Wp) -> (B, H_out*W_out, C*k*k)
    b, c, hp, wp = xp.shape
    win = sliding_window_view(xp, (k, k), axis=(2, 3))  # (B,C,Ho,Wo,k,k)
    ho, wo = win.shape[2], win.shape[3]
    col = win.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * k * k)
    return np.ascontiguousarray(col)


def conv2d(x, weight, bias=None, padding: int = 0) -> Tensor:
    """2-d cross-correlation, stride 1.

    x: (B, C_in, H, W), weight: (C_out, C_in, k, k), bias: (C_out,) or None.
    Output spatial size is H + 2*padding - k + 1 per side.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    b_, cin, h, w = x.data.shape
    cout, cin_w, k, k2 = weight.data.shape
    if cin != cin_w or k != k2:
        raise ValueError("conv2d weight shape mismatch")
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) \
        if padding else x.data
    col = _im2col(xp, k)
    wf = weight.data.reshape(cout, cin * k * k)
    ho, wo = xp.shape[2] - k + 1, xp.shape[3] - k + 1
    out = (col @ wf.T).transpose(0, 2, 1).reshape(b_, cout, ho, wo)
    parents = (x, weight)
    if bias is not None:
        bias = as_tensor(bias)
        out = out + bias.data.reshape(1, cout, 1, 1)
        parents = (x, weight, bias)

    def vjp(g):
        gr = g.transpose(0, 2, 3, 1).reshape(b_, ho * wo, cout)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            gw = np.tensordot(gr, col, axes=([0, 1], [0, 1]))  # (cout, cin*k*k)
            _accumulate(weight, gw.reshape(weight.data.shape))
        if x.requires_grad:
            # transposed conv: full correlation of g with the flipped kernel,
            # cropped by ``padding``; a negative margin crops g instead
            q = k - 1 - padding
            gp = np.pad(g, ((0, 0), (0, 0), (q, q), (q, q))) if q >= 0 \
                else g[:, :, -q:q, -q:q]
            wt = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3) \
                .reshape(cin, cout * k * k)
            dx = (_im2col(gp, k) @ wt.T).transpose(0, 2, 1).reshape(b_, cin, h, w)
            _accumulate(x, dx)

    return make(out, parents, vjp)


def _separable_pass(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # valid 1-d correlation with ``taps`` along H, then along W
    k = taps.shape[0]
    rows = sliding_window_view(x, k, axis=-2) @ taps
    return sliding_window_view(rows, k, axis=-1) @ taps


def blur2d(x, taps) -> Tensor:
    """Valid 2-d cross-correlation with the separable kernel outer(taps, taps).

    x: (..., H, W), taps: (k,) constant array. Output is (..., H-k+1, W-k+1).
    Equals ``conv2d`` with that k x k kernel per channel, done as two 1-d
    passes (2k instead of k*k multiply-adds per output).
    """
    x = as_tensor(x)
    taps = np.asarray(taps, dtype=np.float64)
    k = taps.shape[0]
    out = _separable_pass(x.data, taps)

    def vjp(g):
        # adjoint of a valid correlation: full correlation with reversed taps
        pad = [(0, 0)] * (g.ndim - 2) + [(k - 1, k - 1)] * 2
        _accumulate(x, _separable_pass(np.pad(g, pad), taps[::-1]))

    return make(out, (x,), vjp)


def maxpool2d(x) -> Tensor:
    """2x2 max pooling, stride 2. Ties route gradient to the first maximum
    in window scan order (top-left first)."""
    x = as_tensor(x)
    b, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError("maxpool2d needs even spatial dims")
    win = x.data.reshape(b, c, h // 2, 2, w // 2, 2) \
        .transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h // 2, w // 2, 4)
    idx = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        dwin = np.zeros((b, c, h // 2, w // 2, 4))
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        dx = dwin.reshape(b, c, h // 2, w // 2, 2, 2) \
            .transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w)
        _accumulate(x, dx)

    return make(out, (x,), vjp)


def nearest_upsample2d(x, factor: int) -> Tensor:
    """Nearest-neighbour upsampling by an integer factor."""
    x = as_tensor(x)
    b, c, h, w = x.data.shape
    out = x.data.repeat(factor, axis=2).repeat(factor, axis=3)

    def vjp(g):
        dx = g.reshape(b, c, h, factor, w, factor).sum(axis=(3, 5))
        _accumulate(x, dx)

    return make(out, (x,), vjp)


def linear(x, weight, bias=None) -> Tensor:
    """y = x @ weight.T + bias over the last axis. weight: (out, in)."""
    x, weight = as_tensor(x), as_tensor(weight)
    out = np.matmul(x.data, weight.data.T)
    parents = (x, weight)
    if bias is not None:
        bias = as_tensor(bias)
        out = out + bias.data
        parents = (x, weight, bias)
    lead = x.data.shape[:-1]
    n_in = x.data.shape[-1]
    n_out = weight.data.shape[0]

    def vjp(g):
        g2 = g.reshape(-1, n_out)
        x2 = x.data.reshape(-1, n_in)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g2.sum(axis=0))
        if weight.requires_grad:
            _accumulate(weight, g2.T @ x2)
        if x.requires_grad:
            _accumulate(x, (g2 @ weight.data).reshape(*lead, n_in))

    return make(out, parents, vjp)


def batchnorm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
              training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Batch normalization over axis 1 (channels); statistics over every
    other axis. Callers fold any step/time dimension into the batch axis
    before calling, so statistics cover steps x batch x spatial.

    ``running_mean``/``running_var`` are plain arrays mutated in place when
    ``training`` (exponential update, unbiased variance), read otherwise.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    c = x.data.shape[1]
    axes = (0,) + tuple(range(2, x.data.ndim))
    bshape = (1, c) + (1,) * (x.data.ndim - 2)

    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        m = x.data.size // c
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * (var * m / max(m - 1, 1))
    else:
        mu, var = running_mean, running_var

    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu.reshape(bshape)) * inv.reshape(bshape)
    out = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)

    def vjp(g):
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=axes))
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=axes))
        if x.requires_grad:
            gi = gamma.data.reshape(bshape) * inv.reshape(bshape)
            if training:
                m = x.data.size // c
                gmean = g.mean(axis=axes).reshape(bshape)
                gxhat = (g * xhat).sum(axis=axes).reshape(bshape) / m
                _accumulate(x, gi * (g - gmean - xhat * gxhat))
            else:
                _accumulate(x, gi * g)

    return make(out, (x, gamma, beta), vjp)


def surrogate_slope(x: np.ndarray, v_th: float, alpha: float) -> np.ndarray:
    """Arctangent-family surrogate derivative alpha / (2*(1 + (pi*alpha*(x-v_th)/2)^2))."""
    u = np.pi * alpha * (x - v_th) / 2.0
    return alpha / (2.0 * (1.0 + u * u))


def soft_gate_value(x: np.ndarray, v_th: float, alpha: float) -> np.ndarray:
    """Antiderivative of :func:`surrogate_slope`, a smooth (0,1) gate."""
    return np.arctan(np.pi * alpha * (x - v_th) / 2.0) / np.pi + 0.5


def spike_gate(x, v_th: float = 1.0, alpha: float = 2.0, soft: bool = False) -> Tensor:
    """Threshold firing nonlinearity.

    Forward emits 1.0 where x >= v_th (exact equality fires), else 0.0.
    Backward uses the arctangent surrogate slope in both variants; with
    ``soft=True`` the forward is replaced by the surrogate's smooth
    antiderivative so analytic and numeric gradients coincide, which is
    what the finite-difference harness runs against.
    """
    x = as_tensor(x)
    if soft:
        out = soft_gate_value(x.data, v_th, alpha)
    else:
        out = (x.data >= v_th).astype(np.float64)
    slope = surrogate_slope(x.data, v_th, alpha)

    def vjp(g):
        _accumulate(x, g * slope)

    return make(out, (x,), vjp)


def elementwise_or(a, b, soft: bool = False) -> Tensor:
    """Binary OR as max(a, b) with straight-through gradient to both inputs.

    ``soft=True`` switches to the probabilistic relaxation a + b - a*b,
    which agrees with OR on {0,1} and is differentiable everywhere.
    """
    a, b = as_tensor(a), as_tensor(b)
    if soft:
        out = a.data + b.data - a.data * b.data

        def vjp(g):
            if a.requires_grad:
                _accumulate(a, g * (1.0 - b.data))
            if b.requires_grad:
                _accumulate(b, g * (1.0 - a.data))
    else:
        out = np.maximum(a.data, b.data)

        def vjp(g):
            if a.requires_grad:
                _accumulate(a, g)
            if b.requires_grad:
                _accumulate(b, g)

    return make(out, (a, b), vjp)
