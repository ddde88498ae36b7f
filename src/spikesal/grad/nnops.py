"""Network-level ops: convolution, pooling, normalization, spike gates.

Convolution is stride-1 only (spatial reduction happens in the pooling
stage) and runs as an im2col matrix product, forward and input-backward
alike, with the weights on the left so that its outputs are C-ordered.
im2col is built as (B, C*k*k, H*W) planes, k*k shifted copies of the
unpadded input into a zeroed buffer, so the GEMMs read a plain operand
and no padded copy is made; a 1x1 kernel without padding uses the input
itself. A recorded conv keeps only its input, not the columns: the
weight-gradient backward builds them again from the input, the same
bytes as the forward's, so the training graph holds no im2col buffer. A
conv of a 2x nearest-upsampled map runs at the map's own resolution
(``upsample_conv2d``). Inputs are NCHW; the per-channel ops
that follow run fastest on C-ordered planes. Every forward allocates in
its input's dtype, so a float32 model computes in float32 from end to
end; a graph-free LIF scan allocates nothing per step.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import (Tensor, as_tensor, grad_enabled, make, relaxed_enabled,
                     _accumulate, _give)


def _im2col(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    # x: unpadded (B, C, H, W) -> (B, C*k*k, H_out*W_out) planes: row (c, i, j)
    # is channel c shifted by (i - pad, j - pad), zero where the shift leaves
    # the input, so the zeroed buffer is the padding. A 1x1 kernel without
    # padding is the input itself, viewed as (B, C, H*W).
    b, c, h, w = x.shape
    if k == 1 and pad == 0:
        return x.reshape(b, c, h * w)
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    col = np.zeros((b, c, k, k, ho, wo), dtype=x.dtype)
    for i in range(k):
        # the output rows whose tap i reads an input row
        r0 = max(0, pad - i)
        r1 = max(r0, min(ho, h + pad - i))
        for j in range(k):
            c0 = max(0, pad - j)
            c1 = max(c0, min(wo, w + pad - j))
            col[:, :, i, j, r0:r1, c0:c1] = \
                x[:, :, r0 + i - pad:r1 + i - pad, c0 + j - pad:c1 + j - pad]
    return col.reshape(b, c * k * k, ho * wo)


def conv2d(x, weight, bias=None, padding: int = 0) -> Tensor:
    """2-d cross-correlation, stride 1.

    x: (B, C_in, H, W), weight: (C_out, C_in, k, k), bias: (C_out,) or None.
    Output spatial size is H + 2*padding - k + 1 per side.

    The node keeps no im2col columns: the weight gradient's backward
    rebuilds them from x, the parent it holds anyway. So x's data must not
    be written in place between this forward and its backward (as
    ``batchnorm_lif`` needs a fresh conv output, this needs an untouched
    conv input); nothing in the model writes a conv input in place.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    b_, cin, h, w = x.data.shape
    cout, cin_w, k, k2 = weight.data.shape
    if cin != cin_w or k != k2:
        raise ValueError("conv2d weight shape mismatch")
    col = _im2col(x.data, k, padding)
    wf = weight.data.reshape(cout, cin * k * k)
    ho, wo = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    # weights on the left: BLAS writes each image's (C_out, H*W) block, so
    # the output is C-ordered NCHW with no transpose copy
    out = np.matmul(wf, col).reshape(b_, cout, ho, wo)
    parents = (x, weight)
    if bias is not None:
        bias = as_tensor(bias)
        out += bias.data.reshape(1, cout, 1, 1)
        parents = (x, weight, bias)

    def vjp(g):
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            gw = _conv_weight_grad(g.reshape(b_, cout, ho * wo),
                                   _im2col(x.data, k, padding))
            _accumulate(weight, gw.reshape(weight.data.shape))
        if x.requires_grad:
            _give(x, _conv_input_grad(g, weight.data, padding))

    return make(out, parents, vjp)


def _conv_weight_grad(g: np.ndarray, col: np.ndarray) -> np.ndarray:
    # (B, C_out, N) output gradients and (B, C_in*k*k, N) im2col planes ->
    # (C_out, C_in*k*k): one GEMM per image, summed; one GEMM over all
    # images would need a (C*k*k, B*N) copy of col, and measured slower
    return np.matmul(g, col.transpose(0, 2, 1)).sum(axis=0)


def _conv_input_grad(g: np.ndarray, w: np.ndarray, padding: int) -> np.ndarray:
    # transposed conv: full correlation of the (B, C_out, H_out, W_out)
    # gradient with the flipped kernel, cropped by ``padding``; a negative
    # margin crops g instead
    b_, cout, ho, wo = g.shape
    cin, k = w.shape[1], w.shape[2]
    q = k - 1 - padding
    gq = g if q >= 0 else g[:, :, -q:ho + q, -q:wo + q]
    wt = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * k * k)
    dx = np.matmul(wt, _im2col(gq, k, max(q, 0)))
    return dx.reshape(b_, cin, ho - 2 * padding + k - 1, wo - 2 * padding + k - 1)


def _phase_taps(k: int, dtype):
    """(m, taps) for a k x k kernel with padding p = (k - 1) // 2 over a 2x
    nearest-upsampled map. Tap u of output row 2i + a reads upsampled row
    2i + a + u - p, which is row i + (a + u - p) // 2 of the map itself, so
    output phase (a, b) is an m x m conv of the map (m = 3 for k = 3):
    taps[2a + b, r*m + s, u*k + v] is 1 where tap (u, v) lands on its tap
    (r, s), else 0."""
    p = (k - 1) // 2
    r0 = (p + 1) // 2
    m = 2 * r0 + 1
    rows = np.zeros((2, m, k), dtype=dtype)
    for a in range(2):
        for u in range(k):
            rows[a, (a + u - p) // 2 + r0, u] = 1
    taps = rows[:, None, :, None, :, None] * rows[None, :, None, :, None, :]
    return m, taps.reshape(4, m * m, k * k)


def upsample_conv2d(x, weight) -> Tensor:
    """``conv2d(nearest_upsample2d(x, 2), weight, padding=(k - 1) // 2)``
    for an odd k x k kernel, computed at x's resolution.

    Each output pixel (2i + a, 2j + b) is a conv of x around (i, j) with
    the phase kernel of (a, b), the taps of ``weight`` that read the same
    pixel of x summed (Shi et al. 2016, arXiv 1609.07009). One GEMM of
    the four phase kernels, stacked as 4*C_out rows, with x's own im2col
    planes gives all four phases, which are then interleaved: no upsampled
    map, and no im2col of one, is built. The summed taps round once more,
    so values agree with the composed form to rounding, not to the byte.
    As in ``conv2d``, the backward rebuilds x's im2col planes, so x must
    not be written in place before it runs.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    b_, cin, h, w = x.data.shape
    cout, cin_w, k, k2 = weight.data.shape
    if cin != cin_w or k != k2 or k % 2 == 0:
        raise ValueError("upsample_conv2d needs an odd square kernel over "
                         "the input's channels")
    m, taps = _phase_taps(k, weight.data.dtype)
    # (4, C_out*C_in, m*m): the phase kernels, GEMM rows (a, b, c_out)
    wp = np.matmul(weight.data.reshape(cout * cin, k * k),
                   taps.transpose(0, 2, 1))
    col = _im2col(x.data, m, m // 2)
    y = np.matmul(wp.reshape(4 * cout, cin * m * m), col) \
        .reshape(b_, 2, 2, cout, h, w)
    out = np.empty((b_, cout, 2 * h, 2 * w), dtype=y.dtype)
    for a in range(2):
        for b in range(2):
            out[:, :, a::2, b::2] = y[:, a, b]

    def vjp(g):
        gy = np.empty((b_, 2, 2, cout, h, w), dtype=g.dtype)
        for a in range(2):
            for b in range(2):
                gy[:, a, b] = g[:, :, a::2, b::2]
        gy = gy.reshape(b_, 4 * cout, h * w)
        if weight.requires_grad:
            gwp = _conv_weight_grad(gy, _im2col(x.data, m, m // 2)) \
                .reshape(4, cout * cin, m * m)
            gw = np.matmul(gwp, taps).sum(axis=0)
            _give(weight, gw.reshape(weight.data.shape))
        if x.requires_grad:
            _give(x, _conv_input_grad(gy.reshape(b_, 4 * cout, h, w),
                                      wp.reshape(4 * cout, cin, m, m), m // 2))

    return make(out, (x, weight), vjp)


def _blur_rows(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # valid 1-d correlation along H: each output row is one BLAS gemv of the
    # column-major (W, k) window matrix with the taps
    return sliding_window_view(x, taps.shape[0], axis=-2) @ taps


def blur_valid(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Valid 2-d correlation of the last two axes of ``x`` with the separable
    kernel outer(taps, taps): (..., H, W) -> (..., H-k+1, W-k+1), C-ordered.

    The H pass runs first; the W pass is the same gemv pass over a C-ordered
    transpose of its output, so both run in BLAS. Each output is one gemv
    row of k products, and the bytes are the same at 1 and 2 BLAS threads;
    a banded GEMM blur is faster, but its bytes change with the thread
    count.
    """
    taps = np.ascontiguousarray(taps, dtype=np.float64)
    # the H pass's output goes as soon as its transposed copy exists
    rows = np.ascontiguousarray(np.swapaxes(_blur_rows(x, taps), -1, -2))
    cols = _blur_rows(rows, taps)
    del rows
    return np.ascontiguousarray(np.swapaxes(cols, -1, -2))


def blur_adjoint(g: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`blur_valid`: the full correlation of ``g`` with the
    reversed taps, (..., h, w) -> (..., h+k-1, w+k-1)."""
    k = len(taps)
    h, w = g.shape[-2:]
    padded = np.zeros(g.shape[:-2] + (h + 2 * k - 2, w + 2 * k - 2),
                      dtype=g.dtype)
    padded[..., k - 1:k - 1 + h, k - 1:k - 1 + w] = g
    return blur_valid(padded, np.asarray(taps)[::-1])


def maxpool2d(x) -> Tensor:
    """2x2 max pooling, stride 2. Ties route gradient to the first maximum
    in window scan order (top-left first). The output is C-ordered whatever
    the input's layout."""
    x = as_tensor(x)
    b, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError("maxpool2d needs even spatial dims")
    # np.maximum returns its second operand on ties, so each later phase
    # goes first and an equal later value (-0.0 after +0.0) never wins. Of
    # two NaNs it returns the first operand: only a window holding NaNs of
    # different bit patterns reads the later NaN where argmax took the first.
    xd = x.data
    out = np.empty((b, c, h // 2, w // 2), dtype=xd.dtype)
    np.maximum(xd[:, :, 0::2, 1::2], xd[:, :, 0::2, 0::2], out=out)
    np.maximum(xd[:, :, 1::2, 0::2], out, out=out)
    np.maximum(xd[:, :, 1::2, 1::2], out, out=out)

    def vjp(g):
        # the first phase in scan order that holds the maximum (or a NaN,
        # which is what made the maximum NaN) takes g, as argmax picks it;
        # the last phase takes the windows still free. Each phase is written
        # once, as the bits of g times its 0/1 mask: g where it won, +0.0
        # elsewhere, exactly (inf, NaN and -0.0 included)
        dx = np.empty((b, c, h, w), dtype=g.dtype)
        ints = np.dtype(f"i{g.itemsize}")
        bits, gbits = dx.view(ints), g.view(ints)
        free = np.ones(out.shape, dtype=bool)
        nan = np.isnan(out).any()
        for i, j in ((0, 0), (0, 1), (1, 0)):
            xp = xd[:, :, i::2, j::2]
            hit = xp == out
            if nan:
                hit |= xp != xp
            hit &= free
            np.multiply(gbits, hit, out=bits[:, :, i::2, j::2])
            free ^= hit
        np.multiply(gbits, free, out=bits[:, :, 1::2, 1::2])
        _give(x, dx)

    return make(out, (x,), vjp)


def nearest_upsample2d(x, factor: int) -> Tensor:
    """Nearest-neighbour upsampling by an integer factor."""
    x = as_tensor(x)
    b, c, h, w = x.data.shape
    # repeat along W, then one broadcast copy of whole rows into a C-ordered
    # output; broadcasting single elements instead copies in runs of one
    rows = x.data.repeat(factor, axis=3)[:, :, :, None, :]
    out = np.broadcast_to(rows, (b, c, h, factor, w * factor)) \
        .reshape(b, c, h * factor, w * factor)

    def vjp(g):
        # the factor**2 strided phases, each row of phases summed in j order
        # and the rows added in i order onto +0.0: the order the reduction
        # over a (.., factor, .., factor) view of a C-ordered g adds them
        # in, so only the sign bit of a NaN can differ
        dx = np.zeros(x.data.shape)
        for i in range(factor):
            row = g[:, :, i::factor, 0::factor]
            for j in range(1, factor):
                row = row + g[:, :, i::factor, j::factor]
            dx += row
        _give(x, dx)

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
            _give(x, (g2 @ weight.data).reshape(*lead, n_in))

    return make(out, parents, vjp)


BN_EPS = 1e-5


def _channel_axes(x: np.ndarray):
    # the axes batchnorm reduces over (all but axis 1), and the shape that
    # broadcasts a per-channel vector over x
    return ((0,) + tuple(range(2, x.ndim)),
            (1, x.shape[1]) + (1,) * (x.ndim - 2))


def _normalize(xd: np.ndarray, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool, momentum: float,
               eps: float, out=None):
    """batchnorm's (xhat, inv): ``xd`` centred by its batch mean (training,
    which also updates the running statistics in place) or by the running
    mean, then scaled by inv = 1 / sqrt(var + eps). ``out`` takes xhat; it
    may be ``xd`` itself."""
    axes, bshape = _channel_axes(xd)
    m = xd.size // xd.shape[1]
    mu = xd.mean(axis=axes) if training else running_mean
    xhat = np.subtract(xd, mu.reshape(bshape), out=out)
    if training:
        # the sum np.var takes, over the same centred values
        var = np.square(xhat).sum(axis=axes) / m
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * (var * m / max(m - 1, 1))
    else:
        var = running_var

    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv.reshape(bshape)
    return xhat, inv


def batchnorm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
              training: bool, momentum: float = 0.1, eps: float = BN_EPS) -> Tensor:
    """Batch normalization over axis 1 (channels); statistics over every
    other axis. Callers fold any step/time dimension into the batch axis
    before calling, so statistics cover steps x batch x spatial.

    ``running_mean``/``running_var`` are plain arrays mutated in place when
    ``training`` (exponential update, unbiased variance), read otherwise.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    axes, bshape = _channel_axes(x.data)
    m = x.data.size // x.data.shape[1]
    xhat, inv = _normalize(x.data, running_mean, running_var, training,
                           momentum, eps)
    out = xhat * gamma.data.reshape(bshape)
    out += beta.data.reshape(bshape)

    def vjp(g):
        # g.mean(axes) is this sum over m, so one reduction serves both
        gsum = g.sum(axis=axes)
        if beta.requires_grad:
            _accumulate(beta, gsum)
        gx = (g * xhat).sum(axis=axes)
        if gamma.requires_grad:
            _accumulate(gamma, gx)
        if x.requires_grad:
            gi = gamma.data.reshape(bshape) * inv.reshape(bshape)
            if training:
                gmean = (gsum / m).reshape(bshape)
                gxhat = gx.reshape(bshape) / m
                _give(x, gi * (g - gmean - xhat * gxhat))
            else:
                _give(x, gi * g)

    return make(out, (x, gamma, beta), vjp)


def _normalized_vjp(g, x, xhat, inv, gamma, beta, scratch):
    # training batchnorm's backward for the gradient g of its output, with
    # the expressions and operand order of ``batchnorm``'s, in place: g
    # takes g - gmean, and xhat, whose values are not needed again, takes
    # xhat * gxhat and then the input gradient, which keeps the layout that
    # (g - gmean) - xhat * gxhat gave for any g when xhat is C-ordered. The
    # product g * xhat goes into ``scratch`` where that has its layout.
    axes, bshape = _channel_axes(xhat)
    m = xhat.size // xhat.shape[1]
    gsum = g.sum(axis=axes)
    if beta.requires_grad:
        _accumulate(beta, gsum)
    fits = scratch.dtype == g.dtype and scratch.strides == g.strides \
        == xhat.strides
    gx = np.multiply(g, xhat, out=scratch if fits else None).sum(axis=axes)
    if gamma.requires_grad:
        _accumulate(gamma, gx)
    if x.requires_grad:
        gi = gamma.data.reshape(bshape) * inv.reshape(bshape)
        gmean = (gsum / m).reshape(bshape)
        gxhat = gx.reshape(bshape) / m
        g -= gmean
        xhat *= gxhat
        np.subtract(g, xhat, out=xhat)
        _give(x, np.multiply(gi, xhat, out=xhat))


def surrogate_slope(x: np.ndarray, v_th: float, alpha: float,
                    out=None) -> np.ndarray:
    """Arctangent-family surrogate derivative alpha / (2*(1 + (pi*alpha*(x-v_th)/2)^2)),
    written into ``out`` when given (which may be ``x`` itself)."""
    # pi*alpha*(x-v_th)/2, then alpha/(2*(1+u*u)), in one buffer
    u = np.subtract(x, v_th, out=out)
    u *= np.pi * alpha
    u /= 2.0
    u *= u
    u += 1.0
    u *= 2.0
    return np.divide(alpha, u, out=u)


def soft_gate_value(x: np.ndarray, v_th: float, alpha: float) -> np.ndarray:
    """Antiderivative of :func:`surrogate_slope`, a smooth (0,1) gate."""
    return np.arctan(np.pi * alpha * (x - v_th) / 2.0) / np.pi + 0.5


def spike_gate(x, v_th: float = 1.0, alpha: float = 2.0) -> Tensor:
    """Threshold firing nonlinearity.

    Forward emits 1.0 where x >= v_th (exact equality fires), else 0.0.
    Backward uses the arctangent surrogate slope in both variants; under
    :class:`relaxed` the forward is replaced by the surrogate's smooth
    antiderivative so analytic and numeric gradients coincide, which is
    what the finite-difference harness runs against.
    """
    x = as_tensor(x)
    if relaxed_enabled():
        out = soft_gate_value(x.data, v_th, alpha)
    else:
        out = (x.data >= v_th).astype(x.data.dtype)

    def vjp(g):
        # the slope is only needed here, so graph-free forwards never pay for it
        _give(x, g * surrogate_slope(x.data, v_th, alpha))

    return make(out, (x,), vjp)


def lif_scan(x, steps: int, tau: float, v_th: float, v_reset: float,
             alpha: float, v=None):
    """Leaky integrate-and-fire over the ``steps`` slices of a folded
    (steps*B, ...) input, as one graph node. Returns (v_next, spikes).

    ``v`` is the (B, ...) membrane carried in, or None for a fresh v_reset
    membrane. Step t charges, fires and resets with the hard gate

        H = V + (X_t - (V - v_reset)) / tau     (X_t / tau + v_reset if fresh)
        S_t = 1 where H >= v_th else 0
        V = H * (1 - S_t) + S_t * v_reset

    and the backward is the reverse scan, with the reset switch detached:

        gH = gS_t * slope(H) [+ gV * (1 - S_t)],  gX_t = gH / tau,
        gV = gH - gH / tau

    Values equal those the same hard steps give when written as separate
    elementwise graph ops on per-step slices of the input, joined by
    ``concat``. Layouts follow x alone: H, each step's spikes and the
    returned membrane take the layout of x's first step slice, whatever the
    carried membrane's layout. The separate ops give the same layouts when
    ``v`` is None or shares x's layout; for a ``v`` of another layout they
    mix the two (a C-ordered ``v`` with a channels-innermost x gives them
    C-ordered outputs).

    Under :class:`relaxed` the gate is the smooth ``soft_gate_value(H)`` and
    the reset keeps its gradient, so the spike gradient gains a reset term:

        gH = (gS_t + gV * (v_reset - H)) * slope(H) + gV * (1 - S_t)
    """
    return _scan(x, steps, tau, v_th, v_reset, alpha, v, membrane=True)


def lif_fire(x, tau: float, v_th: float, v_reset: float, alpha: float) -> Tensor:
    """The spikes of ``lif_scan(x, 1, tau, v_th, v_reset, alpha)``: one step
    of every element from a fresh v_reset membrane. The membrane that call
    would also return is never computed."""
    return _scan(x, 1, tau, v_th, v_reset, alpha, None, membrane=False)[1]


def batchnorm_lif(y, gamma, beta, running_mean: np.ndarray,
                  running_var: np.ndarray, steps: int, tau: float, v_th: float,
                  v_reset: float, alpha: float, v=None, membrane: bool = True):
    """Training-mode ``batchnorm(y, gamma, beta, ...)``, with its default
    momentum and eps, followed by ``lif_scan`` (or, without ``membrane``, by ``lif_fire``, and the
    returned membrane is None) as one graph node. Spikes, membrane,
    running statistics and the gradients of y, gamma, beta and v are the
    bytes the two separate calls give.

    The node keeps fewer arrays than the two. It centres y in place, so
    y's data is overwritten (it holds the normalized values afterwards and
    is the buffer of y's gradient): pass only a y that nothing else reads,
    such as a fresh conv output. Each step's gamma * xhat + beta is written
    straight into that step's charge H, so no batchnorm output exists. The
    backward turns each saved H into its surrogate slope in place, as
    every recording scan does, then runs batchnorm's backward in place
    over the scan's gradient and xhat, with the spikes' gradient as the
    scratch of the gamma gradient's product."""
    norm = (as_tensor(gamma), as_tensor(beta), running_mean, running_var)
    return _scan(y, steps, tau, v_th, v_reset, alpha, v, membrane=membrane,
                 norm=norm)


def _scan(x, steps, tau, v_th, v_reset, alpha, v, *, membrane: bool,
          norm=None):
    # ``membrane``: compute and return the final membrane, else return None
    # in its place and skip the last step's reset. Every step's spikes go
    # into one output, laid out as the concatenated steps; one keep and one
    # membrane buffer serve all steps, each op writing in place. The
    # caller's membrane is read, never written, and x may be a zero-stride
    # view that repeats one image over the steps. A graph-free scan reuses
    # one h; a recording one keeps each step's h for its backward, which
    # turns it into its surrogate slope in place.
    # ``norm``: (gamma, beta, running_mean, running_var) of a training-mode
    # batchnorm, with its default momentum and eps, that x passes first
    # (``batchnorm_lif``).
    x = as_tensor(x)
    v = None if v is None else as_tensor(v)
    xd = x.data
    n = xd.shape[0]
    if steps < 1 or n % steps:
        raise ValueError("folded batch not divisible by steps")
    b = n // steps
    vd = None if v is None else v.data
    parents = (x,)
    if norm is not None:
        gamma, beta, running_mean, running_var = norm
        parents = (x, gamma, beta)      # the order batchnorm's node had
        _, bshape = _channel_axes(xd)
        xd, inv = _normalize(xd, running_mean, running_var, True, 0.1, BN_EPS,
                             out=xd)
        gb = gamma.data.reshape(bshape)
        bb = beta.data.reshape(bshape)
    if v is not None:
        parents += (v,)
    record = grad_enabled() and any(p.requires_grad for p in parents)
    soft = relaxed_enabled()
    first = xd[:b]
    # h takes the dtype separate ops would give it, and x's layout
    kind = first.dtype if norm is None else np.result_type(first, gb)
    dtype = np.result_type(kind, tau) if vd is None \
        else np.result_type(kind, vd)
    keep = np.empty_like(first, dtype=dtype)
    s = np.empty_like(keep, shape=xd.shape)
    v_next = np.empty_like(keep) if membrane or steps > 1 else None
    hs = []
    for t in range(steps):
        if record or not hs:
            hs.append(np.empty_like(keep))
        h = hs[-1]
        xt = xd[t * b:(t + 1) * b]
        st = s[t * b:(t + 1) * b]
        if norm is not None:            # the batchnorm output, into h
            xt = np.multiply(xt, gb, out=h)
            xt += bb
        if vd is None:
            np.divide(xt, tau, out=h)
            h += v_reset
        else:
            np.subtract(vd, v_reset, out=keep)
            np.subtract(xt, keep, out=h)
            h /= tau
            np.add(vd, h, out=h)
        if soft:
            st[...] = soft_gate_value(h, v_th, alpha)
        else:
            np.greater_equal(h, v_th, out=st)
        if membrane or t < steps - 1:
            np.subtract(1.0, st, out=keep)
            keep *= h
            vd = np.multiply(st, v_reset, out=v_next)
            vd += keep
    if not record:
        return (Tensor(vd) if membrane else None), Tensor(s)
    carry = [None]              # gradient that reaches the returned membrane

    def vjp(g):
        gv = carry[0]
        want_v = v is not None and v.requires_grad
        # several steps: every row is written, and the result gets the
        # input's layout, as summing one zero-padded gradient per step gave
        gx = np.empty_like(xd) if steps > 1 else None
        keep = None
        for t in reversed(range(steps)):
            rows = slice(t * b, (t + 1) * b)
            gs = g[rows]
            if soft and gv is not None:     # the relaxed reset's gate term
                gs = gs + gv * (v_reset - hs[t])
            gh = surrogate_slope(hs[t], v_th, alpha, out=hs[t])
            if t == 0 and (steps == 1 or want_v) and gs.strides != gh.strides:
                gh = gs * gh            # the layout the separate ops gave
            else:
                gh *= gs
            if gv is not None:
                keep = np.subtract(1.0, s[rows], out=keep)
                keep *= gv
                gh += keep
            if steps == 1:
                gx = gh / tau
            else:
                np.divide(gh, tau, out=gx[rows])
            gv = None
            if t or want_v:
                gv = np.subtract(gh, gx[rows], out=gh)
        if steps > 1:
            gx += 0.0       # -0.0 -> +0.0, as adding the zero padding did
        if want_v:
            _accumulate(v, gv)
        if norm is not None:
            # g, the spikes' gradient, is read no more
            _normalized_vjp(gx, x, xd, inv, gamma, beta, g)
        elif x.requires_grad:
            _give(x, gx)

    s_out = make(s, parents, vjp)
    if not membrane:
        return None, s_out

    def vjp_v(g):
        carry[0] = g
        if s_out.grad is None:  # the scan must run for a membrane-only gradient
            s_out.grad = np.zeros_like(s)

    return make(vd, (s_out,), vjp_v), s_out


def elementwise_or(a, b) -> Tensor:
    """Binary OR as max(a, b) with straight-through gradient to both inputs.

    Under :class:`relaxed` it is the probabilistic relaxation a + b - a*b,
    which agrees with OR on {0,1} and is differentiable everywhere.
    """
    a, b = as_tensor(a), as_tensor(b)
    if relaxed_enabled():
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
