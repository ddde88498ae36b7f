"""Finite-difference verification of every differentiable op, plus engine
bookkeeping (accumulation, graph reuse, single-use graphs, serialization)."""

import json
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from spikesal import grad as G
from spikesal import metrics, neuro, rst
from spikesal import spikeio as sio
from spikesal.cli import main
from spikesal.grad import nnops, store
from spikesal.grad.tensor import _accumulate, _give, make
from spikesal.objective import LossConfig, map_loss, multi_step_loss
from spikesal.optim import AdamW
from spikesal.rst import RSTConfig, RSTModel
from spikesal.simcam import GeneratorConfig, generate_dataset
from spikesal.train import model_from_checkpoint, rate_readout, window_repr

from checkpoint_models import FIXTURE, float64_model
from test_neuro import separate_lif_fire, separate_lif_step

TOL = 1e-4
H = 1e-3


def readout(rng, shape):
    """Upstream weights with |w| in [0.5, 1.5] so no element's gradient
    vanishes; keeps the relative FD error meaningful everywhere."""
    return G.Tensor(rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape))


def margin_pool_input(rng, shape, margin=0.2):
    """Random input whose 2x2 window maxima win by >= margin, so a +-h
    perturbation never flips the argmax and FD stays valid."""
    b, c, h, w = shape
    x = rng.standard_normal(shape)
    flat = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5) \
        .reshape(b, c, h // 2, w // 2, 4)
    idx = np.argmax(flat, -1)
    top = np.take_along_axis(flat, idx[..., None], -1)
    np.put_along_axis(flat, idx[..., None], top + margin, -1)
    return flat.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5) \
        .reshape(shape)


def test_add_sub_mul_div_broadcast():
    rng = np.random.default_rng(0)
    a = G.Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    b = G.Tensor(rng.uniform(0.5, 2.0, (4, 1)), requires_grad=True)
    r = readout(rng, (3, 4, 5))

    def f():
        return G.sum_((G.add(a, b) * G.sub(a, b) + G.div(a, b)) * r)

    assert G.check_gradients(f, [a, b], h=H) < TOL


def test_pow_log_exp_sigmoid():
    rng = np.random.default_rng(1)
    a = G.Tensor(rng.uniform(0.5, 2.0, (4, 6)), requires_grad=True)
    r = readout(rng, (4, 6))

    def f():
        y = G.pow_(a, 1.7) + G.log(a) + G.exp(-a) + G.sigmoid(a)
        return G.sum_(y * r)

    assert G.check_gradients(f, [a], h=H) < TOL


def test_clip_passthrough_and_flat_regions():
    rng = np.random.default_rng(2)
    # keep samples away from the clip edges so FD sees a constant branch
    a = G.Tensor(np.concatenate([rng.uniform(-0.8, -0.3, 10),
                                 rng.uniform(0.3, 0.8, 10),
                                 rng.uniform(1.3, 1.9, 10)]), requires_grad=True)
    r = readout(rng, (30,))

    def f():
        return G.sum_(G.clip(a, 0.0, 1.0) * r)

    assert G.check_gradients(f, [a], h=H) < TOL
    a.grad = None
    G.sum_(G.clip(a, 0.0, 1.0)).backward()
    inside = (a.data > 0.0) & (a.data < 1.0)
    assert np.array_equal(a.grad, inside.astype(float))


def test_matmul_stacked_and_broadcast():
    rng = np.random.default_rng(3)
    a = G.Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
    b = G.Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    r = readout(rng, (2, 3, 4, 6))

    def f():
        return G.sum_(G.matmul(a, b) * r)

    assert G.check_gradients(f, [a, b], h=H) < TOL


def test_linear():
    rng = np.random.default_rng(4)
    x = G.Tensor(rng.standard_normal((3, 7, 5)), requires_grad=True)
    w = G.Tensor(rng.standard_normal((4, 5)) * 0.4, requires_grad=True)
    b = G.Tensor(rng.standard_normal(4) * 0.2, requires_grad=True)
    r = readout(rng, (3, 7, 4))

    def f():
        return G.sum_(G.linear(x, w, b) * r)

    assert G.check_gradients(f, [x, w, b], h=H) < TOL


def test_conv2d_padded_and_unpadded():
    rng = np.random.default_rng(5)
    x = G.Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
    w = G.Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.3, requires_grad=True)
    b = G.Tensor(rng.standard_normal(4) * 0.2, requires_grad=True)

    for pad in (0, 1):
        out_hw = 6 + 2 * pad - 2
        r = readout(rng, (2, 4, out_hw, out_hw))

        def f():
            return G.sum_(G.conv2d(x, w, b, padding=pad) * r)

        assert G.check_gradients(f, [x, w, b], h=H) < TOL


def test_conv2d_matches_direct_loops():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    out = G.conv2d(G.Tensor(x), G.Tensor(w), padding=1).data
    ref = np.zeros((1, 3, 5, 5))
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for co in range(3):
        for i in range(5):
            for j in range(5):
                ref[0, co, i, j] = (xp[0, :, i:i + 3, j:j + 3] * w[co]).sum()
    assert np.allclose(out, ref, atol=1e-12)


def conv2d_input_grad_scatter(x, w, g, padding):
    """Input gradient of conv2d by the k x k scatter loop it used to run:
    each kernel tap adds its slice of the im2col gradient into the padded
    input."""
    b, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho, wo = g.shape[2], g.shape[3]
    gr = g.transpose(0, 2, 3, 1).reshape(b, ho * wo, cout)
    dcol = (gr @ w.reshape(cout, cin * k * k)).reshape(b, ho, wo, cin, k, k)
    dxp = np.zeros((b, cin, h + 2 * padding, wd + 2 * padding))
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + ho, j:j + wo] += \
                dcol[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    if padding:
        dxp = dxp[:, :, padding:-padding, padding:-padding]
    return dxp


@pytest.mark.parametrize("k", [1, 3, 11])
@pytest.mark.parametrize("pad", [0, 1, 2])
def test_conv2d_input_grad_matches_scatter_loop(k, pad):
    """Pad 2 with k = 1 (or 3) gives a negative margin, so the gradient is
    cropped instead of padded."""
    rng = np.random.default_rng(100 + 10 * k + pad)
    x = G.Tensor(rng.standard_normal((2, 3, 13, 12)), requires_grad=True)
    w = rng.standard_normal((4, 3, k, k))
    out = G.conv2d(x, G.Tensor(w), padding=pad)
    g = rng.standard_normal(out.shape)
    out.backward(g)
    ref = conv2d_input_grad_scatter(x.data, w, g, pad)
    np.testing.assert_allclose(x.grad, ref, rtol=1e-12,
                               atol=1e-12 * np.abs(ref).max())


def test_blur_valid_matches_conv2d_and_its_adjoint():
    rng = np.random.default_rng(7)
    # asymmetric taps, so a missing reversal in the adjoint shows
    taps = rng.uniform(0.1, 1.0, 4)
    x = rng.standard_normal((2, 3, 9, 8))
    kern = np.broadcast_to(np.outer(taps, taps), (1, 1, 4, 4))
    per_channel = np.stack([
        G.conv2d(G.Tensor(x[:, c:c + 1]), G.Tensor(kern)).data[:, 0]
        for c in range(3)], axis=1)
    blurred = nnops.blur_valid(x, taps)
    np.testing.assert_allclose(blurred, per_channel, rtol=1e-12, atol=1e-12)
    # <blur_valid(x), r> = <x, blur_adjoint(r)>
    r = rng.standard_normal(blurred.shape)
    np.testing.assert_allclose(np.vdot(x, nnops.blur_adjoint(r, taps)),
                               np.vdot(blurred, r), rtol=1e-12)


def test_maxpool_gradient_and_tie_break():
    rng = np.random.default_rng(7)
    x = G.Tensor(margin_pool_input(rng, (2, 3, 8, 8)), requires_grad=True)
    r = readout(rng, (2, 3, 4, 4))

    def f():
        return G.sum_(G.maxpool2d(x) * r)

    assert G.check_gradients(f, [x], h=H) < TOL

    # exact tie: all four equal, gradient goes to the first in scan order
    t = G.Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    G.sum_(G.maxpool2d(t)).backward()
    assert t.grad[0, 0, 0, 0] == 1.0 and t.grad.sum() == 1.0


def test_nearest_upsample():
    rng = np.random.default_rng(8)
    x = G.Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    for factor in (2, 4):
        r = readout(rng, (2, 3, 4 * factor, 4 * factor))

        def f():
            return G.sum_(G.nearest_upsample2d(x, factor) * r)

        assert G.check_gradients(f, [x], h=H) < TOL
    up = G.nearest_upsample2d(G.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]), 2).data
    assert np.array_equal(up[0, 0], [[1, 1, 2, 2], [1, 1, 2, 2],
                                     [3, 3, 4, 4], [3, 3, 4, 4]])


@pytest.mark.parametrize("k", [1, 3, 5])
def test_upsample_conv2d_gradients(k):
    rng = np.random.default_rng(9 + k)
    x = G.Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
    w = G.Tensor(rng.standard_normal((4, 3, k, k)) * 0.3, requires_grad=True)
    r = readout(rng, (2, 4, 8, 10))

    def f():
        return G.sum_(G.upsample_conv2d(x, w) * r)

    assert G.check_gradients(f, [x, w], h=H) < TOL
    with pytest.raises(ValueError):
        G.upsample_conv2d(x, G.Tensor(np.zeros((4, 3, 2, 2))))


def test_batchnorm_train_and_eval():
    rng = np.random.default_rng(9)
    x = G.Tensor(rng.standard_normal((4, 3, 5, 5)), requires_grad=True)
    gm = G.Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    bt = G.Tensor(rng.standard_normal(3) * 0.2, requires_grad=True)
    r = readout(rng, (4, 3, 5, 5))

    def f_train():
        return G.sum_(G.batchnorm(x, gm, bt, np.zeros(3), np.ones(3), True) * r)

    def f_eval():
        return G.sum_(G.batchnorm(x, gm, bt, np.full(3, 0.3), np.full(3, 1.7), False) * r)

    assert G.check_gradients(f_train, [x, gm, bt], h=H) < TOL
    assert G.check_gradients(f_eval, [x, gm, bt], h=H) < TOL


def test_batchnorm_normalizes_and_tracks_running_stats():
    rng = np.random.default_rng(10)
    x = G.Tensor(rng.standard_normal((8, 2, 6, 6)) * 3.0 + 1.0)
    gm, bt = G.Tensor(np.ones(2)), G.Tensor(np.zeros(2))
    rm, rv = np.zeros(2), np.ones(2)
    y = G.batchnorm(x, gm, bt, rm, rv, training=True, momentum=0.1)
    assert np.allclose(y.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    assert np.allclose(y.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)
    mu = x.data.mean(axis=(0, 2, 3))
    m = x.data.size // 2
    var_u = x.data.var(axis=(0, 2, 3)) * m / (m - 1)
    assert np.allclose(rm, 0.1 * mu, atol=1e-12)
    assert np.allclose(rv, 0.9 + 0.1 * var_u, atol=1e-12)


# -- byte identity of the im2col, pooling, upsampling and batchnorm kernels ---
#
# The kernels below are the earlier implementations, kept as oracles: the
# current ones move less memory but must give the same bytes, outputs and
# gradients alike, and keep the output layout, because numpy reductions
# downstream (batchnorm sums, bias gradients) round in memory order.


def pad2(x, pad):
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def im2col_transpose_copy(xp, k):
    """im2col rows, (B, H_out*W_out, C*k*k), of a padded input as a
    transposed copy of the sliding-window view."""
    b, c, hp, wp = xp.shape
    win = sliding_window_view(xp, (k, k), axis=(2, 3))  # (B,C,Ho,Wo,k,k)
    ho, wo = win.shape[2], win.shape[3]
    col = win.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * k * k)
    return np.ascontiguousarray(col)


def im2col_gather(xp, k):
    """The same rows as one np.take gather: column (c, i, j) of row (ho, wo)
    is flat element c*Hp*Wp + (ho+i)*Wp + (wo+j) of the padded input."""
    b, c, hp, wp = xp.shape
    ho, wo = hp - k + 1, wp - k + 1
    rows = (np.arange(ho)[:, None] * wp + np.arange(wo)).reshape(-1)
    taps = (np.arange(c)[:, None, None] * (hp * wp)
            + np.arange(k)[:, None] * wp + np.arange(k)).reshape(-1)
    return np.take(xp.reshape(b, c * hp * wp), rows[:, None] + taps, axis=1)


def im2col_planes(x, k, pad):
    """``nnops._im2col`` from the gathered rows of the padded input: their
    C-ordered transpose, (B, C*k*k, H_out*W_out)."""
    return np.ascontiguousarray(im2col_gather(pad2(x, pad), k).transpose(0, 2, 1))


def maxpool2d_argmax(x):
    """2x2 max pooling by argmax and take_along_axis in the forward."""
    x = G.as_tensor(x)
    b, c, h, w = x.data.shape
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


def upsample2d_two_repeats(x, factor):
    """Nearest upsampling as two repeat passes."""
    x = G.as_tensor(x)
    b, c, h, w = x.data.shape
    out = x.data.repeat(factor, axis=2).repeat(factor, axis=3)

    def vjp(g):
        _accumulate(x, g.reshape(b, c, h, factor, w, factor).sum(axis=(3, 5)))

    return make(out, (x,), vjp)


def batchnorm_four_pass(x, gamma, beta, running_mean, running_var,
                        training, momentum=0.1, eps=1e-5):
    """Batchnorm with np.var and four full-size temporaries."""
    x, gamma, beta = G.as_tensor(x), G.as_tensor(gamma), G.as_tensor(beta)
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


def channels_innermost(a):
    """The same values in the layout conv2d returns: a (B, C, ...) view of
    a channels-last buffer."""
    order = (0,) + tuple(range(2, a.ndim)) + (1,)
    back = (0, a.ndim - 1) + tuple(range(1, a.ndim - 1))
    return np.ascontiguousarray(a.transpose(order)).transpose(back)


def layouts(a):
    return {"C": np.ascontiguousarray(a), "channels-innermost": channels_innermost(a)}


def run_op(op, x, *params, grad_layout=None, **kw):
    """Forward, then backward of a fixed upstream gradient (in
    ``grad_layout``, if given); returns the output and every input's
    gradient. Inputs keep their layout."""
    ts = [G.Tensor(a, requires_grad=True) for a in (x,) + params]
    out = op(*ts, **kw)
    g = np.random.default_rng(0).standard_normal(out.shape)
    if grad_layout is not None:
        g = grad_layout(g)
    out.backward(g)
    return out, [t.grad for t in ts]


def assert_same_bytes(new, old):
    assert new.shape == old.shape and new.strides == old.strides
    assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("layout", ["C", "channels-innermost"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("pad", [0, 1, 2])
def test_conv2d_one_gather_im2col_is_byte_identical(monkeypatch, layout, k, pad):
    """The shifted-copy planes hold the bytes of the transposed rows that
    the gather and the sliding-window copy take from the padded input; a
    1x1 kernel without padding copies nothing. With the planes built from
    the gather, conv2d gives the same bytes, outputs and gradients."""
    rng = np.random.default_rng(200 + 10 * k + pad)
    x = layouts(rng.standard_normal((3, 4, 7, 9)))[layout]
    w = rng.standard_normal((5, 4, k, k))
    bias = rng.standard_normal(5)
    col = nnops._im2col(x, k, pad)
    rows = im2col_transpose_copy(pad2(x, pad), k)
    assert_same_bytes(rows, im2col_gather(pad2(x, pad), k))
    assert col.shape == rows.transpose(0, 2, 1).shape
    assert col.tobytes() == rows.transpose(0, 2, 1).tobytes()
    if k == 1 and pad == 0:
        assert np.shares_memory(col, x)
    else:
        assert col.flags.c_contiguous

    def conv(x, w, b):
        return G.conv2d(x, w, b, padding=pad)

    new, new_grads = run_op(conv, x, w, bias)
    monkeypatch.setattr(nnops, "_im2col", im2col_planes)
    old, old_grads = run_op(conv, x, w, bias)
    assert_same_bytes(new.data, old.data)
    for gn, go in zip(new_grads, old_grads):
        assert_same_bytes(gn, go)


def pool_patterns(values):
    """Every 2x2 window over ``values``, one window per channel: (1, n^4, 2, 2)."""
    pats = np.array(np.meshgrid(*[values] * 4, indexing="ij")).reshape(4, -1).T
    return np.ascontiguousarray(pats.reshape(1, -1, 2, 2))


@pytest.mark.parametrize("x", [
    pytest.param(np.random.default_rng(30).standard_normal((2, 3, 6, 8)), id="normal"),
    pytest.param(pool_patterns([0.0, 1.0]), id="binary"),
    pytest.param(pool_patterns([-0.0, 0.0, 1.0]), id="signed-zero"),
    pytest.param(pool_patterns([np.nan, -np.inf, 0.0, 1.0]), id="nan"),
])
@pytest.mark.parametrize("layout", ["C", "channels-innermost"])
def test_maxpool_strided_max_is_byte_identical(x, layout):
    x = layouts(x)[layout]
    new, (gn,) = run_op(G.maxpool2d, x)
    old, (go,) = run_op(maxpool2d_argmax, x)
    assert new.data.flags.c_contiguous
    assert_same_bytes(new.data, old.data)
    assert_same_bytes(gn, go)


@pytest.mark.parametrize("factor", [2, 4])
@pytest.mark.parametrize("layout", ["C", "channels-innermost"])
def test_nearest_upsample_is_byte_identical(factor, layout):
    x = layouts(np.random.default_rng(31).standard_normal((2, 3, 4, 5)))[layout]
    new, (gn,) = run_op(G.nearest_upsample2d, x, factor=factor)
    old, (go,) = run_op(upsample2d_two_repeats, x, factor=factor)
    assert new.data.flags.c_contiguous
    assert_same_bytes(new.data, old.data)
    assert_same_bytes(gn, go)


@pytest.mark.parametrize("factor", [2, 3])
def test_nearest_upsample_backward_keeps_zero_signs_and_infinities(factor):
    """Upstream gradients of signed zeros, +-1 and +inf give the bytes the
    reduction gives (no NaN arises: a NaN's sign bit is the one thing the
    two may differ in); a window of -0.0 sums to +0.0."""
    shape = (2, 3, 4 * factor, 5 * factor)
    g = np.random.default_rng(33).choice([-0.0, 0.0, 1.0, -1.0, np.inf,
                                          2.0 ** -60], size=shape)
    g[0, 0, :factor, :factor] = -0.0
    grads = []
    for op in (G.nearest_upsample2d, upsample2d_two_repeats):
        x = G.Tensor(np.zeros((2, 3, 4, 5)), requires_grad=True)
        op(x, factor=factor).backward(g)
        grads.append(x.grad)
    assert grads[0][0, 0, 0, 0] == 0.0 and not np.signbit(grads[0][0, 0, 0, 0])
    assert_same_bytes(*grads)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("layout", ["C", "channels-innermost"])
@pytest.mark.parametrize("grad_layout", ["C", "channels-innermost"])
@pytest.mark.parametrize("shape", [(4, 3, 5, 6), (2, 5, 7)])
def test_batchnorm_fewer_passes_is_byte_identical(training, layout, grad_layout, shape):
    rng = np.random.default_rng(32)
    x = layouts(rng.standard_normal(shape) * 2.0 + 0.5)[layout]
    c = shape[1]
    gamma, beta = rng.uniform(0.5, 1.5, c), rng.standard_normal(c) * 0.2
    stats = (rng.standard_normal(c) * 0.3, rng.uniform(0.5, 2.0, c))
    results = []
    for op in (G.batchnorm, batchnorm_four_pass):
        rm, rv = stats[0].copy(), stats[1].copy()

        def bn(x, gm, bt):
            return op(x, gm, bt, rm, rv, training)

        out, grads = run_op(bn, x, gamma, beta,
                            grad_layout=lambda g: layouts(g)[grad_layout])
        results.append((out.data, grads, rm, rv))
    (on, gn, rmn, rvn), (oo, go, rmo, rvo) = results
    assert_same_bytes(on, oo)
    for a, b in zip(gn + [rmn, rvn], go + [rmo, rvo]):
        assert_same_bytes(a, b)


def test_training_steps_byte_identical_to_earlier_kernels(monkeypatch):
    """A few multi-step and single-step AdamW steps of a small model, and a
    graph-free forward, give the same bytes with the earlier kernels. The
    model upsamples through ``G.nearest_upsample2d`` only in its head; run
    once more with Refine's upsample-convs in the composed form, the x2
    upsample is swapped as well. The earlier kernels' run trains each unit
    through its own batchnorm node, so the earlier batchnorm runs there."""
    rng = np.random.default_rng(40)
    xs = rng.random((3, 2, 1, 32, 32))
    ys = (rng.random((3, 2, 1, 32, 32)) > 0.6).astype(float)

    def run():
        model = RSTModel(RSTConfig(dim=16, heads=2, steps=3, rfa_blocks=2),
                         np.random.default_rng(41))
        opt = AdamW(model.named_parameters(), lr=1e-2, weight_decay=0.01)
        losses = []

        def update(loss):
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.data)

        model.train()
        for x, y in zip(xs, ys):
            update(multi_step_loss(model.forward_full(x, "multi"), G.Tensor(y),
                                   LossConfig(steps=3)))
        model.reset_state()
        for x, y in zip(xs, ys):
            update(map_loss(model.forward_full(x[:1], "single")[0],
                            G.Tensor(y[:1])))
            model.detach_state()
        model.eval()
        with G.no_grad():
            maps = model.forward_full(xs[0], "multi").data
        return model.state_dict(), losses, maps

    for refine in (G.upsample_conv2d, upsample_conv2d_composed):
        with monkeypatch.context() as m:
            m.setattr(G, "upsample_conv2d", refine)
            new_state, new_losses, new_maps = run()
            m.setattr(nnops, "_im2col", im2col_planes)
            m.setattr(G, "maxpool2d", maxpool2d_argmax)
            m.setattr(G, "nearest_upsample2d", upsample2d_two_repeats)
            m.setattr(G, "batchnorm", batchnorm_four_pass)
            m.setattr(neuro, "lif_step", separate_lif_step)
            m.setattr(neuro, "lif_fire", separate_lif_fire)
            old_state, old_losses, old_maps = run()
        assert new_state.keys() == old_state.keys()
        for name in new_state:
            assert new_state[name].tobytes() == old_state[name].tobytes(), name
        assert [a.tobytes() for a in new_losses] \
            == [a.tobytes() for a in old_losses]
        assert_same_bytes(new_maps, old_maps)


# -- conv2d GEMM orientation ---------------------------------------------------
#
# conv2d multiplies weights on the left, W @ col, so BLAS writes C-ordered
# (B, C, H, W) output; the earlier form, rows @ W^T and a transposed view, is
# kept below as the oracle. The two matrix products add the same terms but
# BLAS may split the sums differently, so values agree to rounding, not to
# the byte: up to 6.4e-16 of the largest magnitude over 40 random shapes
# with 1 BLAS thread (OpenBLAS 0.3.31, Haswell kernels).

CONV_TOL = 1e-13     # relative to the largest magnitude of each array
TRAIN_TOL = 1e-10    # per parameter / statistic after 3 AdamW steps


def conv2d_rows_first(x, weight, bias=None, padding=0):
    """conv2d as im2col rows times the transposed weights, returned as a
    channels-innermost view; the gradients transpose g back to rows."""
    x, weight = G.as_tensor(x), G.as_tensor(weight)
    b_, cin, h, w = x.data.shape
    cout, _, k, _ = weight.data.shape
    col = im2col_transpose_copy(pad2(x.data, padding), k)
    wf = weight.data.reshape(cout, cin * k * k)
    ho, wo = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    out = (col @ wf.T).transpose(0, 2, 1).reshape(b_, cout, ho, wo)
    parents = (x, weight)
    if bias is not None:
        bias = G.as_tensor(bias)
        out = out + bias.data.reshape(1, cout, 1, 1)
        parents = (x, weight, bias)

    def vjp(g):
        gr = g.transpose(0, 2, 3, 1).reshape(b_, ho * wo, cout)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            gw = np.tensordot(gr, col, axes=([0, 1], [0, 1]))
            _accumulate(weight, gw.reshape(weight.data.shape))
        if x.requires_grad:
            q = k - 1 - padding
            gp = pad2(g, q) if q >= 0 else g[:, :, -q:q, -q:q]
            wt = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3) \
                .reshape(cin, cout * k * k)
            dx = (im2col_gather(gp, k) @ wt.T).transpose(0, 2, 1)
            _accumulate(x, dx.reshape(b_, cin, h, w))

    return make(out, parents, vjp)


def assert_within(new, old, tol, what=""):
    assert new.shape == old.shape, what
    assert np.max(np.abs(new - old), initial=0.0) \
        <= tol * np.max(np.abs(old), initial=0.0), what


@pytest.mark.parametrize("layout", ["C", "channels-innermost"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("with_bias", [False, True])
def test_conv2d_weights_first_matches_earlier_orientation(layout, k, pad,
                                                          with_bias):
    rng = np.random.default_rng(300 + 10 * k + 2 * pad + with_bias)
    x = layouts(rng.standard_normal((3, 24, 9, 14)))[layout]
    params = [rng.standard_normal((20, 24, k, k))]
    if with_bias:
        params.append(rng.standard_normal(20))

    def conv(op):
        return lambda x, *p: op(x, *p, padding=pad)

    new, new_grads = run_op(conv(G.conv2d), x, *params)
    old, old_grads = run_op(conv(conv2d_rows_first), x, *params)
    assert new.data.flags.c_contiguous and new_grads[0].flags.c_contiguous
    assert not old.data.flags.c_contiguous
    names = ["output", "x.grad", "weight.grad", "bias.grad"]
    for name, a, b in zip(names, [new.data] + new_grads, [old.data] + old_grads):
        assert_within(a, b, CONV_TOL, name)


def train_small(mode):
    """Three AdamW steps of a small model from a fixed seed; returns every
    parameter and running statistic, and the losses."""
    model = RSTModel(RSTConfig(dim=16, heads=2, steps=3, rfa_blocks=1),
                     np.random.default_rng(0))
    opt = AdamW(model.named_parameters(), lr=1e-2)
    rng = np.random.default_rng(1)
    target = G.Tensor((rng.random((2, 1, 32, 32)) < 0.4).astype(float))
    model.reset_state()
    losses = []
    for _ in range(3):
        maps = model.forward_full(rng.random((2, 1, 32, 32)) * 3.0, mode)
        loss = multi_step_loss(maps, target, LossConfig(steps=3)) \
            if mode == "multi" else map_loss(maps[0], target)
        opt.zero_grad()
        loss.backward()
        opt.step()
        model.detach_state()
        losses.append(float(loss.data))
    return model.state_dict(), losses


@pytest.mark.parametrize("mode", ["multi", "single"])
def test_training_steps_match_earlier_conv_orientation(mode, monkeypatch):
    """The last bits move (1e-13 relative after 3 steps here), but no spike
    flips: a flip would move the parameters by far more than TRAIN_TOL."""
    new_state, new_losses = train_small(mode)
    monkeypatch.setattr(G, "conv2d", conv2d_rows_first)
    old_state, old_losses = train_small(mode)
    assert new_state.keys() == old_state.keys()
    for name in new_state:
        assert_within(new_state[name], old_state[name], TRAIN_TOL, name)
    np.testing.assert_allclose(new_losses, old_losses, rtol=TRAIN_TOL)


def traced_forward(monkeypatch, model, x, mode="multi"):
    """A graph-free forward; returns every traced layer's input by name,
    and the maps."""
    seen = {}

    def record(name, a, _fanout):
        seen[name] = np.array(a, copy=True)
    with monkeypatch.context() as m, G.no_grad():
        m.setattr(neuro, "_emit_layer", record)
        m.setattr(rst, "_emit_layer", record)
        maps = model.forward_full(x, mode)
    return seen, maps.data


def fixture_eval_forward(monkeypatch):
    """An eval-mode forward of a trained float64 model (the benchmark's
    committed 128x128 fixture, whose layers fire at 0.03-1.0) on a 64x64
    input; it traces 24 layers."""
    return traced_forward(monkeypatch, float64_model(FIXTURE),
                          np.random.default_rng(6).random((2, 1, 64, 64)))


def spike_flips(new_layers, old_layers):
    """Elements that differ per traced layer; (B, N, D) token inputs are
    compared as the (B, D, h, w) map they transpose to."""
    assert new_layers.keys() == old_layers.keys()
    assert sum(a.sum() for a in new_layers.values()) > 0
    flips = {}
    for name, new in new_layers.items():
        old = old_layers[name]
        if old.shape != new.shape:
            old = old.swapaxes(1, 2).reshape(new.shape)
        flips[name] = int(np.count_nonzero(new != old))
    return flips


def test_eval_forward_flips_no_spike_with_earlier_conv_orientation(monkeypatch):
    """Every layer sees the same spikes, 0 flipped in each of the 24 traced
    layers, and the maps agree within CONV_TOL (they are byte-equal with
    1 BLAS thread on the host above)."""
    new_layers, new_maps = fixture_eval_forward(monkeypatch)
    monkeypatch.setattr(G, "conv2d", conv2d_rows_first)
    old_layers, old_maps = fixture_eval_forward(monkeypatch)
    flips = spike_flips(new_layers, old_layers)
    assert len(flips) == 24 and flips == dict.fromkeys(flips, 0)
    for a, b in zip(new_maps, old_maps):
        assert_within(a, b, CONV_TOL)


# -- im2col planes ------------------------------------------------------------
#
# conv2d builds im2col as (B, C*k*k, H*W) planes from k*k shifted copies of
# the unpadded input, so its GEMMs read a plain operand, and the weight
# gradient is one GEMM per image, summed over the images. The conv it
# replaced, kept below as the oracle, gathered (B, H*W, C*k*k) rows from a
# padded copy, multiplied their transpose, and took the weight gradient as
# one GEMM over all images after copying g. The sums split differently, so
# values agree to rounding. Measured with 1 BLAS thread (OpenBLAS 0.3.31,
# Haswell kernels): the fixture's eval forward flips no spike and its maps
# differ by at most 2.2e-16; after 3 AdamW steps the parameters and
# statistics differ by at most 8.8e-15 ("multi") and 2.1e-13 ("single") of
# each tensor's largest magnitude, and the losses are equal.


def conv2d_gather(x, weight, bias=None, padding=0):
    """conv2d on gathered im2col rows of the padded input: W @ col^T per
    image, the weight gradient as one GEMM over all images after one copy
    of g, and the input gradient from the rows of the padded (or cropped)
    g."""
    x, weight = G.as_tensor(x), G.as_tensor(weight)
    b_, cin, h, w = x.data.shape
    cout, _, k, _ = weight.data.shape
    col = im2col_gather(pad2(x.data, padding), k)
    wf = weight.data.reshape(cout, cin * k * k)
    ho, wo = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    out = np.matmul(wf, col.transpose(0, 2, 1)).reshape(b_, cout, ho, wo)
    parents = (x, weight)
    if bias is not None:
        bias = G.as_tensor(bias)
        out += bias.data.reshape(1, cout, 1, 1)
        parents = (x, weight, bias)

    def vjp(g):
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            gm = g.transpose(1, 0, 2, 3).reshape(cout, b_ * ho * wo)
            gw = gm @ col.reshape(b_ * ho * wo, cin * k * k)
            _accumulate(weight, gw.reshape(weight.data.shape))
        if x.requires_grad:
            q = k - 1 - padding
            gp = pad2(g, q) if q >= 0 else g[:, :, -q:q, -q:q]
            wt = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3) \
                .reshape(cin, cout * k * k)
            gcol = im2col_gather(gp, k)
            dx = np.matmul(wt, gcol.transpose(0, 2, 1)).reshape(b_, cin, h, w)
            _accumulate(x, dx)

    return make(out, parents, vjp)


@pytest.mark.parametrize("mode", ["multi", "single"])
def test_training_steps_match_gather_conv(mode, monkeypatch):
    new_state, new_losses = train_small(mode)
    monkeypatch.setattr(G, "conv2d", conv2d_gather)
    old_state, old_losses = train_small(mode)
    assert new_state.keys() == old_state.keys()
    for name in new_state:
        assert_within(new_state[name], old_state[name], TRAIN_TOL, name)
    np.testing.assert_allclose(new_losses, old_losses, rtol=TRAIN_TOL)


def test_eval_forward_flips_no_spike_with_gather_conv(monkeypatch):
    """0 flipped spikes in each of the 24 traced layers; the maps agree
    within CONV_TOL."""
    new_layers, new_maps = fixture_eval_forward(monkeypatch)
    monkeypatch.setattr(G, "conv2d", conv2d_gather)
    old_layers, old_maps = fixture_eval_forward(monkeypatch)
    flips = spike_flips(new_layers, old_layers)
    assert len(flips) == 24 and flips == dict.fromkeys(flips, 0)
    for a, b in zip(new_maps, old_maps):
        assert_within(a, b, CONV_TOL)


# -- RFA token layout ----------------------------------------------------------
#
# The RFA blocks keep their tokens as the encoder's (T*B, D, h, w) map and
# project them as 1x1 conv -> BN over axis 1 -> spike. The earlier layout,
# (T*B, N, D) tokens projected by ``G.linear`` and normalized between two
# transposes, is kept below as the oracle; its block enters and leaves as a
# map, where the earlier model converted once before the first block and
# once after the last. The projections add the same terms in another order
# and batchnorm sums its statistics in another order, so training agrees
# to rounding; eval runs on the running statistics, and the spikes, and so
# the maps, come out the same.


def token_projection(unit, x):
    """A 1x1 ``CBSBlock`` over (n, N, d_in) tokens: its weight as the
    (d_out, d_in) matrix of ``G.linear``, batchnorm between two transposes,
    then a fresh-membrane spike."""
    rst._emit_layer(unit.name, x.data, unit.weight.shape[0])
    y = G.linear(x, G.reshape(unit.weight, unit.weight.shape[:2]))
    y = G.transpose(y, (0, 2, 1))
    y = G.batchnorm(y, unit.gamma, unit.beta, unit.running_mean,
                    unit.running_var, training=unit.training)
    return rst.lif_fire(G.transpose(y, (0, 2, 1)), unit.lif.params)


def token_fuse(fuse, a, b):
    if fuse.op == "concat":
        return token_projection(fuse.proj, G.concat([a, b], axis=-1))
    return fuse.forward(a, b)


def token_block_forward(self, e, steps, batch):
    n, d, h, w = e.shape
    n_tok, heads, dh = h * w, self.cfg.heads, d // self.cfg.heads
    e = G.transpose(G.reshape(e, (n, d, n_tok)), (0, 2, 1))
    kv_src = self._shift_steps(e, steps, batch)
    q = token_projection(self.q_proj, e)
    k = token_projection(self.k_proj, kv_src)
    v = token_projection(self.v_proj, kv_src)

    def split(x):
        return G.transpose(G.reshape(x, (n, n_tok, heads, dh)), (0, 2, 1, 3))

    att = rst.spiking_attention(split(q), split(k), split(v), self.cfg.scale,
                                self.cfg.lif(), trace_name=self.name + ".att.")
    att = G.reshape(G.transpose(att, (0, 2, 1, 3)), (n, n_tok, d))
    z = token_fuse(self.fuse_att, e, token_projection(self.out_proj, att))
    zmap = G.reshape(G.transpose(z, (0, 2, 1)), (n, d, h, w))
    m = self.mlp2.forward(self.mlp1.forward(zmap))
    m = G.transpose(G.reshape(m, (n, d, n_tok)), (0, 2, 1))
    out = token_fuse(self.fuse_mlp, e, m)
    return G.reshape(G.transpose(out, (0, 2, 1)), (n, d, h, w))


def use_token_layout(m):
    m.setattr(rst.RFABlock, "forward", token_block_forward)


@pytest.mark.parametrize("mode", ["multi", "single"])
def test_training_steps_match_token_layout(mode, monkeypatch):
    new_state, new_losses = train_small(mode)
    use_token_layout(monkeypatch)
    old_state, old_losses = train_small(mode)
    assert new_state.keys() == old_state.keys()
    for name in new_state:
        assert_within(new_state[name], old_state[name], TRAIN_TOL, name)
    np.testing.assert_allclose(new_losses, old_losses, rtol=TRAIN_TOL)


def test_eval_forward_matches_token_layout(monkeypatch):
    """0 flipped spikes in each of the 24 traced layers; the maps are
    byte-equal at 1 BLAS thread, and within CONV_TOL at any other."""
    new_layers, new_maps = fixture_eval_forward(monkeypatch)
    use_token_layout(monkeypatch)
    old_layers, old_maps = fixture_eval_forward(monkeypatch)
    flips = spike_flips(new_layers, old_layers)
    assert len(flips) == 24 and flips == dict.fromkeys(flips, 0)
    for a, b in zip(new_maps, old_maps):
        assert_within(a, b, CONV_TOL)


def test_concat_fuse_matches_token_layout(monkeypatch):
    """'concat' joins the token features and the map channels in the same
    order: a training-mode forward of a fresh model sees the same spikes
    in every layer, the two concat projections included."""
    def forward():
        model = RSTModel(RSTConfig(dim=16, heads=2, steps=3, rfa_blocks=1,
                                   residual_op="concat"),
                         np.random.default_rng(6))
        return traced_forward(monkeypatch, model,
                              np.random.default_rng(15).random((2, 1, 32, 32)))

    new_layers, new_maps = forward()
    use_token_layout(monkeypatch)
    old_layers, old_maps = forward()
    flips = spike_flips(new_layers, old_layers)
    assert {"rfa0.fuse_att.proj", "rfa0.fuse_mlp.proj"} <= flips.keys()
    assert new_layers["rfa0.fuse_att.proj"].sum() > 0
    assert flips == dict.fromkeys(flips, 0)
    for a, b in zip(new_maps, old_maps):
        assert_within(a, b, CONV_TOL)


# -- float32 inference --------------------------------------------------------
#
# eval, infer and energy run the eval net model_from_checkpoint builds
# (rst.eval_net): float32 weights and statistics, and float32 compute. Spikes, pooled spikes and
# the attention's integer counts are exact in float32; the conv, batchnorm
# and head values round, so a spike flips only where a membrane lies within
# that rounding of the threshold. Measured on the fixture over the 8
# windows below (1 BLAS thread, OpenBLAS 0.3.31): no spike flips in either
# mode, and the maps differ from the float64 model's by at most 9.2e-8
# (multi) and 8.2e-8 (single).

F32_MAP_TOL = 1e-6      # absolute, on saliency maps in [0, 1]
WINDOW = 400


@pytest.fixture(scope="module")
def fixture_streams(tmp_path_factory):
    """A low- and a high-light simulated 128x128 stream of four 400-frame
    windows each, the fixture's resolution and window."""
    root = tmp_path_factory.mktemp("f32")
    cfg = GeneratorConfig(train_sequences=0, val_sequences=2,
                          labels_per_sequence=4, width=128, height=128,
                          seed=861)
    generate_dataset(cfg, root)
    return sorted(root.glob("val_*.spk"))


def stream_windows(path):
    stream = sio.read_stream(path)
    return [window_repr(stream, w * WINDOW, WINDOW)[None]
            for w in range(stream.frames // WINDOW)]


@pytest.mark.parametrize("mode", ["multi", "single"])
def test_float32_copy_flips_no_spike(monkeypatch, fixture_streams, mode):
    """Every traced layer of the float32 copy sees the float64 model's
    spikes and counts, window after window (membranes carried in single
    mode); its first layer sees the input rounded to float32, and its maps
    agree within F32_MAP_TOL."""
    model = float64_model(FIXTURE)
    net = model_from_checkpoint(FIXTURE)[0]
    flips, worst = {}, 0.0
    for path in fixture_streams:
        model.reset_state()
        net.reset_state()
        for rep in stream_windows(path):
            old_layers, old_maps = traced_forward(monkeypatch, model, rep, mode)
            new_layers, new_maps = traced_forward(monkeypatch, net, rep, mode)
            first = new_layers.pop("encoder.conv1")
            assert first.dtype == np.float32
            assert np.array_equal(first, old_layers.pop("encoder.conv1")
                                  .astype(np.float32))
            for name, n in spike_flips(new_layers, old_layers).items():
                flips[name] = flips.get(name, 0) + n
            for a, b in zip(new_maps, old_maps):
                assert a.dtype == np.float32
                worst = max(worst, np.max(np.abs(a - b)))
    assert len(flips) == 23 and flips == dict.fromkeys(flips, 0)
    assert 0.0 < worst <= F32_MAP_TOL


@pytest.mark.parametrize("mode", ["multi", "single"])
def test_threshold_fold_flips_no_spike(monkeypatch, fixture_streams, mode):
    """The eval net ``model_from_checkpoint`` returns fires its 15
    stateless units through per-channel thresholds; the same float32 net
    with the thresholds cleared runs their batchnorm and spike. Every traced layer
    sees the same spikes, window after window (membranes carried in single
    mode), and the maps are equal."""
    folded, plain = (model_from_checkpoint(FIXTURE)[0] for _ in range(2))
    units = plain.stateless_units()
    assert len(units) == 15 and all(u.fold is not None for u in units)
    for unit in units:
        unit.fold = None
    flips = {}
    for path in fixture_streams:
        folded.reset_state()
        plain.reset_state()
        for rep in stream_windows(path):
            old_layers, old_maps = traced_forward(monkeypatch, plain, rep, mode)
            new_layers, new_maps = traced_forward(monkeypatch, folded, rep, mode)
            assert np.array_equal(new_layers.pop("encoder.conv1"),
                                  old_layers.pop("encoder.conv1"))
            for name, n in spike_flips(new_layers, old_layers).items():
                flips[name] = flips.get(name, 0) + n
            for a, b in zip(new_maps, old_maps):
                assert a.dtype == np.float32 and np.array_equal(a, b)
    assert len(flips) == 23 and flips == dict.fromkeys(flips, 0)


def float64_pgms(model, path, continuous):
    """The PGM bytes a float64 model's rate readout gives every window."""
    model.reset_state()
    out = []
    with G.no_grad():
        for rep in stream_windows(path):
            maps = model.forward_full(rep, "single" if continuous else "multi")
            img = np.round(rate_readout(maps) * 255).astype(np.uint8)
            out.append(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
                       + img.tobytes())
    return out


@pytest.mark.parametrize("continuous", [False, True])
def test_float32_infer_writes_the_float64_maps(fixture_streams, tmp_path,
                                               continuous):
    model = float64_model(FIXTURE)
    for path in fixture_streams:
        out = tmp_path / f"{path.stem}-{continuous}"
        argv = ["infer", "--ckpt", str(FIXTURE), "--stream", str(path),
                "--out", str(out)]
        assert main(argv + (["--continuous"] if continuous else [])) == 0
        got = [p.read_bytes() for p in sorted(out.glob("map_*.pgm"))]
        assert got == float64_pgms(model, path, continuous)


def test_float32_energy_report_is_the_float64_one(fixture_streams):
    model = float64_model(FIXTURE)
    net = model_from_checkpoint(FIXTURE)[0]
    for path in fixture_streams:
        rep = stream_windows(path)[0]
        with neuro.trace_activity() as tr, G.no_grad():
            model.forward_full(rep, "multi")
        want = metrics.energy_from_trace(tr.layers)
        assert want.ac_ops > 0
        assert metrics.estimate_energy(net, rep).to_json() == want.to_json()


# -- upsample-conv at low resolution ---------------------------------------------
#
# Refine's upsample-convs run as ``G.upsample_conv2d``: the four 2x2-phase
# kernels of the low-resolution map in one GEMM. Its composed form, a conv
# over the nearest-upsampled map, is kept below as the oracle. A phase
# kernel sums two or four taps of the 3x3 kernel, which rounds once more.
# Measured with 1 BLAS thread (OpenBLAS 0.3.31): up to 4.0e-7 (float32) and
# 8.4e-16 (float64) of the largest magnitude at the model's shapes; on the
# fixture's float32 eval net no spike flips in any traced layer and the maps,
# infer PGMs and energy reports come out byte-identical.

UPCONV_TOL = {np.float32: 1e-6, np.float64: 1e-13}   # of the largest magnitude


def upsample_conv2d_composed(x, weight):
    """conv2d over the 2x nearest-upsampled input, 'same' padding."""
    k = G.as_tensor(weight).shape[-1]
    return G.conv2d(G.nearest_upsample2d(x, 2), weight, padding=(k - 1) // 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("shape", [(2, 3, 4, 5), (5, 48, 8, 8), (5, 24, 16, 16)])
def test_upsample_conv2d_matches_composed(dtype, k, shape):
    rng = np.random.default_rng(70 + k)
    x = (rng.random(shape) < 0.3).astype(dtype)
    w = rng.standard_normal((shape[1] // 2 + 1, shape[1], k, k)).astype(dtype)
    new, new_grads = run_op(G.upsample_conv2d, x, w)
    old, old_grads = run_op(upsample_conv2d_composed, x, w)
    assert new.data.dtype == dtype and new.data.flags.c_contiguous
    for name, a, b in zip(["output", "x.grad", "weight.grad"],
                          [new.data] + new_grads, [old.data] + old_grads):
        assert_within(a, b, UPCONV_TOL[dtype], name)


@pytest.mark.parametrize("mode", ["multi", "single"])
def test_training_steps_match_composed_upsample(mode, monkeypatch):
    new_state, new_losses = train_small(mode)
    monkeypatch.setattr(G, "upsample_conv2d", upsample_conv2d_composed)
    old_state, old_losses = train_small(mode)
    assert new_state.keys() == old_state.keys()
    for name in new_state:
        assert_within(new_state[name], old_state[name], TRAIN_TOL, name)
    np.testing.assert_allclose(new_losses, old_losses, rtol=TRAIN_TOL)


@pytest.mark.parametrize("mode", ["multi", "single"])
def test_upsample_conv2d_flips_no_spike_on_the_fixture(monkeypatch,
                                                       fixture_streams, mode):
    """The fixture's float32 eval net sees the same spikes in every traced
    layer with Refine's upsample-convs in either form, window after window,
    and its maps are equal."""
    net = model_from_checkpoint(FIXTURE)[0]
    runs = []
    for form in (G.upsample_conv2d, upsample_conv2d_composed):
        monkeypatch.setattr(G, "upsample_conv2d", form)
        out = []
        for path in fixture_streams:
            net.reset_state()
            for rep in stream_windows(path):
                out.append(traced_forward(monkeypatch, net, rep, mode))
        runs.append(out)
    flips = {}
    for (new_layers, new_maps), (old_layers, old_maps) in zip(*runs):
        for name, n in spike_flips(new_layers, old_layers).items():
            flips[name] = flips.get(name, 0) + n
        assert np.array_equal(new_maps, old_maps)
    assert len(flips) == 24 and flips == dict.fromkeys(flips, 0)


@pytest.mark.parametrize("residual_op", ["or", "add"])
def test_upsample_layers_trace_the_upsampled_map(residual_op):
    """refine.up1/up2 report the spikes, size and fanout of the map their
    conv reads, the 2x upsample of their input, as when it was built."""
    model = RSTModel(RSTConfig(dim=16, heads=2, steps=3, rfa_blocks=1,
                               residual_op=residual_op),
                     np.random.default_rng(6))
    x = np.random.default_rng(15).random((2, 1, 32, 32))
    with neuro.trace_activity() as tr, G.no_grad():
        model.forward_full(x, "multi")
    records = {r["name"]: r for r in tr.layers}
    tensors = dict(tr.tensors)
    inputs = {"refine.up1": tensors["tokens.out0"],
              "refine.up2": tensors["refine.s1"]}
    for name, block in (("refine.up1", model.refine.up1),
                        ("refine.up2", model.refine.up2)):
        with neuro.trace_activity() as want:
            neuro._emit_layer(name, G.nearest_upsample2d(inputs[name], 2).data,
                              block.weight.shape[0] * block.kernel ** 2)
        assert records[name] == want.layers[0], name
        assert records[name]["spikes_in"] > 0
    if residual_op == "add":
        assert tensors["tokens.out0"].max() > 1.0


def test_energy_report_is_that_of_the_composed_upsample(fixture_streams,
                                                        monkeypatch):
    net = model_from_checkpoint(FIXTURE)[0]
    rep = stream_windows(fixture_streams[0])[0]
    new = metrics.estimate_energy(net, rep).to_json()
    monkeypatch.setattr(G, "upsample_conv2d", upsample_conv2d_composed)
    assert new == metrics.estimate_energy(net, rep).to_json()


# -- recorded convs keep no im2col columns ----------------------------------------
# The backward builds each conv's columns again from its input; the oracles
# below keep the forward's columns in the closure, as the convs once did.


def conv2d_keeping_columns(x, weight, padding=0):
    b_, cin, h, w = x.data.shape
    cout, _, k, _ = weight.data.shape
    col = nnops._im2col(x.data, k, padding)
    ho, wo = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    out = np.matmul(weight.data.reshape(cout, cin * k * k), col) \
        .reshape(b_, cout, ho, wo)

    def vjp(g):
        gw = nnops._conv_weight_grad(g.reshape(b_, cout, ho * wo), col)
        _accumulate(weight, gw.reshape(weight.data.shape))
        _give(x, nnops._conv_input_grad(g, weight.data, padding))

    return make(out, (x, weight), vjp)


def upsample_conv2d_keeping_columns(x, weight):
    b_, cin, h, w = x.data.shape
    cout, _, k, _ = weight.data.shape
    m, taps = nnops._phase_taps(k, weight.data.dtype)
    wp = np.matmul(weight.data.reshape(cout * cin, k * k),
                   taps.transpose(0, 2, 1))
    col = nnops._im2col(x.data, m, m // 2)
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
        gwp = nnops._conv_weight_grad(gy, col).reshape(4, cout * cin, m * m)
        gw = np.matmul(gwp, taps).sum(axis=0)
        _give(weight, gw.reshape(weight.data.shape))
        _give(x, nnops._conv_input_grad(
            gy.reshape(b_, 4 * cout, h, w), wp.reshape(4 * cout, cin, m, m),
            m // 2))

    return make(out, (x, weight), vjp)


CONV_CASES = {
    "conv2d": (lambda x, w: G.conv2d(x, w, padding=1),
               lambda x, w: conv2d_keeping_columns(x, w, padding=1)),
    "upsample_conv2d": (G.upsample_conv2d, upsample_conv2d_keeping_columns),
}


@pytest.mark.parametrize("op", list(CONV_CASES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_recorded_conv_keeps_no_columns(op, dtype):
    """After the forward, a recorded 3x3 conv holds its output, a few
    hundred bytes of node and, for the upsample conv, its four phase
    kernels (4x the weight), but not its (B, C*9, H*W) columns, nine times
    the input; its x and weight gradients are the bytes the column-keeping
    form gives."""
    new_op, old_op = CONV_CASES[op]
    rng = np.random.default_rng(81)
    x = (rng.random((4, 12, 16, 16)) < 0.3).astype(dtype)
    w = (rng.standard_normal((8, 12, 3, 3)) * 0.3).astype(dtype)

    def held(fn):
        xt, wt = G.Tensor(x, requires_grad=True), G.Tensor(w, requires_grad=True)
        fn(xt, wt)                              # warm every code path
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = fn(xt, wt)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return grown, out.data.nbytes

    grown, out_bytes = held(new_op)
    assert grown <= out_bytes + 4 * w.nbytes + 4096, (grown, out_bytes)
    old_grown, _ = held(old_op)
    assert old_grown > out_bytes + x.nbytes     # the oracle keeps its columns
    new, new_grads = run_op(new_op, x, w)
    old, old_grads = run_op(old_op, x, w)
    assert_same_bytes(new.data, old.data)
    for gn, go in zip(new_grads, old_grads):
        assert_same_bytes(gn, go)


def f32_param(shape, seed=0):
    data = np.random.default_rng(seed).standard_normal(shape)
    return G.Tensor(data.astype(np.float32), requires_grad=True)


F32_OPS = {
    "conv2d": lambda x: G.conv2d(x, f32_param((4, 3, 3, 3)), f32_param((4,)),
                                 padding=1),
    "batchnorm": lambda x: G.batchnorm(
        x, f32_param((3,)), f32_param((3,)), np.zeros(3, np.float32),
        np.ones(3, np.float32), training=False),
    "maxpool2d": G.maxpool2d,
    "nearest_upsample2d": lambda x: G.nearest_upsample2d(x, 2),
    "upsample_conv2d": lambda x: G.upsample_conv2d(x, f32_param((4, 3, 3, 3))),
    "lif_scan": lambda x: G.lif_scan(x, 2, 2.0, 0.5, 0.0, 2.0,
                                     v=f32_param((1, 3, 4, 4))),
    "lif_fire": lambda x: G.lif_fire(x, 2.0, 0.5, 0.0, 2.0),
    "spike_gate": G.spike_gate,
    "matmul": lambda x: G.matmul(x, f32_param((2, 3, 4, 5))),
    "concat": lambda x: G.concat([x, f32_param(x.shape)], axis=1),
    "elementwise_or": lambda x: G.elementwise_or(
        G.spike_gate(x, 0.0), G.spike_gate(f32_param(x.shape), 0.0)),
    "sigmoid": G.sigmoid,
    "mul by a Python float": lambda x: G.mul(x, 0.41),
    "Python int times": lambda x: 3 * x,
}


@pytest.mark.parametrize("op", list(F32_OPS))
def test_ops_compute_in_float32(op):
    x = f32_param((2, 3, 4, 4), seed=1)
    with G.no_grad():
        out = F32_OPS[op](x)
    for t in out if isinstance(out, tuple) else (out,):
        assert t.data.dtype == np.float32


@pytest.mark.parametrize("data", [np.arange(3), np.array([True, False]),
                                  np.ones(2, np.float16), [1, 2], 2.5])
def test_tensor_stores_other_dtypes_as_float64(data):
    assert G.Tensor(data).data.dtype == np.float64


def test_tensor_keeps_float32_data_uncopied():
    a = np.ones(3, np.float32)
    assert G.Tensor(a).data is a


def test_eval_net_holds_float32_weights_and_statistics():
    model = float64_model(FIXTURE).train()
    net = rst.eval_net(model.cfg, model.state_dict())
    assert model.training and not net.training
    new, old = net.state_dict(), model.state_dict()
    assert new.keys() == old.keys()
    for name, arr in new.items():
        assert old[name].dtype == np.float64
        assert arr.dtype == np.float32
        assert np.array_equal(arr, old[name].astype(np.float32)), name
        assert not np.shares_memory(arr, old[name]), name


def test_shape_ops():
    rng = np.random.default_rng(11)
    x = G.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    y = G.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    r = readout(rng, (2, 4, 6))

    def f():
        z = G.concat([x, y], axis=1)          # (2,6,4)
        z = G.transpose(z, (0, 2, 1))         # (2,4,6)
        z = G.reshape(z, (2, 4, 6))
        return G.sum_(z * r)

    assert G.check_gradients(f, [x, y], h=H) < TOL


def test_take_and_stack():
    rng = np.random.default_rng(12)
    x = G.Tensor(rng.standard_normal((5, 3, 3)), requires_grad=True)
    r = readout(rng, (2, 3, 3))

    def f():
        parts = G.stack([x[0], x[3]], axis=0)
        return G.sum_(parts * r)

    assert G.check_gradients(f, [x], h=H) < TOL
    x.grad = None
    G.sum_(x[1:3]).backward()
    expect = np.zeros((5, 3, 3))
    expect[1:3] = 1.0
    assert np.array_equal(x.grad, expect)


def test_mean_sum_axis_variants():
    rng = np.random.default_rng(13)
    x = G.Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    r = readout(rng, (4,))

    def f():
        a = G.mean(x, axis=(0, 2))
        b = G.sum_(x, axis=0, keepdims=True)
        return G.sum_(a * r) + G.mean(b)

    assert G.check_gradients(f, [x], h=H) < TOL


def test_spike_gate_forward_threshold_convention():
    x = G.Tensor([0.2, 1.0, 1.7, -3.0])
    s = G.spike_gate(x, v_th=1.0)
    assert np.array_equal(s.data, [0.0, 1.0, 1.0, 0.0])


def test_spike_gate_surrogate_matches_own_antiderivative():
    # the backward slope must be the derivative of the soft forward
    rng = np.random.default_rng(14)
    xs = rng.uniform(-4, 4, 200)
    for alpha in (1.0, 2.0, 5.0):
        h = 1e-4
        fd = (G.soft_gate_value(xs + h, 1.0, alpha)
              - G.soft_gate_value(xs - h, 1.0, alpha)) / (2 * h)
        an = G.surrogate_slope(xs, 1.0, alpha)
        assert G.relative_error(an, fd) < 1e-5


def test_spike_gate_slope_peak_and_tails():
    assert G.surrogate_slope(np.array([1.0]), 1.0, 2.0)[0] == pytest.approx(1.0)
    tails = G.surrogate_slope(np.array([-9.0, 11.0]), 1.0, 2.0)
    assert np.all(tails < 1e-2)


def test_surrogate_slope_equals_its_formula_byte_for_byte():
    # the in-place evaluation must round like the written-out expression
    rng = np.random.default_rng(17)
    x = (rng.standard_normal((6, 5, 4)) * 3.0).transpose(2, 0, 1)
    for alpha, v_th in ((1.0, 1.0), (2.0, 0.5), (0.3, 0.37)):
        u = np.pi * alpha * (x - v_th) / 2.0
        want = alpha / (2.0 * (1.0 + u * u))
        got = G.surrogate_slope(x, v_th, alpha)
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()


def test_spike_gate_skips_slope_without_graph(monkeypatch):
    def refuse(*_args):
        raise AssertionError("surrogate slope computed for a graph-free forward")

    monkeypatch.setattr(G.nnops, "surrogate_slope", refuse)
    x = G.Tensor(np.linspace(-1.0, 3.0, 9), requires_grad=True)
    with G.no_grad():
        s = G.spike_gate(x, v_th=1.0)
    assert not s.requires_grad
    assert np.array_equal(s.data, (x.data >= 1.0).astype(np.float64))
    G.spike_gate(G.Tensor(x.data), v_th=1.0)      # no input needs a gradient


def test_spike_gate_backward_is_slope_times_grad():
    rng = np.random.default_rng(16)
    x = G.Tensor(rng.uniform(-2.0, 4.0, (3, 7)), requires_grad=True)
    r = rng.standard_normal((3, 7))
    G.sum_(G.spike_gate(x, v_th=0.75, alpha=3.0) * r).backward()
    assert np.array_equal(x.grad, r * G.surrogate_slope(x.data, 0.75, 3.0))


def test_soft_gate_fd():
    rng = np.random.default_rng(15)
    x = G.Tensor(rng.standard_normal(40), requires_grad=True)
    r = readout(rng, (40,))

    def f():
        with G.relaxed():
            return G.sum_(G.spike_gate(x, v_th=0.5, alpha=2.0) * r)

    assert G.check_gradients(f, [x], h=H) < TOL


def test_elementwise_or_truth_table_and_grads():
    a = G.Tensor([0.0, 0.0, 1.0, 1.0], requires_grad=True)
    b = G.Tensor([0.0, 1.0, 0.0, 1.0], requires_grad=True)
    o = G.elementwise_or(a, b)
    assert np.array_equal(o.data, [0.0, 1.0, 1.0, 1.0])
    G.sum_(o).backward()
    # straight-through: both sides get the upstream gradient
    assert np.array_equal(a.grad, np.ones(4))
    assert np.array_equal(b.grad, np.ones(4))


def test_soft_or_matches_hard_on_binary_and_fd():
    rng = np.random.default_rng(16)
    a_bits = rng.integers(0, 2, 50).astype(float)
    b_bits = rng.integers(0, 2, 50).astype(float)
    hard = G.elementwise_or(G.Tensor(a_bits), G.Tensor(b_bits)).data
    with G.relaxed():
        soft = G.elementwise_or(G.Tensor(a_bits), G.Tensor(b_bits)).data
    assert np.array_equal(hard, soft)

    a = G.Tensor(rng.uniform(0.1, 0.9, 30), requires_grad=True)
    b = G.Tensor(rng.uniform(0.1, 0.9, 30), requires_grad=True)
    r = readout(rng, (30,))

    def f():
        with G.relaxed():
            return G.sum_(G.elementwise_or(a, b) * r)

    assert G.check_gradients(f, [a, b], h=H) < TOL


def test_numeric_gradient_perturbs_strided_tensors():
    # a transposed view: perturbing a raveled copy instead read 0 everywhere
    t = G.Tensor(np.arange(6.0).reshape(2, 3).T, requires_grad=True)
    g = G.numeric_gradient(lambda: G.sum_(G.mul(t, t)), t)
    np.testing.assert_allclose(g, 2.0 * t.data, rtol=1e-9)
    assert np.array_equal(t.data, np.arange(6.0).reshape(2, 3).T)


def central_difference(f, t, h):
    flat, out = t.data.flat, np.zeros(t.data.size)
    for i in range(t.data.size):
        old = flat[i]
        flat[i] = old + h
        fp = float(f().data)
        flat[i] = old - h
        fm = float(f().data)
        flat[i] = old
        out[i] = (fp - fm) / (2.0 * h)
    return out.reshape(t.shape)


def test_numeric_gradient_cancels_the_step_squared_error():
    """sum(x**5): a central difference at h is off by 10 x**2 h**2; the
    Richardson estimate leaves only the h**4 term."""
    t = G.Tensor(np.linspace(-1.0, 1.0, 9), requires_grad=True)

    def f():
        t2 = G.mul(t, t)
        return G.sum_(G.mul(G.mul(t2, t2), t))

    exact = 5.0 * t.data ** 4
    h = 1e-2
    plain = np.abs(central_difference(f, t, h) - exact).max()
    ours = np.abs(G.numeric_gradient(f, t, h) - exact).max()
    assert plain > 5e-4 and ours < 1e-6


def test_numeric_gradient_steps_past_rounding_noise():
    """A loss whose value carries a large constant rounds away about 1e-8
    of each evaluation; at h = 1e-5 that noise swamps a plain central
    difference, and the estimate takes its larger steps instead."""
    rng = np.random.default_rng(43)
    t = G.Tensor(rng.standard_normal(64), requires_grad=True)
    w = rng.standard_normal(64)

    def f():
        return G.sum_(G.mul(t, w)) + 1e8

    h = 1e-5
    plain = np.abs(central_difference(f, t, h) - w).max()
    ours = np.abs(G.numeric_gradient(f, t, h) - w).max()
    assert ours < plain / 2


def test_gradient_accumulation_is_additive():
    # a tensor feeding several consumers collects the sum of contributions
    t = G.Tensor([2.0, -1.0], requires_grad=True)
    y = G.sum_(t * 3.0) + G.sum_(t * t) + G.sum_(t[0:1])
    y.backward()
    assert np.allclose(t.grad, [3.0 + 4.0 + 1.0, 3.0 - 2.0])


def test_accumulation_order_independent():
    # same graph twice: bit-identical; re-associated graph: equal to rounding
    rng = np.random.default_rng(17)
    x = rng.standard_normal(6)
    grads = []
    for perm in ([0, 1, 2], [0, 1, 2], [2, 0, 1], [1, 2, 0]):
        t = G.Tensor(x, requires_grad=True)
        terms = [G.sum_(t * 1.5), G.sum_(G.sigmoid(t)), G.sum_(t * t)]
        total = terms[perm[0]] + terms[perm[1]] + terms[perm[2]]
        total.backward()
        grads.append(t.grad.copy())
    assert np.array_equal(grads[0], grads[1])
    assert np.allclose(grads[0], grads[2], rtol=0, atol=1e-12)
    assert np.allclose(grads[0], grads[3], rtol=0, atol=1e-12)


def test_no_grad_builds_no_graph():
    t = G.Tensor([1.0], requires_grad=True)
    with G.no_grad():
        y = G.sigmoid(t * 2.0)
    assert y._vjp is None and not y.requires_grad


def test_relaxed_mode_restores_and_nests_with_no_grad():
    x = G.Tensor([0.4, 1.0, 1.6], requires_grad=True)
    assert not G.relaxed_enabled()
    with G.relaxed():
        assert G.relaxed_enabled()
        with G.no_grad():
            assert G.relaxed_enabled() and not G.grad_enabled()
            with G.relaxed():
                assert G.relaxed_enabled()
            assert G.relaxed_enabled()          # inner exit keeps the outer mode
            y = G.spike_gate(x)
        assert G.grad_enabled() and y._vjp is None
        np.testing.assert_array_equal(y.data, G.soft_gate_value(x.data, 1.0, 2.0))
    assert not G.relaxed_enabled()
    np.testing.assert_array_equal(G.spike_gate(x).data, [0.0, 1.0, 1.0])

    with pytest.raises(RuntimeError):
        with G.no_grad(), G.relaxed():
            raise RuntimeError("boom")
    assert not G.relaxed_enabled() and G.grad_enabled()


def test_detach_blocks_gradient():
    t = G.Tensor([3.0], requires_grad=True)
    y = t * t.detach()
    y.backward(np.ones(1))
    assert np.allclose(t.grad, [3.0])


def test_backward_on_deep_chain():
    # iterative toposort must survive graphs deeper than the recursion limit
    t = G.Tensor([0.5], requires_grad=True)
    y = t
    for _ in range(3000):
        y = y * 1.0001
    G.sum_(y).backward()
    assert t.grad is not None and np.isfinite(t.grad).all()


def test_backward_frees_op_nodes_and_keeps_leaf_gradients():
    a = G.Tensor([1.0, 2.0], requires_grad=True)
    b = G.Tensor([3.0, -1.0], requires_grad=True)
    c = G.exp(a * b)
    y = G.sum_(c * a)
    nodes = [y, c, c._parents[0]]
    closures = [weakref.ref(n._vjp) for n in nodes]
    y.backward()
    for n in nodes:
        assert n.grad is None and n._parents == ()
        with pytest.raises(RuntimeError, match="consumed"):
            n._vjp(np.ones_like(n.data))
    # the closures, and with them the arrays saved for backward, are gone
    assert [ref() for ref in closures] == [None, None, None]
    e = np.exp(a.data * b.data)
    np.testing.assert_array_equal(a.grad, e * a.data * b.data + e)
    np.testing.assert_array_equal(b.grad, e * a.data * a.data)


def test_backward_frees_each_node_before_its_parents_run():
    # when a node's closure runs, every consumer's closure is already freed
    x = G.Tensor([0.5, -0.25], requires_grad=True)
    mid = G.exp(x)
    top = G.exp(mid)
    y = G.sum_(top)
    consumers = [weakref.ref(top._vjp), weakref.ref(y._vjp)]
    inner, seen = mid._vjp, []

    def vjp(g):
        seen.append([ref() for ref in consumers])
        inner(g)
    mid._vjp = vjp
    y.backward()
    assert seen == [[None, None]]
    np.testing.assert_array_equal(x.grad, np.exp(mid.data) * mid.data)


def test_second_backward_through_a_consumed_graph_raises():
    t = G.Tensor([1.0, -2.0], requires_grad=True)
    mid = G.sigmoid(t)
    y = G.sum_(mid * mid)
    y.backward()
    grad = t.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        y.backward()
    # a new graph over a consumed node fails too, instead of stopping there
    with pytest.raises(RuntimeError, match="consumed"):
        G.sum_(mid * 2.0).backward()
    np.testing.assert_array_equal(t.grad, grad)


def test_store_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    arrays = {
        "enc.w": rng.standard_normal((3, 2, 3, 3)),
        "enc.b": rng.standard_normal(3),
        "scalar": np.array(4.25),
    }
    meta = {"epoch": 3, "note": "x"}
    p = tmp_path / "t.salt"
    G.save_tensors(p, arrays, meta)
    back, meta2 = G.load_tensors(p)
    assert meta2 == meta
    assert set(back) == set(arrays)
    for k in arrays:
        assert np.array_equal(np.asarray(arrays[k], dtype=float), back[k])


def test_store_identical_bytes(tmp_path):
    rng = np.random.default_rng(19)
    arrays = {"a": rng.standard_normal(10), "b": rng.standard_normal((2, 2))}
    p1, p2 = tmp_path / "a.salt", tmp_path / "b.salt"
    G.save_tensors(p1, arrays, {"k": 1})
    G.save_tensors(p2, {k: v.copy() for k, v in arrays.items()}, {"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_store_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    from spikesal.grad import store
    p = tmp_path / "last.salt"
    G.save_tensors(p, {"a": np.arange(3.0)}, {"epoch": 0})
    before = p.read_bytes()
    real_open = open

    class HalfWrite:
        """File that writes half of its first chunk, then fails."""

        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(store, "open", HalfWrite, raising=False)
    with pytest.raises(OSError, match="no space"):
        G.save_tensors(p, {"a": np.arange(5.0)}, {"epoch": 1})
    monkeypatch.undo()
    assert p.read_bytes() == before
    arrays, meta = G.load_tensors(p)
    assert meta == {"epoch": 0} and np.array_equal(arrays["a"], np.arange(3.0))
    assert [f.name for f in tmp_path.iterdir()] == ["last.salt"]


def test_store_rejects_garbage(tmp_path):
    p = tmp_path / "junk.salt"
    p.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        G.load_tensors(p)


def write_container(path, index, payload=b"", blob_len=None):
    """A container with the given JSON index and payload bytes, well-formed
    or not; ``blob_len`` overrides the index length in the header."""
    blob = json.dumps(index).encode("utf-8")
    path.write_bytes(store.MAGIC + struct.pack(
        "<HQ", store.VERSION, len(blob) if blob_len is None else blob_len)
        + blob + payload)
    return path


def test_store_rejects_index_longer_than_file(tmp_path):
    # read without the size check, a 2**62-byte index raised MemoryError
    p = write_container(tmp_path / "big.salt", {"tensors": {}}, blob_len=2 ** 62)
    with pytest.raises(ValueError, match="truncated index"):
        G.load_tensors(p)


TWO = np.array([1.5, -2.0]).astype("<f8").tobytes()


@pytest.mark.parametrize("index, payload", [
    pytest.param({"meta": {}}, b"", id="no-tensors-key"),
    pytest.param({"tensors": {"a": {"shape": [2]}}}, TWO, id="no-offset-key"),
    pytest.param([["a", [2], 0]], TWO, id="list-index"),
    pytest.param({"tensors": {"a": {"shape": "2", "offset": 0}}}, TWO,
                 id="string-shape"),
    pytest.param({"tensors": {"a": {"shape": [2], "offset": 0.0}}}, TWO,
                 id="float-offset"),
    pytest.param({"tensors": {"a": {"shape": [True, 2], "offset": 0}}}, TWO,
                 id="bool-shape"),
    pytest.param({"tensors": {"a": {"shape": [-2], "offset": 0}}}, TWO,
                 id="negative-shape"),
    pytest.param({"tensors": {"a": {"shape": [1], "offset": 0}}}, TWO,
                 id="trailing-payload"),
    pytest.param({"tensors": {"a": {"shape": [1], "offset": 0},
                              "b": {"shape": [1], "offset": 16}}},
                 TWO + TWO[:8], id="gapped-payload"),
    pytest.param({"tensors": {"a": {"shape": [2], "offset": 0},
                              "b": {"shape": [1], "offset": 8}}},
                 TWO + TWO[:8], id="overlapping-payload"),
    pytest.param({"tensors": {"a": {"shape": [3], "offset": 0}}}, TWO,
                 id="truncated-payload"),
    pytest.param({"tensors": {}, "meta": [1]}, b"", id="list-meta"),
])
def test_store_rejects_malformed_index(tmp_path, index, payload):
    p = write_container(tmp_path / "bad.salt", index, payload)
    with pytest.raises(ValueError, match="bad.salt"):
        G.load_tensors(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_store_rejects_non_finite_values(tmp_path, bad):
    """A NaN or an infinity anywhere in any tensor is refused by name."""
    w = np.zeros((2, 3))
    w[1, 2] = bad
    p = write_container(tmp_path / "t.salt", {"tensors": {
        "a": {"shape": [4], "offset": 0},
        "enc.w": {"shape": [2, 3], "offset": 32}}, "meta": {"epoch": 1}},
        np.ones(4).astype("<f8").tobytes() + w.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="non-finite value in tensor enc.w"):
        G.load_tensors(p)


def test_store_reads_entries_in_any_offset_order(tmp_path):
    # the index lists names sorted; the payload is in write order, and
    # empty tensors take no bytes
    p = write_container(tmp_path / "ok.salt", {"tensors": {
        "a": {"shape": [1], "offset": 16}, "b": {"shape": [2], "offset": 0},
        "c": {"shape": [0, 3], "offset": 16}, "d": {"shape": [], "offset": 24}}},
        TWO + TWO)
    arrays, meta = G.load_tensors(p)
    assert list(arrays) == ["a", "b", "c", "d"] and meta == {}
    assert arrays["a"].tolist() == [1.5] and arrays["b"].tolist() == [1.5, -2.0]
    assert arrays["c"].shape == (0, 3) and arrays["d"].tolist() == -2.0


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**31),
       mutation=st.sampled_from(["truncate", "flip", "append"]),
       data=st.data())
def test_store_fuzz_raises_only_value_error(tmp_path_factory, seed, mutation,
                                            data):
    """Truncated, byte-mutated and extended containers either load as
    finite float64 tensors tiling the payload, or raise ValueError."""
    rng = np.random.default_rng(seed)
    arrays = {f"t{i}": rng.standard_normal(tuple(rng.integers(0, 3, k)))
              for i, k in enumerate(rng.integers(0, 3, rng.integers(1, 4)))}
    p = tmp_path_factory.mktemp("salt") / "f.salt"
    G.save_tensors(p, arrays, {"epoch": int(rng.integers(9))})
    raw = p.read_bytes()
    if mutation == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif mutation == "flip":
        at = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=64))
    p.write_bytes(raw)
    try:
        got, meta = G.load_tensors(p)
    except ValueError:
        return
    assert isinstance(meta, dict)
    assert sum(8 * a.size for a in got.values()) <= len(raw)
    for a in got.values():
        assert a.dtype == np.float64 and np.isfinite(a).all()
        assert a.flags.writeable


def test_store_tensors_are_disjoint_views_of_one_buffer(tmp_path):
    p = tmp_path / "t.salt"
    G.save_tensors(p, {"a": np.arange(3.0), "b": np.ones((2, 2)),
                       "c": np.array(7.0)})
    got, _ = G.load_tensors(p)
    base = got["a"].base
    assert all(a.base is base for a in got.values())
    for x in got.values():
        for y in got.values():
            assert x is y or not np.shares_memory(x, y)
    got["b"][...] = 5.0
    assert got["a"].tolist() == [0.0, 1.0, 2.0] and got["c"] == 7.0


def test_store_names_the_first_bad_tensor_in_index_order(tmp_path):
    # the payload holds b before a; the index lists a first
    bad = np.array([np.nan]).astype("<f8").tobytes()
    p = write_container(tmp_path / "nan.salt", {"tensors": {
        "a": {"shape": [1], "offset": 8}, "b": {"shape": [1], "offset": 0}}},
        bad + bad)
    with pytest.raises(ValueError, match="non-finite value in tensor a$"):
        G.load_tensors(p)


def test_module_registration_and_state_dict():
    class Block(G.Module):
        def __init__(self, rng):
            super().__init__()
            self.w = G.kaiming_uniform(rng, (4, 3), fan_in=3)
            self.register_array("run_mean", np.zeros(4))

    class Net(G.Module):
        def __init__(self, rng):
            super().__init__()
            self.blocks = G.ModuleList([Block(rng), Block(rng)])
            self.head = Block(rng)

    net = Net(np.random.default_rng(20))
    names = [n for n, _ in net.named_parameters()]
    assert names == ["blocks.0.w", "blocks.1.w", "head.w"]
    sd = net.state_dict()
    assert "blocks.1.run_mean" in sd

    net2 = Net(np.random.default_rng(99))
    net2.load_state_dict(sd)
    for (n1, p1), (_, p2) in zip(net.named_parameters(), net2.named_parameters()):
        assert np.array_equal(p1.data, p2.data), n1

    bad = dict(sd)
    bad.pop("head.w")
    with pytest.raises(ValueError):
        net2.load_state_dict(bad)

    # a grad-free Tensor would be neither parameter nor buffer and
    # silently miss the state dict, so registration refuses it
    with pytest.raises(TypeError, match="register_array"):
        net2.head.stat = G.Tensor(np.zeros(4))
    assert "head.stat" not in net2.state_dict()

    # the list is a module: its children are reachable by position and
    # in order, and a mode switch or a cast reaches them
    blocks = net2.blocks
    assert len(blocks) == 2 and list(blocks) == [blocks[0], blocks[1]]
    assert blocks[-1] is blocks[1] and isinstance(blocks[0], Block)
    assert list(sd) == ["blocks.0.w", "blocks.1.w", "head.w",
                        "blocks.0.run_mean", "blocks.1.run_mean",
                        "head.run_mean"]
    net2.train(False)
    assert not any(m.training for m in net2.modules())
    net2.cast(np.float32)
    assert all(a.dtype == np.float32 for a in net2.state_dict().values())
    assert all(blk.w.data.dtype == np.float32 for blk in net2.blocks)


def test_kaiming_bounds():
    rng = np.random.default_rng(21)
    t = G.kaiming_uniform(rng, (64, 32), fan_in=32)
    bound = np.sqrt(6.0 / 32)
    assert np.all(np.abs(t.data) <= bound)
    assert t.data.std() > 0.3 * bound
