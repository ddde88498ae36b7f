"""Finite-difference verification of every differentiable op, plus engine
bookkeeping (accumulation, graph reuse, serialization)."""

import numpy as np
import pytest

from spikesal import grad as G

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
@pytest.mark.parametrize("pad", [0, 1])
def test_conv2d_input_grad_matches_scatter_loop(k, pad):
    rng = np.random.default_rng(100 + 10 * k + pad)
    x = G.Tensor(rng.standard_normal((2, 3, 13, 12)), requires_grad=True)
    w = rng.standard_normal((4, 3, k, k))
    out = G.conv2d(x, G.Tensor(w), padding=pad)
    g = rng.standard_normal(out.shape)
    out.backward(g)
    ref = conv2d_input_grad_scatter(x.data, w, g, pad)
    np.testing.assert_allclose(x.grad, ref, rtol=1e-12,
                               atol=1e-12 * np.abs(ref).max())


def test_blur2d_matches_conv2d_and_fd():
    rng = np.random.default_rng(7)
    # asymmetric taps, so a missing reversal in the backward pass shows
    taps = rng.uniform(0.1, 1.0, 4)
    x = G.Tensor(rng.standard_normal((2, 3, 9, 8)), requires_grad=True)
    kern = np.broadcast_to(np.outer(taps, taps), (1, 1, 4, 4))
    per_channel = np.stack([
        G.conv2d(G.Tensor(x.data[:, c:c + 1]), G.Tensor(kern)).data[:, 0]
        for c in range(3)], axis=1)
    np.testing.assert_allclose(G.blur2d(x, taps).data, per_channel,
                               rtol=1e-12, atol=1e-12)
    r = readout(rng, (2, 3, 6, 5))

    def f():
        return G.sum_(G.blur2d(x, taps) * r)

    assert G.check_gradients(f, [x], h=H) < TOL


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


def test_soft_gate_fd():
    rng = np.random.default_rng(15)
    x = G.Tensor(rng.standard_normal(40), requires_grad=True)
    r = readout(rng, (40,))

    def f():
        return G.sum_(G.spike_gate(x, v_th=0.5, alpha=2.0, soft=True) * r)

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
    soft = G.elementwise_or(G.Tensor(a_bits), G.Tensor(b_bits), soft=True).data
    assert np.array_equal(hard, soft)

    a = G.Tensor(rng.uniform(0.1, 0.9, 30), requires_grad=True)
    b = G.Tensor(rng.uniform(0.1, 0.9, 30), requires_grad=True)
    r = readout(rng, (30,))

    def f():
        return G.sum_(G.elementwise_or(a, b, soft=True) * r)

    assert G.check_gradients(f, [a, b], h=H) < TOL


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


def test_kaiming_bounds():
    rng = np.random.default_rng(21)
    t = G.kaiming_uniform(rng, (64, 32), fan_in=32)
    bound = np.sqrt(6.0 / 32)
    assert np.all(np.abs(t.data) <= bound)
    assert t.data.std() > 0.3 * bound
