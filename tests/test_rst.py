import json

import numpy as np
import pytest

from spikesal import grad as G
from spikesal.grad import Tensor
from spikesal.neuro import LIFParams
from spikesal import rst
from spikesal.rst import RSTConfig, RSTModel, spiking_attention, trace_activity


def tiny_cfg(**over):
    base = dict(dim=16, heads=2, steps=3, rfa_blocks=2)
    base.update(over)
    return RSTConfig(**base)


def build(cfg=None, seed=0):
    return RSTModel(cfg or tiny_cfg(), np.random.default_rng(seed))


# -- config ----------------------------------------------------------------


def test_config_defaults():
    cfg = RSTConfig()
    assert (cfg.dim, cfg.heads, cfg.steps, cfg.rfa_blocks) == (128, 8, 5, 6)
    assert cfg.recurrent_mode == "reverse"
    assert cfg.residual_op == "or"
    assert cfg.scale == pytest.approx(np.sqrt(8 / 128))


def test_config_validation():
    with pytest.raises(ValueError):
        RSTConfig(dim=12)            # not divisible by 8
    with pytest.raises(ValueError):
        RSTConfig(dim=128, heads=7)  # not divisible by heads
    with pytest.raises(ValueError):
        RSTConfig(steps=0)
    with pytest.raises(ValueError):
        RSTConfig(recurrent_mode="sideways")
    with pytest.raises(ValueError):
        RSTConfig(residual_op="xor")


def test_config_json_roundtrip(tmp_path):
    cfg = tiny_cfg(recurrent_mode="forward", residual_op="add", tau=3.0)
    p = tmp_path / "model.json"
    cfg.save(p)
    doc = json.loads(p.read_text())
    # serialized under the documented key names
    assert doc["D"] == 16 and doc["T"] == 3 and doc["rfa_blocks"] == 2
    assert RSTConfig.load(p) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        RSTConfig.from_json_dict({"D": 16, "depth": 9})


# -- shapes and binarity -----------------------------------------------------


def test_forward_shapes():
    cfg = tiny_cfg()
    model = build(cfg)
    x = np.random.default_rng(1).random((2, 1, 64, 64))
    maps = model.forward_full(x, mode="multi")
    assert maps.shape == (cfg.steps, 2, 1, 64, 64)
    assert (maps.data > 0).all() and (maps.data < 1).all()


def test_pyramid_shapes():
    cfg = tiny_cfg(steps=2)
    model = build(cfg)
    x = np.random.default_rng(2).random((1, 1, 64, 64))
    with trace_activity() as tr:
        model.forward_full(x, mode="multi")
    shapes = {n: a.shape for n, a in tr.tensors}
    assert shapes["encoder.f1"] == (2, 2, 32, 32)
    assert shapes["encoder.f2"] == (2, 4, 16, 16)
    assert shapes["encoder.f3"] == (2, 8, 8, 8)
    assert shapes["encoder.f4"] == (2, 16, 4, 4)
    assert shapes["tokens.in"] == (2, 16, 4, 4)
    assert shapes["refine.out"] == (2, 16, 16, 16)


def test_intermodule_tensors_binary():
    model = build(tiny_cfg())
    x = np.random.default_rng(3).random((2, 1, 32, 32)) * 0.8
    with trace_activity() as tr:
        model.forward_full(x, mode="multi")
    assert len(tr.tensors) >= 8
    for name, arr in tr.tensors:
        assert np.isin(arr, (0.0, 1.0)).all(), name


def test_add_residual_breaks_binarity_somewhere():
    # integer residuals reach 2 whenever both branches fire
    model = build(tiny_cfg(residual_op="add"), seed=5)
    x = np.random.default_rng(4).random((2, 1, 32, 32))
    with trace_activity() as tr:
        model.forward_full(x, mode="multi")
    joined = np.concatenate([a.ravel() for n, a in tr.tensors
                             if n.startswith("tokens.out")])
    assert joined.max() > 1.0


def test_indivisible_input_rejected():
    model = build()
    with pytest.raises(ValueError, match="divisible"):
        model.forward_full(np.zeros((1, 1, 40, 40)), mode="multi")


def test_zero_input_gives_half_map():
    # silent network: zero features into a zero-bias head -> sigmoid(0)
    model = build(tiny_cfg(steps=2))
    model.eval()
    maps = model.forward_full(np.zeros((1, 1, 32, 32)), mode="multi")
    np.testing.assert_allclose(maps.data, 0.5)


# -- attention core against enumeration ------------------------------------


def attention_oracle(q, k, v, scale, v_th=1.0):
    """Loop reimplementation: counts, scaling, threshold."""
    b, n, tok, d = q.shape
    out = np.zeros_like(q)
    for bi in range(b):
        for h in range(n):
            att = np.zeros((tok, tok))
            for i in range(tok):
                for j in range(tok):
                    att[i, j] = np.sum(q[bi, h, i] * k[bi, h, j])
            agg = att @ v[bi, h]
            # fresh membrane: h1 = x / tau + v_reset with defaults tau=2
            out[bi, h] = (agg * scale / 2.0 >= v_th).astype(float)
    return out


def test_attention_matches_enumeration():
    rng = np.random.default_rng(7)
    lif = LIFParams()
    for _ in range(20):
        q = (rng.random((2, 2, 4, 4)) < 0.5).astype(float)
        k = (rng.random((2, 2, 4, 4)) < 0.5).astype(float)
        v = (rng.random((2, 2, 4, 4)) < 0.5).astype(float)
        scale = float(rng.uniform(0.3, 2.0))
        got = spiking_attention(Tensor(q), Tensor(k), Tensor(v), scale, lif)
        np.testing.assert_array_equal(got.data, attention_oracle(q, k, v, scale))


def test_attention_identity_routing():
    # Q = K = I: every query matches exactly its own key, so the
    # aggregation returns V row-for-row; with scale 2 / tau 2 the gate
    # fires exactly where V does.
    eye = np.eye(4)[None, None]
    v = np.array([[1, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1], [0, 0, 0, 0]],
                 dtype=float)[None, None]
    got = spiking_attention(Tensor(eye), Tensor(eye), Tensor(v), 2.0,
                            LIFParams())
    np.testing.assert_array_equal(got.data, v)


def test_attention_output_binary():
    rng = np.random.default_rng(11)
    q = (rng.random((3, 2, 8, 4)) < 0.7).astype(float)
    out = spiking_attention(Tensor(q), Tensor(q), Tensor(q), 0.5, LIFParams())
    assert np.isin(out.data, (0.0, 1.0)).all()


# -- recurrent step wiring ---------------------------------------------------


def shift_oracle(e, mode):
    # e: (T, B, D, h, w) ndarray
    if mode == "vanilla":
        return e
    if mode == "reverse":
        return np.concatenate([e[1:], e[-1:]], axis=0)
    return np.concatenate([e[:1], e[:-1]], axis=0)


@pytest.mark.parametrize("mode", ["vanilla", "forward", "reverse"])
def test_step_shift(mode):
    cfg = tiny_cfg(recurrent_mode=mode, steps=4)
    block = rst.RFABlock(np.random.default_rng(0), cfg)
    e = np.random.default_rng(8).random((4, 2, 16, 3, 5))
    got = block._shift_steps(Tensor(e.reshape(8, 16, 3, 5)), 4, 2)
    np.testing.assert_array_equal(got.data.reshape(4, 2, 16, 3, 5),
                                  shift_oracle(e, mode))


@pytest.mark.parametrize("mode", ["vanilla", "forward", "reverse"])
def test_step_shift_single_step_identity(mode):
    cfg = tiny_cfg(recurrent_mode=mode, steps=1)
    block = rst.RFABlock(np.random.default_rng(0), cfg)
    e = Tensor(np.random.default_rng(9).random((2, 16, 3, 5)))
    assert block._shift_steps(e, 1, 2) is e


@pytest.mark.parametrize("mode", ["vanilla", "forward", "reverse"])
def test_block_feeds_shifted_steps_to_attention(monkeypatch, mode):
    # spy on the attention call: K must be the K-projection of the
    # mode-shifted token map, not of the queries' own step
    captured = {}
    real = rst.spiking_attention

    def spy(q, k, v, scale, lif=None, trace_name=""):
        captured["k"] = k.data.copy()
        captured["v"] = v.data.copy()
        return real(q, k, v, scale, lif, trace_name)

    monkeypatch.setattr(rst, "spiking_attention", spy)
    e = (np.random.default_rng(10).random((3, 2, 16, 3, 3)) < 0.5).astype(float)
    cfg = tiny_cfg(recurrent_mode=mode, steps=3)
    block = rst.RFABlock(np.random.default_rng(4), cfg)
    block.forward(Tensor(e.reshape(6, 16, 3, 3)), 3, 2)

    src = shift_oracle(e, mode).reshape(6, 16, 3, 3)
    for name, proj in (("k", block.k_proj), ("v", block.v_proj)):
        # (6, D, h, w) -> heads (6, 2, h*w, 8)
        exp = proj.forward(Tensor(src)).data
        exp = exp.reshape(6, 2, 8, 9).swapaxes(-1, -2)
        np.testing.assert_array_equal(captured[name], exp)


def test_single_step_state_carries():
    # training-mode BN so the untrained net has real activity
    model = build(tiny_cfg(steps=1, rfa_blocks=1))
    x = (np.random.default_rng(12).random((1, 1, 32, 32)) < 0.5).astype(float)
    model.reset_state()
    a = model.forward_full(x, mode="single")[0].data
    b = model.forward_full(x, mode="single")[0].data
    model.reset_state()
    c = model.forward_full(x, mode="single")[0].data
    np.testing.assert_array_equal(a, c)   # reset restores the start
    assert not np.array_equal(a, b)       # carried membranes shift step 2


def test_multi_mode_resets_between_calls():
    model = build(tiny_cfg(steps=2))
    model.eval()
    x = (np.random.default_rng(13).random((1, 1, 32, 32)) < 0.4).astype(float)
    a = model.forward_full(x, mode="multi").data
    b = model.forward_full(x, mode="multi").data
    np.testing.assert_array_equal(a, b)


# -- parameters ---------------------------------------------------------------


def param_count(model):
    return sum(t.data.size for _, t in model.named_parameters())


def test_param_count_independent_of_steps():
    n1 = param_count(build(tiny_cfg(steps=1)))
    n5 = param_count(build(tiny_cfg(steps=5)))
    assert n1 == n5


def test_param_count_grows_with_blocks():
    n2 = param_count(build(tiny_cfg(rfa_blocks=2)))
    n3 = param_count(build(tiny_cfg(rfa_blocks=3)))
    assert n3 > n2
    per_block = n3 - n2
    n0 = param_count(build(tiny_cfg(rfa_blocks=0)))
    assert n2 == n0 + 2 * per_block


def test_zero_blocks_pass_through():
    model = build(tiny_cfg(rfa_blocks=0))
    x = np.random.default_rng(14).random((1, 1, 32, 32))
    maps = model.forward_full(x, mode="multi")
    assert maps[0].shape == (1, 1, 32, 32)


def test_concat_residual_keeps_shapes():
    model = build(tiny_cfg(residual_op="concat"), seed=6)
    x = np.random.default_rng(15).random((1, 1, 32, 32))
    with trace_activity() as tr:
        maps = model.forward_full(x, mode="multi")
    assert maps[0].shape == (1, 1, 32, 32)
    for name, arr in tr.tensors:
        assert np.isin(arr, (0.0, 1.0)).all(), name


def test_state_dict_roundtrip():
    m1 = build(tiny_cfg(), seed=20)
    m2 = build(tiny_cfg(), seed=21)
    x = np.random.default_rng(16).random((1, 1, 32, 32))
    m1.eval(), m2.eval()
    a = m1.forward_full(x, mode="multi")[0].data
    m2.load_state_dict(m1.state_dict())
    b = m2.forward_full(x, mode="multi")[0].data
    np.testing.assert_array_equal(a, b)


# -- gradients reach every parameter -----------------------------------------


def test_every_parameter_receives_gradient():
    # surrogate + straight-through paths must leave no parameter orphaned
    model = build(tiny_cfg(steps=2, rfa_blocks=1), seed=2)
    x = (np.random.default_rng(17).random((2, 1, 32, 32)) < 0.5).astype(float)
    maps = model.forward_full(x, mode="multi")
    loss = G.mean(maps)
    loss.backward()
    for name, p in model.named_parameters():
        assert p.grad is not None, name
        assert np.isfinite(p.grad).all(), name


def test_trace_layer_records():
    model = build(tiny_cfg(steps=2, rfa_blocks=1))
    x = np.random.default_rng(18).random((1, 1, 32, 32))
    with trace_activity() as tr:
        model.forward_full(x, mode="multi")
    names = [rec["name"] for rec in tr.layers]
    assert "encoder.conv1" in names
    assert "rfa0.q" in names and "rfa0.att.qk" in names
    assert "head.conv" in names
    first = next(r for r in tr.layers if r["name"] == "encoder.conv1")
    assert first["analog"]          # real-valued input representation
    assert all(not r["analog"] for r in tr.layers if r["name"] != "encoder.conv1")


# D=16, heads 2 (d_h 8), 1 RFA block, 2 steps x batch 1 on 32x32: the
# encoder reaches 2x2, so attention runs over N=4 tokens. Fanouts are
# C_out * k^2 per conv, d_out per token projection, N for Q K^T and d_h
# for (Q K^T) V; numel_in is the layer input's element count.
_TRACE_OR = [
    ("encoder.conv1", 2 * 9, 2 * 1 * 32 * 32),
    ("encoder.conv2", 4 * 9, 2 * 2 * 16 * 16),
    ("encoder.conv3", 8 * 9, 2 * 4 * 8 * 8),
    ("encoder.conv4", 16 * 9, 2 * 8 * 4 * 4),
    ("rfa0.q", 16, 2 * 4 * 16),
    ("rfa0.k", 16, 2 * 4 * 16),
    ("rfa0.v", 16, 2 * 4 * 16),
    ("rfa0.att.qk", 4, 2 * 2 * 4 * 8),
    ("rfa0.att.av", 8, 2 * 2 * 4 * 4),
    ("rfa0.proj", 16, 2 * 4 * 16),
    ("rfa0.mlp1", 16 * 9, 2 * 16 * 2 * 2),
    ("rfa0.mlp2", 16 * 9, 2 * 16 * 2 * 2),
    ("refine.up1", 8 * 9, 2 * 16 * 4 * 4),
    ("refine.up2", 4 * 9, 2 * 8 * 8 * 8),
    ("refine.out", 16 * 9, 2 * 4 * 8 * 8),
    ("head.conv", 1, 2 * 16 * 8 * 8),
]
# 'concat' adds one spiking projection after each fusion: back to d_out=16
# over doubled tokens, or a 1x1 conv back to C_out over doubled channels
_CONCAT_PROJ = {
    "rfa0.proj": ("rfa0.fuse_att.proj", 16, 2 * 4 * 32),
    "rfa0.mlp2": ("rfa0.fuse_mlp.proj", 16, 2 * 4 * 32),
    "refine.up1": ("refine.fuse1.proj", 8 * 1, 2 * 16 * 4 * 4),
    "refine.up2": ("refine.fuse2.proj", 4 * 1, 2 * 8 * 8 * 8),
}


@pytest.mark.parametrize("op", ["or", "add", "concat"])
def test_trace_layer_sequence_pinned(op):
    want = []
    for rec in _TRACE_OR:
        want.append(rec)
        if op == "concat" and rec[0] in _CONCAT_PROJ:
            want.append(_CONCAT_PROJ[rec[0]])
    model = build(tiny_cfg(steps=2, rfa_blocks=1, residual_op=op), seed=3)
    x = np.random.default_rng(19).random((1, 1, 32, 32))
    with trace_activity() as tr:
        model.forward_full(x, mode="multi")
    got = [(r["name"], r["fanout"], r["numel_in"]) for r in tr.layers]
    assert got == want


def test_relaxed_forward_of_one_model():
    # the same model, weights and input: exactly binary boundaries in the
    # spiking forward, smooth gates under G.relaxed(), binary again after
    model = build(tiny_cfg(steps=2, rfa_blocks=1), seed=4)
    x = np.random.default_rng(20).random((1, 1, 32, 32))

    def boundaries():
        with trace_activity() as tr:
            model.forward_full(x, mode="multi")
        return tr.tensors

    hard = boundaries()
    for name, arr in hard:
        assert np.isin(arr, (0.0, 1.0)).all(), name
    with G.relaxed():
        soft = boundaries()
    assert [n for n, _ in soft] == [n for n, _ in hard]
    for name, arr in soft:
        assert not np.isin(arr, (0.0, 1.0)).all(), name
        assert (arr > 0).all() and (arr < 1).all(), name
    for (name, a), (_, b) in zip(hard, boundaries()):
        np.testing.assert_array_equal(a, b, err_msg=name)
