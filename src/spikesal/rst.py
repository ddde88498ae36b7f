"""Recurrent spiking transformer for saliency prediction on spike streams.

Pipeline, all-binary between modules:

* encoder: the input representation is repeated for every step and pushed
  through four conv-BN-spike blocks with persistent membranes, halving
  resolution each block; channels grow to the model dim D.
* aggregation: the deepest feature map passes a stack of recurrent
  spiking attention blocks and stays a (T*B, D, h, w) map: its h*w
  positions are the tokens, projected by 1x1 conv-BN-spike blocks, the
  same ``CBSBlock`` unit every other stage is built from.
  Queries come from the current step; keys and values from an adjacent
  step selected by the recurrent mode (reverse: next step, forward:
  previous, vanilla: same). The final step has no neighbour and attends
  to itself. All steps share one set of block weights, so parameter
  count is step-count free.
* refinement: the aggregated map is upsampled twice and fused with the
  two mid-resolution pyramid features, then projected back to D channels
  at quarter resolution.
* head: 1x1 conv + sigmoid + nearest x4 upsample to a per-pixel map.

Residual fusion is element-OR by default, keeping every inter-module
tensor in {0,1}; 'add' reproduces integer-residual variants and 'concat'
concatenates then projects back through a 1x1 conv-BN-spike block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grad as G
from .grad import Tensor
from .neuro import (LIFParams, LIFNeuron, CBSBlock, lif_fire,
                    fold_thresholds, repeat_steps, _emit_layer, _emit_tensor)
from .spikeio import check_config
# re-exported: rst.trace_activity for callers, rst.lif_step for the
# benchmark tracer, which patches it here
from .neuro import trace_activity, lif_step

RECURRENT_MODES = ("vanilla", "forward", "reverse")
RESIDUAL_OPS = ("or", "add", "concat")

# config JSON keys and the kind of value each holds, fixed interface
_JSON_KINDS = {"D": "int", "heads": "int", "T": "int", "rfa_blocks": "int",
               "recurrent_mode": "str", "residual_op": "str", "tau": "float",
               "v_th": "float", "v_reset": "float", "surrogate_alpha": "float"}


@dataclass
class RSTConfig:
    dim: int = 128
    heads: int = 8
    steps: int = 5
    rfa_blocks: int = 6
    recurrent_mode: str = "reverse"
    residual_op: str = "or"
    tau: float = 2.0
    v_th: float = 1.0
    v_reset: float = 0.0
    surrogate_alpha: float = 2.0

    def __post_init__(self):
        if self.dim < 8 or self.dim % 8:
            raise ValueError("dim must be a positive multiple of 8 "
                             "(four halving stages)")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if self.dim % self.heads:
            raise ValueError("dim must be divisible by heads")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.rfa_blocks < 0:
            raise ValueError("rfa_blocks must be >= 0")
        if self.recurrent_mode not in RECURRENT_MODES:
            raise ValueError(f"recurrent_mode must be one of {RECURRENT_MODES}")
        if self.residual_op not in RESIDUAL_OPS:
            raise ValueError(f"residual_op must be one of {RESIDUAL_OPS}")

    @property
    def scale(self) -> float:
        """Attention damping sqrt(heads / dim)."""
        return float(np.sqrt(self.heads / self.dim))

    def lif(self) -> LIFParams:
        return LIFParams(self.tau, self.v_th, self.v_reset, self.surrogate_alpha)

    def to_json_dict(self) -> dict:
        return {"D": self.dim, "heads": self.heads, "T": self.steps,
                "rfa_blocks": self.rfa_blocks,
                "recurrent_mode": self.recurrent_mode,
                "residual_op": self.residual_op,
                "tau": self.tau, "v_th": self.v_th, "v_reset": self.v_reset,
                "surrogate_alpha": self.surrogate_alpha}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RSTConfig":
        doc = check_config(doc, _JSON_KINDS, "model config")
        rename = {"D": "dim", "T": "steps"}
        merged = dict(cls().__dict__)
        for k, v in doc.items():
            merged[rename.get(k, k)] = v
        return cls(**merged)


# -- attention core --------------------------------------------------------------


def spiking_attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
                      lif: LIFParams, trace_name: str = "") -> Tensor:
    """SN(Q K^T V * scale) over head-split binary tokens (B, n, N, d).

    The two products of binary matrices produce non-negative integer
    counts; the scaled result passes one fresh-membrane firing step and
    comes out binary again.
    """
    _emit_layer(trace_name + "qk", q.data, k.shape[-2])
    att = G.matmul(q, G.swapaxes(k, -1, -2))
    _emit_layer(trace_name + "av", att.data, v.shape[-1])
    att = G.matmul(att, v)
    att = G.mul(att, scale)
    return lif_fire(att, lif)


class Fuse(G.Module):
    """Residual combiner. 'or' and 'add' merge elementwise; 'concat' joins
    the channel axes and restores the ``ch`` channels through a 1x1
    conv-BN-spike ``proj`` traced as ``name``, so downstream shapes stay
    fixed."""

    def __init__(self, op: str, rng, ch: int, lif: LIFParams, name: str):
        super().__init__()
        self.op = op
        if op == "concat":
            self.proj = CBSBlock(rng, 2 * ch, ch, lif, pool=False, kernel=1,
                                 name=name)

    def forward(self, a: Tensor, b: Tensor) -> Tensor:
        if self.op == "or":
            return G.elementwise_or(a, b)
        if self.op == "add":
            return G.add(a, b)
        return self.proj.forward(G.concat([a, b], axis=1))


class RFABlock(G.Module):
    """One recurrent aggregation block, shared across all steps; its
    layers are traced as ``name.q``, ``name.att.qk``, ``name.mlp1``, ..."""

    def __init__(self, rng, cfg: RSTConfig, name: str = "rfa"):
        super().__init__()
        d, lif = cfg.dim, cfg.lif()
        self.cfg = cfg
        self.name = name
        self.q_proj = CBSBlock(rng, d, d, lif, pool=False, kernel=1,
                               name=name + ".q")
        self.k_proj = CBSBlock(rng, d, d, lif, pool=False, kernel=1,
                               name=name + ".k")
        self.v_proj = CBSBlock(rng, d, d, lif, pool=False, kernel=1,
                               name=name + ".v")
        self.out_proj = CBSBlock(rng, d, d, lif, pool=False, kernel=1,
                                 name=name + ".proj")
        self.fuse_att = Fuse(cfg.residual_op, rng, d, lif,
                             name + ".fuse_att.proj")
        self.fuse_mlp = Fuse(cfg.residual_op, rng, d, lif,
                             name + ".fuse_mlp.proj")
        self.mlp1 = CBSBlock(rng, d, d, lif, pool=False, name=name + ".mlp1")
        self.mlp2 = CBSBlock(rng, d, d, lif, pool=False, name=name + ".mlp2")

    def _shift_steps(self, e: Tensor, steps: int, batch: int) -> Tensor:
        if steps == 1 or self.cfg.recurrent_mode == "vanilla":
            return e
        e5 = G.reshape(e, (steps, batch) + e.shape[1:])
        if self.cfg.recurrent_mode == "reverse":
            kv = G.concat([e5[1:], e5[steps - 1:steps]], axis=0)
        else:  # forward
            kv = G.concat([e5[0:1], e5[:steps - 1]], axis=0)
        return G.reshape(kv, e.shape)

    def forward(self, e: Tensor, steps: int, batch: int) -> Tensor:
        """e: the (steps*batch, D, h, w) token map; returns the same shape."""
        cfg = self.cfg
        n, _, h, w = e.shape
        kv_src = self._shift_steps(e, steps, batch)
        q = self.q_proj.forward(e)
        k = self.k_proj.forward(kv_src)
        v = self.v_proj.forward(kv_src)

        def split(x):  # (n, D, h, w) -> (n, heads, h*w, D/heads)
            return G.swapaxes(G.reshape(x, (n, cfg.heads, -1, h * w)), -1, -2)

        att = spiking_attention(split(q), split(k), split(v), cfg.scale,
                                cfg.lif(), trace_name=self.name + ".att.")
        att = G.reshape(G.swapaxes(att, -1, -2), e.shape)
        z = self.fuse_att.forward(e, self.out_proj.forward(att))
        m = self.mlp2.forward(self.mlp1.forward(z))
        return self.fuse_mlp.forward(e, m)


class Encoder(G.Module):
    """Four stateful conv-BN-spike stages; channels 1 -> D/8 ... -> D."""

    def __init__(self, rng, cfg: RSTConfig):
        super().__init__()
        d, lif = cfg.dim, cfg.lif()
        chans = [1, d // 8, d // 4, d // 2, d]
        self.blocks = G.ModuleList([
            CBSBlock(rng, chans[i], chans[i + 1], lif, pool=True,
                     stateful=True, name=f"encoder.conv{i + 1}")
            for i in range(4)])

    def forward(self, x: Tensor, steps: int):
        """x holds ``steps`` copies of the same images, one per step, so
        ``conv1`` gets them as ``repeated`` (see ``CBSBlock.forward``)."""
        feats = []
        for i, blk in enumerate(self.blocks):
            x = blk.forward(x, steps=steps, repeated=i == 0)
            _emit_tensor(f"encoder.f{i + 1}", x.data)
            feats.append(x)
        return feats


class Refine(G.Module):
    """Two upsample-project-fuse stages against the pyramid, then a
    projection back to D channels at quarter resolution. Each stage's
    nearest x2 upsample and 3x3 conv run as one ``G.upsample_conv2d``."""

    def __init__(self, rng, cfg: RSTConfig):
        super().__init__()
        d, lif, op = cfg.dim, cfg.lif(), cfg.residual_op
        self.up1 = CBSBlock(rng, d, d // 2, lif, pool=False, upsample=True,
                            name="refine.up1")
        self.fuse1 = Fuse(op, rng, d // 2, lif, "refine.fuse1.proj")
        self.up2 = CBSBlock(rng, d // 2, d // 4, lif, pool=False,
                            upsample=True, name="refine.up2")
        self.fuse2 = Fuse(op, rng, d // 4, lif, "refine.fuse2.proj")
        self.out = CBSBlock(rng, d // 4, d, lif, pool=False, name="refine.out")

    def forward(self, f_agg: Tensor, f3: Tensor, f2: Tensor) -> Tensor:
        x = self.up1.forward(f_agg)
        x = self.fuse1.forward(x, f3)
        _emit_tensor("refine.s1", x.data)
        x = self.up2.forward(x)
        x = self.fuse2.forward(x, f2)
        _emit_tensor("refine.s2", x.data)
        x = self.out.forward(x)
        _emit_tensor("refine.out", x.data)
        return x


class Head(G.Module):
    """1x1 conv + sigmoid + nearest x4 back to input resolution; traced
    as ``head.conv`` with C_out = 1 synapse per input element."""

    def __init__(self, rng, cfg: RSTConfig):
        super().__init__()
        self.weight = G.kaiming_uniform(rng, (1, cfg.dim, 1, 1), fan_in=cfg.dim)
        self.bias = Tensor(np.zeros(1), requires_grad=True)
        self.name = "head.conv"

    def forward(self, x: Tensor) -> Tensor:
        _emit_layer(self.name, x.data, self.weight.shape[0])
        y = G.conv2d(x, self.weight, self.bias, padding=0)
        y = G.sigmoid(y)
        return G.nearest_upsample2d(y, 4)


class RSTModel(G.Module):
    """Full network. Run under ``G.relaxed()`` it is its own smooth twin
    (continuous gates, differentiable OR, undetached resets) whose
    analytic gradient is finite-difference checkable end to end. Built
    with ``rng`` None, its weights are zeros and no random number is
    drawn, for a model whose state is loaded next."""

    def __init__(self, cfg: RSTConfig, rng: np.random.Generator | None):
        super().__init__()
        self.cfg = cfg
        self.encoder = Encoder(rng, cfg)
        self.rfa = G.ModuleList([RFABlock(rng, cfg, f"rfa{i}")
                                 for i in range(cfg.rfa_blocks)])
        self.refine = Refine(rng, cfg)
        self.head = Head(rng, cfg)

    def reset_state(self):
        for m in self.modules():
            if isinstance(m, LIFNeuron):
                m.reset_state()

    def detach_state(self):
        for m in self.modules():
            if isinstance(m, LIFNeuron):
                m.detach_state()

    def stateless_units(self) -> list:
        """The conv-BN-spike units that fire from a fresh membrane: every
        ``CBSBlock`` outside the encoder."""
        return [m for m in self.modules()
                if isinstance(m, CBSBlock) and not m.stateful]

    def forward_steps(self, x: np.ndarray, steps: int) -> Tensor:
        """Run ``steps`` copies of (B,1,H,W) input through the stack, in
        the weights' dtype; returns the per-step saliency maps as one
        (steps, B, 1, H, W) tensor."""
        b, _, hh, ww = x.shape
        if hh % 16 or ww % 16:
            raise ValueError("input spatial dims must be divisible by 16")
        dtype = self.head.weight.data.dtype
        xt = Tensor(repeat_steps(np.asarray(x, dtype=dtype), steps))
        _, f2, f3, e = self.encoder.forward(xt, steps)
        _emit_tensor("tokens.in", e.data)
        for i, blk in enumerate(self.rfa):
            e = blk.forward(e, steps, b)
            _emit_tensor(f"tokens.out{i}", e.data)
        s_feat = self.refine.forward(e, f3, f2)
        maps = self.head.forward(s_feat)
        return G.reshape(maps, (steps, b) + maps.shape[1:])

    def forward_full(self, x: np.ndarray, mode: str = "multi") -> Tensor:
        """multi: fresh state, the configured step count, T maps out; the
        final membranes are dropped again on return, since nothing reads
        them and they would hold the last step's spikes alive.
        single: one step per call, membrane state carried across calls.
        The maps come as one (T, B, 1, H, W) tensor, T = 1 in single mode."""
        if mode == "multi":
            self.reset_state()
            maps = self.forward_steps(x, self.cfg.steps)
            self.reset_state()
            return maps
        if mode == "single":
            return self.forward_steps(x, 1)
        raise ValueError(f"unknown mode {mode!r}")


def eval_net(cfg: RSTConfig, state: dict) -> RSTModel:
    """The eval-mode float32 network holding the model arrays ``state`` (a
    ``state_dict``), with fresh membranes, for graph-free forwards under
    ``G.no_grad()``. Spikes, pooled spikes and attention counts are exact
    in float32; only the real-valued conv, batchnorm and head values
    round. Every stateless conv-BN-spike unit gets its batchnorm and spike
    folded into per-channel thresholds on the raw conv output, which fire
    exactly where the float32 batchnorm path does
    (``neuro.fold_thresholds``). ``state`` is copied, never kept."""
    net = RSTModel(cfg, None)
    net.load_state_dict(state)
    net.cast(np.float32).eval()
    fold_thresholds(net.stateless_units(), cfg.lif())
    return net


def require_eval(net: RSTModel) -> RSTModel:
    """``net``, if in eval mode: a training-mode forward would overwrite
    its batchnorm running statistics."""
    if net.training:
        raise ValueError("a training-mode net would update its batchnorm "
                         "statistics; evaluate eval_net(cfg, state_dict())")
    return net
