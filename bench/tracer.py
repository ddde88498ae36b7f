"""Span tracing for the benchmark, installed from outside the package.

``instrument(tracer)`` replaces public spikesal functions and methods with
timing wrappers for the duration of a ``with`` block and restores them on
exit. Each name is patched where its caller looks it up: ``G.conv2d`` is
an attribute of the ``spikesal.grad`` package, while ``lif_step``,
``load_samples``, ``evaluate_model`` and ``model_from_checkpoint`` are
imported by name into other modules and are patched there as well.

Backward time of a wrapped ``grad`` op is caught by wrapping the backward
closure (``Tensor._vjp``) on the tensor the op returns. The SSIM term's
backward is attributed by wrapping the closure of every graph node the
SSIM forward created.

A span's self time is its duration minus the durations of its direct
child spans. FLOP and byte counts are computed from array shapes and
sizes, not measured.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder: (name, start, end, parent index, run id)."""

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.run_id = ""
        self.enabled = True
        self._stack = []          # [span index, child seconds]

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            self.spans[frame[0]] = (name, start, end, parent, self.run_id)
            self.self_s[name] += dur - frame[1]
            self.incl_s[name] += dur
            if self._stack:
                self._stack[-1][1] += dur

    def count(self, name: str, value: float = 1.0):
        if self.enabled:
            self.counts[name] += value

    def reset_totals(self):
        """Start a fresh set of totals; recorded spans are kept."""
        self.self_s.clear()
        self.incl_s.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "counts": {k: round(v, 9) for k, v in self.counts.items()}}

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _timed(tr: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        with tr.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(out, *args, **kwargs)
        return out
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_backward(tr: Tracer, tensor, name: str):
    inner = getattr(tensor, "_vjp", None)
    if inner is None:
        return

    def vjp(g):
        with tr.span(name):
            inner(g)
    tensor._vjp = vjp


def _conv_cost(out, x, weight, *_a, **_k):
    x_shape, w_shape = _shape(x), _shape(weight)
    cout, cin, k, _ = w_shape
    flops = 2.0 * cin * k * k * math.prod(out.shape)
    moved = 8.0 * (math.prod(x_shape) + math.prod(w_shape) + out.size)
    return flops, moved


def _linear_cost(out, x, weight, *_a, **_k):
    n_in = _shape(weight)[1]
    flops = 2.0 * n_in * out.size
    moved = 8.0 * (math.prod(_shape(x)) + math.prod(_shape(weight)) + out.size)
    return flops, moved


def _matmul_cost(out, a, b, *_a, **_k):
    inner = _shape(a)[-1]
    flops = 2.0 * inner * out.size
    moved = 8.0 * (math.prod(_shape(a)) + math.prod(_shape(b)) + out.size)
    return flops, moved


def _shape(x):
    return x.shape if hasattr(x, "shape") else ()


def _graph_nodes_between(out, stop):
    """Graph nodes reachable from ``out`` without passing a node in ``stop``."""
    stop_ids = {id(t) for t in stop}
    seen, todo, nodes = set(), [out], []
    while todo:
        node = todo.pop()
        if id(node) in seen or id(node) in stop_ids:
            continue
        seen.add(id(node))
        nodes.append(node)
        todo.extend(node._parents)
    return nodes


@contextmanager
def instrument(tr: Tracer):
    """Patch spikesal's public functions with span wrappers; undo on exit."""
    from spikesal import (cli, grad, metrics, neuro, objective, optim, rst,
                          simcam, spikeio, train)

    patches = []

    def patch(owner, attr, wrapper):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def op(owner, attr, name, cost=None, backward=True):
        fn = getattr(owner, attr)

        def after(out, *args, **kwargs):
            tr.count(name + ".calls")
            if cost is not None:
                flops, moved = cost(out, *args, **kwargs)
                tr.count(name + ".gflop", flops / 1e9)
                tr.count(name + ".mb_moved", moved / 1e6)
            if backward:
                _wrap_backward(tr, out, name + ".bwd")
        patch(owner, attr, _timed(tr, name + ".fwd", fn, after))

    # grad: looked up as G.<op> by every caller
    op(grad, "conv2d", "grad.conv2d", _conv_cost)
    op(grad, "linear", "grad.linear", _linear_cost)
    op(grad, "matmul", "grad.matmul", _matmul_cost)
    op(grad, "batchnorm", "grad.batchnorm")
    op(grad, "spike_gate", "grad.spike_gate", backward=False)
    patch(grad.Tensor, "backward",
          _timed(tr, "grad.backward", grad.Tensor.backward))

    # objective: map_loss looks its terms up in the objective module
    op(objective, "bce", "objective.bce", backward=False)
    op(objective, "iou_loss", "objective.iou", backward=False)
    ssim = objective.ssim_loss

    def ssim_loss(pred, target, *args, **kwargs):
        before = tr.counts["grad.conv2d.calls"]
        with tr.span("objective.ssim.fwd"):
            out = ssim(pred, target, *args, **kwargs)
        tr.count("objective.ssim.calls")
        tr.count("objective.ssim.conv_calls",
                 tr.counts["grad.conv2d.calls"] - before)
        for node in _graph_nodes_between(out, (pred, target)):
            _wrap_backward(tr, node, "objective.ssim.bwd")
        return out
    patch(objective, "ssim_loss", ssim_loss)
    # train imports its loss entry points by name
    for attr in ("multi_step_loss", "map_loss", "vanilla_loss"):
        patch(train, attr,
              _timed(tr, "objective.loss", getattr(train, attr)))

    # neuro / rst: lif_step is imported by name into rst
    lif = neuro.lif_step
    for mod in (neuro, rst):
        patch(mod, "lif_step", _timed(tr, "neuro.lif_step", lif))
    patch(neuro.CBSBlock, "forward",
          _timed(tr, "neuro.cbs.fwd", neuro.CBSBlock.forward))
    for cls, name in ((rst.Encoder, "encoder"), (rst.RFABlock, "rfa"),
                      (rst.Refine, "refine"), (rst.Head, "head")):
        patch(cls, "forward", _timed(tr, f"rst.{name}.fwd", cls.forward))
    patch(rst, "spiking_attention",
          _timed(tr, "rst.attention.fwd", rst.spiking_attention))

    # optim, train
    patch(optim.AdamW, "step",
          _timed(tr, "optim.step", optim.AdamW.step,
                 lambda *_a, **_k: tr.count("optim.step.calls")))
    patch(train, "save_checkpoint",
          _timed(tr, "train.checkpoint", train.save_checkpoint))
    for mod in (train, cli):
        patch(mod, "evaluate_model",
              _timed(tr, "train.eval", train.evaluate_model))
        patch(mod, "load_samples",
              _timed(tr, "train.load_samples", train.load_samples))

    # spikeio: callers use sio.<name>; masks go through write_pgm/read_pgm
    def after_read(stream, *_a, **_k):
        tr.count("spikeio.read_stream.calls")
        tr.count("spikeio.read_stream.dense_mb", stream.bits.nbytes / 1e6)
    patch(spikeio, "read_stream",
          _timed(tr, "spikeio.read_stream", spikeio.read_stream, after_read))
    patch(spikeio, "isi_repr",
          _timed(tr, "spikeio.isi_repr", spikeio.isi_repr,
                 lambda *_a, **_k: tr.count("spikeio.isi_repr.calls")))

    def after_write(_out, _path, stream, *_a, **_k):
        tr.count("spikeio.write_stream.mb", stream.bits.nbytes / 1e6)
    patch(spikeio, "write_stream",
          _timed(tr, "spikeio.write_stream", spikeio.write_stream, after_write))
    for attr in ("write_pgm", "read_pgm"):
        patch(spikeio, attr,
              _timed(tr, "spikeio.pgm", getattr(spikeio, attr),
                     lambda *_a, **_k: tr.count("spikeio.pgm.calls")))

    # simcam: generate_dataset calls simulate by module-global name
    def after_sim(_out, _scene, _params, steps, *_a, **_k):
        tr.count("simcam.simulate.frames", steps)
    patch(simcam, "simulate",
          _timed(tr, "simcam.simulate", simcam.simulate, after_sim))
    for attr in ("intensity", "object_mask"):
        patch(simcam.Scene, attr,
              _timed(tr, "simcam.scene", getattr(simcam.Scene, attr)))

    # metrics, cli
    patch(metrics, "evaluate",
          _timed(tr, "metrics.evaluate", metrics.evaluate,
                 lambda rep, *_a, **_k: tr.count("metrics.evaluate.maps",
                                                 rep.count)))
    patch(metrics, "estimate_energy",
          _timed(tr, "metrics.energy", metrics.estimate_energy))
    patch(cli, "model_from_checkpoint",
          _timed(tr, "cli.model_load", cli.model_from_checkpoint))
    try:
        yield tr
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------

RST_LAYERS = (["encoder.conv1", "encoder.conv2", "encoder.conv3",
               "encoder.conv4"]
              + [f"rfa{i}.{part}" for i in range(2)
                 for part in ("q", "k", "v", "att.qk", "att.av", "proj",
                              "mlp1", "mlp2")]
              + ["refine.up1", "refine.up2", "refine.out", "head.conv"])

_COUNT_UNITS = {"calls": "count", "conv_calls": "count", "frames": "count",
                "maps": "count", "gflop": "GFLOP", "mb_moved": "MB",
                "dense_mb": "MB", "mb": "MB"}


def _metric(name: str):
    last = name.rsplit(".", 1)[1]
    if name.startswith("rst.rate."):
        return name, "frac", "lower"
    if last.endswith("_s") or last.startswith("step_s"):
        return name, "s", "lower"
    if last == "trace_overhead_pct":
        return name, "%", "lower"
    return name, _COUNT_UNITS.get(last, "count"), "lower"


LAYER_METRICS = [_metric(n) for n in (
    "objective.bce.fwd_s", "objective.iou.fwd_s", "objective.ssim.fwd_s",
    "objective.ssim.bwd_s", "objective.ssim.incl_s",
    "objective.ssim.conv_calls",
    "grad.conv2d.fwd_s", "grad.conv2d.bwd_s", "grad.linear.fwd_s",
    "grad.linear.bwd_s", "grad.matmul.fwd_s", "grad.matmul.bwd_s",
    "grad.batchnorm.fwd_s", "grad.batchnorm.bwd_s", "grad.spike_gate.fwd_s",
    "grad.backward.self_s", "grad.conv2d.calls", "grad.conv2d.gflop",
    "grad.conv2d.mb_moved", "grad.linear.gflop", "grad.linear.mb_moved",
    "grad.matmul.gflop", "grad.matmul.mb_moved",
    "neuro.cbs.fwd_s", "neuro.lif_step.self_s", "rst.encoder.fwd_s",
    "rst.rfa.fwd_s", "rst.attention.fwd_s", "rst.refine.fwd_s",
    "rst.head.fwd_s",
    "optim.step.self_s", "optim.step.calls", "train.step_s_p50",
    "train.step_s_p90", "train.checkpoint.self_s", "train.eval.self_s",
    "train.load_samples.self_s",
    "spikeio.read_stream.self_s", "spikeio.read_stream.calls",
    "spikeio.read_stream.dense_mb", "spikeio.isi_repr.self_s",
    "spikeio.isi_repr.calls", "spikeio.write_stream.self_s",
    "spikeio.write_stream.mb", "spikeio.pgm.self_s", "spikeio.pgm.calls",
    "simcam.simulate.self_s", "simcam.simulate.frames", "simcam.scene.self_s",
    "metrics.evaluate.self_s", "metrics.evaluate.maps", "metrics.energy.self_s",
    "cli.model_load.self_s",
    *[f"rst.rate.{n}" for n in RST_LAYERS],
    "rst.dead_layers", "rst.saturated_layers", "rst.ac_ops", "rst.mac_ops",
    "bench.trace_overhead_s", "bench.trace_overhead_pct")]


def layer_value(name: str, self_s, incl_s, counts, extra) -> float:
    """One per-layer metric from per-round span totals and counts.

    ``X.fwd_s`` / ``X.bwd_s`` is the self time of span ``X.fwd`` /
    ``X.bwd``, ``X.self_s`` that of span ``X``; names in ``extra`` are
    computed by the workload. Anything a workload never reached reads 0.
    """
    if name in extra:
        return float(extra[name])
    if name == "objective.ssim.incl_s":
        return incl_s.get("objective.ssim.fwd", 0.0) + \
            incl_s.get("objective.ssim.bwd", 0.0)
    if name.endswith((".fwd_s", ".bwd_s")):
        return self_s.get(name[:-2], 0.0)
    if name.endswith(".self_s"):
        return self_s.get(name[:-len(".self_s")], 0.0)
    return float(counts.get(name, 0.0))


def step_times(spans, phase: str) -> list:
    """Intervals between consecutive optimizer-step ends within one
    training phase, skipping any interval that holds an epoch-end
    evaluation or checkpoint."""
    ends = defaultdict(list)
    epoch_marks = []
    for rec in spans:
        if rec is None:
            continue
        name, start, end, _parent, run = rec
        if name == "optim.step" and run.endswith("." + phase):
            ends[run].append(end)
        elif name in ("train.eval", "train.checkpoint"):
            epoch_marks.append(start)
    out = []
    for run_ends in ends.values():
        for a, b in zip(run_ends, run_ends[1:]):
            if not any(a <= m <= b for m in epoch_marks):
                out.append(b - a)
    return out
