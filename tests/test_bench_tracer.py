"""The benchmark's span tracer patches spikesal names from outside the
package; a refactor that drops or moves one of them must fail here, not
only when the benchmark runs."""

import importlib.util
from pathlib import Path

import numpy as np

from spikesal import (cli, grad, metrics, neuro, objective, optim, rst,
                      simcam, spikeio, train)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def snapshot():
    owners = (cli, grad, metrics, neuro, objective, optim, rst, simcam,
              spikeio, train, grad.Tensor, neuro.CBSBlock, rst.Encoder,
              rst.RFABlock, rst.Refine, rst.Head, optim.AdamW, simcam.Scene)
    return {(owner.__name__, attr): value for owner in owners
            for attr, value in vars(owner).items()}


def test_tracer_instruments_a_training_step_and_restores():
    tracing = load_tracer()
    before = snapshot()
    model = rst.RSTModel(rst.RSTConfig(dim=16, heads=2, steps=2, rfa_blocks=1),
                         np.random.default_rng(0))
    x = np.random.default_rng(1).random((1, 1, 32, 32))
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        inside = snapshot()
        maps = model.forward_full(x, "multi")
        grad.mean(maps).backward()
    patched = [k for k in before if inside[k] is not before[k]]
    assert len(patched) > 20
    after = snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    for span in ("rst.encoder.fwd", "rst.rfa.fwd", "rst.attention.fwd",
                 "neuro.cbs.fwd", "neuro.lif_step", "grad.conv2d.fwd",
                 "grad.conv2d.bwd", "grad.backward"):
        assert tr.incl_s[span] > 0.0, span
    assert tr.counts["grad.conv2d.calls"] > 0


def test_tracer_times_each_fused_loss_term():
    # all T step maps are scored in one call of each term, and the SSIM
    # node's backward is timed as its own span
    tracing = load_tracer()
    rng = np.random.default_rng(2)
    maps = [grad.Tensor(rng.uniform(0.05, 0.95, (2, 1, 32, 32)),
                        requires_grad=True) for _ in range(5)]
    target = grad.Tensor((rng.random((2, 1, 32, 32)) < 0.4).astype(float))
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        train.multi_step_loss(maps, target).backward()
    for span in ("objective.bce.fwd", "objective.iou.fwd",
                 "objective.ssim.fwd", "objective.ssim.bwd", "objective.loss"):
        assert tr.incl_s[span] > 0.0, span
    for term in ("bce", "iou", "ssim"):
        assert tr.counts[f"objective.{term}.calls"] == 1, term
    assert all(m.grad is not None for m in maps)
