"""Training loop, checkpointing, and evaluation plumbing.

Every source of randomness is a counter-derived generator
(default_rng([seed, epoch]) and friends), so a resumed run replays the
exact batch order of an uninterrupted one and checkpoints are
byte-reproducible under a fixed seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import grad as G
from . import metrics
from . import spikeio as sio
from .grad.store import save_tensors, load_tensors
from .objective import LossConfig, map_loss, multi_step_loss, vanilla_loss
from .optim import AdamW, linear_lr
from .rst import RSTConfig, RSTModel, eval_net, require_eval

REPR_SCALE = 1.0 / sio.FULL_SCALE

MODES = ("multi", "single")
LOSS_MODES = ("multi", "vanilla")


# the RunConfig fields that sit in the run config JSON's "optimizer" object;
# every other field is a top-level key of its own name
_OPTIMIZER = ("lr_start", "lr_end", "epochs", "batch_size", "weight_decay")


@dataclass
class RunConfig:
    manifest: str = ""
    model: RSTConfig = field(default_factory=RSTConfig)
    lr_start: float = 2e-5
    lr_end: float = 2e-6
    epochs: int = 20
    batch_size: int = 4
    weight_decay: float = 1e-2
    window: int = 400
    seed: int = 0
    mode: str = "multi"
    loss_mode: str = "multi"

    def __post_init__(self):
        if self.lr_end > self.lr_start:
            raise ValueError("lr_end must not exceed lr_start")
        for name in ("lr_end", "weight_decay", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.epochs < 1 or self.batch_size < 1 or self.window < 1:
            raise ValueError("epochs, batch_size, window must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}")

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["model"] = self.model.to_json_dict()
        doc["optimizer"] = {"kind": "adamw",
                            **{name: doc.pop(name) for name in _OPTIMIZER}}
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RunConfig":
        kinds = {f.name: f.type for f in fields(cls)}
        opt_kinds = {"kind": "str", **{n: kinds.pop(n) for n in _OPTIMIZER}}
        kinds.update(model="dict", optimizer="dict", deterministic="bool")
        doc = sio.check_config(doc, kinds, "run config")
        doc.pop("deterministic", None)  # a retired no-op key of older configs
        opt = sio.check_config(doc.pop("optimizer", {}), opt_kinds,
                               "optimizer config")
        kind = opt.pop("kind", "adamw")
        if kind != "adamw":
            raise ValueError(f"unsupported optimizer kind {kind!r}")
        model = RSTConfig.from_json_dict(doc.pop("model", {}))
        return cls(model=model, **doc, **opt)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_json_dict(
            sio.parse_json(Path(path).read_text(encoding="utf-8"), path))


# -- data ------------------------------------------------------------------------


@dataclass
class Sample:
    repr: np.ndarray     # (1, H, W) float in [0, 1]
    mask: np.ndarray     # (H, W) float {0, 1}
    seq: str
    index: int           # chronological window index within the sequence


def window_repr(stream: sio.SpikeStream, start: int, window: int) -> np.ndarray:
    """Timing representation for the window [start, start+window), decoded
    at the window centre and scaled to [0, 1]."""
    stop = min(start + window, stream.frames)
    piece = stream.slice(start, stop)
    at = min(window // 2, piece.frames - 1)
    return sio.isi_repr(piece, at)[None] * REPR_SCALE


def load_samples(manifest_path, window: int) -> dict:
    """Decode every labelled window up front; toy-scale sets fit in memory.
    Streams stay packed, so only the frames each window's decode scans
    are unpacked."""
    manifest = sio.load_manifest(manifest_path)
    out = {"train": [], "val": []}
    for entry in manifest.streams:
        stream = sio.open_stream(manifest.root / entry.path)
        seq = Path(entry.path).stem
        for idx, ref in enumerate(entry.masks):
            mask = sio.read_mask(manifest.root / ref.path)
            rep = window_repr(stream, ref.frame, window)
            out[entry.split].append(Sample(
                rep, mask.astype(np.float64), seq, idx))
    return out


def _group_by_sequence(samples):
    groups: dict = {}
    for s in samples:
        groups.setdefault(s.seq, []).append(s)
    for seq in groups:
        groups[seq].sort(key=lambda s: s.index)
    return dict(sorted(groups.items()))


def _stack(samples):
    x = np.stack([s.repr for s in samples])
    y = np.stack([s.mask[None] for s in samples])
    return x, y


# -- checkpoints -------------------------------------------------------------------


# model entries of a checkpoint: parameters, then buffers, under these prefixes
_PARAM, _BUF = "param.", "buf."


def save_checkpoint(path, model: RSTModel, opt: AdamW, cfg: RunConfig,
                    epoch: int, history: list):
    arrays = {_PARAM + name: p.data for name, p in model.named_parameters()}
    arrays.update((_BUF + name, b) for name, b in model.named_buffers())
    arrays.update(opt.state_arrays())
    meta = {"kind": "checkpoint", "epoch": epoch,
            "config": cfg.to_json_dict(), "config_hash": cfg.config_hash(),
            "rng": {"scheme": "counter", "seed": cfg.seed,
                    "next_epoch": epoch + 1},
            "history": history}
    save_tensors(path, arrays, meta)


def _model_state(arrays: dict) -> dict:
    """The model entries of checkpoint ``arrays``, as a ``state_dict``."""
    return {k.split(".", 1)[1]: v for k, v in arrays.items()
            if k.startswith((_PARAM, _BUF))}


def _read_checkpoint(path):
    """``load_tensors`` of a checkpoint, in the current layout. Files
    written while the token projections were separate modules keep their
    batchnorm under ``<proj>.norm.*`` and their weights as (d_out, d_in)
    matrices; their keys lose ``.norm.`` and a 2-D ``*.weight`` is read as
    the 1x1 kernel it is, for model and optimizer entries alike. A current
    file passes unchanged. Raises ValueError for a container that is not a
    training checkpoint, lacks one of its meta keys, or holds an ``epoch``
    that is not a non-negative integer or a ``history`` that is not a
    list."""
    arrays, meta = load_tensors(path)
    if meta.get("kind") != "checkpoint":
        raise ValueError("not a training checkpoint")
    for key in ("config", "config_hash", "epoch", "history"):
        if key not in meta:
            raise ValueError(f"{path}: checkpoint meta lacks '{key}'")
    if type(meta["epoch"]) is not int or meta["epoch"] < 0:
        raise ValueError(f"{path}: checkpoint epoch must be a non-negative "
                         "integer")
    if not isinstance(meta["history"], list):
        raise ValueError(f"{path}: checkpoint history must be a list")
    out = {}
    for name, arr in arrays.items():
        if name.endswith(".weight") and arr.ndim == 2:
            arr = arr.reshape(arr.shape + (1, 1))
        out[name.replace(".norm.", ".")] = arr
    return out, meta


def model_from_checkpoint(path):
    """The eval net (``rst.eval_net``) of a checkpoint file, its RunConfig
    and its metadata. No float64 model is built."""
    arrays, meta = _read_checkpoint(path)
    cfg = RunConfig.from_json_dict(meta["config"])
    return eval_net(cfg.model, _model_state(arrays)), cfg, meta


# -- evaluation ---------------------------------------------------------------------


# A graph-free multi-step forward of a 64x64 window is bound by per-call
# overhead, so windows share one forward up to this many pixels; at 128x128
# sharing measured slower (README, "Batched windows")
BATCH_PIXELS = 128 * 128


def rate_readout(maps, image: int = 0) -> np.ndarray:
    """The (H, W) float64 prediction of one image of the (T, B, 1, H, W)
    step maps: their mean, the rate readout (one map in single mode)."""
    return np.mean(maps.data[:, image, 0], axis=0, dtype=np.float64)


def multi_step_readouts(net: RSTModel, reprs):
    """Yield the rate readout of each (1, H, W) window of ``reprs``, in
    order, from graph-free multi-step forwards of ``net``, an eval net.
    Consecutive windows of one size share a forward while they hold
    at most ``BATCH_PIXELS`` pixels together: 4 at 64x64, 1 at 128x128.
    Each map has the bytes of its window's forward alone: the convs run one
    GEMM per image, attention one per (image, head), and batchnorm, the LIF
    scan, pooling and the folded compares are elementwise."""
    batch = []
    for rep in reprs:
        if batch and (rep.shape != batch[0].shape
                      or (len(batch) + 1) * rep.size > BATCH_PIXELS):
            yield from _batch_readouts(net, batch)
            batch = []
        batch.append(rep)
    if batch:
        yield from _batch_readouts(net, batch)


def _batch_readouts(net: RSTModel, batch: list) -> list:
    with G.no_grad():
        maps = net.forward_full(np.stack(batch), "multi")
    return [rate_readout(maps, i) for i in range(len(batch))]


def single_step_readouts(net: RSTModel, reprs):
    """Yield the map of each (1, H, W) window of ``reprs``, in order, from
    graph-free single-step forwards of ``net``, an eval net. The membranes
    start fresh and each window's forward carries them to the next."""
    net.reset_state()
    for rep in reprs:
        with G.no_grad():
            maps = net.forward_full(rep[None], "single")
        yield rate_readout(maps)


def evaluate_model(net: RSTModel, samples, mode: str = "multi") -> metrics.EvalReport:
    """Saliency metrics over samples, predicted by ``net``, an eval net
    (``rst.eval_net``; a training-mode net raises ``ValueError``): the rate
    readout (mean map over steps) in multi mode, the per-window map in
    single mode, membranes carried through each sequence in order."""
    require_eval(net)
    if mode == "multi":
        preds = multi_step_readouts(net, (s.repr for s in samples))
        return metrics.evaluate([(pred, s.mask, s.seq)
                                 for pred, s in zip(preds, samples)])
    pairs = []
    for seq, chron in _group_by_sequence(samples).items():
        preds = single_step_readouts(net, (s.repr for s in chron))
        pairs.extend((pred, s.mask, seq) for pred, s in zip(preds, chron))
    return metrics.evaluate(pairs)


# -- training loop --------------------------------------------------------------------


def _write_log(out_dir: Path, history: list):
    with open(out_dir / "train_log.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "loss", "val_mae", "val_mean_f"])
        for h in history:
            w.writerow([h["epoch"], f"{h['loss']:.12g}",
                        f"{h['val_mae']:.12g}", f"{h['val_mean_f']:.12g}"])


def _finite_loss(loss, mode: str, epoch: int, step: int) -> float:
    """The loss value, read before backward, so that a non-finite loss
    stops the run before it reaches any weight."""
    value = loss.item()
    if not math.isfinite(value):
        raise ValueError(f"non-finite loss {value} in {mode} training, "
                         f"epoch {epoch}, step {step}")
    return value


def _train_step(model, opt, batch, mode: str, loss_fn, epoch: int,
                step: int) -> float:
    """One forward, loss, backward and update on ``batch``; returns the loss
    value. The step's graph lives only in this frame and its backward frees
    it, so no step's graph is alive while the next one's forward runs."""
    x, y = _stack(batch)
    loss = loss_fn(model.forward_full(x, mode), G.Tensor(y))
    value = _finite_loss(loss, mode, epoch, step)
    opt.zero_grad()
    loss.backward()
    opt.step()
    return value


def _epoch_multi(model, opt, samples, cfg, rng, epoch) -> float:
    if cfg.loss_mode == "multi":
        loss_fn = partial(multi_step_loss,
                          cfg=LossConfig(steps=cfg.model.steps))
    else:
        loss_fn = vanilla_loss
    order = rng.permutation(len(samples))
    losses = []
    for lo in range(0, len(order), cfg.batch_size):
        batch = [samples[i] for i in order[lo:lo + cfg.batch_size]]
        losses.append(_train_step(model, opt, batch, "multi", loss_fn,
                                  epoch, len(losses)))
    return float(np.mean(losses))


def _single_map_loss(maps, y):
    return map_loss(G.reshape(maps, maps.shape[1:]), y)


def _epoch_single(model, opt, samples, cfg, rng, epoch) -> float:
    # sequences stay chronological; only their order shuffles. Loss and
    # update happen per window, membrane state carried and then detached
    # so the graph never spans windows.
    groups = list(_group_by_sequence(samples).values())
    losses = []
    for gi in rng.permutation(len(groups)):
        chron = groups[gi]
        model.reset_state()
        for s in chron:
            losses.append(_train_step(model, opt, [s], "single",
                                      _single_map_loss, epoch, len(losses)))
            model.detach_state()
        model.reset_state()
    return float(np.mean(losses))


def train_model(cfg: RunConfig, out_dir, resume=None, log=None) -> list:
    """Run (or resume) training; returns the per-epoch history."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = load_samples(cfg.manifest, cfg.window)
    if not data["train"]:
        raise ValueError("manifest has no training sequences")

    model = RSTModel(cfg.model, np.random.default_rng([cfg.seed, 0xA11CE]))
    opt = AdamW(model.named_parameters(), lr=cfg.lr_start,
                weight_decay=cfg.weight_decay)
    history: list = []
    start_epoch = 0
    if resume is not None:
        arrays, meta = _read_checkpoint(resume)
        if meta.get("config_hash") != cfg.config_hash():
            raise ValueError("checkpoint was produced by a different config")
        model.load_state_dict(_model_state(arrays))
        opt.load_state_arrays(arrays)
        history = list(meta["history"])
        start_epoch = meta["epoch"] + 1

    for epoch in range(start_epoch, cfg.epochs):
        opt.lr = linear_lr(epoch, cfg.epochs, cfg.lr_start, cfg.lr_end)
        rng = np.random.default_rng([cfg.seed, epoch])
        model.train()
        if cfg.mode == "multi":
            loss = _epoch_multi(model, opt, data["train"], cfg, rng, epoch)
        else:
            loss = _epoch_single(model, opt, data["train"], cfg, rng, epoch)
        val_samples = data["val"] or data["train"]
        report = evaluate_model(eval_net(cfg.model, model.state_dict()),
                                val_samples, mode=cfg.mode)
        entry = {"epoch": epoch, "loss": loss, "val_mae": report.mae,
                 "val_mean_f": report.mean_f_beta, "lr": opt.lr}
        history.append(entry)
        save_checkpoint(out / f"epoch_{epoch:03d}.salt", model, opt, cfg,
                        epoch, history)
        save_checkpoint(out / "last.salt", model, opt, cfg, epoch, history)
        _write_log(out, history)
        if log:
            log(f"epoch {epoch:3d}  lr {opt.lr:.2e}  loss {loss:.4f}  "
                f"val mae {report.mae:.4f}  val mF {report.mean_f_beta:.4f}")
    return history
