"""Command-line front end.

Subcommands: gen-data, train, eval, infer, energy. Every command is
deterministic given its config and seed; worker threads for data
generation come from SPIKESAL_THREADS.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import metrics
from . import spikeio as sio
from .simcam import GeneratorConfig, generate_dataset
from .train import (RunConfig, train_model, model_from_checkpoint,
                    load_samples, evaluate_model, multi_step_readouts,
                    single_step_readouts, window_repr)


def _load_generator_config(path, seed=None) -> GeneratorConfig:
    doc = sio.parse_json(Path(path).read_text(encoding="utf-8"), path)
    kinds = {f.name: f.type for f in dataclasses.fields(GeneratorConfig)}
    cfg = GeneratorConfig(**sio.check_config(doc, kinds, "generator config"))
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def cmd_gen_data(args) -> int:
    cfg = _load_generator_config(args.config, args.seed)
    manifest = generate_dataset(cfg, args.out)
    print(manifest)
    return 0


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    if args.manifest:
        cfg = dataclasses.replace(cfg, manifest=args.manifest)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    train_model(cfg, args.out, resume=args.resume, log=print)
    return 0


def cmd_eval(args) -> int:
    net, cfg, _ = model_from_checkpoint(args.ckpt)
    mode = args.mode or cfg.mode
    data = load_samples(args.manifest, cfg.window)
    samples = data[args.split]
    if not samples:
        raise ValueError(f"no {args.split} samples in manifest")
    report = evaluate_model(net, samples, mode=mode)
    print(report.to_table())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


def _window(args, cfg: RunConfig) -> int:
    """The --window flag, else the checkpoint config's window."""
    window = cfg.window if args.window is None else args.window
    if window < 1:
        raise ValueError(f"--window must be at least 1, got {window}")
    return window


def _stream_windows(stream: sio.SpikeStream, window: int):
    n = stream.frames // window
    if n == 0:
        raise ValueError("stream shorter than one window")
    return n


def cmd_infer(args) -> int:
    net, cfg, _ = model_from_checkpoint(args.ckpt)
    window = _window(args, cfg)
    stream = sio.open_stream(args.stream)
    n = _stream_windows(stream, window)
    if stream.height % 16 or stream.width % 16:
        raise ValueError("stream resolution incompatible with the model")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reprs = (window_repr(stream, w * window, window) for w in range(n))
    # --continuous: each window reads the last one's membranes
    readouts = single_step_readouts if args.continuous else multi_step_readouts
    written = []
    for w, img in enumerate(readouts(net, reprs)):
        path = out / f"map_{w:04d}.pgm"
        sio.write_pgm(path, np.round(img * 255).astype(np.uint8))
        written.append(path)
    print("\n".join(str(p) for p in written))
    return 0


def cmd_energy(args) -> int:
    net, cfg, _ = model_from_checkpoint(args.ckpt)
    window = _window(args, cfg)
    stream = sio.open_stream(args.stream)
    _stream_windows(stream, window)
    rep = window_repr(stream, 0, window)[None]
    report = metrics.estimate_energy(net, rep, mode="multi")
    print(report.to_table())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spikesal",
        description="spike-stream saliency: data generation, training, "
                    "evaluation, inference, energy accounting")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic spike dataset")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    t.add_argument("--manifest", default=None,
                   help="override the manifest path in the config")
    t.add_argument("--resume", default=None)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--manifest", required=True)
    e.add_argument("--mode", choices=("single", "multi"), default=None)
    e.add_argument("--split", choices=("train", "val"), default="val")
    e.add_argument("--out", default=None, help="write the report JSON here")
    e.set_defaults(fn=cmd_eval)

    i = sub.add_parser("infer", help="predict saliency maps for a stream")
    i.add_argument("--ckpt", required=True)
    i.add_argument("--stream", required=True)
    i.add_argument("--out", required=True)
    i.add_argument("--window", type=int, default=None)
    i.add_argument("--continuous", action="store_true",
                   help="stateful single-step over consecutive windows")
    i.set_defaults(fn=cmd_infer)

    n = sub.add_parser("energy", help="estimate per-inference energy")
    n.add_argument("--ckpt", required=True)
    n.add_argument("--stream", required=True)
    n.add_argument("--window", type=int, default=None)
    n.add_argument("--out", default=None)
    n.set_defaults(fn=cmd_energy)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, sio.SpikeIOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
