"""Integrate-and-fire spike camera model and synthetic dataset generator.

Each pixel accumulates luminance every sampling step and emits a spike
when the accumulator reaches the threshold, keeping the residual:

    A += I;  if A >= phi:  emit 1, A -= phi

so a constant intensity I fires floor(steps * I / phi) times from a zero
start, which :func:`firing_rate_oracle` returns in closed form.

Scenes are moving bright primitives over a dimmer background. Object
positions advance once per labeled window and hold still inside it, so
the ground-truth mask rendered for a window is exact at every frame of
that window.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import spikeio as sio


def worker_threads() -> int:
    """Worker cap from SPIKESAL_THREADS; 1 (fully serial) by default."""
    try:
        return max(1, int(os.environ.get("SPIKESAL_THREADS", "1")))
    except ValueError:
        return 1


@dataclass
class CameraParams:
    threshold: float = 1.0      # accumulator full-scale (phi)
    noise_std: float = 0.0      # per-step accumulator noise, units of phi
    rate_hz: int = 20000


@dataclass
class Primitive:
    kind: str                   # "rect" | "disk" | "bar"
    x: float                    # center at window 0, pixels
    y: float
    vx: float                   # pixels per labeled window
    vy: float
    half_w: float
    half_h: float
    intensity: float


@dataclass
class Scene:
    width: int
    height: int
    background: float
    objects: list
    frames_per_label: int = 400

    def _center(self, obj: Primitive, window: int):
        # reflect off the borders so objects never leave the frame
        def bounce(p, v, lo, hi):
            span = hi - lo
            if span <= 0:
                return lo
            q = (p - lo + v * window) % (2 * span)
            return lo + (q if q <= span else 2 * span - q)

        cx = bounce(obj.x, obj.vx, obj.half_w, self.width - 1 - obj.half_w)
        cy = bounce(obj.y, obj.vy, obj.half_h, self.height - 1 - obj.half_h)
        return cx, cy

    def _raster(self, obj: Primitive, window: int) -> np.ndarray:
        cx, cy = self._center(obj, window)
        yy, xx = np.mgrid[0:self.height, 0:self.width]
        if obj.kind == "disk":
            r = max(obj.half_w, obj.half_h)
            return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        # rect and bar differ only in aspect ratio
        return (np.abs(xx - cx) <= obj.half_w) & (np.abs(yy - cy) <= obj.half_h)

    def intensity(self, t: int) -> np.ndarray:
        """Luminance field at sampling step t (painter's order over objects)."""
        window = t // self.frames_per_label
        img = np.full((self.height, self.width), self.background, dtype=np.float64)
        for obj in self.objects:
            img[self._raster(obj, window)] = obj.intensity
        return img

    def object_mask(self, t: int) -> np.ndarray:
        """Union occupancy of all objects at sampling step t, values {0,1}."""
        window = t // self.frames_per_label
        out = np.zeros((self.height, self.width), dtype=np.uint8)
        for obj in self.objects:
            out |= self._raster(obj, window).astype(np.uint8)
        return out


def simulate(scene: Scene, params: CameraParams, steps: int,
             rng: np.random.Generator | None = None) -> sio.SpikeStream:
    """Run the integrate-and-fire model for ``steps`` sampling steps.

    The accumulator starts at zero. Optional zero-mean Gaussian noise is
    added to the accumulated charge each step; the charge is floored at
    zero to stay physical. Each frame is packed as it fires, so the
    stream holds one bit per pixel per step.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    phi = params.threshold
    if not np.isfinite(phi) or phi <= 0:
        raise ValueError("threshold must be finite and positive")
    shape = (scene.height, scene.width)
    packed = np.empty((steps, (shape[0] * shape[1] + 7) // 8), dtype=np.uint8)
    fired = np.empty(shape, dtype=np.bool_)
    acc = np.zeros(shape, dtype=np.float64)
    window = -1
    cur = None
    for t in range(steps):
        w = t // scene.frames_per_label
        if w != window:
            cur = scene.intensity(t)
            if not np.isfinite(cur).all():
                raise ValueError(f"non-finite intensity at step {t}")
            if (cur < 0).any():
                raise ValueError(f"negative intensity at step {t}")
            window = w
        acc += cur
        if params.noise_std > 0:
            if rng is None:
                raise ValueError("noise_std > 0 requires an rng")
            acc += rng.normal(0.0, params.noise_std * phi, acc.shape)
            np.maximum(acc, 0.0, out=acc)
        np.greater_equal(acc, phi, out=fired)
        np.subtract(acc, phi, out=acc, where=fired)
        packed[t] = np.packbits(fired, bitorder="little")
    return sio.SpikeStream._of_packed(packed, *shape, params.rate_hz)


def firing_rate_oracle(intensity: float, threshold: float, steps: int) -> int:
    """Closed-form spike count for a constant-intensity pixel from zero charge."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return int(np.floor(steps * intensity / threshold))


# -- synthetic dataset ---------------------------------------------------------


@dataclass
class GeneratorConfig:
    train_sequences: int = 4
    val_sequences: int = 1
    labels_per_sequence: int = 5
    width: int = 64
    height: int = 64
    frames_per_label: int = 400
    rate_hz: int = 20000
    threshold: float = 1.0
    noise_std: float = 0.01
    high_light_fraction: float = 0.5
    # per-step luminance in units of threshold; high-light scenes land the
    # sensor's mean firing scale near 0.045, low light scales both down
    background_range: tuple = (0.030, 0.045)
    foreground_range: tuple = (0.075, 0.120)
    low_light_scale: float = 0.4
    min_objects: int = 1
    max_objects: int = 3
    seed: int = 0

    def __post_init__(self):
        # each message names the field, which is also the config file key
        for name, low in (("train_sequences", 0), ("val_sequences", 0),
                          ("labels_per_sequence", 1), ("frames_per_label", 1),
                          ("width", 2), ("height", 2), ("min_objects", 0),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.max_objects < self.min_objects:
            raise ValueError("max_objects must be >= min_objects")
        if not 1 <= self.rate_hz < 1 << 32:
            raise ValueError("rate_hz must be in [1, 2**32)")
        if not 0 < self.threshold < np.inf:
            raise ValueError("threshold must be finite and positive")
        for name in ("noise_std", "low_light_scale"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0 <= self.high_light_fraction <= 1:
            raise ValueError("high_light_fraction must be in [0, 1]")
        for name in ("background_range", "foreground_range"):
            low, high = getattr(self, name)
            if not 0 <= low <= high < np.inf:
                raise ValueError(f"{name} must be a finite [low, high] pair "
                                 f"with 0 <= low <= high")


def _random_scene(cfg: GeneratorConfig, rng: np.random.Generator,
                  light: str) -> Scene:
    scale = 1.0 if light == "high" else cfg.low_light_scale
    bg = rng.uniform(*cfg.background_range) * scale
    n = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    size = min(cfg.width, cfg.height)
    objects = []
    for _ in range(n):
        kind = ("rect", "disk", "bar")[int(rng.integers(0, 3))]
        if kind == "bar":
            hw = rng.uniform(size / 6, size / 4)
            hh = rng.uniform(size / 24, size / 16)
            if rng.random() < 0.5:
                hw, hh = hh, hw
        else:
            hw = rng.uniform(size / 12, size / 7)
            hh = hw if kind == "disk" else rng.uniform(size / 12, size / 7)
        objects.append(Primitive(
            kind=kind,
            x=rng.uniform(hw, cfg.width - 1 - hw),
            y=rng.uniform(hh, cfg.height - 1 - hh),
            vx=rng.uniform(-4.0, 4.0),
            vy=rng.uniform(-4.0, 4.0),
            half_w=hw,
            half_h=hh,
            intensity=rng.uniform(*cfg.foreground_range) * scale,
        ))
    return Scene(cfg.width, cfg.height, bg, objects, cfg.frames_per_label)


def _light_plan(n: int, fraction: float):
    # Bresenham interleave so any prefix is close to the requested mix
    plan, acc = [], 0.0
    for _ in range(n):
        acc += fraction
        if acc >= 1.0 - 1e-9:
            plan.append("high")
            acc -= 1.0
        else:
            plan.append("low")
    return plan


def generate_dataset(cfg: GeneratorConfig, out_dir) -> Path:
    """Write spike streams, per-label masks, and a manifest; returns the
    manifest path. Fully determined by ``cfg.seed``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # streams are written before the whole dataset exists: a run that fails
    # part way into an old dataset must leave neither its manifest naming a
    # mix of old and new files nor a config describing the old ones
    manifest_path = out / "manifest.json"
    config_path = out / "generator_config.json"
    manifest_path.unlink(missing_ok=True)
    config_path.unlink(missing_ok=True)
    specs = []
    for split, count in (("train", cfg.train_sequences), ("val", cfg.val_sequences)):
        for i, light in enumerate(_light_plan(count, cfg.high_light_fraction)):
            specs.append((split, i, light))
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(specs))

    def build(args):
        (split, i, light), seed = args
        rng = np.random.default_rng(seed)
        scene = _random_scene(cfg, rng, light)
        params = CameraParams(cfg.threshold, cfg.noise_std, cfg.rate_hz)
        steps = cfg.labels_per_sequence * cfg.frames_per_label
        stream = simulate(scene, params, steps, rng)
        masks = [(t, scene.object_mask(t))
                 for t in range(0, steps, cfg.frames_per_label)]
        return split, i, light, stream, masks

    def write(split, i, light, stream, masks) -> sio.StreamEntry:
        name = f"{split}_{i:03d}"
        sio.write_stream(out / f"{name}.spk", stream)
        refs = []
        for frame, mask in masks:
            mp = f"{name}_f{frame:06d}.pgm"
            sio.write_mask(out / mp, mask)
            refs.append(sio.MaskRef(mp, frame))
        return sio.StreamEntry(f"{name}.spk", split, light, refs)

    # each sequence is written as soon as it is built and then dropped, so
    # memory holds one packed stream per worker, not the whole dataset;
    # with threads, at most ``workers`` builds are out, taken in job order
    workers = worker_threads()
    jobs = zip(specs, seeds)
    if workers == 1:
        entries = [write(*build(j)) for j in jobs]
    else:
        entries = []
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = deque(pool.submit(build, j)
                            for j in itertools.islice(jobs, workers))
            while pending:
                entries.append(write(*pending.popleft().result()))
                for j in itertools.islice(jobs, 1):
                    pending.append(pool.submit(build, j))

    # the manifest is written last: a directory holding one is complete
    with sio.replacing(config_path, "w", encoding="utf-8") as fh:
        json.dump(asdict(cfg), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sio.save_manifest(manifest_path, sio.DatasetManifest(entries, out))
    return manifest_path
