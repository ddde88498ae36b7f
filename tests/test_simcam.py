"""Camera model: rate law, determinism, and dataset generation."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spikesal import simcam as sc
from spikesal import spikeio as sio


class ConstantField:
    """Scene stand-in with a fixed per-pixel luminance map."""

    def __init__(self, img, frames_per_label=400):
        self.img = np.asarray(img, dtype=np.float64)
        self.height, self.width = self.img.shape
        self.frames_per_label = frames_per_label

    def intensity(self, t):
        return self.img


def test_quarter_threshold_fires_exactly_100_of_400():
    scene = ConstantField(np.full((3, 3), 0.25))
    out = sc.simulate(scene, sc.CameraParams(threshold=1.0), steps=400)
    assert np.all(out.bits.sum(axis=0) == 100)


def test_oracle_examples():
    assert sc.firing_rate_oracle(0.25, 1.0, 400) == 100
    assert sc.firing_rate_oracle(0.5, 1.0, 7) == 3
    assert sc.firing_rate_oracle(0.0, 1.0, 1000) == 0
    assert sc.firing_rate_oracle(1.0, 1.0, 55) == 55


def test_rate_law_random_cases():
    # one simulation covers many (intensity, steps) cases via prefix sums
    rng = np.random.default_rng(0)
    for phi in (0.37, 1.0, 2.5):
        img = rng.uniform(0.0, phi, (20, 20))
        scene = ConstantField(img)
        out = sc.simulate(scene, sc.CameraParams(threshold=phi), steps=300)
        csum = np.cumsum(out.bits.reshape(300, -1), axis=0)
        flat = img.ravel()
        for _ in range(300):
            p = int(rng.integers(0, flat.size))
            n = int(rng.integers(1, 301))
            want = sc.firing_rate_oracle(flat[p], phi, n)
            assert abs(int(csum[n - 1, p]) - want) <= 1


def test_residual_carries_across_steps():
    # 5/8 of threshold is exact in binary floats; the residual walks
    # 5/8, 1/4, 7/8, 1/2, 1/8, 3/4, 3/8, 0, 5/8, 1/4
    scene = ConstantField(np.full((1, 1), 0.625))
    out = sc.simulate(scene, sc.CameraParams(threshold=1.0), steps=10)
    assert out.bits[:, 0, 0].tolist() == [0, 1, 0, 1, 1, 0, 1, 1, 0, 1]


def test_monotone_in_intensity():
    rng = np.random.default_rng(1)
    base = rng.uniform(0.0, 0.8, (8, 8))
    lo = sc.simulate(ConstantField(base), sc.CameraParams(), steps=200)
    hi = sc.simulate(ConstantField(base + 0.15), sc.CameraParams(), steps=200)
    assert np.all(hi.bits.sum(axis=0) >= lo.bits.sum(axis=0))


def test_noise_free_is_deterministic():
    scene = ConstantField(np.linspace(0, 0.9, 64).reshape(8, 8))
    a = sc.simulate(scene, sc.CameraParams(), steps=150)
    b = sc.simulate(scene, sc.CameraParams(), steps=150)
    assert np.array_equal(a.bits, b.bits)


def test_noise_requires_rng_and_perturbs():
    scene = ConstantField(np.full((8, 8), 0.3))
    with pytest.raises(ValueError):
        sc.simulate(scene, sc.CameraParams(noise_std=0.1), steps=50)
    clean = sc.simulate(scene, sc.CameraParams(), steps=200)
    noisy = sc.simulate(scene, sc.CameraParams(noise_std=0.2), steps=200,
                        rng=np.random.default_rng(2))
    assert not np.array_equal(clean.bits, noisy.bits)


def test_bad_intensity_rejected():
    with pytest.raises(ValueError):
        sc.simulate(ConstantField(np.full((2, 2), np.nan)), sc.CameraParams(), 10)
    with pytest.raises(ValueError):
        sc.simulate(ConstantField(np.full((2, 2), -0.1)), sc.CameraParams(), 10)
    with pytest.raises(ValueError):
        sc.simulate(ConstantField(np.zeros((2, 2))), sc.CameraParams(), 0)


def test_mean_lis_tracks_mean_intensity():
    # mean luminance 0.031 of threshold -> mean firing scale near 0.031
    rng = np.random.default_rng(3)
    img = rng.uniform(0.021, 0.041, (32, 32))
    out = sc.simulate(ConstantField(img), sc.CameraParams(), steps=2000)
    assert sio.mean_lis(out) == pytest.approx(img.mean(), rel=0.05)
    assert sio.mean_lis(out) == pytest.approx(0.031, abs=0.004)


def test_scene_masks_move_per_window_and_stay_inside():
    rng = np.random.default_rng(4)
    scene = sc.Scene(48, 40, 0.03, [sc.Primitive(
        "rect", x=10, y=12, vx=7, vy=-5, half_w=5, half_h=4, intensity=0.1)],
        frames_per_label=100)
    m0 = scene.object_mask(0)
    m0b = scene.object_mask(99)       # same window, same mask
    m1 = scene.object_mask(100)       # next window, moved
    assert np.array_equal(m0, m0b)
    assert not np.array_equal(m0, m1)
    assert m0.sum() == (2 * 5 + 1) * (2 * 4 + 1)
    for w in range(0, 4000, 100):
        m = scene.object_mask(w)
        assert m.sum() > 0  # bounced, never clipped away


def test_scene_intensity_pattern():
    scene = sc.Scene(16, 16, 0.02, [sc.Primitive(
        "disk", x=8, y=8, vx=0, vy=0, half_w=3, half_h=3, intensity=0.4)])
    img = scene.intensity(0)
    mask = scene.object_mask(0).astype(bool)
    assert np.all(img[mask] == 0.4)
    assert np.all(img[~mask] == 0.02)


def simulate_reference(scene, params, steps, rng=None):
    """The earlier per-frame loop of ``simulate``: a boolean temporary,
    a gathered subtract and a copy into the frame. A byte oracle for the
    loop that compares and subtracts in place."""
    phi = params.threshold
    bits = np.empty((steps, scene.height, scene.width), dtype=np.uint8)
    acc = np.zeros((scene.height, scene.width), dtype=np.float64)
    for t in range(steps):
        if t % scene.frames_per_label == 0:
            cur = scene.intensity(t)
        acc += cur
        if params.noise_std > 0:
            acc += rng.normal(0.0, params.noise_std * phi, acc.shape)
            np.maximum(acc, 0.0, out=acc)
        fired = acc >= phi
        acc[fired] -= phi
        bits[t] = fired
    return bits


@pytest.mark.parametrize("light", ["high", "low"])
@pytest.mark.parametrize("threshold", [1.0, 0.07])
def test_simulate_matches_reference_loop_with_noise(light, threshold):
    cfg = sc.GeneratorConfig(width=40, height=24, frames_per_label=150)
    params = sc.CameraParams(threshold, noise_std=0.05)
    streams = []
    for run in (sc.simulate, simulate_reference):
        rng = np.random.default_rng(11)
        scene = sc._random_scene(cfg, rng, light)
        streams.append(run(scene, params, 450, rng))
    got, want = streams
    assert got.bits.dtype == np.uint8 and want.any()
    assert np.array_equal(got.bits, want)


def test_simulate_matches_reference_loop_at_exact_threshold():
    # dyadic luminances fill the accumulator to exactly phi, where a
    # strict comparison would fire a step late
    scene = ConstantField(np.array([[0.25, 0.5, 0.125], [1.0, 0.0, 0.375]]))
    got = sc.simulate(scene, sc.CameraParams(), steps=64)
    assert np.array_equal(got.bits,
                          simulate_reference(scene, sc.CameraParams(), 64))


def test_simulate_holds_one_bit_per_pixel_and_step():
    """800 frames at 128x128 are 13.1 MB of dense bits; simulate packs
    each frame as it fires, so the memory it allocates peaks below a
    quarter of that."""
    cfg = sc.GeneratorConfig(width=128, height=128)
    rng = np.random.default_rng(5)
    scene = sc._random_scene(cfg, rng, "high")
    params = sc.CameraParams(cfg.threshold, cfg.noise_std, cfg.rate_hz)
    dense = 800 * 128 * 128
    tracemalloc.start()
    try:
        stream = sc.simulate(scene, params, 800, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense / 4, f"peak {peak / 1e6:.1f} MB"
    assert stream.packed.shape == (800, 128 * 128 // 8)
    assert stream.bits.any()


# -- dataset generation ----------------------------------------------------------


def tiny_cfg(**kw):
    base = dict(train_sequences=2, val_sequences=1, labels_per_sequence=2,
                width=32, height=32, frames_per_label=400, noise_std=0.01,
                seed=7)
    base.update(kw)
    return sc.GeneratorConfig(**base)


def test_generate_dataset_layout(tmp_path):
    man_path = sc.generate_dataset(tiny_cfg(), tmp_path / "d")
    man = sio.load_manifest(man_path)
    assert len([e for e in man.streams if e.split == "train"]) == 2
    assert len([e for e in man.streams if e.split == "val"]) == 1
    for entry in man.streams:
        stream = sio.read_stream(man.root / entry.path)
        assert stream.frames == 2 * 400
        assert stream.height == 32 and stream.width == 32
        assert len(entry.masks) == 2
        for ref in entry.masks:
            assert ref.frame % 400 == 0
            assert ref.frame < stream.frames
            mask = sio.read_mask(man.root / ref.path)
            assert mask.shape == (32, 32)
            assert mask.sum() > 0


def test_generate_dataset_light_mix(tmp_path):
    man = sio.load_manifest(sc.generate_dataset(
        tiny_cfg(train_sequences=4, high_light_fraction=0.5), tmp_path / "d"))
    lights = [e.light for e in man.streams if e.split == "train"]
    assert lights.count("high") == 2 and lights.count("low") == 2


def test_generated_high_light_scale(tmp_path):
    man = sio.load_manifest(sc.generate_dataset(
        tiny_cfg(train_sequences=4, labels_per_sequence=2), tmp_path / "d"))
    highs = [e for e in man.streams if e.light == "high"]
    lows = [e for e in man.streams if e.light == "low"]
    vals_h = [sio.mean_lis(sio.read_stream(man.root / e.path)) for e in highs]
    vals_l = [sio.mean_lis(sio.read_stream(man.root / e.path)) for e in lows]
    assert 0.03 <= np.mean(vals_h) <= 0.06
    assert np.mean(vals_l) < np.mean(vals_h)


@pytest.mark.parametrize("scale", [0.4, 0.25])
def test_low_light_scene_dims_background_and_every_object(scale):
    """From one seed, a low-light scene is the high-light scene with the
    background and each object's intensity times ``low_light_scale``, and
    the same objects in the same places."""
    cfg = tiny_cfg(low_light_scale=scale, min_objects=2, max_objects=3)
    for seed in range(5):
        high = sc._random_scene(cfg, np.random.default_rng(seed), "high")
        low = sc._random_scene(cfg, np.random.default_rng(seed), "low")
        assert low.background == high.background * scale
        assert len(low.objects) == len(high.objects) >= 2
        for lo, hi in zip(low.objects, high.objects):
            assert lo.intensity == hi.intensity * scale
            assert (lo.kind, lo.x, lo.y, lo.vx, lo.vy, lo.half_w, lo.half_h) \
                == (hi.kind, hi.x, hi.y, hi.vx, hi.vy, hi.half_w, hi.half_h)


def test_generate_dataset_deterministic(tmp_path):
    p1 = sc.generate_dataset(tiny_cfg(), tmp_path / "a")
    p2 = sc.generate_dataset(tiny_cfg(), tmp_path / "b")
    m1, m2 = sio.load_manifest(p1), sio.load_manifest(p2)
    assert p1.read_bytes() == p2.read_bytes()
    for e1, e2 in zip(m1.streams, m2.streams):
        assert (m1.root / e1.path).read_bytes() == (m2.root / e2.path).read_bytes()
        for r1, r2 in zip(e1.masks, e2.masks):
            assert (m1.root / r1.path).read_bytes() == (m2.root / r2.path).read_bytes()


def test_generate_dataset_thread_invariant(tmp_path, monkeypatch):
    p1 = sc.generate_dataset(tiny_cfg(), tmp_path / "a")
    monkeypatch.setenv("SPIKESAL_THREADS", "3")
    p2 = sc.generate_dataset(tiny_cfg(), tmp_path / "b")
    m1, m2 = sio.load_manifest(p1), sio.load_manifest(p2)
    for e1, e2 in zip(m1.streams, m2.streams):
        assert (m1.root / e1.path).read_bytes() == (m2.root / e2.path).read_bytes()


def logged_generation(monkeypatch, tmp_path, threads: str):
    """Generate a 6-sequence dataset with simulate and write_stream
    patched to log events; returns the log and the largest number of
    sequences built but not yet written at any time."""
    monkeypatch.setenv("SPIKESAL_THREADS", threads)
    log, lock, live = [], threading.Lock(), [0, 0]
    simulate, write_stream = sc.simulate, sio.write_stream

    def logged_simulate(*args, **kw):
        stream = simulate(*args, **kw)
        with lock:
            log.append("simulate")
            live[0] += 1
            live[1] = max(live)
        return stream

    def logged_write(path, stream):
        write_stream(path, stream)
        with lock:
            log.append("write")
            live[0] -= 1

    monkeypatch.setattr(sc, "simulate", logged_simulate)
    monkeypatch.setattr(sio, "write_stream", logged_write)
    sc.generate_dataset(tiny_cfg(train_sequences=4, val_sequences=2,
                                 labels_per_sequence=1), tmp_path / threads)
    assert log.count("simulate") == log.count("write") == 6
    return log, live[1]


def test_generate_dataset_writes_each_sequence_before_the_next(
        tmp_path, monkeypatch):
    log, most = logged_generation(monkeypatch, tmp_path, "1")
    assert log == ["simulate", "write"] * 6
    assert most == 1


@pytest.mark.parametrize("threads", [2, 3])
def test_generate_dataset_holds_at_most_one_sequence_per_worker(
        tmp_path, monkeypatch, threads):
    _, most = logged_generation(monkeypatch, tmp_path, str(threads))
    assert 1 <= most <= threads


def test_failed_rerun_leaves_no_manifest(tmp_path, monkeypatch):
    out = tmp_path / "d"
    man_path = sc.generate_dataset(tiny_cfg(), out)
    assert sio.load_manifest(man_path).streams
    simulate, calls = sc.simulate, []

    def fail_second(*args, **kw):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("simulated failure")
        return simulate(*args, **kw)

    monkeypatch.setattr(sc, "simulate", fail_second)
    with pytest.raises(RuntimeError, match="simulated failure"):
        sc.generate_dataset(tiny_cfg(seed=8), out)
    # the first sequence was rewritten from seed 8, the rest are seed 7's:
    # no manifest may list that mix, and no config may describe it
    with pytest.raises(FileNotFoundError):
        sio.load_manifest(man_path)
    assert not (out / "generator_config.json").exists()
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


# The probe reads its own resident high-water mark, VmHWM, which starts
# afresh at exec; ru_maxrss would start at the spawning process's peak, so
# under a large pytest process it would hide any growth below that.
MEMORY_PROBE = """
import re, tempfile
from spikesal import simcam as sc
def peak():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1)) * 1024
def generate(**kw):
    cfg = sc.GeneratorConfig(val_sequences=0, width=64, height=64, **kw)
    with tempfile.TemporaryDirectory() as d:
        sc.generate_dataset(cfg, d)
# a first run of 8 frames takes the one-time costs at this frame size
generate(train_sequences=1, labels_per_sequence=1, frames_per_label=8)
base = peak()
generate(train_sequences=16, labels_per_sequence=4)
print(peak() - base)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmHWM from /proc/self/status")
def test_generate_dataset_memory_does_not_grow_with_the_dataset():
    """16 sequences of 1600 frames at 64x64, 800 KiB packed each: after a
    warm-up run, the peak resident set of a fresh process may grow by less
    than three packed sequences, where holding every sequence until the
    end grows by sixteen."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, SPIKESAL_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    one_sequence = 1600 * 64 * 64 // 8
    grown = int(run.stdout)
    assert grown < 3 * one_sequence, (
        f"peak grew {grown / one_sequence:.1f} packed sequences")
