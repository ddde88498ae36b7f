"""Codec round-trips, intensity statistics, and representation oracles."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesal import spikeio as sio
from spikesal.train import REPR_SCALE, window_repr


def random_stream(rng, frames, h, w, p=0.3, rate=20000):
    bits = (rng.random((frames, h, w)) < p).astype(np.uint8)
    return sio.SpikeStream(bits, rate_hz=rate)


# -- codec ----------------------------------------------------------------------


def test_roundtrip_basic(tmp_path):
    rng = np.random.default_rng(0)
    s = random_stream(rng, 17, 9, 13)  # 117 bits per frame, not byte aligned
    p = tmp_path / "s.spk"
    sio.write_stream(p, s)
    back = sio.read_stream(p)
    assert back.rate_hz == 20000
    assert np.array_equal(back.bits, s.bits)


@settings(max_examples=40, deadline=None)
@given(frames=st.integers(1, 6), h=st.integers(1, 11), w=st.integers(1, 19),
       seed=st.integers(0, 2**31), rate=st.sampled_from([1, 20000, 40000]))
def test_roundtrip_arbitrary_dims(tmp_path_factory, frames, h, w, seed, rate):
    rng = np.random.default_rng(seed)
    s = random_stream(rng, frames, h, w, p=rng.uniform(0, 1), rate=rate)
    p = tmp_path_factory.mktemp("rt") / "s.spk"
    sio.write_stream(p, s)
    back = sio.read_stream(p)
    assert back.rate_hz == rate
    assert np.array_equal(back.bits, s.bits)


def test_header_is_26_bytes_and_frames_padded(tmp_path):
    s = sio.SpikeStream(np.ones((3, 5, 5), dtype=np.uint8))
    p = tmp_path / "s.spk"
    sio.write_stream(p, s)
    # 25 bits -> 4 bytes per frame
    assert p.stat().st_size == 26 + 3 * 4


def test_malformed_magic(tmp_path):
    p = tmp_path / "bad.spk"
    p.write_bytes(b"NOPE" + b"\x00" * 30)
    with pytest.raises(sio.MalformedHeaderError):
        sio.read_stream(p)


def test_truncated_payload(tmp_path):
    rng = np.random.default_rng(1)
    s = random_stream(rng, 4, 8, 8)
    p = tmp_path / "s.spk"
    sio.write_stream(p, s)
    raw = p.read_bytes()
    p.write_bytes(raw[:-3])
    with pytest.raises(sio.TruncatedPayloadError):
        sio.read_stream(p)


def test_dimension_overflow(tmp_path):
    p = tmp_path / "huge.spk"
    p.write_bytes(sio.HEADER.pack(sio.MAGIC, sio.VERSION,
                                  1 << 20, 1 << 20, 1 << 20, 20000))
    with pytest.raises(sio.DimensionOverflowError):
        sio.read_stream(p)


@pytest.mark.parametrize("rate", [-1, 1 << 32])
def test_rate_overflow_rejected_before_writing(tmp_path, rate):
    s = random_stream(np.random.default_rng(2), 3, 4, 4, rate=rate)
    with pytest.raises(sio.DimensionOverflowError, match="rate"):
        sio.write_stream(tmp_path / "s.spk", s)
    assert list(tmp_path.iterdir()) == []


def test_zero_dim_header_rejected(tmp_path):
    p = tmp_path / "zero.spk"
    p.write_bytes(sio.HEADER.pack(sio.MAGIC, sio.VERSION, 0, 4, 4, 20000))
    with pytest.raises(sio.MalformedHeaderError):
        sio.read_stream(p)


@settings(max_examples=300, deadline=None)
@given(frames=st.integers(1, 5), h=st.integers(1, 7), w=st.integers(1, 9),
       seed=st.integers(0, 2**31),
       mutation=st.sampled_from(["truncate", "flip", "extend", "header"]),
       data=st.data())
def test_read_stream_fuzz_raises_only_spike_io_errors(tmp_path_factory, frames,
                                                      h, w, seed, mutation,
                                                      data):
    """Truncated, byte-mutated and extended .spk files either decode to a
    binary stream whose header matches the payload size, or raise a
    SpikeIOError subclass; no other exception escapes."""
    p = tmp_path_factory.mktemp("spk") / "f.spk"
    sio.write_stream(p, random_stream(np.random.default_rng(seed), frames, h, w))
    raw = p.read_bytes()
    if mutation == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif mutation == "flip":
        at = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
    elif mutation == "extend":
        raw += data.draw(st.binary(min_size=1, max_size=64))
    else:   # any value, possibly huge, in one numeric header field:
        # version, width, height, frames or rate
        fields = list(sio.HEADER.unpack_from(raw))
        at = data.draw(st.integers(1, 5))
        bits = 8 * struct.calcsize("<" + "HIIQI"[at - 1])
        fields[at] = data.draw(st.integers(0, 2 ** bits - 1))
        raw = sio.HEADER.pack(*fields) + raw[sio.HEADER.size:]
    p.write_bytes(raw)
    try:
        got = sio.open_stream(p)
    except sio.SpikeIOError:
        return
    bits = got.bits
    assert bits.dtype == np.uint8 and bits.ndim == 3
    assert np.isin(bits, (0, 1)).all()
    f, gh, gw = bits.shape
    assert len(raw) == sio.HEADER.size + f * ((gh * gw + 7) // 8)
    assert (got.frames, got.height, got.width) == (f, gh, gw)
    assert np.array_equal(got.frame_bits(0, f), bits)


def test_error_types_are_distinct():
    kinds = {sio.MalformedHeaderError, sio.TruncatedPayloadError,
             sio.DimensionOverflowError}
    assert len(kinds) == 3
    for k in kinds:
        assert issubclass(k, sio.SpikeIOError)


def test_failed_write_keeps_the_previous_stream(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    p = tmp_path / "s.spk"
    sio.write_stream(p, random_stream(rng, 5, 6, 7))
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

    monkeypatch.setattr(sio, "open", HalfWrite, raising=False)
    with pytest.raises(OSError, match="no space"):
        sio.write_stream(p, random_stream(rng, 9, 6, 7))
    monkeypatch.undo()
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["s.spk"]


def test_open_stream_keeps_its_frames_when_the_path_is_rewritten(tmp_path):
    # an in-place writer would show the new bits through the old mapping
    # (or kill the reader with SIGBUS when the new file is shorter)
    rng = np.random.default_rng(12)
    old, new = random_stream(rng, 8, 5, 6), random_stream(rng, 8, 5, 6)
    p = tmp_path / "s.spk"
    sio.write_stream(p, old)
    packed = sio.open_stream(p)
    sio.write_stream(p, new)
    assert np.array_equal(packed.frame_bits(0, 8), old.bits)
    assert np.array_equal(sio.read_stream(p).bits, new.bits)
    assert [f.name for f in tmp_path.iterdir()] == ["s.spk"]


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm")
def test_open_stream_reads_only_the_frames_a_window_decodes(tmp_path):
    """A ~200 MB stream of 128x128 frames whose payload is a hole (no disk
    blocks): decoding one 400-frame window must not make the whole payload
    resident, as reading the file into memory would."""
    frames, h, w = 100_000, 128, 128
    payload = frames * (h * w // 8)
    p = tmp_path / "long.spk"
    with open(p, "wb") as fh:
        fh.write(sio.HEADER.pack(sio.MAGIC, sio.VERSION, w, h, frames, 20000))
        fh.truncate(sio.HEADER.size + payload)
    before = _resident_bytes()
    stream = sio.open_stream(p)
    rep = window_repr(stream, frames // 2, 400)
    grown = _resident_bytes() - before
    assert stream.frames == frames and not rep.any()
    assert grown < payload // 20, f"resident set grew by {grown} bytes"


# -- lis --------------------------------------------------------------------------


def test_lis_sensor_scale_example():
    # 250x400 sensor frame with 4500 set bits
    rng = np.random.default_rng(2)
    frame = np.zeros(250 * 400, dtype=np.uint8)
    frame[rng.choice(frame.size, 4500, replace=False)] = 1
    assert sio.lis(frame.reshape(250, 400)) == pytest.approx(0.045)


def test_lis_bounds_and_permutation_invariance():
    rng = np.random.default_rng(3)
    frame = (rng.random((16, 16)) < 0.4).astype(np.uint8)
    v = sio.lis(frame)
    assert 0.0 <= v <= 1.0
    shuffled = frame.ravel().copy()
    rng.shuffle(shuffled)
    assert sio.lis(shuffled.reshape(16, 16)) == v


# -- isi representation -----------------------------------------------------------


def isi_oracle(bits, at_frame, c=255.0):
    """Straight python-loop reimplementation used as the reference."""
    f, h, w = bits.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            train = np.flatnonzero(bits[:, i, j])
            prevs = train[train <= at_frame]
            nxts = train[train > at_frame]
            if prevs.size and nxts.size:
                out[i, j] = c / (nxts[0] - prevs[-1])
    return out


def test_isi_every_frame_reads_full_scale():
    s = sio.SpikeStream(np.ones((10, 3, 3), dtype=np.uint8))
    r = sio.isi_repr(s, at_frame=4)
    assert np.all(r == 255.0)


def test_isi_period_five_reads_51():
    bits = np.zeros((20, 2, 2), dtype=np.uint8)
    bits[::5] = 1  # spikes at 0, 5, 10, 15
    s = sio.SpikeStream(bits)
    assert np.all(sio.isi_repr(s, at_frame=7) == pytest.approx(51.0))
    # a spike exactly at the query frame counts as the 'previous' spike
    assert np.all(sio.isi_repr(s, at_frame=5) == pytest.approx(51.0))


def test_isi_missing_bracket_reads_zero():
    bits = np.zeros((10, 1, 2), dtype=np.uint8)
    bits[7, 0, 0] = 1            # only a future spike
    bits[2, 0, 1] = 1            # only a past spike
    s = sio.SpikeStream(bits)
    assert np.all(sio.isi_repr(s, at_frame=4) == 0.0)


def test_isi_matches_loop_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        f = int(rng.integers(2, 30))
        bits = (rng.random((f, 5, 7)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
        at = int(rng.integers(0, f))
        got = sio.isi_repr(sio.SpikeStream(bits), at)
        want = isi_oracle(bits, at)
        assert np.allclose(got, want, atol=0), (f, at)


def test_isi_bounded_by_full_scale():
    rng = np.random.default_rng(5)
    s = random_stream(rng, 40, 8, 8, p=0.5)
    vals = sio.isi_repr(s, 20)
    assert vals.max() <= 255.0 and vals.min() >= 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), at=st.integers(0, 19))
def test_isi_monotone_under_added_spikes(seed, at):
    # densifying a pixel's train never decreases its decoded intensity
    rng = np.random.default_rng(seed)
    bits = (rng.random((20, 3, 3)) < 0.2).astype(np.uint8)
    before = sio.isi_repr(sio.SpikeStream(bits), at)
    extra = (rng.random((20, 3, 3)) < 0.3).astype(np.uint8)
    denser = np.maximum(bits, extra)
    after = sio.isi_repr(sio.SpikeStream(denser), at)
    assert np.all(after >= before - 1e-12)


def isi_argmax_oracle(stream, at_frame, full_scale=255.0):
    """The earlier isi_repr: two argmax scans, one over a reversed view."""
    bits = stream.bits
    before = bits[:at_frame + 1][::-1]
    has_prev = before.any(axis=0)
    prev = at_frame - before.argmax(axis=0)
    after = bits[at_frame + 1:]
    if after.shape[0] == 0:
        return np.zeros(bits.shape[1:], dtype=np.float64)
    has_next = after.any(axis=0)
    nxt = at_frame + 1 + after.argmax(axis=0)
    both = has_prev & has_next
    dt = np.where(both, nxt - prev, 1).astype(np.float64)
    return np.where(both, full_scale / dt, 0.0)


def assert_isi_matches_argmax(stream, at):
    got = sio.isi_repr(stream, at)
    want = isi_argmax_oracle(stream, at)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want), at


@pytest.mark.parametrize("density", [0.002, 0.05, 0.3])
def test_isi_bit_identical_to_argmax_scans(density):
    rng = np.random.default_rng(int(density * 1000))
    for frames in (400, 512):
        bits = (rng.random((frames, 32, 32)) < density).astype(np.uint8)
        # pixels firing only at the first and the last frame
        bits[:, 0, :4] = 0
        bits[0, 0, 0] = bits[-1, 0, 0] = 1
        bits[0, 0, 1] = 1
        bits[-1, 0, 2] = 1
        stream = sio.SpikeStream(bits)
        # sides of 254-257 frames before the cut, then after it: the last
        # byte weights and the first int16 ones, the other side of either
        edges = [side - 1 for side in range(254, 258)]
        edges += [frames - 1 - side for side in range(254, 258)]
        for at in (0, 1, frames // 2 - 1, frames - 2, frames - 1, *edges):
            assert_isi_matches_argmax(stream, at)


@pytest.mark.parametrize("frames", [32767, 32768, 40000])
def test_isi_long_stream_across_index_dtype_switch(frames):
    rng = np.random.default_rng(frames)
    bits = (rng.random((frames, 2, 2)) < 0.001).astype(np.uint8)
    bits[:, 0, 0] = 0
    bits[0, 0, 0] = bits[-1, 0, 0] = 1       # a gap of frames - 1
    stream = sio.SpikeStream(bits)
    for at in (0, 1, frames // 2, frames - 2, frames - 1):
        assert_isi_matches_argmax(stream, at)
    assert sio.isi_repr(stream, 1)[0, 0] == 255.0 / (frames - 1)


def isi_max_oracle(stream, at_frame, full_scale=255.0):
    """The earlier isi_repr: one multiply-max over every frame on each side
    of the cut."""
    bits = stream.bits
    f = bits.shape[0]
    if at_frame + 1 == f:
        return np.zeros(bits.shape[1:], dtype=np.float64)
    dtype = sio._frame_index_dtype(f)
    prev = np.max(bits[:at_frame + 1]
                  * np.arange(1, at_frame + 2, dtype=dtype)[:, None, None], axis=0)
    nxt = np.max(bits[at_frame + 1:]
                 * np.arange(f - at_frame - 1, 0, -1, dtype=dtype)[:, None, None],
                 axis=0)
    both = (prev > 0) & (nxt > 0)
    gap = f + 1 - nxt.astype(np.int64) - prev
    dt = np.where(both, gap, 1).astype(np.float64)
    return np.where(both, full_scale / dt, 0.0)


@settings(max_examples=80, deadline=None)
@given(frames=st.one_of(st.integers(1, 80), st.integers(254, 514),
                        st.integers(32766, 32768)),
       seed=st.integers(0, 2**31), density=st.sampled_from([0.0, 0.01, 0.2, 1.0]),
       at=st.sampled_from(["first", "f-2", "f-1", "random", "byte edge"]),
       data=st.data())
def test_isi_early_exit_matches_full_scan(frames, seed, density, at, data):
    """The outward, early-exit scan reads exactly what one multiply-max over
    all frames reads, with silent pixels, pixels firing every frame, cuts
    at the first and last frames, frame counts on both sides of the
    int16 index limit, and sides of 254-257 frames, on both sides of the
    byte weight limit."""
    rng = np.random.default_rng(seed)
    h, w = (1, 3) if frames > 1000 else (3, 4)
    bits = (rng.random((frames, h, w)) < density).astype(np.uint8)
    bits[:, 0, 0] = 0                       # silent
    bits[:, -1, -1] = 1                     # fires every frame
    if frames > 1:                          # first and last frame only
        bits[:, 0, 1] = 0
        bits[[0, -1], 0, 1] = 1
    if at == "byte edge":                   # one side of 254-257 frames
        side = data.draw(st.integers(254, 257))
        cut = data.draw(st.sampled_from([side - 1, frames - 1 - side]))
        cut = min(max(cut, 0), frames - 1)
    else:
        cut = {"first": 0, "f-2": max(frames - 2, 0), "f-1": frames - 1,
               "random": data.draw(st.integers(0, frames - 1))}[at]
    stream = sio.SpikeStream(bits)
    got = sio.isi_repr(stream, cut)
    want = isi_max_oracle(stream, cut)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_isi_rejects_bad_frame():
    s = sio.SpikeStream(np.zeros((5, 2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        sio.isi_repr(s, 5)
    with pytest.raises(ValueError):
        sio.isi_repr(s, -1)


# -- slicing -----------------------------------------------------------------------


def test_stream_refuses_non_binary_values():
    bits = np.array([0, 0, 0, 2, 0, 1, 0, 0, 1, 0], dtype=np.uint8)
    with pytest.raises(sio.NonBinaryStreamError):
        sio.SpikeStream(bits.reshape(10, 1, 1))
    # values a uint8 cast would quietly map to 0 or 1
    for bad in (np.full((2, 1, 1), 0.5), np.full((2, 1, 1), 257),
                np.full((2, 1, 1), -1)):
        with pytest.raises(sio.NonBinaryStreamError):
            sio.SpikeStream(bad)
    assert issubclass(sio.NonBinaryStreamError, ValueError)
    ok = sio.SpikeStream(np.array([[[True]], [[False]]]))
    assert ok.bits.dtype == np.uint8 and ok.bits.ravel().tolist() == [1, 0]
    assert sio.SpikeStream(np.zeros((0, 2, 2), dtype=np.uint8)).frames == 0


def test_slices_and_decoded_streams_skip_the_check(tmp_path, monkeypatch):
    bits = (np.random.default_rng(9).random((12, 3, 4)) < 0.3).astype(np.uint8)
    s = sio.SpikeStream(bits, rate_hz=40000)
    sio.write_stream(tmp_path / "s.spk", s)

    def refuse(values):
        raise AssertionError("binary bits checked again")
    monkeypatch.setattr(sio, "_binary_uint8", refuse)
    part = s.slice(2, 7)
    assert part.rate_hz == s.rate_hz and part.frames == 5
    assert np.shares_memory(part.packed, s.packed)
    assert np.array_equal(part.bits, bits[2:7])
    packed = sio.open_stream(tmp_path / "s.spk")
    assert packed.rate_hz == 40000 and packed.bits.dtype == np.uint8
    assert np.array_equal(packed.bits, bits)
    assert not packed.packed.flags.writeable
    assert packed.packed.tobytes() == s.packed.tobytes()
    piece = packed.slice(2, 7)
    assert piece.rate_hz == 40000 and piece.frames == 5
    assert np.shares_memory(piece.packed, packed.packed)
    assert np.array_equal(piece.frame_bits(0, 5), bits[2:7])
    assert np.array_equal(piece.frame_bits(1, 3), bits[3:5])
    assert np.array_equal(window_repr(packed, 2, 6), window_repr(s, 2, 6))


def test_slice_stream():
    rng = np.random.default_rng(7)
    s = random_stream(rng, 20, 4, 4)
    part = s.slice(5, 10)
    assert part.frames == 5
    assert np.array_equal(part.bits, s.bits[5:10])
    with pytest.raises(ValueError):
        s.slice(10, 5)


def test_packed_slice_rejects_bad_ranges(tmp_path):
    sio.write_stream(tmp_path / "s.spk",
                     random_stream(np.random.default_rng(8), 6, 2, 3))
    packed = sio.open_stream(tmp_path / "s.spk")
    for start, stop in ((3, 3), (4, 2), (-1, 2), (0, 7)):
        with pytest.raises(ValueError):
            packed.slice(start, stop)


@settings(max_examples=60, deadline=None)
@given(frames=st.integers(1, 90), h=st.integers(1, 7), w=st.integers(1, 9),
       seed=st.integers(0, 2**31), density=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
       kind=st.sampled_from(["any", "clipped", "cut-on-last-frame"]),
       data=st.data())
def test_packed_window_repr_matches_dense(tmp_path_factory, frames, h, w, seed,
                                          density, kind, data):
    """window_repr over a mapped file equals the loop oracle over the
    dense bits byte for byte: padded frames (h*w not a multiple of 8), a
    last window clipped at the stream end, and a cut on a window's last
    frame, where the decode reads 0."""
    rng = np.random.default_rng(seed)
    bits = (rng.random((frames, h, w)) < density).astype(np.uint8)
    p = tmp_path_factory.mktemp("win") / "s.spk"
    sio.write_stream(p, sio.SpikeStream(bits))
    start = data.draw(st.integers(0, frames - 1))
    left = frames - start               # frames from start to the stream end
    if kind == "clipped":
        window = data.draw(st.integers(left + 1, 2 * frames + 2))
    elif kind == "cut-on-last-frame":   # window // 2 reaches past the end
        window = data.draw(st.integers(max(1, 2 * left - 2), 2 * left + 2))
    else:
        window = data.draw(st.integers(1, frames))
    got = window_repr(sio.open_stream(p), start, window)
    piece = bits[start:start + window]
    at = min(window // 2, len(piece) - 1)
    want = isi_oracle(piece, at)[None] * REPR_SCALE
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- pgm ---------------------------------------------------------------------------


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    img = rng.integers(0, 256, (11, 7), dtype=np.uint8)
    p = tmp_path / "m.pgm"
    sio.write_pgm(p, img)
    assert np.array_equal(sio.read_pgm(p), img)


def test_mask_roundtrip_and_binarization(tmp_path):
    rng = np.random.default_rng(9)
    m = (rng.random((9, 9)) < 0.5).astype(np.uint8)
    p = tmp_path / "m.pgm"
    sio.write_mask(p, m)
    back = sio.read_mask(p)
    assert np.array_equal(back, m)
    assert set(np.unique(sio.read_pgm(p))) <= {0, 255}


def test_mask_refuses_values_a_cast_would_hide(tmp_path):
    # a uint8 cast reads 0.5 as 0, and 257 and 1.9 as 1
    p = tmp_path / "m.pgm"
    for bad in ([[0.5]], [[257]], [[1.9]]):
        with pytest.raises(ValueError, match="mask values must be 0/1"):
            sio.write_mask(p, np.array(bad))
    with pytest.raises(ValueError, match="mask values must be 0/1"):
        sio.write_mask(p, np.array([[0, 2]], dtype=np.uint8))
    assert not p.exists()
    for ok in ([[True, False]], [[1.0, 0.0]], [[1, 0]]):
        sio.write_mask(p, np.array(ok))
        m = sio.read_mask(p)
        assert m.dtype == np.uint8 and m.tolist() == [[1, 0]]


def test_pgm_with_comment(tmp_path):
    p = tmp_path / "c.pgm"
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    p.write_bytes(b"P5\n# a comment\n3 2\n255\n" + img.tobytes())
    assert np.array_equal(sio.read_pgm(p), img)


@pytest.mark.parametrize("raw, message", [
    pytest.param(b"P5\n0 4\n255\n", "empty", id="zero-width"),
    pytest.param(b"P5\n4 0\n255\n", "empty", id="zero-height"),
    pytest.param(b"P5\n2 2\n255\n" + bytes(5), "5 pixel bytes", id="trailing"),
    pytest.param(b"P5\n2 2\n255\n" + bytes(3), "3 pixel bytes", id="truncated"),
    pytest.param(b"P5\n2 2\n255", "0 pixel bytes", id="no-pixels"),
    pytest.param(b"P5\n-2 -2\n255\n" + bytes(4), "header field", id="negative"),
    pytest.param(b"P5\n2 2\n", "header field", id="no-maxval"),
    pytest.param(b"P5\n2 2 # c", "ends in a comment", id="open-comment"),
    pytest.param(b"P5\n2 2\n65535\n" + bytes(8), "maxval", id="16-bit"),
    pytest.param(b"P52 2\n255\n" + bytes(4), "not a binary PGM", id="magic"),
])
def test_pgm_rejects_malformed(tmp_path, raw, message):
    p = tmp_path / "bad.pgm"
    p.write_bytes(raw)
    with pytest.raises(ValueError, match=message):
        sio.read_pgm(p)


def pgm_bytes(img, comment=b""):
    h, w = img.shape
    return b"P5\n" + comment + f"{w} {h}\n255\n".encode() + img.tobytes()


@settings(max_examples=300, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(1, 6), seed=st.integers(0, 2**31),
       comment=st.sampled_from([b"", b"# c\n"]),
       mutation=st.sampled_from(["truncate", "flip", "append", "resize"]),
       data=st.data())
def test_pgm_fuzz_raises_only_value_error(tmp_path_factory, h, w, seed,
                                          comment, mutation, data):
    """Truncated, mutated and oversized files either decode to an (H, W)
    image holding exactly the bytes after the header, or raise ValueError."""
    img = np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
    raw = pgm_bytes(img, comment)
    if mutation == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif mutation == "flip":
        at = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
    elif mutation == "append":
        raw += data.draw(st.binary(min_size=1, max_size=64))
    else:   # a header claiming another, possibly huge, size
        h2 = data.draw(st.integers(0, 2**62))
        raw = pgm_bytes(img, comment).replace(f" {h}\n".encode(),
                                              f" {h2}\n".encode(), 1)
    p = tmp_path_factory.mktemp("pgm") / "f.pgm"
    p.write_bytes(raw)
    try:
        got = sio.read_pgm(p)
    except ValueError:
        return
    assert got.dtype == np.uint8 and got.ndim == 2 and got.size > 0
    assert raw.endswith(got.tobytes())


# -- manifest ----------------------------------------------------------------------


def make_dataset(tmp_path, rng, n_streams=2):
    streams = []
    for i in range(n_streams):
        s = random_stream(rng, 12, 6, 6)
        sp = f"seq{i}.spk"
        sio.write_stream(tmp_path / sp, s)
        masks = []
        for k in (0, 4, 8):
            m = (rng.random((6, 6)) < 0.5).astype(np.uint8)
            mp = f"seq{i}_m{k}.pgm"
            sio.write_mask(tmp_path / mp, m)
            masks.append(sio.MaskRef(mp, k))
        streams.append(sio.StreamEntry(sp, "train" if i == 0 else "val",
                                       "high", masks))
    return sio.DatasetManifest(streams, tmp_path)


def test_manifest_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    man = make_dataset(tmp_path, rng)
    mp = tmp_path / "manifest.json"
    sio.save_manifest(mp, man)
    back = sio.load_manifest(mp)
    assert len(back.streams) == 2
    assert back.streams[0].split == "train"
    assert [m.frame for m in back.streams[0].masks] == [0, 4, 8]
    assert len([s for s in back.streams if s.split == "val"]) == 1


def test_failed_manifest_write_keeps_the_old_manifest(tmp_path):
    rng = np.random.default_rng(13)
    man = make_dataset(tmp_path, rng)
    mp = tmp_path / "manifest.json"
    sio.save_manifest(mp, man)
    before = sorted(f.name for f in tmp_path.iterdir())
    old = mp.read_bytes()
    # json cannot encode the last mask's frame, so the dump fails after
    # writing part of the document
    man.streams[-1].masks[-1].frame = object()
    with pytest.raises(TypeError):
        sio.save_manifest(mp, man)
    assert mp.read_bytes() == old
    assert sorted(f.name for f in tmp_path.iterdir()) == before


def test_manifest_missing_file(tmp_path):
    rng = np.random.default_rng(11)
    man = make_dataset(tmp_path, rng)
    man.streams[0].path = "ghost.spk"
    mp = tmp_path / "manifest.json"
    sio.save_manifest(mp, man)
    with pytest.raises(FileNotFoundError):
        sio.load_manifest(mp)


def test_manifest_mask_order_enforced(tmp_path):
    rng = np.random.default_rng(12)
    man = make_dataset(tmp_path, rng)
    man.streams[0].masks.reverse()
    mp = tmp_path / "manifest.json"
    sio.save_manifest(mp, man)
    with pytest.raises(ValueError):
        sio.load_manifest(mp)


def test_manifest_rejects_streams_of_one_sequence_name(tmp_path):
    """Streams of one file stem in two directories would be one sequence,
    their windows interleaved by index; the manifest names both."""
    rng = np.random.default_rng(16)
    streams = []
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        sio.write_stream(tmp_path / d / "val_000.spk", random_stream(rng, 12, 6, 6))
        sio.write_mask(tmp_path / d / "val_000_m0.pgm", np.zeros((6, 6)))
        streams.append(sio.StreamEntry(f"{d}/val_000.spk", "val", "low",
                                       [sio.MaskRef(f"{d}/val_000_m0.pgm", 0)]))
    mp = tmp_path / "manifest.json"
    sio.save_manifest(mp, sio.DatasetManifest(streams, tmp_path))
    with pytest.raises(ValueError, match="streams a/val_000.spk and "
                                         "b/val_000.spk share"):
        sio.load_manifest(mp)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: d.pop("streams"), "missing 'streams'", id="no-streams"),
    pytest.param(lambda d: d["streams"][0].pop("light"), "missing 'light'",
                 id="no-light"),
    pytest.param(lambda d: d["streams"][0]["masks"][0].pop("frame"),
                 "missing 'frame'", id="no-frame"),
    pytest.param(lambda d: d["streams"][0]["masks"][1].update(frame="4"),
                 "'frame' must be of type int", id="string-frame"),
    pytest.param(lambda d: d["streams"][0]["masks"][0].update(frame=True),
                 "'frame' must be of type int", id="bool-frame"),
    pytest.param(lambda d: d["streams"][1].update(path=3),
                 "'path' must be of type str", id="int-path"),
    pytest.param(lambda d: d["streams"][0].update(masks={}),
                 "'masks' must be of type list", id="dict-masks"),
    pytest.param(lambda d: d["streams"].append([]), "missing 'path'",
                 id="list-entry"),
    pytest.param(lambda d: d.update(streams="seq0.spk"),
                 "'streams' must be of type list", id="string-streams"),
])
def test_manifest_rejects_malformed(tmp_path, edit, message):
    mp = tmp_path / "manifest.json"
    sio.save_manifest(mp, make_dataset(tmp_path, np.random.default_rng(13)))
    doc = json.loads(mp.read_text())
    edit(doc)
    mp.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        sio.load_manifest(mp)


@pytest.mark.parametrize("text", ["[]", "null", '{"streams": 1e999}',
                                  "[" * 100000, '{"streams": []} x'])
def test_manifest_rejects_other_documents(tmp_path, text):
    mp = tmp_path / "manifest.json"
    mp.write_text(text)
    with pytest.raises(ValueError):
        sio.load_manifest(mp)


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest")
    sio.save_manifest(root / "manifest.json",
                      make_dataset(root, np.random.default_rng(14)))
    return root


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8)


def json_slots(doc):
    """Every (container, key) pair of a parsed JSON document."""
    slots, todo = [], [doc]
    while todo:
        node = todo.pop()
        keys = list(node) if isinstance(node, dict) else \
            range(len(node)) if isinstance(node, list) else ()
        for k in keys:
            slots.append((node, k))
            todo.append(node[k])
    return slots


@settings(max_examples=300, deadline=None)
@given(mutation=st.sampled_from(["delete", "replace", "truncate", "flip",
                                 "append"]),
       data=st.data())
def test_manifest_fuzz_raises_only_documented_errors(manifest_dir, mutation,
                                                     data):
    """A manifest with a key deleted, a value replaced by any JSON value,
    or its bytes truncated, mutated or extended either loads with every
    field of the right type, or raises ValueError or OSError."""
    raw = (manifest_dir / "manifest.json").read_bytes()
    if mutation in ("delete", "replace"):
        doc = json.loads(raw)
        node, key = data.draw(st.sampled_from(json_slots(doc)))
        if mutation == "delete":
            del node[key]
        else:
            node[key] = data.draw(JSON_VALUES)
        raw = json.dumps(doc).encode()
    elif mutation == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif mutation == "flip":
        at = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=64))
    path = manifest_dir / "fuzzed.json"
    path.write_bytes(raw)
    try:
        man = sio.load_manifest(path)
    except (ValueError, OSError):
        return
    for s in man.streams:
        assert isinstance(s.path, str) and s.split in ("train", "val")
        assert s.light in ("high", "low")
        frames = [m.frame for m in s.masks]
        assert all(type(f) is int for f in frames)
        assert frames == sorted(set(frames))
        assert all(isinstance(m.path, str) for m in s.masks)
