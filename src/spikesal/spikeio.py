"""Spike stream container, binary codec, and the ISI intensity representation.

A spike stream is a sequence of binary frames, one bit per pixel per
sampling step of an integrate-and-fire sensor running at ``rate_hz``.
``SpikeStream`` holds it as it lies on disk: bit-packed frame-major then
row-major, LSB-first within each byte, each frame padded up to a whole
byte count. The camera model packs each frame as it fires, and
``write_stream`` writes that payload as it is.

``open_stream`` (also ``read_stream``) checks a file's header against
its size and maps the file read-only, so the stream's payload is a view
of the mapping. Readers take frames through ``frame_bits``: the ISI
decoder unpacks only the 16-frame chunks its outward scan visits, and
only the file pages around those frames are read. A mapped file that
another program truncates in place can kill the reading process with
SIGBUS; ``write_stream`` therefore never rewrites a file in place but
replaces it, so a stream mapped earlier keeps its old frames.

File header (little-endian): magic ``SPKS``, u16 version, u32 width,
u32 height, u64 frames, u32 rate_hz. 26 bytes total.

The JSON documents beside the streams are checked on reading: the
dataset manifest (``load_manifest``) and the generator, run and model
configs (``check_config``) raise ValueError for a key that is unknown
(or, in the manifest, missing) or holds a value of the wrong type. Every
JSON document the package reads is parsed by ``parse_json``, which raises
ValueError for one nested too deeply as for any other malformed one.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"SPKS"
VERSION = 1
HEADER = struct.Struct("<4sHIIQI")

# refuse to materialize streams past this many bits (64 GiB dense)
MAX_TOTAL_BITS = 1 << 39

# ``isi_repr`` of a pixel that fires every frame
FULL_SCALE = 255.0


class SpikeIOError(Exception):
    pass


class MalformedHeaderError(SpikeIOError):
    pass


class TruncatedPayloadError(SpikeIOError):
    pass


class DimensionOverflowError(SpikeIOError):
    pass


class NonBinaryStreamError(SpikeIOError, ValueError):
    """Spike stream bits other than 0 and 1."""


class SpikeStream:
    """A binary spike stream of ``frames`` frames of ``height`` x ``width``
    pixels, held as its file payload: ``packed`` is a (frames, frame_bytes)
    uint8 array, each row one frame's bits packed LSB-first and padded to
    whole bytes. ``frame_bits`` unpacks only the frames it is asked for.

    ``SpikeStream(bits, rate_hz)`` checks that every value of the
    (frames, height, width) array ``bits`` is 0 or 1, then packs it.
    ``open_stream`` and ``simcam.simulate`` build a stream from a payload
    they packed themselves, which is not checked again.
    """

    def __init__(self, bits, rate_hz: int = 20000):
        bits = np.asarray(bits)
        if bits.ndim != 3:
            raise ValueError("spike stream must be (frames, height, width)")
        binary = _binary_uint8(bits)
        if binary is None:
            raise NonBinaryStreamError("spike stream values must be 0/1")
        f, h, w = bits.shape
        self.packed = np.packbits(binary.reshape(f, h * w), axis=1,
                                  bitorder="little")
        self.height, self.width, self.rate_hz = h, w, rate_hz

    @classmethod
    def _of_packed(cls, packed: np.ndarray, height: int, width: int,
                   rate_hz: int) -> "SpikeStream":
        # ``packed``: a (frames, ceil(height * width / 8)) uint8 payload
        stream = cls.__new__(cls)
        stream.packed, stream.height, stream.width = packed, height, width
        stream.rate_hz = rate_hz
        return stream

    @property
    def frames(self) -> int:
        return self.packed.shape[0]

    @property
    def bits(self) -> np.ndarray:
        """Every frame unpacked into a fresh (frames, height, width) uint8
        array of 0 and 1."""
        return self.frame_bits(0, self.frames)

    def slice(self, start: int, stop: int) -> "SpikeStream":
        """Frames [start, stop), sharing this stream's ``packed``."""
        if not (0 <= start < stop <= self.frames):
            raise ValueError(f"bad frame range [{start}, {stop})")
        return SpikeStream._of_packed(self.packed[start:stop], self.height,
                                      self.width, self.rate_hz)

    def frame_bits(self, start: int, stop: int) -> np.ndarray:
        """The bits of frames [start, stop), unpacked to a (stop - start,
        height, width) uint8 array of 0 and 1."""
        rows = self.packed[start:stop]
        bits = np.unpackbits(rows, axis=1, count=self.height * self.width,
                             bitorder="little")
        return bits.reshape(rows.shape[0], self.height, self.width)


def _binary_uint8(values: np.ndarray) -> np.ndarray | None:
    """``values`` as uint8 if every value is 0 or 1, else None. The raw
    values are checked before any cast, which would turn 0.5 into 0 and
    257 or 1.9 into 1; uint8 input is returned as it is."""
    if values.dtype != np.uint8:
        if values.dtype != np.bool_ and not np.isin(values, (0, 1)).all():
            return None
        return values.astype(np.uint8)
    return values if values.max(initial=0) <= 1 else None


def write_stream(path, stream: SpikeStream):
    """Write ``stream`` as a .spk file. The bytes go to a temporary file
    beside ``path``, which then replaces it: a failed write leaves any
    previous file at ``path`` intact, and a reader that mapped that file
    keeps reading its old frames instead of dying with SIGBUS, as it could
    if the file were truncated in place. There is no fsync, so a power
    loss soon after the write can still lose or cut the new file."""
    f, h, w = stream.frames, stream.height, stream.width
    if w >= 1 << 32 or h >= 1 << 32 or f >= 1 << 64 or f * h * w > MAX_TOTAL_BITS:
        raise DimensionOverflowError(f"stream dims {f}x{h}x{w} overflow the format")
    if not 0 <= stream.rate_hz < 1 << 32:
        raise DimensionOverflowError(
            f"stream rate {stream.rate_hz} Hz overflows the format's u32")
    with replacing(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, VERSION, w, h, f, stream.rate_hz))
        fh.write(stream.packed)


@contextlib.contextmanager
def replacing(path, mode: str, **kw):
    """A file opened at a temporary name beside ``path``, which replaces
    ``path`` when the block ends; if the block raises, the temporary file
    is removed and any previous file at ``path`` stays as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kw) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def open_stream(path) -> SpikeStream:
    """Check a .spk file's header against the file size, then map the
    file read-only; the stream's ``packed`` rows are a view of that
    mapping, so only the file pages around the frames that are unpacked
    get read. The mapping lives as long as any array viewing it. Raises
    MalformedHeaderError, DimensionOverflowError or TruncatedPayloadError
    for a file that does not hold exactly one valid stream. Another
    program that truncates the file in place while it is mapped can make
    a later read raise SIGBUS; ``write_stream`` replaces files instead."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise MalformedHeaderError(f"{path}: too short for a header")
        magic, version, w, h, f, rate = HEADER.unpack(head)
        if magic != MAGIC:
            raise MalformedHeaderError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise MalformedHeaderError(f"{path}: unsupported version {version}")
        if w == 0 or h == 0 or f == 0:
            raise MalformedHeaderError(f"{path}: zero dimension in header")
        if f * h * w > MAX_TOTAL_BITS:
            raise DimensionOverflowError(f"{path}: {f}x{h}x{w} exceeds the size cap")
        frame_bytes = (h * w + 7) // 8
        expected = HEADER.size + f * frame_bytes
        size = os.fstat(fh.fileno()).st_size
        if size < expected:
            raise TruncatedPayloadError(f"{path}: payload ends early "
                                        f"({size} of {expected} bytes)")
        if size > expected:
            raise MalformedHeaderError(f"{path}: trailing bytes after payload")
        mapped = mmap.mmap(fh.fileno(), expected, access=mmap.ACCESS_READ)
    packed = np.frombuffer(mapped, dtype=np.uint8, offset=HEADER.size)
    return SpikeStream._of_packed(packed.reshape(f, frame_bytes), h, w, rate)


# the older name, which bench/run.py reads through and bench/tracer.py times
read_stream = open_stream


# -- light intensity statistics ------------------------------------------------


def lis(frame: np.ndarray) -> float:
    """Light intensity scale of one frame: set bits / pixels, in [0, 1]."""
    frame = np.asarray(frame)
    return float(np.count_nonzero(frame)) / frame.size


def mean_lis(stream: SpikeStream) -> float:
    return float(stream.bits.mean())


# -- representation ------------------------------------------------------------


def isi_repr(stream: SpikeStream, at_frame: int) -> np.ndarray:
    """Inter-spike-interval intensity at one frame: a float64 (H, W) array
    with values in [0, FULL_SCALE].

    Per pixel the interval is (next spike strictly after ``at_frame``)
    minus (nearest spike at or before ``at_frame``); the value is
    FULL_SCALE / interval. A pixel firing every frame therefore reads
    FULL_SCALE exactly. Pixels without such a bracketing pair inside the
    stream read 0. Only the frames the scan visits are unpacked.
    """
    f = stream.frames
    if not 0 <= at_frame < f:
        raise ValueError(f"at_frame {at_frame} outside [0, {f})")
    shape = (stream.height, stream.width)
    if at_frame + 1 == f:
        return np.zeros(shape, dtype=np.float64)
    # Frame t is weighted t+1 before the cut and f-t after it, so the max
    # over frames finds the nearest spike on that side; 0 means none. Each
    # side is scanned outward from the cut in chunks of frames, and stops
    # once every pixel that still needs a spike on that side has one.
    dtype = _frame_index_dtype(f)
    prev = _nearest_spike(stream, at_frame + 1, -1, dtype, lambda t: t + 1)
    nxt = _nearest_spike(stream, at_frame + 1, f, dtype, lambda t: f - t,
                         prev > 0)
    both = (prev > 0) & (nxt > 0)
    # gap (f - nxt) - (prev - 1), in int64: f + 1 may not fit the index type
    gap = f + 1 - nxt.astype(np.int64) - prev
    dt = np.where(both, gap, 1).astype(np.float64)
    return np.where(both, FULL_SCALE / dt, 0.0)


_ISI_CHUNK = 16     # frames per step of the outward scan


def _nearest_spike(stream, cut: int, end: int, dtype, weight, need=None):
    """Per pixel, the largest ``weight(t)`` over its spiking frames t on
    one side of a cut: frames cut-1 down to end+1 when end < cut, else cut
    up to end-1. Weights fall away from the cut, so the largest names the
    nearest spike; 0 means none. Frames are read outward from the cut, a
    chunk at a time through ``stream.frame_bits``, and the scan stops once
    every pixel in the boolean mask ``need`` (None: every pixel) has a
    spike; pixels outside it may then read 0 where a full scan would not."""
    step = 1 if end > cut else -1
    best = np.zeros((stream.height, stream.width), dtype=dtype)
    skip = None if need is None else ~need
    a = cut if step > 0 else cut - 1
    while a != end:
        b = a + step * _ISI_CHUNK
        b = min(b, end) if step > 0 else max(b, end)
        lo, hi = (a, b) if step > 0 else (b + 1, a + 1)
        w = weight(np.arange(lo, hi, dtype=np.int64)).astype(dtype)
        np.maximum(best, np.max(stream.frame_bits(lo, hi) * w[:, None, None],
                                axis=0), out=best)
        if (best if skip is None else np.logical_or(best, skip)).all():
            break
        a = b
    return best


def _frame_index_dtype(frames: int):
    """Smallest signed integer type holding every 1-based frame index."""
    if frames < 1 << 15:
        return np.int16
    if frames < 1 << 31:
        return np.int32
    return np.int64


# -- PGM masks -----------------------------------------------------------------


def write_pgm(path, img: np.ndarray):
    img = np.asarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError("pgm wants a 2-d uint8 array")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM (P5, maxval 255) as an (H, W) uint8 array.
    Raises ValueError for any other file, a header field that is not a
    decimal number, a zero width or height, and pixel data shorter or
    longer than width * height bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P5") or not raw[2:3].isspace():
        raise ValueError(f"{path}: not a binary PGM")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":  # comment line
            pos = raw.find(b"\n", pos) + 1
            if pos == 0:
                raise ValueError(f"{path}: PGM header ends in a comment")
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit():
            raise ValueError(f"{path}: bad PGM header field {token[:20]!r}")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if w == 0 or h == 0:
        raise ValueError(f"{path}: empty {w}x{h} image")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    if len(raw) - pos != h * w:
        raise ValueError(f"{path}: {max(len(raw) - pos, 0)} pixel bytes for "
                         f"a {w}x{h} image")
    return np.frombuffer(raw, dtype=np.uint8, offset=pos).reshape(h, w).copy()


def write_mask(path, values: np.ndarray):
    """Write a binary mask as a PGM of 0 and 255; raises ValueError for a
    value other than 0 or 1."""
    values = _binary_uint8(np.asarray(values))
    if values is None:
        raise ValueError("mask values must be 0/1")
    write_pgm(path, values * np.uint8(255))


def read_mask(path) -> np.ndarray:
    """The binary (H, W) uint8 mask of a PGM: 1 where a pixel is >= 128."""
    return (read_pgm(path) >= 128).astype(np.uint8)


# -- dataset manifest ----------------------------------------------------------


@dataclass
class MaskRef:
    path: str
    frame: int


@dataclass
class StreamEntry:
    path: str
    split: str            # "train" | "val"
    light: str            # "high" | "low"
    masks: list = field(default_factory=list)


@dataclass
class DatasetManifest:
    streams: list
    root: Path = Path(".")


def save_manifest(path, manifest: DatasetManifest):
    """Write the manifest through a temporary file beside ``path``, which
    then replaces it, so a failed write never leaves a partial manifest."""
    doc = {"streams": [
        {"path": s.path, "split": s.split, "light": s.light,
         "masks": [{"path": m.path, "frame": m.frame} for m in s.masks]}
        for s in manifest.streams]}
    with replacing(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_json(text: str, where):
    """``json.loads(text)``; raises ValueError naming ``where`` for a
    malformed document, including one nested too deeply for the parser,
    which would otherwise raise RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{where}: JSON nested too deeply") from None


def _field(doc, key: str, kind, where: str):
    # doc[key], which must exist and be a ``kind`` (a bool is not an int)
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{where}: missing {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{where}: {key!r} must be of type {kind.__name__}")
    return value


def _is_finite(v) -> bool:
    # JSON's NaN and Infinity parse to floats; an integer is always finite
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and (isinstance(v, int) or math.isfinite(v)))


# the JSON values a config field of each kind accepts, and their description;
# a bool is not a number, and a float field keeps an integer as it is
_CONFIG_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, int) and _is_finite(v)),
    "float": ("a number (not NaN or Infinity)", _is_finite),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "dict": ("an object", lambda v: isinstance(v, dict)),
    "tuple": ("a [low, high] pair of numbers (not NaN or Infinity)",
              lambda v: isinstance(v, (list, tuple)) and len(v) == 2
              and all(map(_is_finite, v))),
}


def check_config(doc, kinds: dict, where: str) -> dict:
    """A copy of ``doc``, a config read from JSON, after checking that it is
    an object whose keys all appear in ``kinds`` and whose values are of the
    kind named there: "int", "float" (finite: not JSON's NaN or Infinity),
    "str", "bool", "dict" or "tuple" (a [low, high] pair of finite
    numbers). Raises ValueError naming the first key that is unknown or
    holds a value of another kind."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, "
                         f"not {type(doc).__name__}")
    extra = set(doc) - set(kinds)
    if extra:
        raise ValueError(f"unknown {where} keys: {sorted(extra)}")
    for key, value in doc.items():
        what, fits = _CONFIG_KINDS[kinds[key]]
        if not fits(value):
            raise ValueError(f"{where} key {key!r} must be {what}, "
                             f"got {json.dumps(value)}")
    return dict(doc)


def load_manifest(path) -> DatasetManifest:
    """Read a dataset manifest, checking its structure and that every
    file it names exists. Raises ValueError for malformed JSON, a missing
    key, a value of the wrong type, an unknown split or light tag, mask
    frames that do not increase, or two streams of one file stem, which
    would be one sequence; OSError when a named file is missing."""
    path = Path(path)
    doc = parse_json(path.read_text(encoding="utf-8"), path)
    root = path.parent
    streams, stems = [], {}
    for s in _field(doc, "streams", list, str(path)):
        where = f"{path}: stream"
        spk = _field(s, "path", str, where)
        split = _field(s, "split", str, where)
        light = _field(s, "light", str, where)
        if split not in ("train", "val"):
            raise ValueError(f"unknown split {split!r}")
        if light not in ("high", "low"):
            raise ValueError(f"unknown light tag {light!r}")
        if not (root / spk).exists():
            raise FileNotFoundError(f"manifest references missing {spk}")
        stem = Path(spk).stem
        if stem in stems:
            raise ValueError(f"{path}: streams {stems[stem]} and {spk} share "
                             f"the sequence name {stem!r}")
        stems[stem] = spk
        masks = []
        last = -1
        for m in _field(s, "masks", list, where):
            mask = _field(m, "path", str, f"{where} {spk} mask")
            frame = _field(m, "frame", int, f"{where} {spk} mask")
            if not (root / mask).exists():
                raise FileNotFoundError(f"manifest references missing {mask}")
            if frame <= last:
                raise ValueError(f"mask frames not strictly increasing in {spk}")
            last = frame
            masks.append(MaskRef(mask, frame))
        streams.append(StreamEntry(spk, split, light, masks))
    return DatasetManifest(streams, root)
