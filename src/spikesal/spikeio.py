"""Spike stream container, binary codec, and the ISI intensity representation.

A spike stream is a dense (frames, height, width) array of {0,1} produced
by an integrate-and-fire sensor sampling at ``rate_hz``. On disk the
stream is bit-packed frame-major then row-major, LSB-first within each
byte, each frame padded up to a whole byte count.

``open_stream`` checks a file's header against its size and maps the
file read-only, keeping the payload packed, one row of bytes per frame;
``read_stream`` is that reader plus one unpack of every frame. Both
stream types hand out frames through ``frame_bits``, so the ISI decoder
reads a packed stream by unpacking only the 16-frame chunks its outward
scan visits, and only the file pages around those frames are read. A
mapped file that another program truncates in place can kill the
reading process with SIGBUS; ``write_stream`` therefore never rewrites
a file in place but replaces it, so a stream mapped earlier keeps its
old frames.

File header (little-endian): magic ``SPKS``, u16 version, u32 width,
u32 height, u64 frames, u32 rate_hz. 26 bytes total.

The JSON documents beside the streams are checked on reading: the
dataset manifest (``load_manifest``) and the generator, run and model
configs (``check_config``) raise ValueError for a key that is unknown
(or, in the manifest, missing) or holds a value of the wrong type.
"""

from __future__ import annotations

import contextlib
import json
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

DEFAULT_FULL_SCALE = 255.0


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


@dataclass
class SpikeStream:
    """Binary spike frames, shape (frames, height, width), values {0,1}.

    The values are checked once, on construction. Slices share checked
    bits, and ``read_stream`` unpacks bits that can only be 0 or 1, so
    neither checks again. Write only 0 or 1 into ``bits``.
    """

    bits: np.ndarray
    rate_hz: int = 20000

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 3:
            raise ValueError("spike stream must be (frames, height, width)")
        self.bits = _binary_uint8(bits)
        if self.bits is None:
            raise NonBinaryStreamError("spike stream values must be 0/1")

    @classmethod
    def _of_binary(cls, bits: np.ndarray, rate_hz: int) -> "SpikeStream":
        # ``bits``: a (frames, height, width) uint8 array known to hold
        # only 0 and 1, so __post_init__ is skipped
        stream = cls.__new__(cls)
        stream.bits, stream.rate_hz = bits, rate_hz
        return stream

    @property
    def frames(self) -> int:
        return self.bits.shape[0]

    @property
    def height(self) -> int:
        return self.bits.shape[1]

    @property
    def width(self) -> int:
        return self.bits.shape[2]

    def slice(self, start: int, stop: int) -> "SpikeStream":
        _check_range(start, stop, self.frames)
        return SpikeStream._of_binary(self.bits[start:stop], self.rate_hz)

    def frame_bits(self, start: int, stop: int) -> np.ndarray:
        """The bits of frames [start, stop): a view of ``bits``."""
        return self.bits[start:stop]


@dataclass(frozen=True)
class PackedStream:
    """A spike stream held as its file payload: ``packed`` is a read-only
    (frames, frame_bytes) uint8 array, each row one frame's bits packed
    LSB-first and padded to whole bytes. ``frame_bits`` unpacks only the
    frames it is asked for. Made by ``open_stream``, whose ``packed`` is a
    view of the read-only mapped file."""

    packed: np.ndarray
    height: int
    width: int
    rate_hz: int

    @property
    def frames(self) -> int:
        return self.packed.shape[0]

    def slice(self, start: int, stop: int) -> "PackedStream":
        _check_range(start, stop, self.frames)
        return PackedStream(self.packed[start:stop], self.height, self.width,
                            self.rate_hz)

    def frame_bits(self, start: int, stop: int) -> np.ndarray:
        """The bits of frames [start, stop), unpacked to a (stop - start,
        height, width) uint8 array of 0 and 1."""
        rows = self.packed[start:stop]
        bits = np.unpackbits(rows, axis=1, count=self.height * self.width,
                             bitorder="little")
        return bits.reshape(rows.shape[0], self.height, self.width)


def _check_range(start: int, stop: int, frames: int):
    if not (0 <= start < stop <= frames):
        raise ValueError(f"bad frame range [{start}, {stop})")


@dataclass
class Mask:
    """Binary ground-truth occupancy at one stream frame."""

    values: np.ndarray
    timestamp_frame: int

    def __post_init__(self):
        self.values = _binary_uint8(np.asarray(self.values))
        if self.values is None:
            raise ValueError("mask values must be 0/1")


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
    flat = stream.bits.reshape(f, h * w)
    packed = np.packbits(flat, axis=1, bitorder="little")
    with replacing(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, VERSION, w, h, f, stream.rate_hz))
        fh.write(packed)


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


def open_stream(path) -> PackedStream:
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
    return PackedStream(packed.reshape(f, frame_bytes), h, w, rate)


def read_stream(path) -> SpikeStream:
    """Read a .spk file into a dense stream: ``open_stream`` and one unpack
    of every frame; raises what ``open_stream`` raises."""
    stream = open_stream(path)
    return SpikeStream._of_binary(stream.frame_bits(0, stream.frames),
                                  stream.rate_hz)


# -- light intensity statistics ------------------------------------------------


def lis(frame: np.ndarray) -> float:
    """Light intensity scale of one frame: set bits / pixels, in [0, 1]."""
    frame = np.asarray(frame)
    return float(np.count_nonzero(frame)) / frame.size


def mean_lis(stream: SpikeStream) -> float:
    return float(stream.bits.mean())


# -- representation ------------------------------------------------------------


@dataclass
class SpikeRepr:
    """Real-valued image decoded from spike timing, values in [0, full_scale]."""

    values: np.ndarray
    full_scale: float = DEFAULT_FULL_SCALE


def isi_repr(stream: SpikeStream | PackedStream, at_frame: int,
             full_scale: float = DEFAULT_FULL_SCALE) -> SpikeRepr:
    """Inter-spike-interval intensity at one frame.

    Per pixel the interval is (next spike strictly after ``at_frame``)
    minus (nearest spike at or before ``at_frame``); the value is
    full_scale / interval. A pixel firing every frame therefore reads
    full_scale exactly. Pixels without such a bracketing pair inside the
    stream read 0. A packed stream reads the same values, and only the
    frames the scan visits are unpacked.
    """
    f = stream.frames
    if not 0 <= at_frame < f:
        raise ValueError(f"at_frame {at_frame} outside [0, {f})")
    shape = (stream.height, stream.width)
    if at_frame + 1 == f:
        return SpikeRepr(np.zeros(shape, dtype=np.float64), full_scale)
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
    vals = np.where(both, full_scale / dt, 0.0)
    return SpikeRepr(vals, full_scale)


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


def write_mask(path, mask: Mask):
    write_pgm(path, mask.values * np.uint8(255))


def read_mask(path, timestamp_frame: int) -> Mask:
    img = read_pgm(path)
    return Mask((img >= 128).astype(np.uint8), timestamp_frame)


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

    def entries(self, split: str | None = None):
        return [s for s in self.streams if split is None or s.split == split]


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


def _field(doc, key: str, kind, where: str):
    # doc[key], which must exist and be a ``kind`` (a bool is not an int)
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{where}: missing {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{where}: {key!r} must be of type {kind.__name__}")
    return value


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the JSON values a config field of each kind accepts, and their description;
# a bool is not a number, and a float field keeps an integer as it is
_CONFIG_KINDS = {
    "int": ("an integer", lambda v: _is_number(v) and isinstance(v, int)),
    "float": ("a number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "dict": ("an object", lambda v: isinstance(v, dict)),
    "tuple": ("a [low, high] pair of numbers",
              lambda v: isinstance(v, (list, tuple)) and len(v) == 2
              and all(map(_is_number, v))),
}


def check_config(doc, kinds: dict, where: str) -> dict:
    """A copy of ``doc``, a config read from JSON, after checking that it is
    an object whose keys all appear in ``kinds`` and whose values are of the
    kind named there: "int", "float", "str", "bool", "dict" or "tuple" (a
    [low, high] pair of numbers). Raises ValueError naming the first key
    that is unknown or holds a value of another kind."""
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
    key, a value of the wrong type, an unknown split or light tag, or mask
    frames that do not increase; OSError when a named file is missing."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: manifest nested too deeply") from None
    root = path.parent
    streams = []
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
