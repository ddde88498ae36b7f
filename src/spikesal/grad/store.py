"""Flat named-tensor container: JSON index + raw little-endian float64 payload.

Layout: magic ``SALT``, u16 version, u64 index length, UTF-8 JSON index,
then the concatenated tensor bytes. The index maps each name to shape and
payload offset and carries an arbitrary ``meta`` dict (run configuration,
epoch counters, RNG state). Written bytes are a pure function of the
inputs, so identical state produces identical files.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SALT"
VERSION = 1


def save_tensors(path, arrays: dict, meta: dict | None = None):
    """Write the container atomically: the bytes go to a temporary file
    beside ``path``, which then replaces it, so a crash or failed write
    leaves any previous file at ``path`` intact."""
    index = {"tensors": {}, "meta": meta or {}}
    payload = bytearray()
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        index["tensors"][name] = {"shape": list(arr.shape), "offset": len(payload)}
        payload += arr.astype("<f8").tobytes()
    blob = json.dumps(index, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<HQ", VERSION, len(blob)))
            fh.write(blob)
            fh.write(bytes(payload))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _is_count(v) -> bool:
    # JSON integers only: a float, a string or a bool is not a size
    return type(v) is int and v >= 0


def _layout(path, index, size: int):
    """(offset, count, name, shape) of every entry of a parsed index, after
    checking that shapes and offsets are non-negative integers and that the
    entries, in offset order, tile the ``size``-byte payload exactly."""
    tensors = index.get("tensors") if isinstance(index, dict) else None
    if not isinstance(tensors, dict) or not isinstance(index.get("meta", {}), dict):
        raise ValueError(f"{path}: malformed index")
    entries, end = [], 0
    for name, e in tensors.items():
        shape = e.get("shape") if isinstance(e, dict) else None
        if not (isinstance(shape, list) and all(map(_is_count, shape))
                and _is_count(e.get("offset"))):
            raise ValueError(f"{path}: malformed index entry {name}")
        entries.append((e["offset"], math.prod(shape), name, tuple(shape)))
    for off, count, name, _ in sorted(entries, key=lambda e: e[:2]):
        if off != end:
            raise ValueError(f"{path}: payload {'gap' if off > end else 'overlap'}"
                             f" at {name}")
        end = off + 8 * count
    if end != size:
        raise ValueError(f"{path}: index covers {end} of {size} payload bytes")
    return entries


def load_tensors(path):
    """Returns (dict name -> float64 ndarray, meta dict). Raises ValueError
    for any file that is not a well-formed container, and for a NaN or an
    infinity in any tensor, naming the first such tensor in index order.

    The payload is read once, into one writable buffer, and checked for
    finiteness in one pass; the tensors are non-overlapping views of it."""
    with open(path, "rb") as fh:
        head = fh.read(14)
        if len(head) < 14 or head[:4] != MAGIC:
            raise ValueError(f"{path}: not a tensor container")
        version, blob_len = struct.unpack("<HQ", head[4:14])
        if version != VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        size = os.fstat(fh.fileno()).st_size - 14
        if blob_len > size:
            raise ValueError(f"{path}: truncated index")
        index = json.loads(fh.read(blob_len).decode("utf-8"))
        entries = _layout(path, index, size - blob_len)
        flat = np.empty((size - blob_len) // 8, dtype="<f8")
        if fh.readinto(flat) != flat.nbytes:
            raise ValueError(f"{path}: truncated payload")
    finite = np.isfinite(flat)
    if not finite.all():
        for off, count, name, _ in entries:
            if not finite[off // 8:off // 8 + count].all():
                raise ValueError(f"{path}: non-finite value in tensor {name}")
    out = {name: flat[off // 8:off // 8 + count].reshape(shape)
           for off, count, name, shape in entries}
    return out, index.get("meta", {})
