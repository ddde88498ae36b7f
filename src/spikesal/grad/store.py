"""Flat named-tensor container: JSON index + raw little-endian float64 payload.

Layout: magic ``SALT``, u16 version, u64 index length, UTF-8 JSON index,
then the concatenated tensor bytes. The index maps each name to shape and
payload offset and carries an arbitrary ``meta`` dict (run configuration,
epoch counters, RNG state). Written bytes are a pure function of the
inputs, so identical state produces identical files.
"""

from __future__ import annotations

import json
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


def load_tensors(path):
    """Returns (dict name -> float64 ndarray, meta dict)."""
    with open(path, "rb") as fh:
        head = fh.read(14)
        if len(head) < 14 or head[:4] != MAGIC:
            raise ValueError(f"{path}: not a tensor container")
        version, blob_len = struct.unpack("<HQ", head[4:14])
        if version != VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        blob = fh.read(blob_len)
        if len(blob) != blob_len:
            raise ValueError(f"{path}: truncated index")
        index = json.loads(blob.decode("utf-8"))
        payload = fh.read()
    out = {}
    for name, entry in index["tensors"].items():
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        off = entry["offset"]
        if off + 8 * count > len(payload):
            raise ValueError(f"{path}: truncated payload at {name}")
        out[name] = np.frombuffer(
            payload, dtype="<f8", count=count, offset=off).reshape(shape).copy()
    return out, index.get("meta", {})
