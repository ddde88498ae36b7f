"""Shared set-up for the benchmark scripts: thread pins, paths, records.

Importing this module pins every BLAS / OpenMP pool and spikesal's own
worker count to one thread, so it must be imported before numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import sys
import time
from pathlib import Path

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
               "NUMEXPR_NUM_THREADS": "1", "SPIKESAL_THREADS": "1"}
os.environ.update(THREAD_PINS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURE = BENCH_DIR / "fixture" / "stream_model.salt"

if not (SRC / "spikesal" / "__init__.py").is_file():
    sys.exit(f"bench: no spikesal sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))


def work_dir(name: str) -> Path:
    """Scratch directory for one workload, inside the checkout."""
    path = BENCH_DIR / "_work" / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def fixture_sha256_expected() -> str:
    """The fixture hash recorded in BENCHMARK.json (in the `stream` why)."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for wl in doc["workloads"]:
        if wl["name"] == "stream":
            m = re.search(r"sha256 ([0-9a-f]{64})", wl["why"])
            if m:
                return m.group(1)
    raise ValueError("BENCHMARK.json records no sha256 for the stream fixture")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def environment(seed: int) -> dict:
    """What a result depends on besides the code: versions, cores, pins."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_pins": THREAD_PINS, "commit": _commit(),
            "src_sha256": src.hexdigest(), "seed": seed}


class Reference:
    """A fixed numpy kernel, timed in CPU seconds between operations.

    Its time tracks how fast the host runs this process at that moment
    (other tenants slow a shared core by up to 2x within a minute). The
    benchmark scales every operation's CPU time by REFERENCE_S over the
    mean of the reference times taken just before and just after it, so
    that common-mode host speed swings cancel. The kernel imitates the
    two kinds of work spikesal does: an im2col 3x3 convolution with a
    spike threshold (the network), and a per-frame loop of small
    elementwise ops on a 128x128 accumulator (the camera simulator). It
    calls no spikesal code, so no change to the package can move it.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.img = rng.random((10, 6, 64, 64))
        self.weight = rng.random((54, 12))
        self.cur = rng.random((128, 128)) * 0.05
        self.small = [rng.random(64) for _ in range(100)]

    def __call__(self) -> float:
        import numpy as np
        from numpy.lib.stride_tricks import sliding_window_view
        t0 = time.process_time()
        for _ in range(3):
            xp = np.pad(self.img, ((0, 0), (0, 0), (1, 1), (1, 1)))
            win = sliding_window_view(xp, (3, 3), axis=(2, 3))
            col = np.ascontiguousarray(
                win.transpose(0, 2, 3, 1, 4, 5).reshape(10, 64 * 64, 54))
            (col @ self.weight >= 0.5).astype(np.float64).sum()
            for v in self.small:
                (v * 2.0 + v).sum()
        noise = np.random.default_rng(1)
        acc = np.zeros_like(self.cur)
        for _ in range(150):
            acc += self.cur
            acc += noise.normal(0.0, 0.01, acc.shape)
            np.maximum(acc, 0.0, out=acc)
            acc[acc >= 1.0] -= 1.0
        return time.process_time() - t0


# nominal reference time: operation times are reported as if the
# reference kernel took exactly this many CPU seconds
REFERENCE_S = 0.1
