"""Regenerate the fixed model the `stream` workload infers with.

Recipe (acceptance criterion 7): the acceptance generator config with
seed 104, a D=48 / 8-head / T=5 / 2-block model, training seed 0, 20
epochs at batch 2 with the learning rate decaying 3e-3 -> 3e-4.

Run from the repository root:

    python3 bench/make_fixture.py

It writes bench/fixture/stream_model.salt and prints its sha256, which
belongs in the `why` of the `stream` workload in BENCHMARK.json, where
bench/run.py reads it before every `stream` run. Regenerating changes
the weights the `stream` figures are measured with, so do it only when
the checkpoint format itself changes.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402  (pins threads before numpy loads)

from spikesal import simcam  # noqa: E402
from spikesal.rst import RSTConfig  # noqa: E402
from spikesal.train import RunConfig, train_model  # noqa: E402

FIXTURE = benchlib.FIXTURE


def main() -> int:
    work = benchlib.work_dir("fixture")
    shutil.rmtree(work, ignore_errors=True)
    gcfg = simcam.GeneratorConfig(train_sequences=8, val_sequences=2,
                                  labels_per_sequence=5, height=64,
                                  width=64, seed=104)
    manifest = simcam.generate_dataset(gcfg, work / "data")
    rcfg = RunConfig(manifest=str(manifest.relative_to(benchlib.ROOT)),
                     model=RSTConfig(dim=48, heads=8, steps=5, rfa_blocks=2),
                     lr_start=3e-3, lr_end=3e-4, epochs=20, batch_size=2,
                     window=400, seed=0)
    t0 = time.perf_counter()
    train_model(rcfg, work / "run", log=print)
    print(f"trained in {time.perf_counter() - t0:.0f} s")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(work / "run" / "last.salt", FIXTURE)
    shutil.rmtree(work)
    print(f"{FIXTURE.relative_to(benchlib.ROOT)} sha256 "
          f"{hashlib.sha256(FIXTURE.read_bytes()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
