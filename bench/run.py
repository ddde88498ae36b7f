"""spikesal benchmark: one workload per process, one closed-loop client.

    python3 bench/run.py --workload {train,stream,datagen} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root. The seed makes the workload's inputs;
the model of `stream` is the committed fixture (bench/make_fixture.py).
Every workload sets up three times, then repeats a fixed round of work
while the next round is projected to end within ``--seconds`` (always at
least one round), and checks every operation's output. A failed check or
an exception counts that operation as failed.

Times are CPU seconds of this single-threaded process (BLAS, OpenMP and
SPIKESAL_THREADS pinned to 1), scaled to a reference speed: a fixed
numpy kernel (benchlib.Reference) runs between operations, and each
operation is scaled by REFERENCE_S over the reference time around it.
On a shared 2-vCPU virtual machine this process's speed swings by up to
2x within a minute because of other tenants; the scaling cancels most of
that.

Every workload reports the same end-to-end metrics, each meaning the
workload's own job (values are medians over the run's operations):

============  ======================  =========================  =======================
metric        train                   stream                     datagen
============  ======================  =========================  =======================
rate_per_s    multi-step training     ``infer`` windows/s        ``gen-data`` frames/s
              samples/s, per epoch
rate2_per_s   single-step training    ``infer --continuous``     ``load_samples``
              samples/s, per epoch    windows/s                  windows/s
rate3_per_s   ``evaluate_model``      ``eval`` maps/s            ``read_stream``
              maps/s, final model                                frames/s (read-back)
setup_s       CPU seconds from process start through the imports, plus the
              median of the three set-ups (data generation, fixture load,
              warm-up)
peak_rss_mb   peak resident memory of the process
============  ======================  =========================  =======================

The workload-specific figures (validation MAE, energy ratio, ms per
window) are printed by name above the result. With ``--trace 1`` the
first round runs untraced and the following ones under the span tracer
(tracer.py); the per-layer metrics are per round, and the tracing
overhead is the traced minus the untraced round time. Each run writes
its environment record, figures and samples to
``bench/_work/results/<workload>-seed<seed>-trace<t>.json`` and, when
traced, every span to ``...-spans.jsonl``. The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import benchlib  # pins threads before numpy loads
import numpy as np
import tracer as tracing
from spikesal import cli, metrics, objective, rst, train
from spikesal import grad as G
from spikesal import spikeio as sio
from spikesal.optim import AdamW

# CPU seconds this process has used from its start through the imports
IMPORT_S = time.process_time()

SETUP_REPEATS = 3
WINDOW = 400
MODEL = {"D": 48, "heads": 8, "T": 5, "rfa_blocks": 2}
# acceptance generator config (criterion 7), seeded per run
ACCEPTANCE_GEN = {"train_sequences": 8, "val_sequences": 2,
                  "labels_per_sequence": 5, "height": 64, "width": 64}
TRAIN_EPOCHS = {"multi": 2, "single": 2}
EVAL_REPEATS = 5
# three scenes, so that a run's figures average over scene brightness
STREAM_GEN = {"train_sequences": 0, "val_sequences": 3,
              "labels_per_sequence": 4, "height": 128, "width": 128}
# two sequences per split, so each split holds one high- and one low-light scene
DATAGEN_GEN = {"train_sequences": 2, "val_sequences": 2,
               "labels_per_sequence": 3, "height": 128, "width": 128}
READBACK_REPEATS = 5

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "rate_per_s": "1/s",
             "rate2_per_s": "1/s", "rate3_per_s": "1/s"}


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def spikesal_cli(*argv: str) -> str:
    """Run one ``spikesal`` command in-process; returns its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"spikesal {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def gen_data(cfg: dict, out: Path, seed: int) -> Path:
    conf = out.with_suffix(".json")
    conf.write_text(json.dumps(cfg), encoding="utf-8")
    spikesal_cli("gen-data", "--config", str(conf), "--out", str(out),
                 "--seed", str(seed))
    return out / "manifest.json"


def model_config() -> rst.RSTConfig:
    return rst.RSTConfig.from_json_dict(MODEL)


def activity(model, rep: np.ndarray) -> dict:
    """Per-layer firing rates and AC/MAC totals of one multi-step forward,
    read through rst.trace_activity."""
    model.eval()
    with rst.trace_activity() as act, G.no_grad():
        model.forward_full(rep, "multi")
    spikes, numel = defaultdict(float), defaultdict(float)
    analog = set()
    for rec in act.layers:
        spikes[rec["name"]] += rec["spikes_in"]
        numel[rec["name"]] += rec["numel_in"]
        if rec["analog"]:
            analog.add(rec["name"])
    energy = metrics.energy_from_trace(act.layers)
    return {"rates": {n: spikes[n] / numel[n] for n in spikes},
            "analog": analog, "ac_ops": energy.ac_ops,
            "mac_ops": energy.mac_ops}


class Bench:
    """Operation accounting, round scheduling and tracing for one run."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = benchlib.BENCH_DIR / "_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.tracer = tracing.Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.setup_times = []
        self.samples = defaultdict(list)
        self.figures = {}            # workload-specific named figures
        self.layer = {}              # extra per-layer values
        self.round_work = 0.0
        self.round_times = {"plain": [], "traced": []}
        self.round_layers = []
        self._reference = benchlib.Reference()
        self.references = []
        self.scales = defaultdict(list)
        self.last_reference = None
        self.scale = 1.0

    def op(self, label: str, work, check=None):
        """Time ``work()``; then run ``check(result)`` untimed and untraced.

        Returns the result and its CPU time scaled to the reference speed
        (``self.scale`` holds the factor, for times taken inside the
        operation). A failed check counts the operation as failed but
        keeps its time; an exception in ``work`` returns (None, None).
        """
        self.attempted += 1
        before = self.last_reference or self.reference()
        t0 = time.process_time()
        try:
            out = work()
        except Exception:  # noqa: BLE001  (the benchmark keeps running)
            self._failed(label)
            return None, None
        dt = time.process_time() - t0
        self.last_reference = self.reference()
        self.scale = 2.0 * benchlib.REFERENCE_S / (before + self.last_reference)
        dt *= self.scale
        self.round_work += dt
        if check is not None:
            try:
                with self.untraced():
                    check(out)
            except Exception:  # noqa: BLE001
                self._failed(label)
        return out, dt

    def _failed(self, label: str):
        self.failed += 1
        print(f"bench: {label} failed\n{traceback.format_exc()}",
              file=sys.stderr)

    def reference(self) -> float:
        ref = self._reference()
        self.references.append(ref)
        return ref

    def sample(self, key: str, items: float, seconds: float, scale=None):
        """Record a rate: ``items`` over reference-scaled ``seconds``."""
        self.samples[key].append(items / seconds)
        self.scales[key].append(self.scale if scale is None else scale)

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True

    def setup(self, one_setup):
        """Run ``one_setup(i)`` SETUP_REPEATS times; keep the first result."""
        first = None
        for i in range(SETUP_REPEATS):
            out, dt = self.op(f"setup {i}", lambda: one_setup(i))
            if out is None:
                raise SystemExit(f"bench: {self.workload} set-up failed")
            self.setup_times.append(dt)
            first = out if first is None else first
        return first

    def rounds(self, one_round):
        """Repeat ``one_round(i)`` while the next is projected to fit."""
        start = time.perf_counter()
        need = 2 if self.tracer is not None else 1
        last, i = 0.0, 0
        while i < need or time.perf_counter() - start + last <= self.seconds:
            traced = self.tracer is not None and i > 0
            self.round_work = 0.0
            t0 = time.perf_counter()
            if traced:
                self.tracer.reset_totals()
                with tracing.instrument(self.tracer):
                    one_round(i)
                self.round_layers.append(self.tracer.snapshot())
            else:
                one_round(i)
            last = time.perf_counter() - t0
            self.round_times["traced" if traced else "plain"].append(
                self.round_work)
            i += 1

    def check_same_data(self):
        """Every set-up generated the same bytes from the same seed."""
        digests = {benchlib.tree_digest(self.work / f"data{i}")
                   for i in range(SETUP_REPEATS)}
        if len(digests) != 1:
            self.failed += 1
            print("bench: generated data differs between set-ups",
                  file=sys.stderr)

    def median(self, key: str) -> float:
        values = self.samples[key]
        if not values:
            raise SystemExit(f"bench: no successful samples for {key}")
        return statistics.median(values)

    def end_to_end(self, rates) -> dict:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": IMPORT_S + statistics.median(self.setup_times),
                  "peak_rss_mb": peak,
                  "rate_per_s": rates[0], "rate2_per_s": rates[1],
                  "rate3_per_s": rates[2]}
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    def record_activity(self, model, rep: np.ndarray) -> dict:
        """Per-layer rates, dead/saturated flags and AC/MAC totals."""
        act = activity(model, rep)
        for name in tracing.RST_LAYERS:
            self.layer[f"rst.rate.{name}"] = act["rates"].get(name, 0.0)
        # the analog input layer has no firing rate to saturate
        dead = [n for n, r in act["rates"].items() if r == 0.0]
        saturated = [n for n, r in act["rates"].items()
                     if r == 1.0 and n not in act["analog"]]
        self.layer["rst.dead_layers"] = len(dead)
        self.layer["rst.saturated_layers"] = len(saturated)
        self.layer["rst.ac_ops"] = act["ac_ops"]
        self.layer["rst.mac_ops"] = act["mac_ops"]
        self.figures["rst.dead"] = (",".join(dead) or "-", "")
        self.figures["rst.saturated"] = (",".join(saturated) or "-", "")
        return act

    def per_layer(self) -> dict:
        """Per-round layer figures from the traced rounds; counts must
        repeat exactly from round to round."""
        steps = tracing.step_times(self.tracer.spans, "multi")
        if steps:
            self.layer["train.step_s_p50"] = float(np.percentile(steps, 50))
            self.layer["train.step_s_p90"] = float(np.percentile(steps, 90))
        rounds = self.round_layers
        counts = rounds[0]["counts"]
        for other in rounds[1:]:
            if other["counts"] != counts:
                self.failed += 1
                print("bench: per-round counts differ between identical "
                      "rounds", file=sys.stderr)
        n = len(rounds)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        for r in rounds:
            for k, v in r["self_s"].items():
                self_s[k] += v / n
            for k, v in r["incl_s"].items():
                incl_s[k] += v / n
        out = {}
        for name, unit, _better in tracing.LAYER_METRICS:
            out[name] = {"value": tracing.layer_value(name, self_s, incl_s,
                                                      counts, self.layer),
                         "unit": unit}
        plain = statistics.median(self.round_times["plain"])
        traced = statistics.median(self.round_times["traced"])
        out["bench.trace_overhead_s"]["value"] = traced - plain
        out["bench.trace_overhead_pct"]["value"] = 100.0 * (traced - plain) / plain
        return out


# -- train ----------------------------------------------------------------------


def workload_train(b: Bench):
    """train.train_model from scratch at the acceptance config: a
    multi-step phase, then a mode="single" phase, on the acceptance data
    generated with the workload seed."""

    def one_setup(i):
        manifest = gen_data(ACCEPTANCE_GEN, b.work / f"data{i}", b.seed)
        data = train.load_samples(manifest, WINDOW)
        # warm-up: one multi-step training step at the benchmark config
        model = rst.RSTModel(model_config(), np.random.default_rng(0))
        opt = AdamW(model.named_parameters(), lr=1e-3)
        x = np.stack([s.repr for s in data["train"][:2]])
        y = np.stack([s.mask[None] for s in data["train"][:2]])
        loss = objective.multi_step_loss(model.forward_full(x, "multi"),
                                         G.Tensor(y))
        loss.backward()
        opt.step()
        return manifest, data

    manifest, data = b.setup(one_setup)
    b.check_same_data()
    n_train = len(data["train"])
    final = {}

    def check_history(history, mode):
        expect(len(history) == TRAIN_EPOCHS[mode], "epoch count")
        expect(all(math.isfinite(h["loss"]) for h in history),
               "non-finite epoch loss")

    def check_eval(report, history, mode):
        expect(report.mae == history[-1]["val_mae"],
               "last.salt does not reproduce the final val_mae")
        expect(final.setdefault(mode, report.mae) == report.mae,
               "val_mae differs between identical rounds")
        if b.tracer is not None and mode == "multi":
            model = train.model_from_checkpoint(out_dirs[mode] / "last.salt")[0]
            b.record_activity(model, data["val"][0].repr[None])

    out_dirs = {}

    def one_round(r):
        for mode in ("multi", "single"):
            cfg = train.RunConfig(
                manifest=str(manifest), model=model_config(),
                lr_start=3e-3, lr_end=3e-4, epochs=TRAIN_EPOCHS[mode],
                batch_size=2, window=WINDOW, seed=b.seed, mode=mode)
            out = out_dirs[mode] = b.work / f"run{r}-{mode}"
            if b.tracer is not None:
                b.tracer.run_id = f"round{r}.{mode}"
            # (epoch end, reference time, next epoch start) per log call;
            # an epoch is scaled by the references taken at its two ends
            laps = []

            def lap(_msg=None):
                end = time.process_time()
                ref = b.reference()
                laps.append((end, ref, time.process_time()))

            def work():
                lap()
                return train.train_model(cfg, out, log=lap)

            history, _ = b.op(f"train {mode} round {r}", work,
                              lambda h: check_history(h, mode))
            if history is None:
                continue
            for (_, ref0, start), (end, ref1, _) in zip(laps, laps[1:]):
                scale = 2.0 * benchlib.REFERENCE_S / (ref0 + ref1)
                b.sample(mode, n_train, (end - start) * scale, scale)
            # the saved model, reloaded, must score exactly what training
            # logged; the multi-step model's evaluation is also timed
            for k in range(EVAL_REPEATS if mode == "multi" else 1):
                _, dt = b.op(
                    f"evaluate {mode} round {r}.{k}",
                    lambda: train.evaluate_model(
                        train.model_from_checkpoint(out / "last.salt")[0],
                        data["val"], mode=mode),
                    lambda rep: check_eval(rep, history, mode))
                if dt is not None and mode == "multi":
                    b.sample("eval", len(data["val"]), dt)
            shutil.rmtree(out, ignore_errors=True)

    b.rounds(one_round)
    b.figures.update({
        "train.samples_per_s": (b.median("multi"), "samples/s"),
        "train.single_samples_per_s": (b.median("single"), "samples/s"),
        "train.val_mae": (final.get("multi", float("nan")), "frac")})
    return b.median("multi"), b.median("single"), b.median("eval")


# -- stream ---------------------------------------------------------------------


def workload_stream(b: Bench):
    """infer, infer --continuous, eval and energy through cli.main with the
    fixed model on 128x128 val streams generated with the workload seed."""
    fixture = str(benchlib.FIXTURE)
    expected = benchlib.fixture_sha256_expected()

    def one_setup(i):
        manifest = gen_data(STREAM_GEN, b.work / f"data{i}", b.seed)
        expect(benchlib.file_sha256(fixture) == expected,
               f"{fixture} does not match the sha256 in BENCHMARK.json")
        model, _, _ = train.model_from_checkpoint(fixture)
        entries = sio.load_manifest(manifest).streams
        # one manifest per stream, so that eval is timed once per sequence
        per_stream = []
        for k, entry in enumerate(entries):
            path = manifest.parent / f"manifest_{k}.json"
            sio.save_manifest(path, sio.DatasetManifest([entry], path.parent))
            per_stream.append((manifest.parent / entry.path, path))
        first = train.window_repr(sio.read_stream(per_stream[0][0]), 0, WINDOW)
        # doubles as the warm-up forward pass
        act = b.record_activity(model, first[None])
        silent = [n for n, r in act["rates"].items()
                  if n.endswith((".q", ".k", ".v")) and r == 0.0]
        expect(not silent, f"fixture attention inputs are silent: {silent}")
        return per_stream

    per_stream = b.setup(one_setup)
    b.check_same_data()
    windows = STREAM_GEN["labels_per_sequence"]
    side = STREAM_GEN["height"]
    reports = {}

    def check_maps(out: Path):
        maps = sorted(out.glob("map_*.pgm"))
        expect(len(maps) == windows, f"{len(maps)} maps for {windows} windows")
        for path in maps:
            expect(sio.read_pgm(path).shape == (side, side), f"{path} shape")

    def check_report(path: Path, key: str, s: int):
        doc = json.loads(path.read_text(encoding="utf-8"))
        expect(math.isfinite(doc[key]), f"{key} is not finite")
        expect(reports.setdefault((key, s), doc[key]) == doc[key],
               f"{key} differs between identical rounds")
        return doc

    def check_eval(path: Path, s: int):
        doc = check_report(path, "mae", s)
        expect(doc["count"] == windows,
               f"eval scored {doc['count']} of {windows} labelled windows")

    def one_round(r):
        # each round serves one stream, so rounds stay short and a run
        # cycles through every scene
        s = r % len(per_stream)
        stream, manifest = per_stream[s]
        for kind, flags in (("infer", ()), ("cont", ("--continuous",))):
            out = b.work / f"maps{r}-{kind}"
            _, dt = b.op(f"{kind} {stream.name} round {r}",
                         lambda: spikesal_cli(
                             "infer", "--ckpt", fixture, "--stream",
                             str(stream), "--out", str(out), *flags),
                         lambda _: check_maps(out))
            if dt is not None:
                b.sample(kind, windows, dt)
            shutil.rmtree(out, ignore_errors=True)
        report = b.work / f"eval{r}.json"
        _, dt = b.op(f"eval {manifest.name} round {r}",
                     lambda: spikesal_cli("eval", "--ckpt", fixture,
                                          "--manifest", str(manifest),
                                          "--split", "val",
                                          "--out", str(report)),
                     lambda _: check_eval(report, s))
        if dt is not None:
            b.sample("eval", windows, dt)
        energy = b.work / f"energy{r}.json"
        b.op(f"energy {stream.name} round {r}",
             lambda: spikesal_cli("energy", "--ckpt", fixture, "--stream",
                                  str(stream), "--out", str(energy)),
             lambda _: check_report(energy, "ratio", s))

    b.rounds(one_round)
    maes = [v for (key, _), v in reports.items() if key == "mae"]
    b.figures.update({
        "stream.infer_ms_per_window": (1000.0 / b.median("infer"), "ms"),
        "stream.cont_ms_per_window": (1000.0 / b.median("cont"), "ms"),
        "stream.eval_ms_per_map": (1000.0 / b.median("eval"), "ms"),
        "stream.val_mae": (statistics.fmean(maes) if maes else float("nan"),
                           "frac"),
        "stream.energy_ratio": (reports.get(("ratio", 0), float("nan")), "x")})
    return b.median("infer"), b.median("cont"), b.median("eval")


# -- datagen --------------------------------------------------------------------


def workload_datagen(b: Bench):
    """gen-data at 128x128 (simcam.simulate, spikeio.write_stream, PGM
    masks, manifest), then train.load_samples and a read-back of every
    stream. No model runs."""
    cfg = DATAGEN_GEN
    frames = cfg["labels_per_sequence"] * 400
    n_streams = cfg["train_sequences"] + cfg["val_sequences"]
    windows = n_streams * cfg["labels_per_sequence"]
    warm_cfg = dict(cfg, train_sequences=0, val_sequences=1,
                    labels_per_sequence=1)

    def one_setup(i):
        manifest = gen_data(warm_cfg, b.work / f"warm{i}", b.seed)
        return train.load_samples(manifest, WINDOW)

    b.setup(one_setup)
    digests = set()

    def check_dataset(manifest: Path):
        loaded = sio.load_manifest(manifest)
        expect(len(loaded.streams) == n_streams, "stream count")
        for entry in loaded.streams:
            for ref in entry.masks:
                values = np.unique(sio.read_pgm(manifest.parent / ref.path))
                expect(set(values.tolist()) <= {0, 255},
                       f"{ref.path} is not a binary mask")
        digests.add(benchlib.tree_digest(manifest.parent))
        expect(len(digests) == 1, "dataset bytes differ between rounds")

    def read_back(manifest: Path):
        # a single pass takes ~25 ms, too short to time steadily
        paths = [manifest.parent / e.path
                 for e in sio.load_manifest(manifest).streams]
        return [sio.read_stream(path).bits.shape
                for _ in range(READBACK_REPEATS) for path in paths]

    def check_streams(shapes):
        want = (frames, cfg["height"], cfg["width"])
        expect(all(shape == want for shape in shapes),
               f"stream dims {set(shapes)}, expected {want}")

    def one_round(r):
        out = b.work / f"data{r}"
        manifest, dt = b.op(f"gen-data round {r}",
                            lambda: gen_data(cfg, out, b.seed), check_dataset)
        if manifest is None:
            return
        b.sample("gen", n_streams * frames, dt)
        _, dt = b.op(f"load_samples round {r}",
                     lambda: train.load_samples(manifest, WINDOW),
                     lambda d: expect(len(d["train"]) + len(d["val"])
                                      == windows, "decoded window count"))
        if dt is not None:
            b.sample("decode", windows, dt)
        _, dt = b.op(f"read-back round {r}", lambda: read_back(manifest),
                     check_streams)
        if dt is not None:
            b.sample("read", READBACK_REPEATS * n_streams * frames, dt)
        shutil.rmtree(out, ignore_errors=True)

    b.rounds(one_round)
    b.figures.update({
        "datagen.frames_per_s": (b.median("gen"), "frames/s"),
        "datagen.decode_windows_per_s": (b.median("decode"), "windows/s"),
        "datagen.sha256": (",".join(sorted(digests)), "")})
    return b.median("gen"), b.median("decode"), b.median("read")


WORKLOADS = {"train": workload_train, "stream": workload_stream,
             "datagen": workload_datagen}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    b = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    rates = WORKLOADS[args.workload](b)
    result_metrics = b.per_layer() if args.trace else b.end_to_end(rates)
    result = {"correct": b.failed == 0, "attempted": b.attempted,
              "failed": b.failed, "metrics": result_metrics}

    results = benchlib.BENCH_DIR / "_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seconds": args.seconds,
              "environment": benchlib.environment(args.seed),
              "figures": b.figures, "samples": b.samples,
              "scales": b.scales, "references": b.references,
              "setup_times": b.setup_times, "result": result}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    if b.tracer is not None:
        b.tracer.write(results / f"{stem}-spans.jsonl")
        print(f"{'per-layer metric (per round)':<36} {'value':>14}  unit")
        for name, val in result_metrics.items():
            note = "  (computed)" if name.endswith(("gflop", "mb_moved")) else ""
            print(f"{name:<36} {val['value']:>14.6g}  {val['unit']}{note}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for name, (value, unit) in sorted(b.figures.items()):
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name} = {shown} {unit}".rstrip())
    for name, val in b.end_to_end(rates).items():
        print(f"{name} = {val['value']:.6g} {val['unit']}")
    shutil.rmtree(b.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
