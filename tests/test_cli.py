import json
import struct

import numpy as np
import pytest

from spikesal import grad as G
from spikesal import spikeio as sio
from spikesal.cli import main
from spikesal.rst import RSTConfig, RSTModel
from spikesal.simcam import GeneratorConfig, generate_dataset
from spikesal.train import (RunConfig, load_samples, model_from_checkpoint,
                            rate_readout, window_repr)

from checkpoint_models import FIXTURE, float64_model


GEN = {"train_sequences": 1, "val_sequences": 1, "labels_per_sequence": 3,
       "width": 32, "height": 32, "frames_per_label": 80,
       "noise_std": 0.0, "seed": 11}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset + 1-epoch checkpoint shared by the command tests."""
    root = tmp_path_factory.mktemp("cliws")
    gen_cfg = root / "gen.json"
    gen_cfg.write_text(json.dumps(GEN))
    assert main(["gen-data", "--config", str(gen_cfg),
                 "--out", str(root / "data")]) == 0
    run = RunConfig(manifest=str(root / "data" / "manifest.json"),
                    model=RSTConfig(dim=16, heads=2, steps=2, rfa_blocks=1),
                    lr_start=1e-3, lr_end=1e-4, epochs=1, batch_size=2,
                    window=80, seed=2)
    (root / "run.json").write_text(json.dumps(run.to_json_dict()))
    assert main(["train", "--config", str(root / "run.json"),
                 "--out", str(root / "ckpt")]) == 0
    return root


def test_gen_data_deterministic(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(GEN))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    for name in ("manifest.json", "train_000.spk", "val_000_f000000.pgm"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_gen_data_seed_flag_overrides(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(GEN))
    main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["gen-data", "--config", str(cfg), "--seed", "99",
          "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "train_000.spk").read_bytes() != \
           (tmp_path / "b" / "train_000.spk").read_bytes()


def test_gen_data_bad_config_path(tmp_path, capsys):
    rc = main(["gen-data", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(lambda raw: raw[:6] + struct.pack("<Q", 2 ** 62) + raw[14:],
                 "truncated index", id="index-past-end-of-file"),
    # tensor b's offset moved into tensor a's bytes
    pytest.param(lambda raw: raw.replace(b'"offset":16', b'"offset":8 '),
                 "overlap", id="overlapping-payload"),
    # tensor b, the last 8 payload bytes, holds a NaN
    pytest.param(lambda raw: raw[:-8] + struct.pack("<d", np.nan),
                 "non-finite value in tensor b", id="nan-parameter"),
])
def test_eval_malformed_checkpoint_is_an_error(tmp_path, capsys, corrupt,
                                               message):
    ckpt = tmp_path / "bad.salt"
    G.save_tensors(ckpt, {"a": np.zeros(2), "b": np.zeros(1)},
                   {"kind": "checkpoint"})
    ckpt.write_bytes(corrupt(ckpt.read_bytes()))
    rc = main(["eval", "--ckpt", str(ckpt),
               "--manifest", str(tmp_path / "manifest.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: d.pop("streams"), "missing 'streams'",
                 id="no-streams"),
    pytest.param(lambda d: d["streams"][0]["masks"][0].update(frame="0"),
                 "'frame' must be of type int", id="string-frame"),
])
def test_eval_malformed_manifest_is_an_error(workspace, capsys, edit, message):
    doc = json.loads((workspace / "data" / "manifest.json").read_text())
    edit(doc)
    # beside the good one, so that every file it names exists
    bad = workspace / "data" / "bad_manifest.json"
    bad.write_text(json.dumps(doc))
    rc = main(["eval", "--ckpt", str(workspace / "ckpt" / "last.salt"),
               "--manifest", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("rate", [-1, 4294967296])
def test_gen_data_rate_overflow_is_an_error(tmp_path, capsys, rate):
    """A sampling rate the stream header's u32 field cannot hold ends the
    command with an error, leaving no stream or temporary file behind."""
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({**GEN, "rate_hz": rate}))
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    left = [p.name for p in out.iterdir()] if out.exists() else []
    assert not [n for n in left if n.endswith((".spk", ".tmp"))], left


@pytest.mark.parametrize("threads", ["0", "-2", "two", "1.5", ""])
def test_gen_data_bad_thread_setting_is_an_error(tmp_path, capsys,
                                                 monkeypatch, threads):
    """A SPIKESAL_THREADS value that is not a positive integer ends gen-data
    with an error naming the variable and its value, before any file is
    written, instead of running on one thread."""
    monkeypatch.setenv("SPIKESAL_THREADS", threads)
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(GEN))
    assert main(["gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SPIKESAL_THREADS") and repr(threads) in err
    assert not (tmp_path / "out").exists()


def test_gen_data_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({**GEN, "sensor_kind": "dvs"}))
    assert main(["gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    assert "sensor_kind" in capsys.readouterr().err


def test_train_writes_log_and_checkpoint(workspace):
    assert (workspace / "ckpt" / "last.salt").exists()
    lines = (workspace / "ckpt" / "train_log.csv").read_text().splitlines()
    assert len(lines) == 2


def test_eval_reports(workspace, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["eval", "--ckpt", str(workspace / "ckpt" / "last.salt"),
               "--manifest", str(workspace / "data" / "manifest.json"),
               "--out", str(out)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "MAE" in table and "val_000" in table
    doc = json.loads(out.read_text())
    assert 0.0 <= doc["mae"] <= 1.0
    assert len(doc["threshold_curve"]) == 256


def test_eval_is_repeatable(workspace, tmp_path):
    args = ["eval", "--ckpt", str(workspace / "ckpt" / "last.salt"),
            "--manifest", str(workspace / "data" / "manifest.json")]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_infer_windows(workspace, tmp_path):
    stream = workspace / "data" / "val_000.spk"
    out = tmp_path / "maps"
    rc = main(["infer", "--ckpt", str(workspace / "ckpt" / "last.salt"),
               "--stream", str(stream), "--out", str(out)])
    assert rc == 0
    maps = sorted(out.glob("map_*.pgm"))
    assert len(maps) == 3    # 240 frames / 80-frame windows
    img = sio.read_pgm(maps[0])
    assert img.shape == (32, 32)


def test_infer_continuous(workspace, tmp_path):
    stream = workspace / "data" / "val_000.spk"
    out = tmp_path / "maps"
    rc = main(["infer", "--ckpt", str(workspace / "ckpt" / "last.salt"),
               "--stream", str(stream), "--out", str(out), "--continuous"])
    assert rc == 0
    assert len(list(out.glob("map_*.pgm"))) == 3


def grad_enabled_maps(ckpt, stream_path, continuous, window=80):
    """PGM bytes of each window of the workspace run, computed by the
    float64 model with the autodiff graph recorded."""
    model = float64_model(ckpt)
    stream = sio.read_stream(stream_path)
    model.reset_state()
    out = []
    for w in range(stream.frames // window):
        rep = window_repr(stream, w * window, window)[None]
        maps = model.forward_full(rep, "single" if continuous else "multi")
        assert maps.requires_grad
        img = np.round(np.mean(maps.data[:, 0, 0], axis=0) * 255)
        h, w = img.shape
        out.append(f"P5\n{w} {h}\n255\n".encode() + img.astype(np.uint8).tobytes())
    return out


@pytest.mark.parametrize("continuous", [False, True])
def test_infer_is_graph_free_and_matches_grad_run(workspace, tmp_path,
                                                  monkeypatch, continuous):
    ckpt = workspace / "ckpt" / "last.salt"
    stream = workspace / "data" / "val_000.spk"
    want = grad_enabled_maps(ckpt, stream, continuous)
    seen = []
    forward_full = RSTModel.forward_full

    def recording(self, *args, **kwargs):
        seen.append(G.grad_enabled())
        return forward_full(self, *args, **kwargs)

    monkeypatch.setattr(RSTModel, "forward_full", recording)
    out = tmp_path / "maps"
    argv = ["infer", "--ckpt", str(ckpt), "--stream", str(stream),
            "--out", str(out)]
    assert main(argv + (["--continuous"] if continuous else [])) == 0
    # the three 32x32 windows share one multi-step forward
    assert seen == [False] * (len(want) if continuous else 1)
    assert G.grad_enabled()
    got = [p.read_bytes() for p in sorted(out.glob("map_*.pgm"))]
    assert got == want


def test_infer_batches_64x64_windows_byte_identically(tmp_path, monkeypatch):
    """Five 64x64 windows run as forwards of 4 and 1, and the PGMs are
    those of one window per forward, byte for byte."""
    cfg = GeneratorConfig(train_sequences=0, val_sequences=1,
                          labels_per_sequence=5, width=64, height=64,
                          seed=908)
    generate_dataset(cfg, tmp_path / "data")
    stream_path = tmp_path / "data" / "val_000.spk"
    net = model_from_checkpoint(FIXTURE)[0]
    stream = sio.read_stream(stream_path)
    want = []
    with G.no_grad():
        for w in range(5):
            rep = window_repr(stream, w * 400, 400)[None]
            img = np.round(rate_readout(net.forward_full(rep)) * 255)
            want.append(b"P5\n64 64\n255\n" + img.astype(np.uint8).tobytes())
    assert len(set(want)) == 5
    sizes = []
    forward_full = RSTModel.forward_full
    monkeypatch.setattr(RSTModel, "forward_full", lambda self, x, mode:
                        sizes.append(x.shape[0]) or forward_full(self, x, mode))
    out = tmp_path / "maps"
    assert main(["infer", "--ckpt", str(FIXTURE), "--stream", str(stream_path),
                 "--out", str(out)]) == 0
    assert sizes == [4, 1]
    assert [p.read_bytes() for p in sorted(out.glob("map_*.pgm"))] == want


def test_infer_resolution_mismatch(workspace, tmp_path, capsys):
    bad = sio.SpikeStream(np.zeros((80, 24, 24), dtype=np.uint8))
    sio.write_stream(tmp_path / "bad.spk", bad)
    rc = main(["infer", "--ckpt", str(workspace / "ckpt" / "last.salt"),
               "--stream", str(tmp_path / "bad.spk"),
               "--out", str(tmp_path / "maps")])
    assert rc == 1
    assert "resolution" in capsys.readouterr().err
    assert not (tmp_path / "maps").exists()


@pytest.fixture(scope="module")
def data40(tmp_path_factory):
    """A labelled 40x40 dataset: 40 is not a multiple of 16, the model's
    four halving stages."""
    root = tmp_path_factory.mktemp("data40")
    (root / "gen.json").write_text(json.dumps({**GEN, "width": 40,
                                               "height": 40}))
    assert main(["gen-data", "--config", str(root / "gen.json"),
                 "--out", str(root / "data")]) == 0
    return root / "data"


@pytest.mark.parametrize("command", ["infer", "eval", "energy", "train"])
def test_resolution_not_divisible_by_16_is_an_error(workspace, data40,
                                                    tmp_path, capsys, command):
    """Every command that runs the model refuses a 40x40 dataset with
    ``error:`` and exit 1, not a traceback; infer makes no output
    directory."""
    ckpt = ["--ckpt", str(workspace / "ckpt" / "last.salt")]
    stream = ["--stream", str(data40 / "val_000.spk")]
    manifest = ["--manifest", str(data40 / "manifest.json")]
    argv = {"infer": ["infer", *ckpt, *stream, "--out", str(tmp_path / "maps")],
            "eval": ["eval", *ckpt, *manifest],
            "energy": ["energy", *ckpt, *stream],
            "train": ["train", "--config", str(workspace / "run.json"),
                      *manifest, "--out", str(tmp_path / "run")]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert ("resolution" if command == "infer" else "divisible by 16") in err
    assert not (tmp_path / "maps").exists()


def test_infer_short_stream_rejected(workspace, tmp_path, capsys):
    tiny = sio.SpikeStream(np.zeros((10, 32, 32), dtype=np.uint8))
    sio.write_stream(tmp_path / "tiny.spk", tiny)
    rc = main(["infer", "--ckpt", str(workspace / "ckpt" / "last.salt"),
               "--stream", str(tmp_path / "tiny.spk"),
               "--out", str(tmp_path / "maps")])
    assert rc == 1


@pytest.mark.parametrize("window", ["0", "-5"])
@pytest.mark.parametrize("command", ["infer", "energy"])
def test_window_below_one_rejected(workspace, tmp_path, capsys, command,
                                   window):
    argv = [command, "--ckpt", str(workspace / "ckpt" / "last.salt"),
            "--stream", str(workspace / "data" / "val_000.spk"),
            "--window", window]
    if command == "infer":
        argv += ["--out", str(tmp_path / "maps")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--window" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "maps").exists()


def test_stream_commands_never_unpack_a_whole_stream(workspace, tmp_path,
                                                     monkeypatch):
    """infer (both modes), eval, energy and load_samples read streams packed
    and unpack at most one ISI chunk of frames at a time."""
    def refuse(stream):
        raise AssertionError(f"whole unpack of {stream.frames} frames")
    monkeypatch.setattr(sio.SpikeStream, "bits", property(refuse))
    spans = []
    frame_bits = sio.SpikeStream.frame_bits

    def recording(self, start, stop):
        spans.append(stop - start)
        return frame_bits(self, start, stop)
    monkeypatch.setattr(sio.SpikeStream, "frame_bits", recording)

    ckpt = str(workspace / "ckpt" / "last.salt")
    stream = str(workspace / "data" / "val_000.spk")
    manifest = str(workspace / "data" / "manifest.json")
    for flags in ([], ["--continuous"]):
        assert main(["infer", "--ckpt", ckpt, "--stream", stream,
                     "--out", str(tmp_path / f"maps{len(flags)}")] + flags) == 0
    assert main(["eval", "--ckpt", ckpt, "--manifest", manifest]) == 0
    assert main(["energy", "--ckpt", ckpt, "--stream", stream]) == 0
    data = load_samples(manifest, 80)
    assert len(data["train"]) + len(data["val"]) == 6
    assert spans and max(spans) <= sio._ISI_CHUNK


def test_energy_report(workspace, tmp_path, capsys):
    out = tmp_path / "energy.json"
    rc = main(["energy", "--ckpt", str(workspace / "ckpt" / "last.salt"),
               "--stream", str(workspace / "data" / "val_000.spk"),
               "--out", str(out)])
    assert rc == 0
    assert "ratio" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["ac_ops"] >= 0 and doc["mac_ops"] > 0
    assert doc["ratio"] > 1.0


@pytest.fixture(scope="module")
def stream64(tmp_path_factory):
    """One labelled 64x64 stream of two 400-frame windows, the fixture's
    window."""
    cfg = GeneratorConfig(train_sequences=0, val_sequences=1,
                          labels_per_sequence=2, width=64, height=64,
                          seed=909)
    return generate_dataset(cfg, tmp_path_factory.mktemp("stream64"))


@pytest.mark.parametrize("command", ["infer", "infer --continuous", "eval",
                                     "energy"])
def test_inference_commands_build_one_model(stream64, tmp_path, monkeypatch,
                                            command):
    """The checkpoint's arrays go straight into the float32 eval net: no
    float64 model is built next to it."""
    built = []
    init = RSTModel.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RSTModel, "__init__", counting)
    name, *flags = command.split()
    source = (["--manifest", str(stream64)] if name == "eval" else
              ["--stream", str(stream64.parent / "val_000.spk")])
    out = ["--out", str(tmp_path / ("maps" if name == "infer" else "r.json"))]
    assert main([name, "--ckpt", str(FIXTURE)] + source + out + flags) == 0
    assert len(built) == 1
    assert not built[0].training
    assert all(arr.dtype == np.float32
               for arr in built[0].state_dict().values())


def test_train_unknown_optimizer_key_is_an_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"optimizer": {"momentum": 0.9}}))
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
               "--manifest", str(workspace / "data" / "manifest.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown optimizer config keys: ['momentum']")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("doc, message", [
    ({"model": None}, "run config key 'model' must be an object, got null"),
    ({"optimizer": None},
     "run config key 'optimizer' must be an object, got null"),
    ({"model": {"D": "48"}}, "model config key 'D' must be an integer"),
    ({"window": 1.5}, "run config key 'window' must be an integer, got 1.5"),
    ({"optimizer": {"lr_start": "a"}},
     "optimizer config key 'lr_start' must be a number"),
    ({"seed": True}, "run config key 'seed' must be an integer"),
    ([], "run config must be a JSON object, not list"),
    ({"model": {"D": 0}}, "dim must be a positive multiple of 8"),
    ({"model": {"D": -8}}, "dim must be a positive multiple of 8"),
    ({"model": {"heads": 0}}, "heads must be >= 1"),
    ({"model": {"heads": -2}}, "heads must be >= 1"),
])
def test_train_wrong_typed_config_is_an_error(workspace, tmp_path, capsys,
                                              doc, message):
    """A wrong-typed field, a model size the network cannot be built with,
    or a config that is not an object, ends the command with ``error:``
    and exit 1 before any training starts."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
               "--manifest", str(workspace / "data" / "manifest.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("doc, message", [
    ({**GEN, "height": "64"},
     "generator config key 'height' must be an integer"),
    ({**GEN, "height": 64.5},
     "generator config key 'height' must be an integer"),
    ({**GEN, "train_sequences": None},
     "generator config key 'train_sequences' must be an integer, got null"),
    ({**GEN, "background_range": 5},
     "generator config key 'background_range' must be a [low, high] pair"),
    ({**GEN, "foreground_range": [0.1, 0.2, 0.3]},
     "generator config key 'foreground_range' must be a [low, high] pair"),
    ({**GEN, "seed": 1.5}, "generator config key 'seed' must be an integer"),
    ({**GEN, "noise_std": "0"},
     "generator config key 'noise_std' must be a number"),
    ([], "generator config must be a JSON object, not list"),
])
def test_gen_data_wrong_typed_config_is_an_error(tmp_path, capsys, doc,
                                                 message):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, key", [
    ({"frames_per_label": 0}, "frames_per_label"),
    ({"labels_per_sequence": 0}, "labels_per_sequence"),
    ({"width": 0}, "width"),
    ({"height": -16}, "height"),
    ({"background_range": [0.045, 0.03]}, "background_range"),
    ({"min_objects": 3, "max_objects": 1}, "max_objects"),
    ({"low_light_scale": -1}, "low_light_scale"),
    ({"train_sequences": -2}, "train_sequences"),
    ({"high_light_fraction": 2.5}, "high_light_fraction"),
    ({"noise_std": -1}, "noise_std"),
    ({"threshold": 0}, "threshold"),
    ({"seed": -1}, "seed"),
])
def test_gen_data_out_of_range_config_names_the_key(tmp_path, capsys, edit,
                                                    key):
    """A value the generator cannot use, or would silently read as another
    (a negative count as 0, a fraction above 1 as 1, negative noise as
    none), ends the command with an error naming the key before any file
    is written."""
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({**GEN, **edit}))
    assert main(["gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, flags, key", [
    ({"seed": -1}, [], "seed"),
    ({}, ["--seed", "-3"], "seed"),
    ({"optimizer": {"lr_start": -0.1, "lr_end": -0.2, "epochs": 1}}, [],
     "lr_end"),
    ({"optimizer": {"weight_decay": -5}}, [], "weight_decay"),
])
def test_train_out_of_range_config_names_the_key(workspace, tmp_path, capsys,
                                                 doc, flags, key):
    """A negative seed, learning rate or weight decay, from the config or
    the --seed flag, ends the command with an error naming the field
    before any data is read or the output directory is made: numpy refuses
    a negative seed only after both, and a negative rate or decay trains
    silently."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
               "--manifest", str(workspace / "data" / "manifest.json")]
              + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "run").exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("doc, key", [
    ({"optimizer": {"lr_start": NAN}}, "lr_start"),
    ({"optimizer": {"weight_decay": NAN}}, "weight_decay"),
    ({"model": {"tau": NAN}}, "tau"),
    ({"model": {"v_th": INF}}, "v_th"),
    ({"model": {"v_reset": -INF}}, "v_reset"),
])
def test_train_non_finite_config_is_an_error(workspace, tmp_path, capsys, doc,
                                             key):
    """JSON's NaN and Infinity parse as floats, but no run or model field
    takes one: a NaN learning rate would train a whole epoch before the
    weights turn non-finite, and an infinite threshold a silent model."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
               "--manifest", str(workspace / "data" / "manifest.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{key}' must be a number" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [
    ("noise_std", NAN), ("threshold", INF),
    ("background_range", [0.03, NAN]), ("foreground_range", [0.1, INF]),
])
def test_gen_data_non_finite_config_is_an_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({**GEN, key: value}))
    assert main(["gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: generator config key '{key}' must be")
    assert "(not NaN or Infinity)" in err
    assert not (tmp_path / "out").exists()


def test_valid_config_keeps_its_json_and_hash(tmp_path):
    """Checking types converts nothing: integers in float fields stay
    integers, so the config's JSON and hash are the bytes they were before
    the check existed (hash pinned from that code)."""
    doc = {"manifest": "m.json",
           "model": {"D": 16, "heads": 2, "T": 2, "rfa_blocks": 1, "tau": 2},
           "optimizer": {"lr_start": 1, "lr_end": 0.5, "epochs": 3},
           "window": 80, "deterministic": True}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    cfg = RunConfig.load(path)
    assert cfg.model.tau == 2 and type(cfg.model.tau) is int
    assert cfg.config_hash() == ("c8b9811ce790ed0b4ae8ef7a6a6e1826"
                                 "2b84b70326d0c6098c150943368b3a97")


def test_missing_checkpoint_errors(workspace, tmp_path, capsys):
    rc = main(["eval", "--ckpt", str(tmp_path / "none.salt"),
               "--manifest", str(workspace / "data" / "manifest.json")])
    assert rc == 1


@pytest.mark.parametrize("command, drop, message", [
    ("eval", "config", "checkpoint meta lacks 'config'"),
    ("infer", "config", "checkpoint meta lacks 'config'"),
    ("resume", "history", "checkpoint meta lacks 'history'"),
    ("resume", "adam.m.", "optimizer state missing=['adam.m."),
])
def test_checkpoint_without_an_entry_is_an_error(workspace, tmp_path, capsys,
                                                 command, drop, message):
    """A valid container that lacks a meta key or an optimizer entry of a
    checkpoint ends as an error naming it, not as a traceback."""
    arrays, meta = G.load_tensors(workspace / "ckpt" / "last.salt")
    if drop in meta:
        del meta[drop]
    else:
        del arrays[min(k for k in arrays if k.startswith(drop))]
    ckpt = tmp_path / "bad.salt"
    G.save_tensors(ckpt, arrays, meta)
    data = workspace / "data"
    argv = {"eval": ["eval", "--ckpt", str(ckpt),
                     "--manifest", str(data / "manifest.json")],
            "infer": ["infer", "--ckpt", str(ckpt),
                      "--stream", str(data / "val_000.spk"),
                      "--out", str(tmp_path / "maps")],
            "resume": ["train", "--config", str(workspace / "run.json"),
                       "--resume", str(ckpt), "--out", str(tmp_path / "run")]}
    rc = main(argv[command])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("meta, message", [
    ({"epoch": "0"}, "checkpoint epoch must be a non-negative integer"),
    ({"epoch": True}, "checkpoint epoch must be a non-negative integer"),
    ({"epoch": 0.0}, "checkpoint epoch must be a non-negative integer"),
    ({"epoch": -1}, "checkpoint epoch must be a non-negative integer"),
    ({"history": {}}, "checkpoint history must be a list"),
])
def test_resume_from_malformed_meta_is_an_error(workspace, tmp_path, capsys,
                                                meta, message):
    """A checkpoint of the run's own config whose ``epoch`` is not a JSON
    integer of at least 0, or whose ``history`` is not a list, ends
    ``train --resume`` with an error before any training starts."""
    arrays, old = G.load_tensors(workspace / "ckpt" / "last.salt")
    ckpt = tmp_path / "bad.salt"
    G.save_tensors(ckpt, arrays, {**old, **meta})
    rc = main(["train", "--config", str(workspace / "run.json"),
               "--resume", str(ckpt), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "run" / "last.salt").exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
def test_deeply_nested_json_is_an_error(workspace, tmp_path, capsys, command):
    """A JSON document nested deeper than the parser recurses (a generator
    config, a run config, a checkpoint's index) ends the command with
    ``error:`` and exit 1, not a RecursionError traceback."""
    deep = "[" * 100000 + "]" * 100000
    cfg = tmp_path / "deep.json"
    cfg.write_text(deep)
    ckpt = tmp_path / "deep.salt"
    ckpt.write_bytes(b"SALT" + struct.pack("<HQ", 1, len(deep)) + deep.encode())
    argv = {"gen-data": ["gen-data", "--config", str(cfg),
                         "--out", str(tmp_path / "out")],
            "train": ["train", "--config", str(cfg),
                      "--out", str(tmp_path / "run")],
            "eval": ["eval", "--ckpt", str(ckpt), "--manifest",
                     str(workspace / "data" / "manifest.json")]}
    assert main(argv[command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested too deeply" in err
