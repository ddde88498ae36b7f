import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spikesal import grad as G
from spikesal.cli import main
from spikesal.grad import Tensor
from spikesal.grad.store import load_tensors, save_tensors
from spikesal.grad.tensor import _toposort
from spikesal import metrics, optim
from spikesal import train as T
from spikesal.rst import RSTConfig, RSTModel, eval_net
from spikesal.simcam import GeneratorConfig, generate_dataset

from checkpoint_models import FIXTURE, float64_model


# -- optimizer ----------------------------------------------------------------


def test_adamw_matches_scalar_oracle():
    # one parameter, fixed gradient sequence, recompute by hand
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = optim.AdamW([("p", p)], lr=0.1, weight_decay=0.01)
    grads = [0.5, -0.3, 0.2]

    x, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        p.grad = np.array([g])
        opt.step()
        x *= 1 - 0.1 * 0.01
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9 ** t)
        vh = v / (1 - 0.999 ** t)
        x -= 0.1 * mh / (np.sqrt(vh) + 1e-8)
        assert p.data[0] == pytest.approx(x, rel=1e-12)


def adamw_step_expression(opt):
    """One AdamW step as whole-array expressions, each allocating its
    result: the oracle the in-place ``AdamW.step`` must equal byte for
    byte."""
    opt.t += 1
    b1, b2 = optim.BETA1, optim.BETA2
    bias1 = 1.0 - b1 ** opt.t
    bias2 = 1.0 - b2 ** opt.t
    for name, p in opt.params:
        if p.grad is None:
            continue
        g = p.grad
        if opt.weight_decay:
            p.data *= 1.0 - opt.lr * opt.weight_decay
        m = opt.m[name]
        v = opt.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= opt.lr * (m / bias1) / (np.sqrt(v / bias2) + optim.EPS)


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_adamw_in_place_step_equals_its_expression(weight_decay):
    rng = np.random.default_rng(5)
    shapes = [(4, 3, 3, 3), (7,), (2, 5)]
    start = [rng.standard_normal(s) for s in shapes]
    grads = [[rng.standard_normal(s) * 10.0 ** rng.integers(-6, 2)
              for s in shapes] for _ in range(6)]
    results = []
    for step in (optim.AdamW.step, adamw_step_expression):
        params = [(f"p{i}", Tensor(a.copy(), requires_grad=True))
                  for i, a in enumerate(start)]
        opt = optim.AdamW(params, lr=3e-3, weight_decay=weight_decay)
        for gs in grads:
            for (_, p), g in zip(params, gs):
                p.grad = g.copy()
            params[1][1].grad = None        # a parameter without gradient
            step(opt)
        results.append([p.data for _, p in params]
                       + list(opt.state_arrays().values()))
    got, want = results
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_adamw_skips_gradless_params():
    p = Tensor(np.ones(3), requires_grad=True)
    opt = optim.AdamW([("p", p)], lr=0.1)
    opt.step()   # no grad set: decay must not apply either
    np.testing.assert_array_equal(p.data, np.ones(3))


def test_adamw_pure_decay_with_zero_grad():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = optim.AdamW([("p", p)], lr=0.5, weight_decay=0.1)
    for _ in range(3):
        p.grad = np.zeros(1)
        opt.step()
    assert p.data[0] == pytest.approx(2.0 * (1 - 0.05) ** 3)


def test_adamw_state_roundtrip():
    rng = np.random.default_rng(0)

    def fresh():
        a = Tensor(rng.standard_normal(4).copy(), requires_grad=True)
        return a

    rng = np.random.default_rng(0)
    p1 = fresh()
    rng = np.random.default_rng(0)
    p2 = fresh()
    o1 = optim.AdamW([("w", p1)], lr=0.05)
    o2 = optim.AdamW([("w", p2)], lr=0.05)
    gs = np.random.default_rng(1).standard_normal((6, 4))
    for g in gs[:3]:
        for o, p in ((o1, p1), (o2, p2)):
            p.grad = g.copy()
            o.step()
    state = {k: v.copy() for k, v in o1.state_arrays().items()}
    o3 = optim.AdamW([("w", p2)], lr=0.05)
    o3.load_state_arrays(state)
    for g in gs[3:]:
        for o, p in ((o1, p1), (o3, p2)):
            p.grad = g.copy()
            o.step()
    np.testing.assert_array_equal(p1.data, p2.data)


def test_linear_lr_schedule():
    assert optim.linear_lr(0, 20, 2e-5, 2e-6) == 2e-5
    assert optim.linear_lr(19, 20, 2e-5, 2e-6) == pytest.approx(2e-6)
    assert optim.linear_lr(0, 1, 3e-4, 1e-9) == 3e-4
    mid = optim.linear_lr(10, 21, 1.0, 0.0)
    assert mid == pytest.approx(0.5)


# -- run config ----------------------------------------------------------------


def toy_model_cfg():
    return RSTConfig(dim=16, heads=2, steps=2, rfa_blocks=1)


def test_run_config_roundtrip(tmp_path):
    cfg = T.RunConfig(manifest="m.json", model=toy_model_cfg(),
                      lr_start=1e-3, lr_end=1e-4, epochs=3, batch_size=2,
                      window=80, seed=7, mode="single", loss_mode="vanilla")
    p = tmp_path / "run.json"
    p.write_text(json.dumps(cfg.to_json_dict()))
    doc = json.loads(p.read_text())
    assert doc["optimizer"]["kind"] == "adamw"
    assert doc["model"]["D"] == 16
    assert T.RunConfig.load(p) == cfg


def test_run_config_ignores_retired_deterministic_key():
    cfg = T.RunConfig(manifest="m", model=toy_model_cfg(), seed=3)
    doc = cfg.to_json_dict()
    assert "deterministic" not in doc
    doc["deterministic"] = True
    loaded = T.RunConfig.from_json_dict(doc)
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()


def test_run_config_json_keys_and_fixture_hash_are_pinned():
    """The run config's JSON is derived from its fields: a renamed field
    would change every checkpoint's meta and config_hash."""
    doc = T.RunConfig().to_json_dict()
    assert set(doc) == {"manifest", "model", "optimizer", "window", "seed",
                        "mode", "loss_mode"}
    assert set(doc["optimizer"]) == {"kind", "lr_start", "lr_end", "epochs",
                                     "batch_size", "weight_decay"}
    _, meta = load_tensors(FIXTURE)
    assert T.RunConfig.from_json_dict(meta["config"]).config_hash() == (
        "541366e7e6cefa9d715857321f79ea4fa843f389101adef6fb98415cde9e499b")


def test_run_config_hash_changes_with_fields():
    a = T.RunConfig(manifest="m", model=toy_model_cfg())
    b = T.RunConfig(manifest="m", model=toy_model_cfg(), seed=1)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == T.RunConfig(manifest="m", model=toy_model_cfg()).config_hash()


def test_non_finite_weight_never_replaces_a_loadable_checkpoint(tmp_path):
    """Saving a checkpoint whose weight holds a NaN raises before anything
    is written, so the last good ``last.salt`` still loads."""
    cfg = T.RunConfig(manifest="m", model=toy_model_cfg())
    model = RSTModel(cfg.model, np.random.default_rng(0))
    opt = optim.AdamW(model.named_parameters(), lr=cfg.lr_start)
    path = tmp_path / "last.salt"
    T.save_checkpoint(path, model, opt, cfg, 0, [])
    good = path.read_bytes()
    name, weight = next(iter(model.named_parameters()))
    weight.data.flat[0] = np.nan
    with pytest.raises(ValueError,
                       match=f"non-finite value in tensor param.{name}"):
        T.save_checkpoint(path, model, opt, cfg, 1, [])
    assert path.read_bytes() == good
    assert T.model_from_checkpoint(path)[2]["epoch"] == 0
    assert [f.name for f in tmp_path.iterdir()] == ["last.salt"]


def test_run_config_validation():
    with pytest.raises(ValueError):
        T.RunConfig(lr_start=1e-6, lr_end=1e-5)
    with pytest.raises(ValueError):
        T.RunConfig(epochs=0)
    with pytest.raises(ValueError):
        T.RunConfig(mode="both")
    with pytest.raises(ValueError):
        T.RunConfig.from_json_dict({"submarine": 1})


@pytest.mark.parametrize("doc", [
    {"optimizer": {"momentum": 0.9}},
    {"optimizer": {"window": 5}},
    {"window": 80, "optimizer": {"window": 5}},
])
def test_run_config_rejects_unknown_optimizer_keys(doc):
    """Only the optimizer's own keys may sit in its block: a stray key is
    neither passed to the config nor allowed to set a run-level field."""
    key = next(iter(doc["optimizer"]))
    with pytest.raises(ValueError,
                       match=re.escape(f"unknown optimizer config keys: "
                                       f"['{key}']")):
        T.RunConfig.from_json_dict(doc)


# -- data loading -----------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("toyset")
    cfg = GeneratorConfig(train_sequences=2, val_sequences=1,
                          labels_per_sequence=3, width=32, height=32,
                          frames_per_label=80, noise_std=0.0, seed=5)
    return generate_dataset(cfg, out)


def test_load_samples(dataset):
    data = T.load_samples(dataset, window=80)
    assert len(data["train"]) == 6
    assert len(data["val"]) == 3
    for s in data["train"]:
        assert s.repr.shape == (1, 32, 32)
        assert 0.0 <= s.repr.min() and s.repr.max() <= 1.0
        assert set(np.unique(s.mask)) <= {0.0, 1.0}
    # windows stay chronological within a sequence
    seq0 = [s for s in data["train"] if s.seq == "train_000"]
    assert [s.index for s in seq0] == [0, 1, 2]


def run_cfg(dataset, **over):
    base = dict(manifest=str(dataset), model=toy_model_cfg(),
                lr_start=1e-3, lr_end=1e-4, epochs=2, batch_size=2,
                window=80, seed=3)
    base.update(over)
    return T.RunConfig(**base)


# -- training ---------------------------------------------------------------------


def test_train_multi_writes_artifacts(tmp_path, dataset):
    cfg = run_cfg(dataset)
    history = T.train_model(cfg, tmp_path / "run")
    assert len(history) == 2
    for h in history:
        assert np.isfinite(h["loss"]) and h["loss"] > 0
    assert (tmp_path / "run" / "epoch_000.salt").exists()
    assert (tmp_path / "run" / "epoch_001.salt").exists()
    assert (tmp_path / "run" / "last.salt").exists()
    log = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
    assert log[0] == "epoch,loss,val_mae,val_mean_f"
    assert len(log) == 3


def test_checkpoint_reload_reproduces_eval(tmp_path, dataset):
    cfg = run_cfg(dataset, epochs=1)
    T.train_model(cfg, tmp_path / "run")
    model, cfg2, meta = T.model_from_checkpoint(tmp_path / "run" / "last.salt")
    assert not model.training
    # eval mode all the way down: a forward leaves the batchnorm statistics
    before = {k: v.copy() for k, v in model.named_buffers()}
    model.forward_full(np.full((1, 1, 32, 32), 0.5), "multi")
    assert all(np.array_equal(v, before[k]) for k, v in model.named_buffers())
    assert cfg2 == cfg
    assert meta["epoch"] == 0
    data = T.load_samples(dataset, cfg.window)
    r1 = T.evaluate_model(model, data["val"])
    r2 = T.evaluate_model(model, data["val"])
    assert r1.mae == r2.mae == meta["history"][0]["val_mae"]


def test_rebuilt_models_draw_no_random_numbers(tmp_path, monkeypatch):
    """model_from_checkpoint, eval_net and a float64 reload overwrite every
    weight of the model they build, so they build it without drawing any."""
    cfg = T.RunConfig(model=RSTConfig(dim=16, heads=2, steps=2,
                                      rfa_blocks=1))
    model = RSTModel(cfg.model, np.random.default_rng(5))
    T.save_checkpoint(tmp_path / "m.salt", model,
                      optim.AdamW(model.named_parameters(), lr=1e-3), cfg,
                      0, [])

    def no_generator(*_a, **_k):
        raise AssertionError("a random generator was created")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    legacy = np.random.get_state()
    loaded = float64_model(tmp_path / "m.salt")
    twin = T.model_from_checkpoint(tmp_path / "m.salt")[0]
    live = eval_net(cfg.model, model.state_dict())
    after = np.random.get_state()
    assert after[1].tobytes() == legacy[1].tobytes() and after[2] == legacy[2]
    for name, arr in model.state_dict().items():
        assert loaded.state_dict()[name].tobytes() == arr.tobytes(), name
        assert twin.state_dict()[name].tobytes() == \
            arr.astype(np.float32).tobytes(), name
        assert live.state_dict()[name].tobytes() == \
            twin.state_dict()[name].tobytes(), name


@pytest.mark.parametrize("mode", ["multi", "single"])
def test_reloaded_last_checkpoint_scores_the_logged_val_metrics(tmp_path,
                                                                dataset, mode):
    cfg = run_cfg(dataset, mode=mode, epochs=2, batch_size=1)
    history = T.train_model(cfg, tmp_path / "run")
    model = T.model_from_checkpoint(tmp_path / "run" / "last.salt")[0]
    report = T.evaluate_model(model, T.load_samples(dataset, cfg.window)["val"],
                              mode=mode)
    assert report.mae == history[-1]["val_mae"]
    assert report.mean_f_beta == history[-1]["val_mean_f"]


@pytest.mark.parametrize("training", [True, False])
def test_evaluation_leaves_the_live_model_as_it_is(dataset, training):
    """Validation builds an eval net from the live model's state_dict()
    and evaluates that: the live model keeps its float64 arrays, its mode
    and its membranes, and shares no array with the net."""
    model = RSTModel(RSTConfig(dim=16, heads=2, steps=2, rfa_blocks=1),
                     np.random.default_rng(3)).train(training)
    val = T.load_samples(dataset, 80)["val"]
    model.forward_full(val[0].repr[None], "single")
    states = [b.lif.state for b in model.encoder.blocks]
    state_bytes = [v.data.tobytes() for v in states]
    before = {k: v.copy() for k, v in model.state_dict().items()}
    net = eval_net(model.cfg, model.state_dict())
    for mode in ("multi", "single"):
        T.evaluate_model(net, val, mode=mode)
        metrics.estimate_energy(net, val[0].repr[None], mode=mode)
    for name, arr in net.state_dict().items():
        assert not np.shares_memory(arr, model.state_dict()[name]), name
    assert model.training == training
    for name, arr in model.state_dict().items():
        assert arr.dtype == np.float64
        assert arr.tobytes() == before[name].tobytes(), name
    assert [b.lif.state for b in model.encoder.blocks] == states
    assert [v.data.tobytes() for v in states] == state_bytes


def test_resume_reproduces_uninterrupted_run(tmp_path, dataset):
    cfg = run_cfg(dataset, epochs=2)
    full = T.train_model(cfg, tmp_path / "a")
    T.train_model(run_cfg(dataset, epochs=1), tmp_path / "dummy")  # unrelated run
    part = T.train_model(cfg, tmp_path / "b")  # fresh dir, epoch 0+1
    # now replay epoch 1 from the epoch-0 checkpoint
    resumed = T.train_model(cfg, tmp_path / "c",
                            resume=tmp_path / "b" / "epoch_000.salt")
    assert abs(resumed[1]["loss"] - full[1]["loss"]) <= 1e-12
    assert resumed[1] == part[1]
    a = (tmp_path / "a" / "epoch_001.salt").read_bytes()
    c = (tmp_path / "c" / "epoch_001.salt").read_bytes()
    assert a == c


def test_resume_reproduces_uninterrupted_single_mode_run(tmp_path, dataset):
    # the carried membranes are detached after every window and reset per
    # sequence, so epoch 1 replays from the epoch-0 checkpoint alone
    cfg = run_cfg(dataset, mode="single", batch_size=1, epochs=2)
    full = T.train_model(cfg, tmp_path / "a")
    resumed = T.train_model(cfg, tmp_path / "c",
                            resume=tmp_path / "a" / "epoch_000.salt")
    assert resumed == full
    a = (tmp_path / "a" / "epoch_001.salt").read_bytes()
    c = (tmp_path / "c" / "epoch_001.salt").read_bytes()
    assert a == c


# the RFA projections of checkpoints written while they were separate
# modules: batchnorm under ``<proj>.norm.*``, weights as (d_out, d_in)
OLD_PROJ = re.compile(r"rfa\.\d+\.(q_proj|k_proj|v_proj|out_proj|fuse_att\.proj"
                      r"|fuse_mlp\.proj)\.")


def write_old_layout(src: Path, dst: Path):
    """Rewrite checkpoint ``src`` at ``dst`` in the layout of those files,
    in its ``param.``, ``buf.`` and ``adam.m/v.`` entries alike."""
    arrays, meta = load_tensors(src)
    old = {}
    for name, arr in arrays.items():
        found = OLD_PROJ.search(name)
        if found:
            if name.endswith(".weight"):
                arr = arr.reshape(arr.shape[:2])
            else:
                name = name[:found.end()] + "norm." + name[found.end():]
        old[name] = arr
    save_tensors(dst, old, meta)
    return old


def test_old_checkpoint_layout_loads_and_resumes(tmp_path, dataset):
    """A checkpoint in the old projection layout loads to the same model
    and resumes to the bytes of the uninterrupted run; new checkpoints
    store every projection as a 4-D 1x1 kernel with its block's keys."""
    cfg = run_cfg(dataset, epochs=2, model=RSTConfig(
        dim=16, heads=2, steps=2, rfa_blocks=1, residual_op="concat"))
    T.train_model(cfg, tmp_path / "a")
    new = tmp_path / "a" / "epoch_000.salt"
    old = write_old_layout(new, tmp_path / "old.salt")
    renamed = [k for k in old if ".norm." in k]
    assert {k.split(".", 1)[0] for k in renamed} == {"param", "buf", "adam"}
    assert "adam.m.rfa.0.fuse_mlp.proj.norm.gamma" in renamed
    assert old["adam.v.rfa.0.q_proj.weight"].shape == (16, 16)

    want = float64_model(new).state_dict()
    got = float64_model(tmp_path / "old.salt").state_dict()
    assert list(got) == list(want)
    for name, arr in want.items():
        assert got[name].shape == arr.shape, name
        assert got[name].tobytes() == arr.tobytes(), name

    T.train_model(cfg, tmp_path / "c", resume=tmp_path / "old.salt")
    last = (tmp_path / "a" / "last.salt").read_bytes()
    assert (tmp_path / "c" / "last.salt").read_bytes() == last

    arrays, _ = load_tensors(tmp_path / "a" / "last.salt")
    assert not [k for k in arrays if ".norm." in k]
    weights = [a for k, a in arrays.items() if k.endswith(".weight")]
    assert len(weights) == 3 * 18      # 18 weights, each with adam m and v
    assert all(a.ndim == 4 for a in weights)


def test_resume_rejects_config_mismatch(tmp_path, dataset):
    cfg = run_cfg(dataset, epochs=1)
    T.train_model(cfg, tmp_path / "run")
    other = run_cfg(dataset, epochs=1, lr_start=5e-4, lr_end=5e-5)
    with pytest.raises(ValueError, match="config"):
        T.train_model(other, tmp_path / "run2",
                      resume=tmp_path / "run" / "last.salt")


def test_train_single_step_mode(tmp_path, dataset):
    cfg = run_cfg(dataset, mode="single", epochs=1, batch_size=1)
    history = T.train_model(cfg, tmp_path / "run")
    assert len(history) == 1
    assert np.isfinite(history[0]["loss"])


def test_train_vanilla_loss_mode(tmp_path, dataset):
    cfg = run_cfg(dataset, loss_mode="vanilla", epochs=1)
    history = T.train_model(cfg, tmp_path / "run")
    assert np.isfinite(history[0]["loss"])


def test_evaluate_model_modes(tmp_path, dataset):
    cfg = run_cfg(dataset, epochs=1)
    T.train_model(cfg, tmp_path / "run")
    model, _, _ = T.model_from_checkpoint(tmp_path / "run" / "last.salt")
    data = T.load_samples(dataset, cfg.window)
    multi = T.evaluate_model(model, data["val"], mode="multi")
    single = T.evaluate_model(model, data["val"], mode="single")
    assert multi.count == single.count == 3
    assert 0.0 <= multi.mae <= 1.0 and 0.0 <= single.mae <= 1.0


def toy_step_setup(dataset):
    model = RSTModel(toy_model_cfg(), np.random.default_rng(0))
    opt = optim.AdamW(model.named_parameters(), lr=1e-3)
    samples = T.load_samples(dataset, window=80)["train"]
    return model, opt, samples


def test_skipping_detach_state_between_single_windows_raises(dataset):
    # a membrane carried without detach_state() links the next window's
    # graph to the previous one, which its backward has already consumed
    model, opt, samples = toy_step_setup(dataset)

    def train_window(i):
        T._train_step(model, opt, [samples[i]], "single", T._single_map_loss,
                      0, i)

    model.reset_state()
    train_window(0)
    model.detach_state()
    train_window(1)
    with pytest.raises(RuntimeError, match="consumed"):
        train_window(2)


def test_multi_step_training_step_leaves_no_membrane(dataset):
    """A multi-step forward drops the encoder's final membranes as it
    returns, so they and the spikes they hold do not live through the
    step's backward and update, nor after it."""
    model, opt, samples = toy_step_setup(dataset)
    loss_cfg = T.LossConfig(steps=toy_model_cfg().steps)
    seen = []

    def loss_fn(maps, y):
        seen.append([b.lif.state for b in model.encoder.blocks])
        return T.multi_step_loss(maps, y, loss_cfg)

    T._train_step(model, opt, samples[:2], "multi", loss_fn, 0, 0)
    assert seen == [[None] * 4]
    assert all(b.lif.state is None for b in model.encoder.blocks)


def test_training_step_frees_its_graph(dataset):
    """Traced memory returns to its level before a step once the step has
    finished; right after backward the graph is gone; and the step's peak
    stays below the graph plus every op node's gradient, which an engine
    that keeps the graph holds at the end of backward. Measured with this
    model on two 32x32 windows (graph 1.00 MB, one node per conv-BN-spike
    unit, no im2col columns kept): 6 KB left after the step, 0.04 graphs
    alive after backward, and a peak of 1.42 graphs against 1.51 for graph
    plus gradients; the SSIM term's backward temporaries, allocated while
    the whole graph is still alive, set that peak."""
    model, opt, samples = toy_step_setup(dataset)
    loss_cfg = T.LossConfig(steps=toy_model_cfg().steps)
    marks = {}

    def traced():
        return tracemalloc.get_traced_memory()[0] - marks.get("base", 0)

    def loss_fn(maps, y):
        loss = T.multi_step_loss(maps, y, loss_cfg)
        marks["graph"] = traced()
        marks["grads"] = sum(n.data.nbytes for n in _toposort(loss)
                             if n._vjp is not None)
        return loss

    real_step = opt.step

    def step():
        marks["after_backward"] = traced()
        real_step()
    opt.step = step

    def train_step():
        T._train_step(model, opt, samples[:2], "multi", loss_fn, 0, 0)

    tracemalloc.start()
    try:
        train_step()        # the optimizer allocates its moments once
        marks["base"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        train_step()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    graph = marks["graph"]
    assert graph > 1_000_000
    assert current - marks["base"] < 64 * 1024
    assert marks["after_backward"] < 0.25 * graph
    assert peak - marks["base"] < graph + marks["grads"]


def test_default_model_training_step_peak():
    """One multi-step training step of the default model (D=128, 6 RFA
    blocks, T=5) at 64x64, batch 2, peaks at 93.9 MB by tracemalloc; a
    graph that kept every conv's im2col columns peaked at 145.5 MB. No
    benchmark workload trains at the defaults, so this guards their size."""
    cfg = RSTConfig()
    model = RSTModel(cfg, np.random.default_rng(0))
    opt = optim.AdamW(model.named_parameters(), lr=1e-3)
    rng = np.random.default_rng(1)
    samples = [T.Sample(rng.random((1, 64, 64)),
                        (rng.random((64, 64)) < 0.3).astype(float), "s", i)
               for i in range(2)]
    loss_cfg = T.LossConfig(steps=cfg.steps)

    def loss_fn(maps, y):
        return T.multi_step_loss(maps, y, loss_cfg)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        T._train_step(model, opt, samples, "multi", loss_fn, 0, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 110e6, peak / 1e6


def nan_from_epoch_1(monkeypatch):
    """Make the head's sigmoid emit NaN from the start of epoch 1 on;
    returns the list of optimizer steps taken, by epoch."""
    epochs, steps = [], []
    real_lr, real_sigmoid, real_step = T.linear_lr, G.sigmoid, optim.AdamW.step
    monkeypatch.setattr(T, "linear_lr", lambda epoch, *a:
                        epochs.append(epoch) or real_lr(epoch, *a))
    monkeypatch.setattr(G, "sigmoid", lambda x: G.mul(real_sigmoid(x), np.nan)
                        if 1 in epochs else real_sigmoid(x))
    monkeypatch.setattr(optim.AdamW, "step", lambda self:
                        steps.append(epochs[-1]) or real_step(self))
    return steps


def assert_only_epoch_0_written(out: Path):
    assert sorted(f.name for f in out.iterdir()) == [
        "epoch_000.salt", "last.salt", "train_log.csv"]
    assert (out / "last.salt").read_bytes() == \
        (out / "epoch_000.salt").read_bytes()
    assert T.model_from_checkpoint(out / "last.salt")[2]["epoch"] == 0
    assert len((out / "train_log.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("mode", ["multi", "single"])
def test_non_finite_loss_stops_the_run_before_any_update(tmp_path, dataset,
                                                         monkeypatch, mode):
    """A loss that turns NaN in epoch 1 stops the run at its first step,
    named in the error, before backward: no optimizer step of epoch 1
    runs, and epoch 0's checkpoint and log stay as they were written."""
    steps = nan_from_epoch_1(monkeypatch)
    with pytest.raises(ValueError, match=f"non-finite loss nan in {mode} "
                       "training, epoch 1, step 0$"):
        T.train_model(run_cfg(dataset, mode=mode), tmp_path)
    assert steps and set(steps) == {0}
    assert_only_epoch_0_written(tmp_path)


def test_train_command_exits_1_on_a_non_finite_loss(tmp_path, dataset,
                                                    monkeypatch, capsys):
    nan_from_epoch_1(monkeypatch)
    (tmp_path / "run.json").write_text(
        json.dumps(run_cfg(dataset).to_json_dict()))
    out = tmp_path / "run"
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: non-finite loss nan in multi training, epoch 1, step 0\n"
    assert_only_epoch_0_written(out)


# -- batched multi-step windows ---------------------------------------------------



def forward_batches(monkeypatch) -> list:
    """Record the batch size of every ``RSTModel.forward_full`` call."""
    sizes = []
    real = RSTModel.forward_full
    monkeypatch.setattr(RSTModel, "forward_full", lambda self, x, mode="multi":
                        sizes.append(x.shape[0]) or real(self, x, mode))
    return sizes


@pytest.fixture(scope="module")
def val64(tmp_path_factory):
    """Ten labelled 64x64 windows of the fixture's 400 frames."""
    cfg = GeneratorConfig(train_sequences=0, val_sequences=2,
                          labels_per_sequence=5, width=64, height=64,
                          seed=907)
    manifest = generate_dataset(cfg, tmp_path_factory.mktemp("val64"))
    return T.load_samples(manifest, 400)["val"]


def test_multi_step_evaluation_batches_64x64_windows_byte_identically(
        monkeypatch, val64):
    """The fixture scores ten 64x64 windows in forwards of 4, 4 and 2; each
    map, and the report, has the bytes of one window per forward."""
    net = T.model_from_checkpoint(FIXTURE)[0]
    with G.no_grad():
        want = [T.rate_readout(net.forward_full(s.repr[None], "multi"))
                for s in val64]
    assert len({w.tobytes() for w in want}) == 10
    sizes = forward_batches(monkeypatch)
    got = list(T.multi_step_readouts(net, [s.repr for s in val64]))
    assert sizes == [4, 4, 2]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    sizes.clear()
    report = T.evaluate_model(net, val64, mode="multi")
    assert sizes == [4, 4, 2]
    assert report.to_json() == metrics.evaluate(
        [(w, s.mask, s.seq) for w, s in zip(want, val64)]).to_json()
    with pytest.raises(ValueError, match="no samples"):
        T.evaluate_model(net, [], mode="multi")


def test_single_step_evaluation_runs_each_sequence_oldest_first(val64):
    """Over a shuffled sample list, single-step evaluation scores each
    sequence's windows as one oldest-first ``single_step_readouts`` pass,
    sequences in name order; newest first would score differently, since
    the membranes carry from window to window."""
    net = T.model_from_checkpoint(FIXTURE)[0]
    shuffled = [val64[i] for i in np.random.default_rng(3).permutation(10)]
    report = T.evaluate_model(net, shuffled, mode="single")

    def by_hand(newest_first: bool):
        pairs = []
        for seq in sorted({s.seq for s in val64}):
            chron = sorted((s for s in val64 if s.seq == seq),
                           key=lambda s: s.index, reverse=newest_first)
            preds = T.single_step_readouts(net, [s.repr for s in chron])
            pairs.extend((p, s.mask, seq) for p, s in zip(preds, chron))
        return metrics.evaluate(pairs).to_json()
    assert report.to_json() == by_hand(newest_first=False)
    assert report.to_json() != by_hand(newest_first=True)


def test_multi_step_readouts_batch_by_frame_size(monkeypatch):
    """Windows share a forward up to 128x128 pixels: 128x128 windows run
    one per forward, and a change of size starts a new forward."""
    net = eval_net(toy_model_cfg(),
                   RSTModel(toy_model_cfg(), np.random.default_rng(8)).state_dict())
    rng = np.random.default_rng(9)
    reprs = [rng.random((1, n, n)) for n in (128, 128, 32, 32, 64, 32)]
    sizes = forward_batches(monkeypatch)
    maps = list(T.multi_step_readouts(net, reprs))
    assert sizes == [1, 1, 2, 1, 1]
    assert [m.shape for m in maps] == [r.shape[1:] for r in reprs]
    assert all(m.dtype == np.float64 for m in maps)
    assert G.grad_enabled()
