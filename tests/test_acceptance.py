"""Acceptance gate: ten end-to-end checks, one PASS/FAIL line each.

Runtime is dominated by the two training criteria (7 and 8, several
minutes each at desk scale); everything else finishes in seconds. The
verdict lines are written through the capture manager so they stay
visible in a plain ``pytest -v`` run.
"""

import json
import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from test_metrics import f_oracle, sm_oracle

from spikesal import grad as G
from spikesal import metrics as M
from spikesal import simcam as sc
from spikesal import spikeio as sio
from spikesal.cli import main as cli_main
from spikesal.grad import Tensor
from spikesal.neuro import LIFNeuron, LIFParams
from spikesal.objective import (LossConfig, bce, iou_loss, map_loss,
                                multi_step_loss, ssim_loss, step_weights)
from spikesal.rst import RSTConfig, RSTModel, trace_activity
from spikesal.train import (RunConfig, evaluate_model, load_samples,
                            model_from_checkpoint, train_model)


@pytest.fixture(scope="session")
def announce(pytestconfig):
    """Emit one uncapturable verdict line per criterion, then assert it."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def emit(num, label, ok, detail=""):
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {label}"
        if detail:
            line += f"  ({detail})"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print("\n" + line, flush=True)
        else:
            print("\n" + line, flush=True)
        assert ok, line

    return emit


# -- 1: binary boundaries ------------------------------------------------------


def test_criterion_01_binary_boundaries(announce):
    t0 = time.time()
    rng = np.random.default_rng(11)
    kw = dict(dim=16, heads=2, steps=3, rfa_blocks=2)
    model = RSTModel(RSTConfig(**kw), np.random.default_rng(0))
    model.train()
    clean = 0
    with G.no_grad():
        for _ in range(20):
            x = rng.random((1, 1, 32, 32))
            with trace_activity() as tr:
                model.forward_steps(x, 3)
            assert tr.tensors, "trace recorded no boundary tensors"
            if all(np.isin(t, (0.0, 1.0)).all() for _, t in tr.tensors):
                clean += 1

    # the same sweep must flag additive residuals, which leak counts > 1
    model_add = RSTModel(RSTConfig(residual_op="add", **kw),
                         np.random.default_rng(0))
    model_add.train()
    flagged = 0
    with G.no_grad():
        for _ in range(20):
            x = rng.random((1, 1, 32, 32))
            with trace_activity() as tr:
                model_add.forward_steps(x, 3)
            if any(not np.isin(t, (0.0, 1.0)).all() for _, t in tr.tensors):
                flagged += 1
    dt = time.time() - t0
    announce(1, "inter-module tensors are exactly binary spikes",
             clean == 20 and flagged > 0 and dt < 60.0,
             f"20/20 sweeps clean, {flagged}/20 flagged with additive "
             f"residuals, {dt:.1f}s")


# -- 2: LIF dynamics oracle ----------------------------------------------------


def _lif_line(tau, v_th, v_reset, xs):
    """Straight-line scalar reimplementation of the membrane recurrence."""
    v = float(v_reset)
    spikes = []
    for x in xs:
        h = v + (x - (v - v_reset)) / tau
        s = 1.0 if h >= v_th else 0.0
        v = v_reset if s else h
        spikes.append(s)
    return np.asarray(spikes), v


def test_criterion_02_lif_matches_oracle(announce):
    rng = np.random.default_rng(2)
    cases, worst = 0, 0.0
    with G.no_grad():
        for _ in range(100):
            p = LIFParams(tau=float(rng.uniform(1.05, 5.0)),
                          v_th=float(rng.uniform(0.3, 2.0)),
                          v_reset=float(rng.uniform(-0.5, 0.5)))
            lif = LIFNeuron(p)
            xs = rng.uniform(-1.0, 3.0, (40, 10))
            got = np.stack([lif.step(Tensor(xs[t])).data for t in range(40)])
            v_end = lif.state.data
            for j in range(10):
                want, vw = _lif_line(p.tau, p.v_th, p.v_reset, xs[:, j])
                worst = max(worst, float(np.abs(got[:, j] - want).max()))
                worst = max(worst, abs(float(v_end[j]) - vw))
                cases += 1
    announce(2, "LIF spikes and membrane match a straight-line oracle",
             cases == 1000 and worst <= 1e-12,
             f"{cases} random (tau, v_th, drive) cases, worst |err| {worst:.1e}")


# -- 3: camera rate law --------------------------------------------------------


class _ConstantField:
    frames_per_label = 1 << 30

    def __init__(self, img):
        self.img = np.asarray(img, dtype=np.float64)
        self.height, self.width = self.img.shape

    def intensity(self, t):
        return self.img


def test_criterion_03_camera_rate_law(announce):
    rng = np.random.default_rng(3)
    cases, worst = 0, 0
    for _ in range(20):
        phi = float(rng.uniform(0.4, 3.0))
        steps = int(rng.integers(60, 400))
        img = rng.uniform(0.0, phi, (20, 25))
        out = sc.simulate(_ConstantField(img), sc.CameraParams(threshold=phi),
                          steps=steps)
        counts = out.bits.reshape(steps, -1).sum(axis=0).astype(int)
        for p, i in enumerate(img.ravel()):
            want = sc.firing_rate_oracle(float(i), phi, steps)
            worst = max(worst, abs(int(counts[p]) - want))
            cases += 1
    announce(3, "simulated spike counts obey floor(steps*I/phi)",
             cases == 10000 and worst <= 1,
             f"{cases} constant-intensity cases, worst |count err| {worst}")


# -- 4: gradient checks --------------------------------------------------------


def _readout(rng, shape):
    return Tensor(rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape))


def _margin_pool_input(rng, shape, margin=0.2):
    b, c, h, w = shape
    x = rng.standard_normal(shape)
    flat = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5) \
        .reshape(b, c, h // 2, w // 2, 4)
    idx = np.argmax(flat, -1)
    top = np.take_along_axis(flat, idx[..., None], -1)
    np.put_along_axis(flat, idx[..., None], top + margin, -1)
    return flat.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5) \
        .reshape(shape)


def _relaxed(fn):
    """``fn`` evaluated in the smooth relaxation of the spiking forward."""
    def f():
        with G.relaxed():
            return fn()
    return f


def _op_cases(rng):
    """(name, f, tensors, h) covering every differentiable primitive."""
    cases = []

    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
    r = _readout(rng, (3, 4))
    cases.append(("add/sub/mul/div",
                  lambda: G.sum_((G.add(a, b) * G.sub(a, b) + G.div(a, b)) * r),
                  [a, b], 1e-3))

    c = Tensor(rng.uniform(0.5, 2.0, (4, 5)), requires_grad=True)
    rc = _readout(rng, (4, 5))
    cases.append(("pow/log/exp/sigmoid",
                  lambda: G.sum_((G.pow_(c, 1.7) + G.log(c) + G.exp(-c)
                                  + G.sigmoid(c)) * rc),
                  [c], 1e-3))

    # samples sit >= 0.15 from the clip edges so FD never straddles a kink
    d = Tensor(rng.uniform(0.25, 0.75, (30,)), requires_grad=True)
    rd = _readout(rng, (30,))
    cases.append(("clip interior",
                  lambda: G.sum_(G.clip(d, 0.1, 0.9) * rd), [d], 1e-3))

    q = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    k = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
    rm = _readout(rng, (2, 3, 5))
    cases.append(("matmul batched",
                  lambda: G.sum_(G.matmul(q, k) * rm), [q, k], 1e-3))

    e = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    re_ = _readout(rng, (4, 6))
    cases.append(("reshape/transpose/swapaxes",
                  lambda: G.sum_(G.reshape(G.swapaxes(e, 0, 1), (4, 6)) * re_),
                  [e], 1e-3))

    f = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
    rf = _readout(rng, (3, 5))
    cases.append(("take rows",
                  lambda: G.sum_(G.take(f, slice(1, 4)) * rf), [f], 1e-3))

    g1 = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    g2 = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    rg = _readout(rng, (4, 3))
    rs = _readout(rng, (2, 2, 3))
    cases.append(("concat/stack",
                  lambda: G.sum_(G.concat([g1, g2], axis=0) * rg)
                  + G.sum_(G.stack([g1, g2], axis=0) * rs),
                  [g1, g2], 1e-3))

    m = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    rm2 = _readout(rng, (3, 5))
    cases.append(("sum/mean over axis",
                  lambda: G.sum_((G.mean(m, axis=1) + G.sum_(m, axis=1)) * rm2),
                  [m], 1e-3))

    x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 6)) * 0.5, requires_grad=True)
    bi = Tensor(rng.standard_normal(4) * 0.1, requires_grad=True)
    rl = _readout(rng, (3, 4))
    cases.append(("linear",
                  lambda: G.sum_(G.linear(x, w, bi) * rl), [x, w, bi], 1e-3))

    xc = Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
    wc = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.3, requires_grad=True)
    rcv = _readout(rng, (2, 3, 6, 6))
    cases.append(("conv2d pad 1",
                  lambda: G.sum_(G.conv2d(xc, wc, padding=1) * rcv),
                  [xc, wc], 1e-3))

    xp = Tensor(_margin_pool_input(rng, (2, 3, 8, 8)), requires_grad=True)
    rp = _readout(rng, (2, 3, 4, 4))
    cases.append(("maxpool margin",
                  lambda: G.sum_(G.maxpool2d(xp) * rp), [xp], 1e-3))

    xb = Tensor(rng.standard_normal((4, 3, 5, 5)), requires_grad=True)
    gm = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    bt = Tensor(rng.standard_normal(3) * 0.2, requires_grad=True)
    rb = _readout(rng, (4, 3, 5, 5))
    cases.append(("batchnorm train",
                  lambda: G.sum_(G.batchnorm(xb, gm, bt, np.zeros(3),
                                             np.ones(3), True) * rb),
                  [xb, gm, bt], 1e-3))

    xu = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    ru = _readout(rng, (2, 3, 8, 8))
    cases.append(("nearest upsample",
                  lambda: G.sum_(G.nearest_upsample2d(xu, 2) * ru), [xu], 1e-3))

    xs_ = Tensor(rng.standard_normal(40), requires_grad=True)
    rs_ = _readout(rng, (40,))
    cases.append(("soft spike gate",
                  _relaxed(lambda: G.sum_(G.spike_gate(xs_, v_th=0.5,
                                                       alpha=2.0) * rs_)),
                  [xs_], 1e-3))

    oa = Tensor(rng.uniform(0.1, 0.9, 30), requires_grad=True)
    ob = Tensor(rng.uniform(0.1, 0.9, 30), requires_grad=True)
    ro = _readout(rng, (30,))
    cases.append(("soft elementwise or",
                  _relaxed(lambda: G.sum_(G.elementwise_or(oa, ob) * ro)),
                  [oa, ob], 1e-3))

    # losses: interior predictions keep bce's clamp inactive
    pr = Tensor(rng.uniform(0.05, 0.95, (2, 1, 16, 16)), requires_grad=True)
    tg = Tensor((rng.random((2, 1, 16, 16)) < 0.4).astype(float))
    cases.append(("bce", lambda: bce(pr, tg), [pr], 1e-5))
    cases.append(("iou loss", lambda: iou_loss(pr, tg), [pr], 1e-5))
    cases.append(("ssim loss", lambda: ssim_loss(pr, tg), [pr], 1e-5))
    return cases


def test_criterion_04_gradients(announce):
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst_op, n_cases = 0.0, 0
    for name, f, tensors, h in _op_cases(rng):
        err = G.check_gradients(f, tensors, h=h)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"
        worst_op = max(worst_op, err)
        n_cases += 1

    # whole-model check in the surrogate-relaxed (soft) forward: the
    # smallest legal input, two steps, every parameter tensor probed
    cfg = RSTConfig(dim=8, heads=2, steps=2, rfa_blocks=1)
    model = RSTModel(cfg, np.random.default_rng(7))
    model.train()
    x = np.random.default_rng(8).random((1, 1, 16, 16))
    target = Tensor((np.random.default_rng(9).random((1, 1, 16, 16)) < 0.4)
                    .astype(float))
    lcfg = LossConfig(steps=2)

    def fm():
        return multi_step_loss(model.forward_full(x, "multi"), target, lcfg)

    params = list(dict(model.named_parameters()).values())
    with G.relaxed():
        sampled = G.check_gradients_sampled(fm, params,
                                            np.random.default_rng(10),
                                            per_tensor=4, h=1e-4, floor=1e-6)
        direct = G.directional_check(fm, params, np.random.default_rng(12),
                                     h=1e-4)
    dt = time.time() - t0
    announce(4, "finite differences confirm every op, loss, and the full model",
             worst_op < 1e-4 and sampled < 1e-3 and direct < 1e-3 and dt < 300,
             f"{n_cases} op/loss cases worst {worst_op:.1e}; model sampled "
             f"{sampled:.1e}, directional {direct:.1e}; {dt:.0f}s")


# -- 5: metric oracles ---------------------------------------------------------


def test_criterion_05_metric_oracles(announce):
    rng = np.random.default_rng(5)
    worst_s, n = 0.0, 0
    for _ in range(100):
        pred = rng.random((16, 16))
        gt = (rng.random((16, 16)) < rng.uniform(0.1, 0.9)).astype(float)
        if gt.sum() in (0, gt.size):
            gt[0, 0] = 1.0 - gt[0, 0]

        diff = np.empty_like(pred)
        for i in range(16):
            for j in range(16):
                diff[i, j] = abs(pred[i, j] - gt[i, j])
        assert M.mae(pred, gt) == np.mean(diff)

        got_max, got_mean = M.f_measures(pred, gt)
        exp_max, exp_mean = f_oracle(pred, gt)
        assert got_max == exp_max
        assert got_mean == pytest.approx(exp_mean, abs=1e-12)

        worst_s = max(worst_s, abs(M.s_measure(pred, gt) - sm_oracle(pred, gt)))
        n += 1
    # degenerate masks follow the reference's special cases
    z = np.zeros((16, 16))
    p = rng.random((16, 16))
    ok_deg = (M.s_measure(p, z) == pytest.approx(1.0 - p.mean(), abs=1e-12)
              and M.s_measure(p, np.ones((16, 16)))
              == pytest.approx(p.mean(), abs=1e-12))
    announce(5, "mae/F exact and S-measure matches an independent oracle",
             n == 100 and worst_s <= 1e-9 and ok_deg,
             f"{n} random pairs, worst |S err| {worst_s:.1e}")


# -- 6: loss weighting ---------------------------------------------------------


def test_criterion_06_loss_weighting(announce):
    w = step_weights(5)
    ok_w = np.array_equal(w, np.array([5.0, 4.0, 3.0, 2.0, 1.0]) / 15.0)
    ok_sum = abs(float(w.sum()) - 1.0) <= 1e-15

    rng = np.random.default_rng(6)
    m = rng.uniform(0.05, 0.95, (2, 1, 16, 16))
    target = Tensor((rng.random((2, 1, 16, 16)) < 0.4).astype(float))
    cfg = LossConfig(steps=5)
    multi = float(multi_step_loss([Tensor(m.copy()) for _ in range(5)],
                                  target, cfg).data)
    single = float(map_loss(Tensor(m.copy()), target).data)
    # identical maps: the weighted sum is a convex combination of equal
    # values, so only float summation rounding (a few ulps) remains
    gap = abs(multi - single)
    ok_collapse = gap <= 1e-14 * max(1.0, abs(single))
    announce(6, "step weights are (T..1)/sum and collapse on equal maps",
             ok_w and ok_sum and ok_collapse,
             f"weights exact, sum err {abs(float(w.sum())-1.0):.1e}, "
             f"collapse gap {gap:.1e}")


# -- 7 + 9: training run on the 64x64 synthetic set ----------------------------


@pytest.fixture(scope="module")
def big_run(tmp_path_factory):
    """One 20-epoch multi-step training run; reused by criteria 7 and 9."""
    root = tmp_path_factory.mktemp("accept_train")
    gcfg = sc.GeneratorConfig(train_sequences=8, val_sequences=2,
                              labels_per_sequence=5, height=64, width=64,
                              seed=104)
    manifest = sc.generate_dataset(gcfg, root / "data")
    rcfg = RunConfig(manifest=str(manifest),
                     model=RSTConfig(dim=48, heads=8, steps=5, rfa_blocks=2),
                     lr_start=3e-3, lr_end=3e-4, epochs=20, batch_size=2,
                     window=400, seed=0)
    t0 = time.time()
    history = train_model(rcfg, root / "run", log=None)
    return {"manifest": manifest, "run_dir": root / "run",
            "history": history, "train_seconds": time.time() - t0}


@pytest.mark.slow
def test_criterion_07_training_beats_baselines(big_run, announce):
    model, _, _ = model_from_checkpoint(big_run["run_dir"] / "last.salt")
    data = load_samples(big_run["manifest"], window=400)
    report = evaluate_model(model, data["val"], mode="multi")

    masks = [s.mask for s in data["val"]]
    zero_mae = float(np.mean([M.mae(np.zeros_like(g), g) for g in masks]))
    mean_mask = np.mean([s.mask for s in data["train"]], axis=0)
    const_mae = float(np.mean([M.mae(mean_mask, g) for g in masks]))

    ok = (report.mae < zero_mae and report.mae < const_mae
          and report.mean_f_beta >= 0.5
          and big_run["train_seconds"] < 3600.0)
    announce(7, "20-epoch training beats trivial predictors, mF >= 0.5",
             ok,
             f"MAE {report.mae:.4f} vs zero {zero_mae:.4f} / mean-mask "
             f"{const_mae:.4f}; mF {report.mean_f_beta:.3f}; "
             f"{big_run['train_seconds']:.0f}s train")


@pytest.mark.slow
def test_criterion_09_energy_advantage(big_run, announce):
    model, _, _ = model_from_checkpoint(big_run["run_dir"] / "last.salt")
    data = load_samples(big_run["manifest"], window=400)
    report = M.estimate_energy(model, data["val"][0].repr[None], mode="multi")
    ok = np.isfinite(report.ratio) and report.ratio >= 5.0
    announce(9, "spike-driven inference is >= 5x below the dense equivalent",
             ok,
             f"{report.ratio:.1f}x ({report.snn_energy_j:.2e} J vs "
             f"{report.ann_energy_j:.2e} J)")


# -- 8: ablation directions ----------------------------------------------------


ABLATIONS = {
    "base": dict(),
    "single": dict(mode="single"),
    "vanilla_mode": dict(recurrent="vanilla"),
    "vanilla_loss": dict(loss_mode="vanilla"),
    "add": dict(residual="add"),
    "concat": dict(residual="concat"),
}


def ablation_run(manifest, out, seed, mode="multi", loss_mode="multi",
                 recurrent="reverse", residual="or"):
    """One criterion-8 training run and its val (MAE, mF). Module level so
    that a spawned worker process can run it."""
    mcfg = RSTConfig(dim=32, heads=4, steps=5, rfa_blocks=2, v_th=0.5,
                     recurrent_mode=recurrent, residual_op=residual)
    rcfg = RunConfig(manifest=str(manifest), model=mcfg,
                     lr_start=5e-3, lr_end=5e-4, epochs=40, batch_size=2,
                     window=400, seed=seed, mode=mode, loss_mode=loss_mode)
    train_model(rcfg, out, log=None)
    model, _, _ = model_from_checkpoint(out / "last.salt")
    rep = evaluate_model(model, load_samples(manifest, window=400)["val"],
                         mode=mode)
    return rep.mae, rep.mean_f_beta


@pytest.fixture(scope="module")
def ablation_grid(tmp_path_factory):
    """Six configurations x three seeds on a reduced 32x32 set.

    v_th=0.5 keeps the attention path trainable at this scale: at the
    default 1.0 the spiking-attention threshold sits above any count a
    4-token sequence can produce, so every routing variant degenerates
    to the same silent model and the comparisons measure noise.

    The 18 runs are independent and deterministic, so they are spread
    over up to two worker processes with one BLAS thread each. Threaded
    BLAS in two workers would only fight over the cores, and a pinned
    thread count makes the runs' bits independent of the host's cores.
    """
    root = tmp_path_factory.mktemp("accept_ablate")
    gcfg = sc.GeneratorConfig(train_sequences=4, val_sequences=3,
                              labels_per_sequence=5, height=32, width=32,
                              seed=208)
    manifest = sc.generate_dataset(gcfg, root / "data")
    jobs = [(tag, seed) for tag in ABLATIONS for seed in (0, 1, 2)]
    workers = min(2, os.cpu_count() or 1)
    with pytest.MonkeyPatch.context() as env:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env.setenv(var, "1")   # read by each worker as it starts
        with ProcessPoolExecutor(workers,
                                 mp_context=mp.get_context("spawn")) as ex:
            futures = {job: ex.submit(ablation_run, manifest,
                                      root / f"{job[0]}_s{job[1]}", job[1],
                                      **ABLATIONS[job[0]])
                       for job in jobs}
            scores = {job: f.result() for job, f in futures.items()}
    grid = {}
    for tag in ABLATIONS:
        maes, fs = zip(*(scores[(tag, seed)] for seed in (0, 1, 2)))
        grid[tag] = (float(np.mean(maes)), float(np.mean(fs)))
    return grid


@pytest.mark.slow
def test_criterion_08_ablation_directions(ablation_grid, announce):
    g = ablation_grid
    ok_steps = g["base"][0] <= g["single"][0]
    ok_recur = g["base"][0] <= g["vanilla_mode"][0]
    ok_loss = g["base"][0] <= g["vanilla_loss"][0]
    best_f = max(g[t][1] for t in ("base", "add", "concat"))
    ok_res = g["base"][1] >= 0.9 * best_f
    announce(8, "ablations point the expected way over 3 seeds",
             ok_steps and ok_recur and ok_loss and ok_res,
             f"MAE base {g['base'][0]:.4f} | single {g['single'][0]:.4f} | "
             f"vanilla-mode {g['vanilla_mode'][0]:.4f} | vanilla-loss "
             f"{g['vanilla_loss'][0]:.4f}; mF or {g['base'][1]:.3f} vs best "
             f"residual {best_f:.3f}")


# -- 10: reproducibility -------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path, announce):
    # codec round-trip: decode-reencode is byte-stable
    rng = np.random.default_rng(10)
    bits = (rng.random((40, 16, 24)) < 0.3).astype(np.uint8)
    pa, pb = tmp_path / "a.spk", tmp_path / "b.spk"
    sio.write_stream(pa, sio.SpikeStream(bits, rate_hz=20000))
    back = sio.read_stream(pa)
    sio.write_stream(pb, back)
    codec_ok = (np.array_equal(back.bits, bits)
                and pa.read_bytes() == pb.read_bytes())

    # identical seeded CLI runs: bit-identical checkpoints and reports
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({
        "train_sequences": 1, "val_sequences": 1, "labels_per_sequence": 2,
        "height": 32, "width": 32, "frames_per_label": 80,
        "noise_std": 0.01, "seed": 21}), encoding="utf-8")
    assert cli_main(["gen-data", "--config", str(gen_cfg),
                     "--out", str(tmp_path / "data")]) == 0
    manifest = tmp_path / "data" / "manifest.json"

    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(RunConfig(
        manifest=str(manifest),
        model=RSTConfig(dim=16, heads=2, steps=2, rfa_blocks=1),
        lr_start=1e-3, lr_end=1e-4, epochs=2, batch_size=2,
        window=80, seed=0).to_json_dict()))

    blobs, reports = [], []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert cli_main(["train", "--config", str(run_cfg), "--out", str(out),
                         "--seed", "7"]) == 0
        rep = tmp_path / f"{tag}.json"
        assert cli_main(["eval", "--ckpt", str(out / "last.salt"),
                         "--manifest", str(manifest), "--out", str(rep)]) == 0
        blobs.append((out / "last.salt").read_bytes())
        reports.append(rep.read_bytes())
    ck_ok = blobs[0] == blobs[1]
    rep_ok = reports[0] == reports[1]
    announce(10, "seeded runs are bit-identical and the codec round-trips",
             codec_ok and ck_ok and rep_ok,
             f"checkpoint {len(blobs[0])}B identical, report "
             f"{len(reports[0])}B identical, codec byte-stable")
