import json

import numpy as np
import pytest

from spikesal import metrics as M
from spikesal import train as T
from spikesal.rst import RSTConfig, RSTModel, eval_net


rng = np.random.default_rng(99)


def rand_map(shape=(16, 16)):
    return rng.random(shape)


def rand_mask(shape=(16, 16), fg=0.4):
    return (rng.random(shape) < fg).astype(np.float64)


# -- mae -----------------------------------------------------------------------


def test_mae_basic():
    g = rand_mask()
    assert M.mae(g, g) == 0.0
    assert M.mae(np.full_like(g, 0.5), g) == 0.5


def test_mae_loop_oracle():
    s, g = rand_map((9, 7)), rand_mask((9, 7))
    total = 0.0
    for i in range(9):
        for j in range(7):
            total += abs(s[i, j] - g[i, j])
    assert M.mae(s, g) == total / 63


def test_mae_complement_invariance():
    s, g = rand_map(), rand_mask()
    assert M.mae(s, g) == pytest.approx(M.mae(1 - s, 1 - g), abs=1e-15)


def test_mae_shape_mismatch():
    with pytest.raises(ValueError):
        M.mae(np.zeros((4, 4)), np.zeros((5, 5)))


# -- F-measure ------------------------------------------------------------------


def f_oracle(pred, target):
    """Brute-force loop over the same 256-threshold grid."""
    scores = []
    for t in np.linspace(0.0, 1.0, 256):
        b = pred >= t
        tp = float(np.logical_and(b, target > 0.5).sum())
        pp = float(b.sum())
        ap = float((target > 0.5).sum())
        p = tp / pp if pp else 0.0
        r = tp / ap if ap else 0.0
        f = 1.3 * p * r / (0.3 * p + r) if (0.3 * p + r) > 0 else 0.0
        scores.append(f)
    return max(scores), sum(scores) / 256


def test_f_measures_match_bruteforce():
    for _ in range(10):
        s, g = rand_map((8, 8)), rand_mask((8, 8))
        got_max, got_mean = M.f_measures(s, g)
        exp_max, exp_mean = f_oracle(s, g)
        assert got_max == exp_max
        assert got_mean == pytest.approx(exp_mean, abs=1e-12)


def pr_counts_oracle(pred, target):
    """The earlier _pr_counts: a 256 x HW boolean matrix."""
    thresholds = np.linspace(0.0, 1.0, M.N_THRESHOLDS)
    binary = pred.ravel()[None, :] >= thresholds[:, None]
    gt = target.ravel().astype(bool)[None, :]
    tp = (binary & gt).sum(axis=1).astype(np.float64)
    pp = binary.sum(axis=1).astype(np.float64)
    ap = float(gt.sum())
    return tp, pp, np.full(M.N_THRESHOLDS, ap)


def pr_cases():
    on_grid = np.arange(256, dtype=np.float64).reshape(16, 16) / 255.0
    with_nan = rand_map((16, 16))
    with_nan[::3, ::2] = np.nan
    return [
        (on_grid, rand_mask((16, 16))),
        (np.linspace(0.0, 1.0, 256)[rng.permutation(256)].reshape(16, 16),
         rand_mask((16, 16))),
        (np.full((16, 16), 0.5), rand_mask((16, 16))),
        (np.full((8, 8), 1.0), rand_mask((8, 8))),
        (rand_map((9, 11)), np.zeros((9, 11))),
        (on_grid, np.zeros((16, 16))),
        (with_nan, rand_mask((16, 16))),
        (np.full((4, 4), np.nan), np.ones((4, 4))),
        (rand_map((128, 128)), rand_mask((128, 128))),
    ]


def test_pr_counts_match_boolean_matrix_exactly():
    for pred, gt in pr_cases():
        got = M._pr_counts(pred, gt)
        want = pr_counts_oracle(pred, gt)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_f_perfect_prediction():
    g = rand_mask()
    f_max, f_mean = M.f_measures(g.copy(), g)
    assert f_max == 1.0
    assert f_mean <= f_max


def test_f_inverted_prediction():
    g = rand_mask((8, 8))
    got_max, _ = M.f_measures(1.0 - g, g)
    exp_max, _ = f_oracle(1.0 - g, g)
    # only the all-positive threshold scores: precision = fg fraction
    assert got_max == exp_max
    p = g.mean()
    assert got_max == pytest.approx(1.3 * p / (0.3 * p + 1.0))


def test_f_empty_mask_is_zero():
    f_max, f_mean = M.f_measures(rand_map((8, 8)), np.zeros((8, 8)))
    assert f_max == 0.0 and f_mean == 0.0


def test_f_max_at_least_mean():
    for _ in range(20):
        s, g = rand_map((6, 6)), rand_mask((6, 6))
        f_max, f_mean = M.f_measures(s, g)
        assert f_max >= f_mean


# -- structure measure ------------------------------------------------------------


def sm_oracle(pred, gt, alpha=0.5):
    """Independent transcription of the published definition."""
    eps = np.finfo(float).eps
    gt = gt > 0.5
    y = gt.mean()
    if y == 0:
        return 1.0 - pred.mean()
    if y == 1:
        return float(pred.mean())

    def obj(vals):
        if vals.size == 0:
            return 0.0
        x = vals.mean()
        sd = np.sqrt(((vals - x) ** 2).sum() / (vals.size - 1)) if vals.size > 1 else 0.0
        return 2 * x / (x * x + 1 + sd + eps)

    so = y * obj(pred[gt]) + (1 - y) * obj((1 - pred)[~gt])

    h, w = gt.shape
    tot = gt.sum()
    xs = ((gt.sum(0) * np.arange(1, w + 1)).sum()) / tot
    ys = ((gt.sum(1) * np.arange(1, h + 1)).sum()) / tot
    cx, cy = int(np.floor(xs + 0.5)), int(np.floor(ys + 0.5))

    def reg_ssim(p, g):
        n = p.size
        if n == 0:
            return 1.0
        x, yv = p.mean(), g.mean()
        if n > 1:
            sx = ((p - x) ** 2).sum() / (n - 1)
            sy = ((g - yv) ** 2).sum() / (n - 1)
            sxy = ((p - x) * (g - yv)).sum() / (n - 1)
        else:
            sx = sy = sxy = 0.0
        a = 4 * x * yv * sxy
        b = (x * x + yv * yv) * (sx + sy)
        if a != 0:
            return a / (b + eps)
        return 1.0 if b == 0 else 0.0

    area = w * h
    parts = [
        (pred[:cy, :cx], gt[:cy, :cx], cx * cy / area),
        (pred[:cy, cx:], gt[:cy, cx:], (w - cx) * cy / area),
        (pred[cy:, :cx], gt[cy:, :cx], cx * (h - cy) / area),
    ]
    parts.append((pred[cy:, cx:], gt[cy:, cx:],
                  1 - parts[0][2] - parts[1][2] - parts[2][2]))
    sr = sum(wt * reg_ssim(p, g.astype(float)) for p, g, wt in parts)
    return max(alpha * so + (1 - alpha) * sr, 0.0)


def test_s_measure_matches_reference_definition():
    for _ in range(40):
        shape = (rng.integers(5, 20), rng.integers(5, 20))
        s = rand_map(shape)
        g = rand_mask(shape, fg=float(rng.uniform(0.1, 0.9)))
        if g.sum() in (0, g.size):
            continue
        assert M.s_measure(s, g) == pytest.approx(sm_oracle(s, g), abs=1e-9)


def test_s_measure_perfect():
    g = rand_mask((12, 12))
    assert M.s_measure(g.copy(), g) == pytest.approx(1.0, abs=1e-9)


def test_s_measure_degenerate_masks():
    z = np.zeros((8, 8))
    assert M.s_measure(z.copy(), z) == 1.0
    assert M.s_measure(np.full((8, 8), 0.3), z) == pytest.approx(0.7)
    ones = np.ones((8, 8))
    assert M.s_measure(np.full((8, 8), 0.8), ones) == pytest.approx(0.8)


def test_s_measure_in_unit_interval():
    for _ in range(20):
        v = M.s_measure(rand_map((10, 10)), rand_mask((10, 10)))
        assert 0.0 <= v <= 1.0


# -- dataset evaluation -------------------------------------------------------------


def test_evaluate_report():
    samples = []
    for seq in ("a", "b"):
        for _ in range(3):
            samples.append((rand_map((16, 16)), rand_mask((16, 16)), seq))
    rep = M.evaluate(samples)
    assert rep.count == 6
    assert set(rep.per_sequence) == {"a", "b"}
    assert len(rep.threshold_curve) == 256
    doc = json.loads(rep.to_json())
    assert doc["count"] == 6
    assert "a" in rep.to_table()


def test_evaluate_single_pair_matches_pointwise():
    s, g = rand_map((16, 16)), rand_mask((16, 16))
    rep = M.evaluate([(s, g)])
    assert rep.mae == M.mae(s, g)
    f_max, f_mean = M.f_measures(s, g)
    assert rep.f_beta_max == f_max
    assert rep.mean_f_beta == pytest.approx(f_mean, abs=1e-12)
    assert rep.s_measure == M.s_measure(s, g)


def evaluate_oracle(samples):
    """The earlier evaluate: every map scored again for its sequence."""
    def aggregate(pairs):
        n, mae_sum, sm_sum = 0, 0.0, 0.0
        prec, rec = np.zeros(M.N_THRESHOLDS), np.zeros(M.N_THRESHOLDS)
        for pred, gt in pairs:
            pred = np.asarray(pred, dtype=np.float64).squeeze()
            gt01 = np.asarray(gt, dtype=np.float64).squeeze()
            mae_sum += M.mae(pred, gt01)
            sm_sum += M.s_measure(pred, gt01)
            t, pp, ap = pr_counts_oracle(pred, gt01)
            prec += np.divide(t, pp, out=np.zeros_like(t), where=pp > 0)
            rec += np.divide(t, ap, out=np.zeros_like(t), where=ap > 0)
            n += 1
        curve = M._f_curve(prec / n, rec / n)
        return {"mae": mae_sum / n, "s_measure": sm_sum / n,
                "f_beta_max": float(curve.max()),
                "mean_f_beta": float(curve.mean()), "count": n}, curve

    groups = {}
    for pred, gt, seq in samples:
        groups.setdefault(seq, []).append((pred, gt))
    summary, curve = aggregate([(p, g) for p, g, _ in samples])
    per_seq = {name: aggregate(items)[0] for name, items in groups.items()}
    return M.EvalReport(mae=summary["mae"], f_beta_max=summary["f_beta_max"],
                        mean_f_beta=summary["mean_f_beta"],
                        s_measure=summary["s_measure"],
                        threshold_curve=curve.tolist(),
                        per_sequence=per_seq, count=summary["count"])


def test_evaluate_report_bytes_match_rescoring_oracle():
    samples = []
    for k in range(7):
        seq = ("b", "a", "c")[k % 3]
        pred = rand_map((1, 1, 24, 20)) if k % 2 else np.round(rand_map((24, 20)) * 255) / 255
        samples.append((pred, rand_mask((24, 20)), seq))
    samples.append((np.full((24, 20), 0.25), np.zeros((24, 20)), "a"))
    got, want = M.evaluate(samples), evaluate_oracle(samples)
    assert got.to_json() == want.to_json()
    assert got.to_table() == want.to_table()


def test_evaluate_empty_rejected():
    with pytest.raises(ValueError):
        M.evaluate([])


# -- energy --------------------------------------------------------------------------


def test_single_conv_layer_count():
    # 100 input spikes through a 3x3 conv with 16 output channels
    rec = {"name": "conv", "spikes_in": 100.0, "numel_in": 1000,
           "fanout": 9 * 16, "analog": False}
    rep = M.energy_from_trace([rec])
    assert rep.ac_ops == 14400.0
    assert rep.mac_ops == 1000 * 144
    assert rep.snn_energy_j == pytest.approx(14400 * 0.9e-12)
    assert rep.ann_energy_j == pytest.approx(144000 * 4.6e-12)


def test_energy_zero_spikes_sentinel():
    rep = M.energy_from_trace([{"name": "conv", "spikes_in": 0.0,
                                "numel_in": 64, "fanout": 9, "analog": False}])
    assert rep.snn_energy_j == 0.0
    assert rep.ratio == M.RATIO_SENTINEL


def fresh_eval_net(seed=0):
    """The eval net of a freshly initialised toy model."""
    cfg = RSTConfig(dim=16, heads=2, steps=2, rfa_blocks=1)
    return eval_net(cfg, RSTModel(cfg, np.random.default_rng(seed)).state_dict())


def test_estimate_energy_on_model():
    net = fresh_eval_net()
    x = (np.random.default_rng(1).random((1, 1, 32, 32)) < 0.3).astype(float)
    rep = M.estimate_energy(net, x, mode="multi")
    assert rep.ac_ops > 0 and rep.mac_ops > 0
    # independent recount from the per-layer records
    assert rep.ac_ops == sum(r["ac"] for r in rep.per_layer)
    assert rep.mac_ops == sum(r["mac"] for r in rep.per_layer)
    # binary activity is sparse, so accumulate count < dense MAC count
    assert rep.ac_ops < rep.mac_ops
    assert "encoder.conv1" in rep.to_table()
    json.loads(rep.to_json())


def test_estimate_energy_silent_model():
    model = RSTModel(RSTConfig(dim=16, heads=2, steps=2, rfa_blocks=1),
                     np.random.default_rng(0))
    model.eval()  # untrained running stats keep everything sub-threshold
    rep = M.estimate_energy(model, np.zeros((1, 1, 32, 32)), mode="multi")
    assert rep.ac_ops == 0.0
    assert rep.ratio == M.RATIO_SENTINEL


def test_estimate_energy_deterministic():
    net = fresh_eval_net()
    x = (np.random.default_rng(2).random((1, 1, 32, 32)) < 0.3).astype(float)
    r1 = M.estimate_energy(net, x)
    r2 = M.estimate_energy(net, x)
    assert r1.ac_ops == r2.ac_ops and r1.ratio == r2.ratio


@pytest.mark.parametrize("float32", [False, True])
def test_evaluation_refuses_a_training_mode_net(float32):
    """A training-mode forward would overwrite the running statistics, so
    estimate_energy and evaluate_model refuse such a net before any
    forward, and its arrays stay as they were."""
    model = RSTModel(RSTConfig(dim=16, heads=2, steps=2, rfa_blocks=1),
                     np.random.default_rng(0))
    net = fresh_eval_net().train() if float32 else model
    x = (np.random.default_rng(3).random((1, 1, 32, 32)) < 0.3).astype(float)
    sample = T.Sample(x[0], (x[0, 0] > 0.5).astype(float), "seq", 0)
    stats = {k: v.copy() for k, v in net.state_dict().items()}
    for run in (lambda: M.estimate_energy(net, x),
                lambda: T.evaluate_model(net, [sample], mode="multi"),
                lambda: T.evaluate_model(net, [sample], mode="single")):
        with pytest.raises(ValueError, match="training-mode"):
            run()
    assert net.training
    for name, arr in net.state_dict().items():
        assert arr.tobytes() == stats[name].tobytes(), name
