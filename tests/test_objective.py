import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from spikesal import grad as G
from spikesal.grad import Tensor, gradcheck
from spikesal import objective as obj


rng = np.random.default_rng(123)


def rand_pair(shape=(2, 1, 16, 16)):
    pred = rng.uniform(0.05, 0.95, size=shape)
    target = (rng.random(shape) < 0.4).astype(np.float64)
    return pred, target


# -- independent direct-formula implementations -------------------------------


def bce_oracle(pred, target, eps=1e-7):
    p = np.clip(pred, eps, 1 - eps)
    return float(-np.mean(target * np.log(p) + (1 - target) * np.log(1 - p)))


def iou_oracle(pred, target):
    inter = float((pred * target).sum())
    union = float(pred.sum() + target.sum() - inter)
    return 1.0 - inter / union


def ssim_oracle(pred, target, window=11, sigma=1.5):
    ax = np.arange(window) - (window - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2 * sigma ** 2))
    kern = np.outer(g, g)
    kern /= kern.sum()

    def filt(img):
        win = sliding_window_view(img, (window, window), axis=(-2, -1))
        return np.einsum("...ij,ij->...", win, kern)

    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    for p, t in zip(pred.reshape(-1, *pred.shape[-2:]),
                    target.reshape(-1, *target.shape[-2:])):
        mp, mt = filt(p), filt(t)
        vp = filt(p * p) - mp * mp
        vt = filt(t * t) - mt * mt
        cov = filt(p * t) - mp * mt
        s = ((2 * mp * mt + c1) * (2 * cov + c2)
             / ((mp ** 2 + mt ** 2 + c1) * (vp + vt + c2)))
        vals.append(s)
    return 1.0 - float(np.mean(vals))


@pytest.mark.parametrize("fn,oracle", [
    (obj.bce, bce_oracle),
    (obj.iou_loss, iou_oracle),
    (obj.ssim_loss, ssim_oracle),
])
def test_matches_direct_formula(fn, oracle):
    for _ in range(5):
        pred, target = rand_pair()
        got = fn(Tensor(pred), Tensor(target)).item()
        assert got == pytest.approx(oracle(pred, target), abs=1e-10)


# -- fixed points --------------------------------------------------------------


def test_perfect_prediction():
    g = (rng.random((1, 1, 16, 16)) < 0.5).astype(np.float64)
    assert obj.iou_loss(Tensor(g.copy()), Tensor(g)).item() == 0.0
    assert obj.ssim_loss(Tensor(g.copy()), Tensor(g)).item() == 0.0
    assert obj.bce(Tensor(g.copy()), Tensor(g)).item() < 1e-6


def test_inverted_prediction_iou_one():
    g = (rng.random((1, 1, 8, 8)) < 0.5).astype(np.float64)
    assert obj.iou_loss(Tensor(1.0 - g), Tensor(g)).item() == 1.0


def test_losses_nonnegative():
    for _ in range(10):
        pred, target = rand_pair((1, 1, 12, 12))
        assert obj.bce(Tensor(pred), Tensor(target)).item() >= 0
        assert obj.iou_loss(Tensor(pred), Tensor(target)).item() >= 0
        assert obj.ssim_loss(Tensor(pred), Tensor(target)).item() >= 0


def test_ssim_rejects_small_input():
    with pytest.raises(ValueError, match="window"):
        obj.ssim_loss(Tensor(np.zeros((1, 1, 8, 8))),
                      Tensor(np.zeros((1, 1, 8, 8))))


# -- gradients -----------------------------------------------------------------


@pytest.mark.parametrize("fn", [obj.bce, obj.iou_loss, obj.ssim_loss])
def test_loss_gradients(fn):
    pred, target = rand_pair((1, 1, 12, 12))
    p = Tensor(pred, requires_grad=True)
    t = Tensor(target)

    def run():
        return fn(p, t)

    worst = gradcheck.check_gradients(run, [p], h=1e-5)
    assert worst < 1e-4


def test_multi_step_loss_gradient():
    maps = [Tensor(rng.uniform(0.1, 0.9, (1, 1, 12, 12)), requires_grad=True)
            for _ in range(3)]
    target = Tensor((rng.random((1, 1, 12, 12)) < 0.4).astype(np.float64))
    cfg = obj.LossConfig(steps=3)

    def run():
        return obj.multi_step_loss(maps, target, cfg)

    assert gradcheck.check_gradients(run, maps, h=1e-5) < 1e-4


# -- equivalence with the dense-kernel SSIM -------------------------------------


def ssim_conv2d_reference(pred, target, window=11, sigma=1.5):
    """SSIM as it was computed before the separable blur: five dense
    window x window ``conv2d`` blurs per call, target statistics included."""
    ax = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    k = np.outer(g, g)
    kern = Tensor((k / k.sum())[None, None])

    def blur(x):
        return G.conv2d(x, kern, padding=0)

    mu_p, mu_t = blur(pred), blur(target)
    var_p = G.sub(blur(G.mul(pred, pred)), G.mul(mu_p, mu_p))
    var_t = G.sub(blur(G.mul(target, target)), G.mul(mu_t, mu_t))
    cov = G.sub(blur(G.mul(pred, target)), G.mul(mu_p, mu_t))
    num = G.mul(G.add(G.mul(2.0, G.mul(mu_p, mu_t)), obj._SSIM_C1),
                G.add(G.mul(2.0, cov), obj._SSIM_C2))
    den = G.mul(G.add(G.add(G.mul(mu_p, mu_p), G.mul(mu_t, mu_t)),
                      obj._SSIM_C1),
                G.add(G.add(var_p, var_t), obj._SSIM_C2))
    return G.sub(1.0, G.mean(G.div(num, den)))


def value_and_grads(run, inputs):
    for t in inputs:
        t.grad = None
    loss = run()
    loss.backward()
    return loss.item(), [t.grad.copy() for t in inputs]


def assert_close_rel(got, ref, rtol=1e-12):
    np.testing.assert_allclose(got, ref, rtol=rtol,
                               atol=rtol * np.abs(ref).max())


@pytest.mark.parametrize("shape", [(3, 1, 16, 16), (2, 1, 13, 21),
                                   (4, 1, 24, 11)])
def test_ssim_matches_conv2d_reference(shape):
    pred, target = rand_pair(shape)
    p, t = Tensor(pred, requires_grad=True), Tensor(target)
    v_new, (g_new,) = value_and_grads(lambda: obj.ssim_loss(p, t), [p])
    v_ref, (g_ref,) = value_and_grads(
        lambda: ssim_conv2d_reference(p, t), [p])
    assert v_new == pytest.approx(v_ref, rel=1e-12)
    assert_close_rel(g_new, g_ref)


def test_multi_step_target_stats_match_per_step_recomputation():
    pred, target = rand_pair((2, 1, 14, 17))
    maps = [Tensor(np.clip(pred + rng.normal(0, 0.05, pred.shape), 0.01, 0.99),
                   requires_grad=True) for _ in range(5)]
    t = Tensor(target)
    cfg = obj.LossConfig(steps=5)

    def per_step():
        total = None
        for w, m in zip(cfg.weights, maps):
            term = G.mul(obj.map_loss(m, t), float(w))
            total = term if total is None else G.add(total, term)
        return total

    v_new, g_new = value_and_grads(
        lambda: obj.multi_step_loss(maps, t, cfg), maps)
    v_ref, g_ref = value_and_grads(per_step, maps)
    assert v_new == pytest.approx(v_ref, rel=1e-12)
    for a, b in zip(g_new, g_ref):
        assert_close_rel(a, b)


# -- weighting schedule ---------------------------------------------------------


def test_weights_t5():
    w = obj.step_weights(5)
    np.testing.assert_array_equal(w, np.array([5, 4, 3, 2, 1]) / 15.0)
    assert abs(w.sum() - 1.0) <= 1e-15


def test_weights_t1():
    np.testing.assert_array_equal(obj.step_weights(1), [1.0])


@pytest.mark.parametrize("t", range(1, 9))
def test_weights_normalized_decreasing(t):
    w = obj.step_weights(t)
    assert abs(w.sum() - 1.0) <= 1e-15
    assert (np.diff(w) < 0).all() or t == 1
    assert (w > 0).all()


def test_identical_maps_collapse():
    pred, target = rand_pair()
    maps = [Tensor(pred.copy()) for _ in range(5)]
    multi = obj.multi_step_loss(maps, Tensor(target)).item()
    single = obj.map_loss(Tensor(pred), Tensor(target)).item()
    # convex combination of equal values; only summation rounding remains
    assert multi == pytest.approx(single, rel=1e-14)


def test_permutation_sensitivity():
    # a bad map at an early (heavier) step must cost more
    target = (rng.random((1, 1, 16, 16)) < 0.4).astype(np.float64)
    good = np.clip(target, 0.02, 0.98)
    bad = np.clip(1.0 - target, 0.02, 0.98)
    t = Tensor(target)
    bad_first = obj.multi_step_loss(
        [Tensor(bad)] + [Tensor(good.copy()) for _ in range(4)], t).item()
    bad_last = obj.multi_step_loss(
        [Tensor(good.copy()) for _ in range(4)] + [Tensor(bad)], t).item()
    assert bad_first > bad_last


def test_length_mismatch_rejected():
    pred, target = rand_pair((1, 1, 16, 16))
    with pytest.raises(ValueError, match="maps"):
        obj.multi_step_loss([Tensor(pred)] * 3, Tensor(target),
                            obj.LossConfig(steps=5))


# -- config ---------------------------------------------------------------------


def test_map_loss_is_bce_plus_iou_plus_ssim():
    pred, target = rand_pair((2, 1, 16, 16))
    p = Tensor(pred, requires_grad=True)
    q = Tensor(pred.copy(), requires_grad=True)
    t = Tensor(target)
    got = obj.map_loss(p, t)
    want = G.add(G.add(obj.bce(q, t), obj.iou_loss(q, t)), obj.ssim_loss(q, t))
    got.backward()
    want.backward()
    assert got.data.tobytes() == want.data.tobytes()
    assert p.grad.tobytes() == q.grad.tobytes()


def test_component_toggles():
    # Every component is always on: the per-component switches are gone,
    # and the full loss exceeds its BCE term alone.
    for key in ("use_bce", "use_iou", "use_ssim", "ssim_window", "ssim_sigma"):
        with pytest.raises(TypeError):
            obj.LossConfig(**{key: False})
    pred, target = rand_pair((1, 1, 16, 16))
    p, t = Tensor(pred), Tensor(target)
    only_bce = obj.bce(p, t).item()
    assert only_bce == pytest.approx(bce_oracle(pred, target), abs=1e-12)
    assert obj.map_loss(p, t).item() > only_bce


def test_all_toggles_off_rejected():
    with pytest.raises(TypeError):
        obj.LossConfig(use_bce=False, use_iou=False, use_ssim=False)


def test_custom_weights_normalized():
    # The weights are always the normalized schedule; custom ones are refused.
    cfg = obj.LossConfig(steps=3)
    assert cfg.weights.tobytes() == obj.step_weights(3).tobytes()
    assert cfg.weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(TypeError):
        obj.LossConfig(steps=3, weights=[2.0, 1.0, 1.0])


def test_vanilla_loss_on_mean_map():
    pred, target = rand_pair()
    maps = [Tensor(rng.uniform(0.1, 0.9, pred.shape)) for _ in range(4)]
    got = obj.vanilla_loss(maps, Tensor(target)).item()
    mean_map = np.mean([m.data for m in maps], axis=0)
    exp = obj.map_loss(Tensor(mean_map), Tensor(target)).item()
    assert got == pytest.approx(exp, rel=1e-12)
