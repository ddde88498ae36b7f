import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from spikesal import grad as G
from spikesal.grad import Tensor, gradcheck
from spikesal.grad.tensor import _accumulate, make
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
    # map_loss scores one map: a stack of 3 is refused, not summed, and a
    # stack of one is that map
    stack = Tensor(np.stack([pred] * 3))
    with pytest.raises(ValueError, match="step weights"):
        obj.map_loss(stack, Tensor(target))
    assert obj.map_loss(stack[:1], Tensor(target)).item() \
        == obj.map_loss(Tensor(pred), Tensor(target)).item()


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


# -- equivalence with the graph-composed objective ------------------------------
#
# The objective as it was before each term became one graph node: about 45
# elementwise graph ops per step map, one map_loss call per step, and the
# blur whose W pass used numpy's own matmul loop.


def _separable_pass(x, taps):
    # valid 1-d correlation with ``taps`` along H, then along W
    k = taps.shape[0]
    rows = sliding_window_view(x, k, axis=-2) @ taps
    return sliding_window_view(rows, k, axis=-1) @ taps


def blur2d_graph(x, taps):
    x = G.as_tensor(x)
    k = taps.shape[0]

    def vjp(g):
        pad = [(0, 0)] * (g.ndim - 2) + [(k - 1, k - 1)] * 2
        _accumulate(x, _separable_pass(np.pad(g, pad), taps[::-1]))

    return make(_separable_pass(x.data, taps), (x,), vjp)


def bce_graph(pred, target):
    pred = G.clip(G.as_tensor(pred), obj.CLAMP_EPS, 1.0 - obj.CLAMP_EPS)
    target = G.as_tensor(target)
    pos = G.mul(target, G.log(pred))
    neg = G.mul(G.sub(1.0, target), G.log(G.sub(1.0, pred)))
    return G.mul(G.mean(G.add(pos, neg)), -1.0)


def iou_graph(pred, target):
    pred, target = G.as_tensor(pred), G.as_tensor(target)
    inter = G.sum_(G.mul(pred, target))
    union = G.sub(G.add(G.sum_(pred), G.sum_(target)), inter)
    return G.sub(1.0, G.div(inter, union))


def ssim_target_stats_graph(target):
    taps = obj._gaussian_taps(11, 1.5)
    mu_t = blur2d_graph(target, taps)
    var_t = G.sub(blur2d_graph(G.mul(target, target), taps),
                  G.mul(mu_t, mu_t))
    return mu_t, var_t


def ssim_graph(pred, target, target_stats=None):
    pred, target = G.as_tensor(pred), G.as_tensor(target)
    taps = obj._gaussian_taps(11, 1.5)
    mu_t, var_t = target_stats or ssim_target_stats_graph(target)
    mu_p = blur2d_graph(pred, taps)
    var_p = G.sub(blur2d_graph(G.mul(pred, pred), taps), G.mul(mu_p, mu_p))
    cov = G.sub(blur2d_graph(G.mul(pred, target), taps), G.mul(mu_p, mu_t))
    num = G.mul(G.add(G.mul(2.0, G.mul(mu_p, mu_t)), obj._SSIM_C1),
                G.add(G.mul(2.0, cov), obj._SSIM_C2))
    den = G.mul(G.add(G.add(G.mul(mu_p, mu_p), G.mul(mu_t, mu_t)),
                      obj._SSIM_C1),
                G.add(G.add(var_p, var_t), obj._SSIM_C2))
    return G.sub(1.0, G.mean(G.div(num, den)))


def map_loss_graph(pred, target, ssim_stats=None):
    return G.add(G.add(bce_graph(pred, target), iou_graph(pred, target)),
                 ssim_graph(pred, target, target_stats=ssim_stats))


def multi_step_loss_graph(maps, target, cfg=None):
    cfg = cfg or obj.LossConfig(steps=len(maps))
    stats = ssim_target_stats_graph(target)
    total = None
    for w, m in zip(cfg.weights, maps):
        t = G.mul(map_loss_graph(m, target, ssim_stats=stats), float(w))
        total = t if total is None else G.add(total, t)
    return total


def vanilla_loss_graph(maps, target):
    mean_map = G.mean(G.stack(list(maps), axis=0), axis=0)
    return map_loss_graph(mean_map, target)


def step_maps(steps, shape, edges=False):
    """``steps`` prediction maps and a binary target; with ``edges`` a
    quarter of every map holds exactly 0, CLAMP_EPS, 1 - CLAMP_EPS or 1."""
    pred, target = rand_pair((steps,) + shape)
    if edges:
        edge = np.array([0.0, obj.CLAMP_EPS, 1.0 - obj.CLAMP_EPS, 1.0])
        pick = rng.random(pred.shape) < 0.25
        pred[pick] = rng.choice(edge, size=int(pick.sum()))
    return ([Tensor(p, requires_grad=True) for p in pred],
            Tensor(target[0]))


def assert_matches_oracle(run, oracle, maps):
    v_new, g_new = value_and_grads(run, maps)
    v_ref, g_ref = value_and_grads(oracle, maps)
    assert v_new == pytest.approx(v_ref, rel=1e-12, abs=0.0)
    for a, b in zip(g_new, g_ref):
        assert_close_rel(a, b)


ORACLE_SHAPES = [(1, 1, 16, 16), (2, 1, 16, 16), (2, 1, 13, 21)]


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
@pytest.mark.parametrize("steps", [1, 3, 5])
@pytest.mark.parametrize("edges", [False, True])
def test_multi_step_loss_matches_graph_oracle(steps, shape, edges):
    maps, t = step_maps(steps, shape, edges)
    assert_matches_oracle(lambda: obj.multi_step_loss(maps, t),
                          lambda: multi_step_loss_graph(maps, t), maps)


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
@pytest.mark.parametrize("edges", [False, True])
def test_map_loss_matches_graph_oracle(shape, edges):
    maps, t = step_maps(1, shape, edges)
    assert_matches_oracle(lambda: obj.map_loss(maps[0], t),
                          lambda: map_loss_graph(maps[0], t), maps)


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
@pytest.mark.parametrize("steps", [1, 3, 5])
def test_vanilla_loss_matches_graph_oracle(steps, shape):
    maps, t = step_maps(steps, shape, edges=True)
    assert_matches_oracle(lambda: obj.vanilla_loss(maps, t),
                          lambda: vanilla_loss_graph(maps, t), maps)


@pytest.mark.parametrize("term,oracle", [(obj.bce, bce_graph),
                                         (obj.iou_loss, iou_graph),
                                         (obj.ssim_loss, ssim_graph)])
def test_stacked_terms_score_each_step(term, oracle):
    # T stacked step maps give the length-T vector of the per-map values
    maps, t = step_maps(4, (2, 1, 13, 21), edges=True)
    stacked = Tensor(np.stack([m.data for m in maps]), requires_grad=True)
    r = rng.normal(size=4)
    got, (g_got,) = value_and_grads(
        lambda: G.sum_(G.mul(term(stacked, t), r)), [stacked])
    want, g_want = value_and_grads(
        lambda: G.sum_(G.mul(G.stack([oracle(m, t) for m in maps]), r)), maps)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    for a, b in zip(g_got, g_want):
        assert_close_rel(a, b)


def test_bce_gradient_is_zero_where_the_prediction_is_clamped():
    edge = np.array([0.0, obj.CLAMP_EPS, 1.0 - obj.CLAMP_EPS, 1.0, 0.5])
    p = Tensor(np.tile(edge, (2, 1, 1, 2)), requires_grad=True)
    t = Tensor(np.tile([1.0, 0.0, 1.0, 0.0, 1.0], (2, 1, 1, 2)))
    obj.bce(p, t).backward()
    clamped = np.tile(edge, (2, 1, 1, 2)) != 0.5
    assert (p.grad[clamped] == 0.0).all()
    assert (p.grad[~clamped] != 0.0).all()


# -- bytes independent of the BLAS thread count ----------------------------------

THREAD_PROBE = """
import hashlib
import numpy as np
from spikesal import grad as G, objective as obj
for size in (64, 128):
    rng = np.random.default_rng(size)
    maps = [G.Tensor(rng.uniform(0.0, 1.0, (2, 1, size, size)),
                     requires_grad=True) for _ in range(5)]
    target = G.Tensor((rng.random((2, 1, size, size)) < 0.4) * 1.0)
    loss = obj.multi_step_loss(maps, target)
    loss.backward()
    h = hashlib.sha256(loss.data.tobytes())
    for m in maps:
        h.update(m.grad.tobytes())
    print(size, h.hexdigest())
"""


def test_multi_step_loss_bytes_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]
