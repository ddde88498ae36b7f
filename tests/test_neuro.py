"""LIF dynamics against a straight-line oracle, and CBS block behaviour."""

import numpy as np
import pytest

from spikesal import grad as G
from spikesal import neuro
from spikesal.neuro import LIFParams, LIFNeuron, CBSBlock, lif_step


def lif_oracle(xs, tau, v_th, v_reset):
    """Deliberately plain reimplementation of the update equations."""
    v = np.full_like(np.asarray(xs[0], dtype=float), v_reset)
    spikes = []
    for x in xs:
        h = v + (x - (v - v_reset)) / tau
        s = (h >= v_th).astype(float)
        v = h * (1.0 - s) + v_reset * s
        spikes.append(s)
    return spikes, v


def test_lif_matches_oracle_on_random_cases():
    rng = np.random.default_rng(0)
    for _ in range(200):
        tau = rng.uniform(1.1, 5.0)
        v_th = rng.uniform(0.3, 2.0)
        v_reset = rng.uniform(-0.5, v_th - 0.1)
        steps = int(rng.integers(1, 12))
        xs = [rng.standard_normal(7) * rng.uniform(0.5, 3.0) for _ in range(steps)]
        p = LIFParams(tau=tau, v_th=v_th, v_reset=v_reset)
        want_s, want_v = lif_oracle(xs, tau, v_th, v_reset)
        v = None
        for x, ws in zip(xs, want_s):
            v, s = lif_step(v, G.Tensor(x), p)
            assert np.max(np.abs(s.data - ws)) < 1e-12
        assert np.max(np.abs(v.data - want_v)) < 1e-12


def test_membrane_stays_below_threshold():
    rng = np.random.default_rng(1)
    p = LIFParams(tau=2.0, v_th=1.0, v_reset=0.0)
    v = None
    for _ in range(50):
        v, _ = lif_step(v, G.Tensor(rng.standard_normal(32) * 2.0), p)
        assert np.all(v.data < p.v_th)


def test_spike_at_exact_threshold():
    p = LIFParams(tau=2.0, v_th=1.0, v_reset=0.0)
    _, s = lif_step(None, G.Tensor([2.0]), p)  # h = 2/2 = 1.0 exactly
    assert s.data[0] == 1.0


def test_constant_drive_converges_or_fires():
    # the membrane relaxes toward x, so sub-threshold drive stays silent
    p = LIFParams(tau=2.0, v_th=1.0, v_reset=0.0)
    v = None
    for _ in range(30):
        v, s = lif_step(v, G.Tensor([0.8]), p)
        assert s.data[0] == 0.0
    assert v.data[0] == pytest.approx(0.8, abs=1e-6)
    # supra-threshold drive fires periodically: 0.6, 0.9, 1.05 -> spike
    v, out = None, []
    for _ in range(9):
        v, s = lif_step(v, G.Tensor([1.2]), p)
        out.append(int(s.data[0]))
    assert out == [0, 0, 1, 0, 0, 1, 0, 0, 1]


def test_stateful_neuron_carry_and_reset():
    p = LIFParams(tau=2.0, v_th=1.0, v_reset=0.0)
    n = LIFNeuron(p)
    first = n.step(G.Tensor([1.5])).data[0]
    second = n.step(G.Tensor([1.5])).data[0]
    assert (first, second) == (0.0, 1.0)  # 0.75 then 1.125 crosses
    n.reset_state()
    assert n.step(G.Tensor([1.5])).data[0] == 0.0


def test_reset_path_is_detached():
    # two hard steps; only the membrane carry (1 - s1)(1 - 1/tau)/tau
    # should transport gradient from s2 back to x1
    tau = 2.0
    p = LIFParams(tau=tau, v_th=1.0, v_reset=0.0)
    x1 = G.Tensor([1.0], requires_grad=True)
    x2 = G.Tensor([0.7], requires_grad=True)
    v, s1 = lif_step(None, x1, p)
    v, s2 = lif_step(v, x2, p)
    s2.backward(np.ones(1))
    h1 = 1.0 / tau
    h2 = v.data  # not needed, recompute:
    h2 = h1 * (1 - 1 / tau) + 0.7 / tau
    slope2 = G.surrogate_slope(np.array([h2]), 1.0, 2.0)[0]
    want = slope2 * (1.0 - 1.0 / tau) * (1.0 / tau)
    assert x1.grad[0] == pytest.approx(want, rel=1e-12)
    assert x2.grad[0] == pytest.approx(slope2 / tau, rel=1e-12)


def test_soft_mode_full_step_is_differentiable():
    rng = np.random.default_rng(2)
    xs = [G.Tensor(rng.standard_normal(5), requires_grad=True) for _ in range(3)]
    p = LIFParams()
    r = G.Tensor(rng.uniform(0.5, 1.5, 5))

    def f():
        v, total = None, None
        with G.relaxed():
            for x in xs:
                v, s = lif_step(v, x, p)
                total = G.sum_(s * r) if total is None else total + G.sum_(s * r)
        return total + G.sum_(v * r)

    assert G.check_gradients(f, xs, h=1e-4) < 1e-4


def test_lifparams_validation():
    with pytest.raises(ValueError):
        LIFParams(tau=0.0)


# -- CBS block -------------------------------------------------------------------


def test_cbs_shapes_and_binarity():
    rng = np.random.default_rng(3)
    blk = CBSBlock(rng, 2, 8, LIFParams(), pool=True, stateful=True)
    x = G.Tensor(rng.uniform(0, 3, (6, 2, 16, 16)))  # 3 steps x batch 2
    out = blk.forward(x, steps=3)
    assert out.shape == (6, 8, 8, 8)
    assert np.isin(out.data, (0.0, 1.0)).all()


def test_cbs_no_pool_keeps_resolution():
    rng = np.random.default_rng(4)
    blk = CBSBlock(rng, 4, 4, LIFParams(), pool=False)
    out = blk.forward(G.Tensor(rng.uniform(0, 2, (2, 4, 10, 10))))
    assert out.shape == (2, 4, 10, 10)


def test_cbs_zero_input_is_silent():
    rng = np.random.default_rng(5)
    for stateful in (False, True):
        blk = CBSBlock(rng, 3, 5, LIFParams(), pool=True, stateful=stateful)
        out = blk.forward(G.Tensor(np.zeros((4, 3, 8, 8))), steps=2)
        assert np.all(out.data == 0.0)
        blk.eval()
        out = blk.forward(G.Tensor(np.zeros((4, 3, 8, 8))), steps=2)
        assert np.all(out.data == 0.0)


def test_cbs_stateful_differs_from_stateless():
    rng = np.random.default_rng(6)
    mk = lambda st: CBSBlock(np.random.default_rng(42), 1, 4, LIFParams(),
                             pool=False, stateful=st)
    x = G.Tensor(rng.uniform(0, 4, (6, 1, 8, 8)))
    a = mk(True).forward(x, steps=3)
    b = mk(False).forward(x, steps=3)
    # identical params; the membrane carry must change later steps
    assert a.shape == b.shape
    assert not np.array_equal(a.data, b.data)
    # step 1 sees a fresh membrane in both regimes
    assert np.array_equal(a.data[:2], b.data[:2])


def test_cbs_state_survives_calls_until_reset():
    rng = np.random.default_rng(7)
    blk = CBSBlock(rng, 1, 4, LIFParams(), pool=False, stateful=True)
    x = G.Tensor(rng.uniform(0, 2, (1, 1, 6, 6)))
    blk.eval()  # freeze BN stats so both calls see the same normalization
    first = blk.forward(x).data.copy()
    second = blk.forward(x).data.copy()
    blk.reset_state()
    again = blk.forward(x).data.copy()
    assert np.array_equal(first, again)
    assert not np.array_equal(first, second)


def test_cbs_param_names_stable():
    blk = CBSBlock(np.random.default_rng(8), 2, 3, LIFParams())
    names = sorted(n for n, _ in blk.named_parameters())
    assert names == ["beta", "gamma", "weight"]
    buffers = sorted(n for n, _ in blk.named_buffers())
    assert buffers == ["running_mean", "running_var"]
