"""LIF dynamics against a straight-line oracle, the fused scan against the
composed graph ops it replaces, and CBS block behaviour."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from spikesal import grad as G
from spikesal import neuro, rst
from spikesal.grad.tensor import _accumulate, _give, make
from spikesal.neuro import LIFParams, LIFNeuron, CBSBlock, lif_fire, lif_step
from spikesal.objective import LossConfig, map_loss, multi_step_loss
from spikesal.optim import AdamW

from checkpoint_models import FIXTURE, float64_model


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


# -- fused scan against the composed ops ------------------------------------------


def separate_batchnorm(x, bn):
    """A training-mode unit's batchnorm ``bn`` (gamma, beta, running_mean,
    running_var) applied to x as its own ``G.batchnorm`` node; x itself
    when ``bn`` is None."""
    return x if bn is None else G.batchnorm(x, *bn, training=True)


def composed_lif_step(v, x, p, steps=1, bn=None):
    """The hard LIF step as separate graph ops on per-step slices of the
    folded input: the reference ``G.lif_scan`` must equal byte for byte.
    With a unit's ``bn``, x first passes the separate ``G.batchnorm``."""
    x = G.as_tensor(separate_batchnorm(x, bn))
    if steps > 1:
        b = x.shape[0] // steps
        spikes = []
        for t in range(steps):
            v, s = composed_lif_step(v, x[t * b:(t + 1) * b], p)
            spikes.append(s)
        return v, G.concat(spikes, axis=0)
    if v is None:
        h = G.add(G.div(x, p.tau), p.v_reset)
    else:
        h = G.add(v, G.div(G.sub(x, G.sub(v, p.v_reset)), p.tau))
    s = G.spike_gate(h, v_th=p.v_th, alpha=p.alpha)
    gate = s.detach()
    v_next = G.add(G.mul(h, G.sub(1.0, gate)), G.mul(gate, p.v_reset))
    return v_next, s


def channels_innermost(a):
    """Same values as ``a`` (N, C, H, W), stored with C varying fastest."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def assert_same_array(got, want, what):
    assert got.strides == want.strides, what
    assert got.tobytes() == want.tobytes(), what


def scan_case(seed, steps, layout, batch=2):
    """Input, carried membrane and readouts. A fifth of the input sits
    where a fresh or just-reset membrane lands exactly on v_th. tau = 3
    makes gh - gh/tau and gh*(1 - 1/tau) round apart; readouts hold some
    -0.0, whose sign the composed ops turn to +0.0 on several steps."""
    p = LIFParams(tau=3.0, v_th=1.0, v_reset=0.5)
    rng = np.random.default_rng(seed)
    shape = (steps * batch, 3, 4, 6)
    x = rng.standard_normal(shape) * 2.0
    x[rng.random(shape) < 0.2] = (p.v_th - p.v_reset) * p.tau
    v0 = rng.uniform(-0.5, 0.99, (batch,) + shape[1:])
    if layout == "channels-innermost":
        x, v0 = channels_innermost(x), channels_innermost(v0)
    rs, rv = rng.standard_normal(shape), rng.standard_normal(v0.shape)
    rs[rng.random(shape) < 0.1] = -0.0
    rv[rng.random(v0.shape) < 0.1] = -0.0
    return p, x, v0, rs, rv


def run_scan(step, p, x, v0, rs, rv, steps):
    xt = G.Tensor(x, requires_grad=True)
    vt = None if v0 is None else G.Tensor(v0, requires_grad=True)
    v, s = step(vt, xt, p, steps)
    loss = G.sum_(s * G.Tensor(rs)) + G.sum_(v * G.Tensor(rv))
    loss.backward()
    out = {"spikes": s.data, "membrane": v.data, "x.grad": xt.grad}
    if vt is not None:
        out["v.grad"] = vt.grad
    return out


@pytest.mark.parametrize("layout", ["C", "channels-innermost"])
@pytest.mark.parametrize("steps", [1, 3, 5])
@pytest.mark.parametrize("stateful", [False, True])
def test_fused_scan_equals_composed_ops(stateful, steps, layout):
    p, x, v0, rs, rv = scan_case(steps * 10 + stateful, steps, layout)
    v0 = v0 if stateful else None
    want = run_scan(composed_lif_step, p, x, v0, rs, rv, steps)
    got = run_scan(lif_step, p, x, v0, rs, rv, steps)
    assert np.isin(got["spikes"], (0.0, 1.0)).all()
    assert got.keys() == want.keys()
    for key in want:
        assert_same_array(got[key], want[key], key)


@pytest.mark.parametrize("layout", ["C", "channels-innermost"])
@pytest.mark.parametrize("carry_grad", [False, True])
def test_fused_scan_carries_state_across_calls(carry_grad, layout):
    steps = 3
    p, x1, _, r1, _ = scan_case(1, steps, layout)
    _, x2, _, r2, rv = scan_case(2, steps, layout)
    results = []
    for step in (composed_lif_step, lif_step):
        a = G.Tensor(x1, requires_grad=True)
        b = G.Tensor(x2, requires_grad=True)
        v, s1 = step(None, a, p, steps)
        v, s2 = step(v if carry_grad else v.detach(), b, p, steps)
        loss = (G.sum_(s1 * G.Tensor(r1)) + G.sum_(s2 * G.Tensor(r2))
                + G.sum_(v * G.Tensor(rv)))
        loss.backward()
        results.append({"s1": s1.data, "s2": s2.data, "membrane": v.data,
                        "x1.grad": a.grad, "x2.grad": b.grad})
    want, got = results
    for key in want:
        assert_same_array(got[key], want[key], key)


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("stateful", [False, True])
def test_membrane_only_gradient_equals_composed_ops(stateful, steps):
    # no loss term reads the spikes: the membrane's closure hands the scan
    # a zero spike gradient, so the scan still runs and carries the
    # membrane gradient back to x and v
    p, x, v0, _, rv = scan_case(steps * 10 + stateful + 300, steps, "C")
    v0 = v0 if stateful else None
    results = []
    for step in (composed_lif_step, lif_step):
        xt = G.Tensor(x, requires_grad=True)
        vt = None if v0 is None else G.Tensor(v0, requires_grad=True)
        v, _ = step(vt, xt, p, steps)
        G.sum_(v * G.Tensor(rv)).backward()
        results.append({"x.grad": xt.grad}
                       | ({} if vt is None else {"v.grad": vt.grad}))
    want, got = results
    assert got.keys() == want.keys()
    assert np.abs(got["x.grad"]).max() > 0.0
    for key in want:    # one step's zero gradients may differ in sign
        assert got[key].strides == want[key].strides, key
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_fused_scan_graph_free_without_grad(monkeypatch):
    def refuse(*_args):
        raise AssertionError("surrogate slope computed for a graph-free scan")

    p, x, v0, _, _ = scan_case(3, 3, "C")
    with monkeypatch.context() as m, G.no_grad():
        m.setattr(G.nnops, "surrogate_slope", refuse)
        v, s = lif_step(G.Tensor(v0), G.Tensor(x, requires_grad=True), p, 3)
    assert not s.requires_grad and not v.requires_grad
    want_v, want_s = composed_lif_step(G.Tensor(v0), G.Tensor(x), p, 3)
    assert_same_array(s.data, want_s.data, "spikes")
    assert_same_array(v.data, want_v.data, "membrane")


def recorded_scan(x, steps, p, v=None, membrane=True):
    """The LIF scan as a recording loop: fresh per-step h and spike arrays,
    the spikes joined by one concatenate, and the reverse scan over them:
    the oracle that ``G.lif_scan``, with and without ``membrane``, must
    equal byte for byte, values and layouts, recording or graph-free."""
    tau, v_th, v_reset, alpha = p.tau, p.v_th, p.v_reset, p.alpha
    x = G.as_tensor(x)
    v = None if v is None else G.as_tensor(v)
    xd, vd = x.data, None if v is None else v.data
    b = xd.shape[0] // steps
    soft = G.relaxed_enabled()
    hs, spikes = [], []
    for t in range(steps):
        xt = xd[t * b:(t + 1) * b]
        if vd is None:
            h = xt / tau
            h += v_reset
        else:
            h = xt - (vd - v_reset)
            h /= tau
            h = vd + h
        if soft:
            st = G.soft_gate_value(h, v_th, alpha)
        else:
            st = (h >= v_th).astype(h.dtype)
        if membrane or t < steps - 1:
            keep = 1.0 - st
            keep *= h
            vd = st * v_reset
            vd += keep
        spikes.append(st)
        hs.append(h)
    s = spikes[0] if steps == 1 else np.concatenate(spikes)
    carry = [None]

    def vjp(g):
        gv = carry[0]
        want_v = v is not None and v.requires_grad
        gx = np.empty_like(xd) if steps > 1 else None
        for t in reversed(range(steps)):
            rows = slice(t * b, (t + 1) * b)
            gs = g[rows]
            if soft and gv is not None:
                gs = gs + gv * (v_reset - hs[t])
            gh = G.surrogate_slope(hs[t], v_th, alpha)
            if t == 0 and (steps == 1 or want_v):
                gh = gs * gh
            else:
                gh *= gs
            if gv is not None:
                keep = 1.0 - spikes[t]
                keep *= gv
                gh += keep
            if steps == 1:
                gx = gh / tau
            else:
                np.divide(gh, tau, out=gx[rows])
            gv = None
            if t or want_v:
                gv = np.subtract(gh, gx[rows], out=gh)
        if x.requires_grad:
            if steps > 1:
                gx += 0.0
            _give(x, gx)
        if want_v:
            _accumulate(v, gv)

    s_out = make(s, (x,) if v is None else (x, v), vjp)
    if not membrane:
        return None, s_out

    def vjp_v(g):
        carry[0] = g
        if s_out.grad is None:
            s_out.grad = np.zeros_like(s)

    return make(vd, (s_out,), vjp_v), s_out


def scan_input(steps, layout, dtype, carried, seed=40):
    """A scan case in ``dtype``; "zero-stride" is one image repeated over
    the steps as the read-only view ``neuro.repeat_steps`` gives."""
    batch = 1 if layout == "zero-stride" else 2
    p, x, v0, rs, rv = scan_case(seed + steps, steps, "C" if layout ==
                                 "zero-stride" else layout, batch)
    x = x.astype(dtype, copy=False)
    if layout == "zero-stride":
        x = neuro.repeat_steps(x[:1], steps)
        assert x.strides[0] == 0 or steps == 1
    v0 = v0.astype(dtype, copy=False) if carried else None
    return p, x, v0, rs, rv


def run_both_scans(scan, fire, x, v0, rs, rv, steps, graph):
    """Spikes, membrane and the spikes of a fresh one-step fire where the
    case is one; recording, also the input and membrane gradients of
    sum(s * rs) + sum(v * rv)."""
    with contextlib.ExitStack() as ctx:
        if not graph:
            ctx.enter_context(G.no_grad())
        xt = G.Tensor(x, requires_grad=True)
        vt = None if v0 is None else G.Tensor(v0, requires_grad=True)
        v, s = scan(vt, xt, steps)
        fired = fire(xt) if steps == 1 and v0 is None else None
    assert s.requires_grad == graph
    out = {"spikes": s.data, "membrane": v.data}
    if fired is not None:
        out["fire spikes"] = fired.data
    if graph:
        (G.sum_(s * G.Tensor(rs)) + G.sum_(v * G.Tensor(rv))).backward()
        out["x.grad"] = xt.grad
        if vt is not None:
            out["v.grad"] = vt.grad
        if fired is not None:
            xf = G.Tensor(x, requires_grad=True)
            G.sum_(fire(xf) * G.Tensor(rs)).backward()
            out["fire x.grad"] = xf.grad
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["C", "channels-innermost", "zero-stride"])
@pytest.mark.parametrize("carried", [False, True])
@pytest.mark.parametrize("steps", [1, 5])
@pytest.mark.parametrize("relaxed", [False, True])
def test_graph_free_scan_equals_recorded_scan(relaxed, steps, carried, layout,
                                              dtype):
    """The one scan loop, graph-free (one h reused) and recording (one h
    kept per step), gives the spikes, membrane and gradients of the
    recording loop with per-step arrays byte for byte, layout included,
    and leaves its inputs as they were."""
    p, x, v0, rs, rv = scan_input(steps, layout, dtype, carried)
    x_before = x.copy()
    v_before = None if v0 is None else v0.copy()
    with G.relaxed() if relaxed else contextlib.nullcontext():
        want = run_both_scans(
            lambda v, x, n: recorded_scan(x, n, p, v),
            lambda x: recorded_scan(x, 1, p, membrane=False)[1],
            x, v0, rs, rv, steps, graph=True)
        for graph in (True, False):
            got = run_both_scans(lambda v, x, n: lif_step(v, x, p, n),
                                 lambda x: lif_fire(x, p),
                                 x, v0, rs, rv, steps, graph)
            assert got["spikes"].dtype == dtype
            assert got["membrane"].dtype == dtype
            assert got.keys() == (want.keys() if graph else
                                  {k for k in want if "grad" not in k})
            for key in got:
                assert_same_array(got[key], want[key], key)
    assert np.array_equal(x, x_before)
    if v0 is not None:
        assert np.array_equal(v0, v_before)


@pytest.mark.parametrize("graph", [True, False])
@pytest.mark.parametrize("steps", [1, 5])
def test_scan_outputs_take_the_layout_of_x_alone(steps, graph):
    """A channels-innermost x with a C-ordered carried membrane: the scan
    gives the recording loop's spikes and membrane values, laid out as x,
    where the loop's separate ops turn out C-ordered arrays."""
    p, x, v0, _, _ = scan_case(46, steps, "channels-innermost")
    v0 = np.ascontiguousarray(v0)
    want_v, want_s = recorded_scan(x, steps, p, v0)
    assert want_s.data.flags.c_contiguous and want_v.data.flags.c_contiguous
    with contextlib.nullcontext() if graph else G.no_grad():
        v, s = lif_step(G.Tensor(v0, requires_grad=True),
                        G.Tensor(x, requires_grad=True), p, steps)
    assert s.requires_grad == graph
    for got, want in ((s.data, want_s.data), (v.data, want_v.data)):
        assert got.strides == x.strides
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_repeated_input_reaches_the_scan_as_a_zero_stride_view(monkeypatch):
    """A graph-free eval forward of one image hands the stateful scan the
    batchnorm output of the first step as a view repeated over the steps,
    not a tiled copy."""
    seen = []
    real = G.lif_scan
    monkeypatch.setattr(G, "lif_scan", lambda x, *a, **k: seen.append(
        G.as_tensor(x).data.strides) or real(x, *a, **k))
    blk = CBSBlock(np.random.default_rng(14), 1, 5, LIFParams(), pool=False,
                   stateful=True)
    blk.eval()
    x = G.Tensor(neuro.repeat_steps(np.ones((1, 1, 6, 6)), 4))
    with G.no_grad():
        blk.forward(x, steps=4, repeated=True)
    assert seen and seen[0][0] == 0


def composed_lif_fire(x, p, bn=None):
    return composed_lif_step(None, x, p, bn=bn)[1]


@pytest.mark.parametrize("layout", ["C", "channels-innermost"])
def test_lif_fire_equals_composed_fresh_step(layout, monkeypatch):
    """The spikes-only fresh step gives the composed ops' spikes and input
    gradient byte for byte (layout included), and graph-free it computes
    no slope."""
    p, x, _, rs, _ = scan_case(7, 1, layout)
    results = []
    for fire in (composed_lif_fire, lif_fire):
        xt = G.Tensor(x, requires_grad=True)
        s = fire(xt, p)
        G.sum_(s * G.Tensor(rs)).backward()
        results.append((s.data, xt.grad))
    (want_s, want_g), (got_s, got_g) = results
    assert_same_array(got_s, want_s, "spikes")
    assert_same_array(got_g, want_g, "x.grad")

    def refuse(*_args):
        raise AssertionError("graph-free fresh step computed a slope")
    with monkeypatch.context() as m, G.no_grad():
        m.setattr(G.nnops, "surrogate_slope", refuse)
        s = lif_fire(G.Tensor(x, requires_grad=True), p)
    assert not s.requires_grad
    assert_same_array(s.data, want_s, "graph-free spikes")


def test_lif_fire_relaxed_equals_relaxed_scan():
    p, x, _, rs, _ = scan_case(8, 1, "C")
    results = []
    for fire in (lambda xt: lif_step(None, xt, p)[1], lambda xt: lif_fire(xt, p)):
        xt = G.Tensor(x, requires_grad=True)
        with G.relaxed():
            s = fire(xt)
        G.sum_(s * G.Tensor(rs)).backward()
        results.append((s.data, xt.grad))
    (want_s, want_g), (got_s, got_g) = results
    assert ((got_s > 0.0) & (got_s < 1.0)).all()
    assert_same_array(got_s, want_s, "spikes")
    assert_same_array(got_g, want_g, "x.grad")


def test_fused_scan_rejects_ragged_fold():
    with pytest.raises(ValueError):
        lif_step(None, G.Tensor(np.zeros((5, 2))), LIFParams(), steps=2)
    with G.relaxed(), pytest.raises(ValueError):
        lif_step(None, G.Tensor(np.zeros((5, 2))), LIFParams(), steps=2)


# -- relaxed scan against the composed ops ----------------------------------------


def composed_relaxed_lif_step(v, x, p, steps=1):
    """The relaxed LIF step as separate graph ops on per-step slices of the
    folded input: smooth gate, a reset that keeps its gate's gradient, and
    ``concat``. The reference for ``G.lif_scan`` under ``G.relaxed()``."""
    x = G.as_tensor(x)
    b = x.shape[0] // steps
    spikes = []
    for t in range(steps):
        xt = x[t * b:(t + 1) * b] if steps > 1 else x
        if v is None:
            h = G.add(G.div(xt, p.tau), p.v_reset)
        else:
            h = G.add(v, G.div(G.sub(xt, G.sub(v, p.v_reset)), p.tau))
        s = G.spike_gate(h, v_th=p.v_th, alpha=p.alpha)
        v = G.add(G.mul(h, G.sub(1.0, s)), G.mul(s, p.v_reset))
        spikes.append(s)
    return v, spikes[0] if steps == 1 else G.concat(spikes, axis=0)


def assert_close_grad(got, want, what, rel=1e-13):
    assert got.shape == want.shape, what
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want)), what


def relaxed_run(step, p, x1, x2, v0, r1, r2, rv, steps, spike_grad=True):
    """One or two chained relaxed calls (``x2`` None for one), then a loss
    over the spikes (unless ``spike_grad`` is False) and the membrane."""
    xs = [G.Tensor(x, requires_grad=True) for x in (x1, x2) if x is not None]
    vt = None if v0 is None else G.Tensor(v0, requires_grad=True)
    out, loss, v = {}, None, vt
    with G.relaxed():
        for i, (xt, r) in enumerate(zip(xs, (r1, r2))):
            v, s = step(v, xt, p, steps)
            out[f"s{i}"] = s.data
            if spike_grad:
                t = G.sum_(s * G.Tensor(r))
                loss = t if loss is None else loss + t
        t = G.sum_(v * G.Tensor(rv))
        loss = t if loss is None else loss + t
    loss.backward()
    out["membrane"] = v.data
    grads = {f"x{i}.grad": xt.grad for i, xt in enumerate(xs)}
    if vt is not None:
        grads["v.grad"] = vt.grad
    return out, grads


@pytest.mark.parametrize("stateful, steps, carried, spike_grad", [
    pytest.param(st, t, False, True, id=f"{'stateful' if st else 'fresh'}-T{t}")
    for st in (False, True) for t in (1, 3, 5)
] + [
    pytest.param(False, 3, True, True, id="carried-fresh-T3"),
    pytest.param(True, 1, True, True, id="carried-stateful-T1"),
    pytest.param(False, 3, False, False, id="membrane-only-fresh-T3"),
    pytest.param(True, 5, False, False, id="membrane-only-stateful-T5"),
])
def test_relaxed_scan_matches_composed_ops(stateful, steps, carried,
                                           spike_grad):
    p, x1, v0, r1, rv = scan_case(steps * 10 + stateful + 100, steps, "C")
    _, x2, _, r2, _ = scan_case(steps + 200, steps, "C")
    x2 = x2 if carried else None
    v0 = v0 if stateful else None
    want, want_g = relaxed_run(composed_relaxed_lif_step, p, x1, x2, v0,
                               r1, r2, rv, steps, spike_grad)
    got, got_g = relaxed_run(lif_step, p, x1, x2, v0, r1, r2, rv, steps,
                             spike_grad)
    assert ((got["s0"] > 0.0) & (got["s0"] < 1.0)).all()
    assert got.keys() == want.keys() and got_g.keys() == want_g.keys()
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), key
    for key in want_g:
        assert_close_grad(got_g[key], want_g[key], key)


def train_small_model(mode):
    """Three AdamW steps of a small model; returns every parameter and
    running statistic."""
    cfg = rst.RSTConfig(dim=16, heads=2, steps=3, rfa_blocks=1)
    model = rst.RSTModel(cfg, np.random.default_rng(0))
    opt = AdamW(model.named_parameters(), lr=1e-2)
    rng = np.random.default_rng(1)
    target = G.Tensor((rng.random((2, 1, 32, 32)) < 0.4).astype(float))
    model.reset_state()
    for _ in range(3):
        x = rng.random((2, 1, 32, 32)) * 3.0
        maps = model.forward_full(x, mode)
        if mode == "multi":
            loss = multi_step_loss(maps, target, LossConfig(steps=cfg.steps))
        else:
            loss = map_loss(maps[0], target)
        opt.zero_grad()
        loss.backward()
        opt.step()
        model.detach_state()
    return {k: np.array(a, copy=True) for k, a in model.state_dict().items()}


def count_calls(monkeypatch, owner, name, calls):
    """Append ``name`` to ``calls`` at each call of ``owner.name``; for
    "batchnorm_lif", at each ``owner.lif_scan`` call handed a unit's
    batchnorm: the one node of a training-mode conv-BN-spike unit."""
    if name != "batchnorm_lif":
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name)
                            or real(*a, **k))
        return
    scan = owner.lif_scan

    def fused(*a, bn=None, **k):
        if bn is not None:
            calls.append(name)
        return scan(*a, bn=bn, **k)
    monkeypatch.setattr(owner, "lif_scan", fused)


@pytest.mark.parametrize("mode", ["multi", "single"])
def test_training_with_fused_scan_equals_composed_ops(mode, monkeypatch):
    """Training through one ``G.lif_scan`` node with a ``bn`` per
    conv-BN-spike unit gives the bytes of training through ``G.batchnorm``
    and the composed LIF ops. Both runs count the nodes they record, so
    neither comparison can pass by running the same path twice."""
    calls = []
    with monkeypatch.context() as m:
        for name in ("batchnorm", "batchnorm_lif"):
            count_calls(m, G, name, calls)
        fused = train_small_model(mode)
        assert calls.count("batchnorm") == 0
        units = calls.count("batchnorm_lif")
        assert units > 0
        calls.clear()
        m.setattr(neuro, "lif_step", composed_lif_step)
        m.setattr(rst, "lif_step", composed_lif_step)
        m.setattr(neuro, "lif_fire", composed_lif_fire)
        m.setattr(rst, "lif_fire", composed_lif_fire)
        composed = train_small_model(mode)
    assert calls.count("batchnorm_lif") == 0
    assert calls.count("batchnorm") == units
    assert fused.keys() == composed.keys()
    for key in composed:
        assert fused[key].tobytes() == composed[key].tobytes(), key


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
    blk.lif.reset_state()
    again = blk.forward(x).data.copy()
    assert np.array_equal(first, again)
    assert not np.array_equal(first, second)


def test_cbs_param_names_stable():
    blk = CBSBlock(np.random.default_rng(8), 2, 3, LIFParams())
    names = sorted(n for n, _ in blk.named_parameters())
    assert names == ["beta", "gamma", "weight"]
    buffers = sorted(n for n, _ in blk.named_buffers())
    assert buffers == ["running_mean", "running_var"]


# -- one graph node per training-mode unit ----------------------------------------


def separate_lif_step(v, x, p, steps=1, bn=None, membrane=True):
    """``neuro.lif_step`` as the separate chain: ``G.batchnorm`` and then
    ``G.lif_scan``, two graph nodes."""
    return G.lif_scan(separate_batchnorm(x, bn), steps, p.tau, p.v_th,
                      p.v_reset, p.alpha, v, membrane=membrane)


def separate_lif_fire(x, p, bn=None):
    return G.lif_scan(separate_batchnorm(x, bn), 1, p.tau, p.v_th,
                      p.v_reset, p.alpha, membrane=False)[1]


UNIT_SHAPES = {"pool": dict(pool=True), "no-pool": dict(pool=False),
               "upsample": dict(pool=False, upsample=True)}


def run_unit(shape, membrane, steps, readout, separate, monkeypatch):
    """Two training-mode forwards of one conv-BN-spike unit (a second one
    carries the membrane of the first, with its graph) and a backward of
    random readouts of the spikes and the final membrane. The loss reads
    the spikes through a transpose with ``readout`` "transposed", so their
    gradient arrives channels-innermost."""
    p = LIFParams(tau=3.0, v_th=1.0, v_reset=0.5)
    rng = np.random.default_rng(steps * 7 + len(shape) + len(membrane))
    blk = CBSBlock(np.random.default_rng(50), 3, 4, p,
                   stateful=membrane != "stateless", **UNIT_SHAPES[shape])
    blk.gamma.data[:] = rng.uniform(-1.5, 2.0, 4)
    blk.beta.data[:] = rng.standard_normal(4)
    blk.running_mean[:] = rng.standard_normal(4)
    blk.running_var[:] = rng.uniform(0.5, 2.0, 4)
    calls = (1, 2) if membrane == "carried" else (1,)
    xs = [G.Tensor(rng.uniform(-1, 3, (steps * 2, 3, 6, 8)),
                   requires_grad=True) for _ in calls]
    with monkeypatch.context() as m:
        if separate:
            m.setattr(neuro, "lif_step", separate_lif_step)
            m.setattr(neuro, "lif_fire", separate_lif_fire)
        outs = [blk.forward(x, steps) for x in xs]
    loss = G.Tensor(0.0)
    for out in outs:
        r = rng.standard_normal(out.shape)
        r[rng.random(out.shape) < 0.1] = -0.0
        if readout == "transposed":
            loss = loss + G.sum_(G.transpose(out, (0, 2, 3, 1))
                                 * G.Tensor(r.transpose(0, 2, 3, 1).copy()))
        else:
            loss = loss + G.sum_(out * G.Tensor(r))
    got = {f"spikes{i}": o.data for i, o in enumerate(outs)}
    if blk.stateful:
        got["membrane"] = blk.lif.state.data
        loss = loss + G.sum_(blk.lif.state
                             * G.Tensor(rng.standard_normal(
                                 blk.lif.state.shape)))
    loss.backward()
    got |= {f"x{i}.grad": x.grad for i, x in enumerate(xs)}
    got |= {name + ".grad": t.grad for name, t in blk.named_parameters()}
    got |= {name: np.array(a) for name, a in blk.named_buffers()}
    return got


@pytest.mark.parametrize("readout", ["C", "transposed"])
@pytest.mark.parametrize("membrane", ["stateless", "fresh", "carried"])
@pytest.mark.parametrize("steps", [1, 5])
@pytest.mark.parametrize("shape", list(UNIT_SHAPES))
def test_fused_unit_equals_separate_chain(shape, steps, membrane, readout,
                                          monkeypatch):
    """A training-mode unit's one ``G.lif_scan`` node with its ``bn`` gives
    the spikes, membrane, running statistics and the input, weight, gamma
    and beta gradients of ``G.batchnorm`` followed by the LIF scan, byte
    for byte and layout included."""
    want = run_unit(shape, membrane, steps, readout, True, monkeypatch)
    got = run_unit(shape, membrane, steps, readout, False, monkeypatch)
    assert got.keys() == want.keys()
    assert 0.0 < got["spikes0"].mean() < 1.0
    for key in want:
        assert_same_array(got[key], want[key], key)


@pytest.mark.parametrize("stateful", [False, True])
def test_fused_unit_graph_free_and_relaxed_run_the_fused_node(
        stateful, monkeypatch):
    """Under ``no_grad`` a training-mode unit still runs the fused node and
    gives the separate chain's spikes and statistics; under ``G.relaxed()``
    it runs the fused node too, and only eval mode runs ``G.batchnorm``."""
    calls = []
    for name in ("batchnorm", "batchnorm_lif"):
        count_calls(monkeypatch, G, name, calls)
    x = np.random.default_rng(51).uniform(-1, 3, (6, 2, 6, 6))
    results = []
    for fused in (True, False):
        blk = CBSBlock(np.random.default_rng(52), 2, 3, LIFParams(),
                       stateful=stateful)
        with monkeypatch.context() as m, G.no_grad():
            if not fused:
                m.setattr(neuro, "lif_step", separate_lif_step)
                m.setattr(neuro, "lif_fire", separate_lif_fire)
            out = blk.forward(G.Tensor(x), steps=3)
        results.append([out.data, blk.running_mean, blk.running_var])
    for got, want in zip(*results):
        assert_same_array(got, want, "graph-free")
    assert calls == ["batchnorm_lif", "batchnorm"]
    calls.clear()
    with G.relaxed():
        blk.forward(G.Tensor(x), steps=3)
    blk.eval()
    blk.forward(G.Tensor(x), steps=3)
    assert calls == ["batchnorm_lif", "batchnorm"]


@pytest.mark.parametrize("pool", [False, True])
@pytest.mark.parametrize("stateful", [False, True])
def test_relaxed_training_unit_matches_finite_differences(stateful, pool,
                                                         monkeypatch):
    """Under ``G.relaxed()`` a training-mode unit runs its one
    ``G.lif_scan`` node with its ``bn`` over 3 steps, and the gradients of
    its input, weight, gamma and beta match finite differences: the
    batchnorm backward training runs, checked through the smooth scan."""
    calls = []
    count_calls(monkeypatch, G, "batchnorm_lif", calls)
    rng = np.random.default_rng(57)
    blk = CBSBlock(np.random.default_rng(58), 2, 3, LIFParams(), pool=pool,
                   stateful=stateful)
    blk.gamma.data[:] = rng.uniform(0.5, 1.5, 3)
    blk.beta.data[:] = rng.standard_normal(3) * 0.2
    x = G.Tensor(rng.uniform(-1, 3, (6, 2, 4, 4)), requires_grad=True)
    r = G.Tensor(rng.standard_normal((6, 3) + ((2, 2) if pool else (4, 4))))
    rv = G.Tensor(rng.standard_normal((2, 3, 4, 4)))

    def f():
        blk.lif.reset_state()
        loss = G.sum_(blk.forward(x, steps=3) * r)
        return loss + G.sum_(blk.lif.state * rv) if stateful else loss

    with G.relaxed():
        err = G.check_gradients(f, [x, blk.weight, blk.gamma, blk.beta],
                                h=1e-4)
    assert err < 1e-6
    assert len(calls) > 0


def test_fused_units_shrink_the_training_graph(monkeypatch):
    """By tracemalloc, a small model's multi-step training forward holds
    clearly fewer bytes with one node per unit than with the separate
    batchnorm and scan nodes."""
    cfg = rst.RSTConfig(dim=16, heads=2, steps=3, rfa_blocks=1)
    x = np.random.default_rng(53).random((2, 1, 32, 32)) * 3.0

    def graph_bytes():
        model = rst.RSTModel(cfg, np.random.default_rng(54))
        model.forward_full(x, "multi")          # warm every code path
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            maps = model.forward_full(x, "multi")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert maps.requires_grad
        return held

    fused = graph_bytes()
    with monkeypatch.context() as m:
        for mod in (neuro, rst):
            m.setattr(mod, "lif_step", separate_lif_step)
            m.setattr(mod, "lif_fire", separate_lif_fire)
        separate = graph_bytes()
    assert fused <= 0.85 * separate, (fused, separate)


# -- threshold form of eval-mode batchnorm + fresh spike ------------------------

F32 = np.float32
LIF_CASES = [LIFParams(), LIFParams(tau=3.7, v_th=0.6, v_reset=-0.25),
             LIFParams(tau=1.3, v_th=0.1, v_reset=0.4)]


def bn_fire(y, gamma, beta, mean, var, p):
    """The spikes the float32 eval-mode batchnorm + lif_fire path gives the
    rows of y, an (n, C) float32 array."""
    with G.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        h = G.batchnorm(G.Tensor(y), gamma, beta, mean, var, training=False)
        return lif_fire(h, p).data > 0


def random_stats(rng, c):
    """float32 batchnorm statistics of c channels: gammas of both signs
    and four magnitudes, a few exactly 0."""
    gamma = rng.standard_normal(c) * rng.choice([1e-30, 1e-3, 1.0, 30.0], c)
    gamma[rng.random(c) < 0.1] = 0.0
    beta = rng.standard_normal(c) * rng.choice([0.1, 3.0], c)
    mean = rng.standard_normal(c) * rng.choice([0.0, 1.0, 1e3], c)
    var = rng.random(c) * rng.choice([0.0, 1.0, 1e4], c)
    return [a.astype(F32) for a in (gamma, beta, mean, var)]


def probe_values(rng, t, n=64):
    """(n + 10, C) float32 probes per channel: t, its two float32
    neighbours, the zeros, infinities, NaN and the finite extremes, and n
    random values spread over many magnitudes."""
    big = float(np.finfo(F32).max)
    with np.errstate(over="ignore"):    # the neighbours of +-big are +-inf
        fixed = [t, np.nextafter(t, F32(np.inf)),
                 np.nextafter(t, F32(-np.inf))]
    fixed += [np.full_like(t, v) for v in (0.0, -0.0, np.inf, -np.inf, np.nan,
                                           big, -big)]
    spread = rng.standard_normal((n, t.size)) \
        * 10.0 ** rng.uniform(-6, 12, (n, t.size))
    return np.vstack([np.stack(fixed), spread.astype(F32)])


def assert_threshold_form(stats, p, rng):
    t, up, ok = neuro.fire_thresholds(*stats, p)
    assert t.dtype == F32 and up.dtype == bool and ok.dtype == bool
    y = probe_values(rng, np.where(ok, t, F32(0)))
    want = bn_fire(y, *stats, p)
    got = np.where(up, y >= t, y <= t)
    assert np.array_equal(got[:, ok], want[:, ok])
    return t, up, ok


@pytest.mark.parametrize("p", LIF_CASES)
def test_fire_thresholds_match_batchnorm_and_spike(p):
    """At the solved t, at both of its float32 neighbours, at the special
    values and at random y, the threshold compare fires exactly where the
    batchnorm + spike path does, for gammas of either sign."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        stats = random_stats(rng, 40)
        t, up, ok = assert_threshold_form(stats, p, rng)
        gamma = stats[0]
        assert not ok[gamma == 0].any()
        assert ok[gamma != 0].all()
        assert np.array_equal(up[ok], gamma[ok] > 0)


@pytest.mark.parametrize("p", LIF_CASES)
def test_fire_thresholds_always_and_never_firing_channels(p):
    """A beta far above or below the threshold makes a channel fire at
    every finite y, or at none: t sits at the finite extreme on the silent
    side, or at the infinity on the firing side."""
    big = np.finfo(F32).max
    gamma = np.array([1e-30, 1e-30, -1e-30, -1e-30], F32)
    beta = np.array([1e30, -1e30, 1e30, -1e30], F32)
    stats = [gamma, beta, np.zeros(4, F32), np.ones(4, F32)]
    t, up, ok = assert_threshold_form(stats, p, np.random.default_rng(42))
    assert ok.all() and up.tolist() == [True, True, False, False]
    assert t.tolist() == [-big, np.inf, big, -np.inf]


@pytest.mark.parametrize("bad", ["nan-mean", "inf-beta", "inf-gamma",
                                 "nan-var", "inf-var", "negative-var"])
def test_fire_thresholds_refuse_channels_without_a_half_line(bad):
    stats = [np.ones(3, F32), np.zeros(3, F32), np.zeros(3, F32),
             np.ones(3, F32)]
    which, value = {"nan-mean": (2, np.nan), "inf-beta": (1, np.inf),
                    "inf-gamma": (0, np.inf), "nan-var": (3, np.nan),
                    "inf-var": (3, np.inf), "negative-var": (3, -1.0)}[bad]
    stats[which][1] = value
    t, _, ok = neuro.fire_thresholds(*stats, LIFParams())
    assert ok.tolist() == [True, False, True]
    assert np.isnan(t[1])


def test_fire_thresholds_refuse_non_finite_lif_parameters():
    stats = [np.ones(2, F32), np.zeros(2, F32), np.zeros(2, F32),
             np.ones(2, F32)]
    for p in (LIFParams(v_th=np.inf), LIFParams(v_reset=np.nan),
              LIFParams(tau=1e300)):
        assert not neuro.fire_thresholds(*stats, p)[2].any()




def whole_order_thresholds(stats, p):
    """Every channel's t by bisection over the whole float32 order, probed
    through ``bn_fire``: the search the solver once fell back to on a side
    where its first bracket missed."""
    sign = np.where(stats[0] > 0, F32(1), F32(-1))
    lo = np.full(sign.shape, neuro._KEY_NEG_INF)
    hi = np.full(sign.shape, neuro._KEY_POS_INF)
    while (hi - lo > 1).any():
        mid = lo + (hi - lo) // 2
        f = bn_fire((sign * neuro._of_key(mid))[None], *stats, p)[0]
        hi, lo = np.where(f, mid, hi), np.where(f, lo, mid)
    return sign * neuro._of_key(hi)


def test_fixture_thresholds_widen_a_missed_bracket(monkeypatch):
    """Some channel of the benchmark fixture has its boundary outside the
    first bracket. Widening that side finds every t bit for bit as a search
    of the whole order does, in at most 20 probes (32 for a whole-order
    fallback)."""
    model = float64_model(FIXTURE)
    stats = [np.concatenate(col).astype(F32) for col in
             zip(*((u.gamma.data, u.beta.data, u.running_mean, u.running_var)
                   for u in model.stateless_units()))]
    p = model.cfg.lif()
    probes = []
    with monkeypatch.context() as m:
        real = G.batchnorm
        m.setattr(G, "batchnorm",
                  lambda *a, **k: probes.append(1) or real(*a, **k))
        t, _, ok = neuro.fire_thresholds(*stats, p)
    assert ok.all() and 13 < len(probes) <= 20
    want = whole_order_thresholds(stats, p)
    assert t.tobytes() == want.tobytes()


def frozen_block(seed, pool, signs, p=LIFParams()):
    """An eval-mode float32 stateless CBS block with random statistics and
    gammas of the given signs."""
    rng = np.random.default_rng(seed)
    blk = CBSBlock(rng, 3, len(signs), p, pool=pool)
    blk.gamma.data = np.asarray(signs) * rng.uniform(0.2, 2.0, len(signs))
    blk.beta.data = rng.standard_normal(len(signs))
    blk.running_mean[:] = rng.standard_normal(len(signs))
    blk.running_var[:] = rng.uniform(0.1, 3.0, len(signs))
    return blk.cast(np.float32).eval()


@pytest.mark.parametrize("signs", [[1, 1, 1, 1], [-1, -1, -1], [1, -1, 1, -1]])
@pytest.mark.parametrize("pool", [False, True])
def test_folded_block_fires_as_its_batchnorm(signs, pool):
    """Graph-free eval forwards through the fold give the batchnorm path's
    spikes, bit for bit; a channel leaves the side opposite its gamma's
    sign open at -inf or +inf."""
    p = LIFParams(tau=2.5, v_th=0.7, v_reset=-0.1)
    blk = frozen_block(9, pool, signs, p)
    x = G.Tensor((np.random.default_rng(10).random((4, 3, 12, 12)) < 0.4)
                 .astype(np.float32))
    with G.no_grad():
        want = blk.forward(x).data
        neuro.fold_thresholds([blk], p)
        got = blk.forward(x).data
    assert blk.fold is not None
    up = np.asarray(signs) > 0
    assert np.array_equal(blk.fold.lo.ravel() == -np.inf, ~up)
    assert np.array_equal(blk.fold.hi.ravel() == np.inf, up)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert np.array_equal(got, want) and 0 < want.mean() < 1


def test_fold_is_used_only_by_graph_free_eval_forwards(monkeypatch):
    blk = frozen_block(11, False, [1, -1, 1])
    neuro.fold_thresholds([blk], LIFParams())
    calls = []
    for name in ("batchnorm", "batchnorm_lif"):
        count_calls(monkeypatch, G, name, calls)
    x = G.Tensor(np.ones((2, 3, 6, 6), np.float32))
    with G.no_grad():
        blk.forward(x)
    assert calls == []
    blk.forward(x)                       # a graph is recorded
    blk.train()                          # training fuses batchnorm and spike
    with G.no_grad():
        blk.forward(x)
    assert calls == ["batchnorm", "batchnorm_lif"]


def test_fold_keeps_batchnorm_for_a_zero_gamma():
    blk = frozen_block(12, False, [1, 0, 1])
    neuro.fold_thresholds([blk], LIFParams())
    assert blk.fold is None


@pytest.mark.parametrize("pool", [False, True])
def test_repeated_input_runs_the_conv_once_and_scans_the_same(pool,
                                                              monkeypatch):
    """A stateful block fed one image repeated at every step gives the same
    spikes and membranes from one conv over the first step's slice; the
    conv still sees every step when a graph is recorded or in training."""
    rng = np.random.default_rng(13)
    img = rng.uniform(0, 2, (2, 1, 10, 10))
    x = G.Tensor(np.tile(img, (4, 1, 1, 1)))
    batches = []
    real = G.conv2d
    monkeypatch.setattr(G, "conv2d",
                        lambda a, *r, **k: batches.append(a.shape[0])
                        or real(a, *r, **k))

    def run(repeated, graph, train=False):
        blk = CBSBlock(np.random.default_rng(14), 1, 5, LIFParams(),
                       pool=pool, stateful=True)
        blk.running_mean[:] = 0.2
        blk.train(train)
        if graph:
            out = blk.forward(x, steps=4, repeated=repeated)
        else:
            with G.no_grad():
                out = blk.forward(x, steps=4, repeated=repeated)
        return out.data, blk.lif.state.data

    want = run(False, graph=False)
    for got in (run(True, graph=False), run(True, graph=True)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert batches == [8, 2, 8]
    run(True, graph=False, train=True)
    assert batches[-1] == 8
