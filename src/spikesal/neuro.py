"""Leaky integrate-and-fire neurons and the conv-BN-spike building block.

One LIF step, elementwise over the input tensor:

    charge  H = V + (X - (V - v_reset)) / tau
    fire    S = 1 where H >= v_th else 0     (arctan surrogate backward)
    reset   V' = H * (1 - S) + v_reset * S   (hard reset to v_reset)

The spike factor in the reset is detached, so gradient reaches earlier
steps only through the membrane carry H, never through the reset switch.
After any step every membrane element sits strictly below v_th whenever
v_reset < v_th: fired elements rest at v_reset, silent ones kept H < v_th.

:func:`lif_step` runs the steps of a folded (steps*batch, ...) input as
the fused ``G.lif_scan``: one graph node whose backward is the
reverse-time scan. :func:`lif_fire` is its stateless form: one step from
a fresh membrane that returns only the spikes. Under ``G.relaxed()`` the
same scan fires through the smooth surrogate gate and keeps the reset's
gradient; that is the form the finite-difference checks differentiate.

Synaptic layers report their own input activity to an active
:class:`trace_activity`, so energy accounting needs no hand-placed calls.

:func:`fire_thresholds` solves the eval-mode form of a stateless unit:
in float32, ``lif_fire(batchnorm(y))`` fires exactly where the raw conv
output y lies on one side of a per-channel threshold, so an inference
copy fires its stateless units through one compare (:class:`FiringInterval`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grad as G
from .grad import Tensor
from .grad.nnops import BN_EPS


@dataclass
class LIFParams:
    tau: float = 2.0
    v_th: float = 1.0
    v_reset: float = 0.0
    alpha: float = 2.0          # surrogate sharpness

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")


# -- activity tracing ----------------------------------------------------------

_ACTIVE_TRACE = None


class trace_activity:
    """Collects per-layer synaptic activity and module-boundary tensors
    during forwards run inside the context. Used by the energy estimator
    and the binarity checks."""

    def __init__(self):
        self.layers = []       # dicts: name, spikes_in, numel_in, fanout, analog
        self.tensors = []      # (name, ndarray)

    def __enter__(self):
        global _ACTIVE_TRACE
        self._prev = _ACTIVE_TRACE
        _ACTIVE_TRACE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TRACE
        _ACTIVE_TRACE = self._prev
        return False


def _emit_layer(name: str, x: np.ndarray, fanout: int):
    tr = _ACTIVE_TRACE
    if tr is None:
        return
    binary = np.isin(x, (0.0, 1.0)).all()
    counts = not binary and x.min() >= 0 and np.array_equal(x, np.round(x))
    # aggregated spike counts: every accumulated unit is one synaptic op
    spikes = float(x.sum(dtype=np.float64)) if counts \
        else float(np.count_nonzero(x))
    analog = not (binary or counts)
    tr.layers.append({"name": name, "spikes_in": spikes,
                      "numel_in": int(x.size), "fanout": int(fanout),
                      "analog": analog})


def _emit_tensor(name: str, x: np.ndarray):
    if _ACTIVE_TRACE is not None:
        _ACTIVE_TRACE.tensors.append((name, np.array(x, copy=True)))


# -- neurons -------------------------------------------------------------------


def lif_step(v, x, p: LIFParams, steps: int = 1):
    """LIF membrane updates over the ``steps`` slices of the folded
    (steps*batch, ...) input, as one ``G.lif_scan`` node. ``v`` is the
    (batch, ...) membrane carried in, or None for a fresh (v_reset) state.

    Returns (v_next, spikes). Under ``G.relaxed()`` the scan fires through
    the smooth surrogate gate and its reset keeps a gradient path, which
    makes the whole scan differentiable for finite-difference checks.
    """
    return G.lif_scan(x, steps, p.tau, p.v_th, p.v_reset, p.alpha, v)


def lif_fire(x, p: LIFParams) -> Tensor:
    """Spikes of one LIF step of every element from a fresh (v_reset)
    membrane: the spikes of ``lif_step(None, x, p)``, without computing
    the membrane that call also returns."""
    return G.lif_fire(x, p.tau, p.v_th, p.v_reset, p.alpha)


# -- threshold form of eval-mode batchnorm + one fresh LIF step -------------------
#
# In float32, eval-mode batchnorm followed by one LIF step from a fresh
# membrane computes, per channel,
#
#     ((((y - mean) * inv) * gamma + beta) / tau) + v_reset >= v_th
#
# with inv = 1 / sqrt(var + eps): a chain of correctly rounded operations,
# each monotone in y (rounding is monotone), non-decreasing except the
# multiplication by gamma, which reverses the order when gamma < 0. With
# finite statistics, gamma != 0 and inv finite and positive, no step makes
# a NaN out of a non-NaN y, +-inf included, so the firing y form a
# half-line of the float32 order: y >= t for gamma > 0, y <= t for
# gamma < 0. Its end t is found by bisection over that order, probing with
# the very batchnorm and lif_fire calls the unit makes. -0.0 and +0.0 read
# alike at every step, and the order keys make them one point.

_KEY_NEG_INF = -0x7F800000      # order keys of -inf and +inf
_KEY_POS_INF = 0x7F800000
_BRACKET = 1 << 10              # half-width of the first bracket, in keys
_WIDEN = 32                     # growth of a missed bracket side per probe


def _order_key(y: np.ndarray) -> np.ndarray:
    """int64 keys of float32 values, increasing with the value; -0.0 and
    +0.0 share key 0."""
    bits = np.ascontiguousarray(y, dtype=np.float32).view(np.int32) \
        .astype(np.int64)
    return np.where(bits < 0, -(bits & 0x7FFFFFFF), bits)


def _of_key(k: np.ndarray) -> np.ndarray:
    """The float32 values of order keys (key 0 reads +0.0)."""
    bits = np.where(k < 0, -k | 0x80000000, k)
    return bits.astype(np.uint32).view(np.float32)


def fire_thresholds(gamma, beta, mean, var, p: LIFParams):
    """Per channel, the threshold form of eval-mode ``G.batchnorm`` (default
    eps) followed by ``lif_fire``, in float32. Returns float32 ``t`` and
    boolean ``up`` and ``ok``: where ``ok``, channel c fires at a float32 y
    exactly when y >= t[c] (``up``) or y <= t[c] (not ``up``), for every y,
    +-inf and NaN included. A channel that fires at every finite y has the
    finite extreme on its silent side as t; one that fires at no finite y
    has the infinity on its firing side.

    A channel is not ``ok`` (its t is NaN) when its statistics are not
    finite, gamma is 0, or 1 / sqrt(var + eps) is not finite and positive;
    none is when tau, v_th or v_reset is not finite in float32. All
    channels are solved together: 13 vectorized probes. A boundary outside
    the first bracket its float64 estimate gives costs one more probe per
    x32 widening of that side and up to five more bisection probes each
    (17 in all for the benchmark fixture's model).
    """
    gamma, beta, mean, var = (np.asarray(a, dtype=np.float32)
                              for a in (gamma, beta, mean, var))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.sqrt(var + BN_EPS)   # the batchnorm's own expression
    ok = (np.isfinite(gamma) & (gamma != 0) & np.isfinite(beta)
          & np.isfinite(mean) & np.isfinite(inv) & (inv > 0))
    with np.errstate(over="ignore"):
        lif = np.array([p.tau, p.v_th, p.v_reset]).astype(np.float32)
    if not (np.isfinite(lif).all() and lif[0] > 0):
        ok[:] = False
    t = np.full(gamma.shape, np.nan, dtype=np.float32)
    up = gamma > 0
    idx = np.flatnonzero(ok)
    if idx.size:
        t[idx] = _solve(gamma[idx], beta[idx], mean[idx], var[idx],
                        inv[idx], up[idx], p)
    return t, up, ok


def _solve(gamma, beta, mean, var, inv, up, p: LIFParams) -> np.ndarray:
    # channel c fires at y where sign*y >= u: search u over the order keys,
    # probing y = sign * of_key(k), whose firing keys form an up-set. The
    # key of -inf never fires (the chain gives -inf < v_th) and that of
    # +inf always does, so lo and hi below bracket every boundary.
    sign = np.where(up, np.float32(1), np.float32(-1))

    def fires(k):
        y = sign * _of_key(k)
        with G.no_grad():
            h = G.batchnorm(Tensor(y[None]), gamma, beta, mean, var,
                            training=False)
            return lif_fire(h, p).data[0] > 0

    with np.errstate(over="ignore"):    # probes near the float32 extremes
        # first a bracket around the float64 estimate; a side where it
        # fails to hold (lo fires, or hi does not) moves out by a growing
        # width, one probe for all such channels, until it holds
        est = mean.astype(np.float64) + ((p.v_th - p.v_reset) * p.tau
                                         - beta.astype(np.float64)) \
            / (gamma.astype(np.float64) * inv.astype(np.float64))
        lim = float(np.finfo(np.float32).max)
        k0 = _order_key((sign * np.clip(est, -lim, lim)).astype(np.float32))
        width = _BRACKET
        lo = np.maximum(k0 - width, _KEY_NEG_INF)
        hi = np.minimum(k0 + width, _KEY_POS_INF)
        low, high = fires(lo), ~fires(hi)
        while (low | high).any():
            width *= _WIDEN
            hi = np.where(low, lo, hi)      # a missed end bounds the
            lo = np.where(high, hi, lo)     # other side from now on
            lo = np.where(low, np.maximum(k0 - width, _KEY_NEG_INF), lo)
            hi = np.where(high, np.minimum(k0 + width, _KEY_POS_INF), hi)
            f = fires(np.where(low, lo, hi))
            low, high = low & f, high & ~f
        while (hi - lo > 1).any():      # lo does not fire, hi does
            mid = lo + (hi - lo) // 2
            f = fires(mid)
            hi = np.where(f, mid, hi)
            lo = np.where(f, lo, mid)
    return sign * _of_key(hi)


class FiringInterval:
    """A stateless unit's eval-mode batchnorm and fresh-membrane spike as
    one compare per channel of the raw conv output: lo <= y <= hi, with
    -inf / +inf on the side a channel leaves open. Built by
    :func:`fold_thresholds`."""

    def __init__(self, t: np.ndarray, up: np.ndarray):
        shape = (1, t.size, 1, 1)
        self.lo = np.where(up, t, -np.inf).astype(np.float32).reshape(shape)
        self.hi = np.where(up, np.inf, t).astype(np.float32).reshape(shape)

    def fire(self, y: Tensor) -> Tensor:
        y = y.data
        s = y >= self.lo
        s &= y <= self.hi
        return Tensor(s.astype(y.dtype))


def fold_thresholds(units, p: LIFParams):
    """Set ``unit.fold`` of every stateless unit in ``units`` (each firing
    with ``p``, its statistics read through ``norm_arrays()``) to its
    :class:`FiringInterval`, with all channels of all units solved in one
    :func:`fire_thresholds` call. A unit with a channel that has no
    threshold form gets ``fold = None`` and keeps its batchnorm. Folds are
    read only by graph-free eval forwards, and are a snapshot: they do not
    follow later changes to the statistics."""
    units = list(units)
    if not units:
        return
    stats = [u.norm_arrays() for u in units]
    t, up, ok = fire_thresholds(*(np.concatenate(col) for col in zip(*stats)),
                                p)
    cuts = np.cumsum([s[0].size for s in stats])[:-1]
    for unit, t_u, up_u, ok_u in zip(units, np.split(t, cuts),
                                     np.split(up, cuts), np.split(ok, cuts)):
        unit.fold = FiringInterval(t_u, up_u) if ok_u.all() else None


class LIFNeuron(G.Module):
    """Stateful wrapper: carries the membrane across consecutive step calls.

    The carried membrane is transient runtime state, not a parameter or
    buffer, so assignments bypass Module registration and it never shows
    up in state_dict.
    """

    def __init__(self, params: LIFParams | None = None):
        super().__init__()
        self.params = params or LIFParams()
        object.__setattr__(self, "state", None)

    def reset_state(self):
        object.__setattr__(self, "state", None)

    def detach_state(self):
        if self.state is not None:
            object.__setattr__(self, "state", self.state.detach())

    def step(self, x, steps: int = 1) -> Tensor:
        v, s = lif_step(self.state, x, self.params, steps)
        object.__setattr__(self, "state", v)
        return s


def repeat_steps(a: np.ndarray, steps: int) -> np.ndarray:
    """``steps`` copies of the (B, ...) array ``a`` folded as (steps*B, ...),
    the bytes of ``np.tile(a, (steps, 1, ...))``: for B = 1 a read-only view
    with stride 0 over the steps, which copies nothing; otherwise one copy."""
    return np.broadcast_to(a, (steps,) + a.shape) \
        .reshape((steps * a.shape[0],) + a.shape[1:])


class CBSBlock(G.Module):
    """conv 3x3 stride 1 (no bias) -> batchnorm -> spike -> optional 2x2 maxpool.

    Input is (steps*batch, C, H, W) with the step axis folded into the
    batch, so batchnorm statistics cover steps x batch x spatial. The
    firing stage runs in one of two regimes:

    * stateful: a membrane scan over the step slices, state persisting
      across steps (and across calls until reset); used in the encoder.
    * stateless: every step fires from a fresh v_reset membrane, so all
      steps are independent and stay batched; used wherever steps are
      processed in parallel.

    With ``upsample`` the conv reads the 2x nearest-upsampled input, run
    as ``G.upsample_conv2d`` at the input's resolution.

    Each forward reports its conv's input to an active trace under
    ``name``, with C_out * kernel^2 synapses per input element. A
    graph-free eval forward of a stateless block with a ``fold`` (see
    :func:`fold_thresholds`) fires through it instead of the batchnorm.
    """

    def __init__(self, rng, in_ch: int, out_ch: int, lif: LIFParams,
                 pool: bool = True, stateful: bool = False,
                 kernel: int = 3, name: str = "", upsample: bool = False):
        super().__init__()
        self.weight = G.kaiming_uniform(rng, (out_ch, in_ch, kernel, kernel),
                                        fan_in=in_ch * kernel * kernel)
        self.gamma = Tensor(np.ones(out_ch), requires_grad=True)
        self.beta = Tensor(np.zeros(out_ch), requires_grad=True)
        self.register_array("running_mean", np.zeros(out_ch))
        self.register_array("running_var", np.ones(out_ch))
        self.pool = pool
        self.upsample = upsample
        self.stateful = stateful
        self.kernel = kernel
        self.padding = (kernel - 1) // 2
        self.lif = LIFNeuron(lif)
        self.name = name
        self.fold = None

    def reset_state(self):
        self.lif.reset_state()

    def detach_state(self):
        self.lif.detach_state()

    def norm_arrays(self):
        """(gamma, beta, running_mean, running_var) data arrays."""
        return (self.gamma.data, self.beta.data, self.running_mean,
                self.running_var)

    def _conv(self, x: Tensor) -> Tensor:
        if self.upsample:
            return G.upsample_conv2d(x, self.weight)
        return G.conv2d(x, self.weight, padding=self.padding)

    def forward(self, x, steps: int = 1, repeated: bool = False) -> Tensor:
        """``repeated``: the ``steps`` slices of x hold the same images, so
        a graph-free eval forward runs the conv and the batchnorm, affine
        there, on the first slice and hands the spikes a view that repeats
        it (:func:`repeat_steps`)."""
        seen = x.data
        if self.upsample:
            # the conv's input is the upsampled map: traced as a broadcast
            # (B, C, h, 2, w, 2) view of x, which copies nothing
            b, c, h, w = seen.shape
            seen = np.broadcast_to(seen[:, :, :, None, :, None],
                                   (b, c, h, 2, w, 2))
        _emit_layer(self.name, seen, self.weight.shape[0] * self.kernel ** 2)
        graph_free_eval = not self.training and not G.grad_enabled()
        if self.fold is not None and graph_free_eval:
            s = self.fold.fire(self._conv(x))
        else:
            tile = steps if repeated and graph_free_eval else 1
            if tile > 1:
                x = Tensor(x.data[:x.shape[0] // tile])
            y = self._conv(x)
            y = G.batchnorm(y, self.gamma, self.beta,
                            self.running_mean, self.running_var,
                            training=self.training)
            if tile > 1:
                y = Tensor(repeat_steps(y.data, tile))
            if self.stateful:
                s = self.lif.step(y, steps)
            else:
                s = lif_fire(y, self.lif.params)
        return G.maxpool2d(s) if self.pool else s
