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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grad as G
from .grad import Tensor


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

    Each forward reports its input to an active trace under ``name``,
    with C_out * kernel^2 synapses per input element.
    """

    def __init__(self, rng, in_ch: int, out_ch: int, lif: LIFParams,
                 pool: bool = True, stateful: bool = False,
                 kernel: int = 3, name: str = ""):
        super().__init__()
        self.weight = G.kaiming_uniform(rng, (out_ch, in_ch, kernel, kernel),
                                        fan_in=in_ch * kernel * kernel)
        self.gamma = Tensor(np.ones(out_ch), requires_grad=True)
        self.beta = Tensor(np.zeros(out_ch), requires_grad=True)
        self.register_array("running_mean", np.zeros(out_ch))
        self.register_array("running_var", np.ones(out_ch))
        self.pool = pool
        self.stateful = stateful
        self.kernel = kernel
        self.padding = (kernel - 1) // 2
        self.lif = LIFNeuron(lif)
        self.name = name

    def reset_state(self):
        self.lif.reset_state()

    def detach_state(self):
        self.lif.detach_state()

    def forward(self, x, steps: int = 1) -> Tensor:
        _emit_layer(self.name, x.data, self.weight.shape[0] * self.kernel ** 2)
        y = G.conv2d(x, self.weight, padding=self.padding)
        y = G.batchnorm(y, self.gamma, self.beta,
                        self.running_mean, self.running_var,
                        training=self.training)
        if self.stateful:
            s = self.lif.step(y, steps)
        else:
            s = lif_fire(y, self.lif.params)
        return G.maxpool2d(s) if self.pool else s
