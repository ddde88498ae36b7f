"""AdamW with decoupled weight decay, on named parameter lists.

State is keyed by parameter name so checkpoints stay readable and
loading is order-independent.
"""

from __future__ import annotations

import numpy as np

# moment decay rates and the denominator's guard
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class AdamW:
    def __init__(self, named_params, lr: float, weight_decay: float = 1e-2):
        self.params = list(named_params)
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params}

    def step(self):
        self.t += 1
        b1, b2 = BETA1, BETA2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            # decay decoupled from the gradient path
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, and
            # p -= lr (m / bias1) / (sqrt(v / bias2) + eps), every term
            # rounded as written there, in two scratch arrays
            step = np.multiply(1.0 - b1, g)
            m *= b1
            m += step
            np.multiply(1.0 - b2, g, out=step)
            step *= g
            v *= b2
            v += step
            den = np.divide(v, bias2)
            np.sqrt(den, out=den)
            den += EPS
            np.divide(m, bias1, out=step)
            np.multiply(self.lr, step, out=step)
            step /= den
            p.data -= step

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None

    def state_arrays(self) -> dict:
        out = {}
        for name in self.m:
            out["adam.m." + name] = self.m[name]
            out["adam.v." + name] = self.v[name]
        out["adam.t"] = np.array([float(self.t)])
        return out

    def load_state_arrays(self, arrays: dict):
        """Load the ``state_arrays`` entries of ``arrays``, which may hold
        others too; raises ValueError listing any it lacks."""
        missing = set(self.state_arrays()) - set(arrays)
        if missing:
            raise ValueError(f"optimizer state missing={sorted(missing)}")
        for name in self.m:
            self.m[name][...] = arrays["adam.m." + name]
            self.v[name][...] = arrays["adam.v." + name]
        self.t = int(arrays["adam.t"][0])


def linear_lr(epoch: int, epochs: int, lr_start: float, lr_end: float) -> float:
    """Per-epoch linear decay from lr_start (epoch 0) to lr_end (last)."""
    if epochs <= 1:
        return lr_start
    frac = epoch / (epochs - 1)
    return lr_start + (lr_end - lr_start) * frac
