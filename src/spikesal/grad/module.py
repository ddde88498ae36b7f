"""Parameter container with torch-flavoured attribute registration.

Assigning a Tensor with requires_grad=True registers a parameter and
assigning a Module registers a child. Buffers (batchnorm running stats)
are plain ndarrays registered with ``register_array`` and mutated in
place outside the graph. A grad-free Tensor is rejected, since it would
be neither and silently drop out of ``state_dict``. ``state_dict`` walks
the tree in insertion order, which keeps serialization deterministic.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor):
            if not value.requires_grad:
                raise TypeError(f"{name}: a grad-free Tensor is neither a "
                                "parameter nor a buffer; use register_array")
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield prefix + name, p
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def named_buffers(self, prefix: str = ""):
        for name, arr in self._buffers.items():
            yield prefix + name, arr
        for name, child in self._children.items():
            yield from child.named_buffers(prefix + name + ".")

    def modules(self):
        """This module and every descendant, depth first in registration
        order."""
        yield self
        for child in self._children.values():
            yield from child.modules()

    def register_array(self, name: str, arr: np.ndarray):
        """Register a plain ndarray buffer (mutated in place, outside the graph)."""
        self._buffers[name] = arr
        object.__setattr__(self, name, arr)

    def train(self, mode: bool = True):
        object.__setattr__(self, "training", mode)
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def cast(self, dtype):
        """Convert every parameter and buffer to ``dtype``, replacing the
        arrays (never written in place); returns self."""
        for p in self._params.values():
            p.data = p.data.astype(dtype)
        for name, arr in list(self._buffers.items()):
            self.register_array(name, arr.astype(dtype))
        for child in self._children.values():
            child.cast(dtype)
        return self

    def state_dict(self) -> dict:
        out = {name: p.data for name, p in self.named_parameters()}
        out.update(self.named_buffers())
        return out

    def load_state_dict(self, state: dict):
        own = self.state_dict()
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise ValueError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, dst in own.items():
            src = np.asarray(state[name], dtype=np.float64)
            if dst.shape != src.shape:
                raise ValueError(f"shape mismatch for {name}: {dst.shape} vs {src.shape}")
            dst[...] = src


class ModuleList(Module):
    """Ordered child container: child i registers as ``str(i)``, so its
    state keys read ``<list name>.<i>.<key>``."""

    def __init__(self, modules=()):
        super().__init__()
        for i, m in enumerate(modules):
            setattr(self, str(i), m)

    def __iter__(self):
        return iter(self._children.values())

    def __len__(self):
        return len(self._children)

    def __getitem__(self, i):
        return list(self._children.values())[i]


def kaiming_uniform(rng: np.random.Generator | None, shape,
                    fan_in: int) -> Tensor:
    """He-uniform fan-in init: U(-sqrt(6/fan_in), +sqrt(6/fan_in)). With
    ``rng`` None the weights are zeros and nothing is drawn, for a module
    whose state is loaded next."""
    if rng is None:
        return Tensor(np.zeros(shape), requires_grad=True)
    bound = float(np.sqrt(6.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
