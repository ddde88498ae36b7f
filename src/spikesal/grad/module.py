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
        elif isinstance(value, (Module, ModuleList)):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield prefix + name, p
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

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

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

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


class ModuleList:
    """Ordered child container so lists of blocks register properly."""

    def __init__(self, modules=()):
        self._items = list(modules)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]

    def append(self, m: Module):
        self._items.append(m)

    def named_parameters(self, prefix: str = ""):
        for i, m in enumerate(self._items):
            yield from m.named_parameters(f"{prefix}{i}.")

    def named_buffers(self, prefix: str = ""):
        for i, m in enumerate(self._items):
            yield from m.named_buffers(f"{prefix}{i}.")

    def modules(self):
        for m in self._items:
            yield from m.modules()

    def train(self, mode: bool = True):
        for m in self._items:
            m.train(mode)
        return self

    def cast(self, dtype):
        for m in self._items:
            m.cast(dtype)
        return self


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """He-uniform fan-in init: U(-sqrt(6/fan_in), +sqrt(6/fan_in))."""
    bound = float(np.sqrt(6.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
