"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 or float32 ndarray plus an optional backward
closure.
Calling :meth:`Tensor.backward` on a scalar walks the graph in reverse
topological order and accumulates vector-Jacobian products into ``.grad``
of every tensor created with ``requires_grad=True``, freeing the graph as
it goes: a graph is single-use.

Gradients accumulate additively, so a tensor consumed by several ops
receives the sum of all downstream contributions regardless of traversal
order. Float32 data stays float32 and every other dtype becomes float64;
the ops compute in their inputs' dtype, and a Python number operand takes
the other operand's dtype. Training and its gradients run in float64;
graph-free inference may run a float32 model under :class:`no_grad`,
where no graph is recorded. :class:`relaxed` swaps the spiking forward
for its smooth twin.
"""

from __future__ import annotations

import numpy as np

_GRAD_ENABLED = True


class no_grad:
    """Context manager that suppresses graph construction."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def grad_enabled() -> bool:
    return _GRAD_ENABLED


_RELAXED = False


class relaxed:
    """Context manager that selects the smooth spiking forward: smooth
    ``spike_gate`` and ``elementwise_or``, and ``lif_scan`` fires through
    the smooth gate and keeps its reset gate's gradient, so finite
    differences can check it."""

    def __enter__(self):
        global _RELAXED
        self._prev = _RELAXED
        _RELAXED = True
        return self

    def __exit__(self, *exc):
        global _RELAXED
        _RELAXED = self._prev
        return False


def relaxed_enabled() -> bool:
    return _RELAXED


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else \
            np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    # -- graph machinery ----------------------------------------------------

    def backward(self, grad=None):
        """Accumulate d(self)/d(leaf) into ``.grad`` of every leaf (a tensor
        made with ``requires_grad=True``) that ``self`` depends on; ``grad``
        is the upstream gradient, required unless ``self`` is a scalar.

        The graph is consumed as it is walked: once an op node's
        vector-Jacobian product has run, the node drops its gradient, its
        backward closure (and with it the arrays saved for backward) and its
        parent links. Leaves keep ``.grad``. A second backward through a
        consumed node raises ``RuntimeError``."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        order = _toposort(self)
        _accumulate(self, grad)
        while order:                    # reverse topological order
            node = order.pop()
            if node._vjp is None:       # a leaf keeps its gradient
                continue
            if node.grad is not None:
                node._vjp(node.grad)
            # every consumer has run, so nothing reads this node again:
            # its saved arrays and gradient go now, not with the graph
            node.grad = None
            node._vjp = _consumed
            node._parents = ()

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, idx):
        return take(self, idx)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def _toposort(root: Tensor):
    """Iterative DFS post-order; recursion would overflow on long step chains."""
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _consumed(g):
    raise RuntimeError("backward through a graph that an earlier backward "
                       "already consumed; build the graph again")


def _accumulate(t: Tensor, g: np.ndarray):
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad += g


def _give(t: Tensor, g: np.ndarray):
    # ``_accumulate`` for a gradient array the caller has just allocated and
    # keeps no reference to: the first one becomes ``t.grad`` uncopied
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operand(x):
    """(tensor, value) of an arithmetic operand. A Python number's value is
    the number itself, which NumPy keeps weak: it takes the other operand's
    dtype, where the 0-d float64 array ``as_tensor`` makes of it would
    promote a float32 operand to float64."""
    t = as_tensor(x)
    return t, (x if isinstance(x, (int, float)) else t.data)


def make(data, parents, vjp) -> Tensor:
    """Wrap ``data`` as an op output, recording the graph edge if enabled."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------------


def add(a, b) -> Tensor:
    (a, av), (b, bv) = _operand(a), _operand(b)
    out = av + bv

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return make(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    (a, av), (b, bv) = _operand(a), _operand(b)
    out = av - bv

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return make(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    (a, av), (b, bv) = _operand(a), _operand(b)
    out = av * bv

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return make(out, (a, b), vjp)


def div(a, b) -> Tensor:
    (a, av), (b, bv) = _operand(a), _operand(b)
    out = av / bv

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return make(out, (a, b), vjp)


def pow_(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    out = a.data ** exponent

    def vjp(g):
        _accumulate(a, g * exponent * a.data ** (exponent - 1.0))

    return make(out, (a,), vjp)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def vjp(g):
        _accumulate(a, g / a.data)

    return make(out, (a,), vjp)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def vjp(g):
        _accumulate(a, g * out)

    return make(out, (a,), vjp)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def vjp(g):
        _accumulate(a, g * out * (1.0 - out))

    return make(out, (a,), vjp)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp with zero gradient outside the open interval (lo, hi)."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def vjp(g):
        _accumulate(a, g * inside)

    return make(out, (a,), vjp)


# -- linear algebra -----------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Stacked matrix product; leading dims broadcast numpy-style."""
    a, b = as_tensor(a), as_tensor(b)
    out = np.matmul(a.data, b.data)

    def vjp(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.data.shape))

    return make(out, (a, b), vjp)


# -- shape ops ----------------------------------------------------------------


def reshape(a, *shape) -> Tensor:
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = a.data.reshape(shape)

    def vjp(g):
        _accumulate(a, g.reshape(a.data.shape))

    return make(out, (a,), vjp)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    out = np.transpose(a.data, axes)

    def vjp(g):
        if axes is None:
            _accumulate(a, np.transpose(g))
        else:
            _accumulate(a, np.transpose(g, np.argsort(axes)))

    return make(out, (a,), vjp)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    out = np.swapaxes(a.data, ax1, ax2)

    def vjp(g):
        _accumulate(a, np.swapaxes(g, ax1, ax2))

    return make(out, (a,), vjp)


def take(a, idx) -> Tensor:
    """Basic (slice/int) indexing. Index positions are unique by construction."""
    a = as_tensor(a)
    out = a.data[idx]

    def vjp(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accumulate(a, full)

    return make(out, (a,), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                _accumulate(t, piece)

    return make(out, tuple(tensors), vjp)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                _accumulate(t, np.take(g, i, axis=axis))

    return make(out, tuple(tensors), vjp)


# -- reductions ---------------------------------------------------------------


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(gg, a.data.shape).copy())

    return make(out, (a,), vjp)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in np.atleast_1d(axis)])

    def vjp(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g / n, a.data.shape).copy())
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(gg / n, a.data.shape).copy())

    return make(out, (a,), vjp)
