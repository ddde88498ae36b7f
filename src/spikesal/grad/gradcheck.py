"""Central finite-difference verification of backward passes."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def numeric_gradient_at(f, t: Tensor, indices, h: float = 1e-3) -> np.ndarray:
    """Central differences of scalar f() at flat C-order indices of t."""
    flat = t.data.flat     # writes through whatever t's memory layout
    vals = np.zeros(len(indices))
    for j, i in enumerate(indices):
        old = flat[i]
        flat[i] = old + h
        fp = float(f().data)
        flat[i] = old - h
        fm = float(f().data)
        flat[i] = old
        vals[j] = (fp - fm) / (2.0 * h)
    return vals


def numeric_gradient(f, t: Tensor, h: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. every element of t."""
    return numeric_gradient_at(f, t, range(t.data.size), h).reshape(t.shape)


def relative_error(a: np.ndarray, n: np.ndarray, floor: float = 1e-7) -> float:
    """max |a-n| / max(floor, |a|, |n|); the floor absorbs FD noise at true zeros."""
    a, n = np.asarray(a, dtype=np.float64), np.asarray(n, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def check_gradients(f, tensors, h: float = 1e-3, floor: float = 1e-7) -> float:
    """Full elementwise check. Returns the worst relative error over all tensors."""
    for t in tensors:
        t.grad = None
    f().backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in tensors]
    worst = 0.0
    for t, a in zip(tensors, analytic):
        n = numeric_gradient(f, t, h)
        worst = max(worst, relative_error(a, n, floor))
    return worst


def check_gradients_sampled(f, tensors, rng: np.random.Generator,
                            per_tensor: int = 16, h: float = 1e-3,
                            floor: float = 1e-7) -> float:
    """Subsampled elementwise check for large parameter sets."""
    for t in tensors:
        t.grad = None
    f().backward()
    worst = 0.0
    for t in tensors:
        a = np.zeros_like(t.data) if t.grad is None else t.grad
        size = t.data.size
        k = min(per_tensor, size)
        idx = rng.choice(size, size=k, replace=False)
        n = numeric_gradient_at(f, t, idx, h)
        worst = max(worst, relative_error(a.ravel()[idx], n, floor))
    return worst


def directional_check(f, tensors, rng: np.random.Generator,
                      h: float = 1e-4, floor: float = 1e-7) -> float:
    """Compare grad . v against a central difference along one random direction.

    Two function evaluations validate the assembled gradient of the whole
    parameter set at once.
    """
    for t in tensors:
        t.grad = None
    f().backward()
    vs = [rng.standard_normal(t.data.shape) for t in tensors]
    norm = np.sqrt(sum(float((v * v).sum()) for v in vs))
    vs = [v / norm for v in vs]
    analytic = sum(
        float(((np.zeros_like(t.data) if t.grad is None else t.grad) * v).sum())
        for t, v in zip(tensors, vs))
    for t, v in zip(tensors, vs):
        t.data += h * v
    fp = float(f().data)
    for t, v in zip(tensors, vs):
        t.data -= 2.0 * h * v
    fm = float(f().data)
    for t, v in zip(tensors, vs):
        t.data += h * v
    numeric = (fp - fm) / (2.0 * h)
    return relative_error(np.array([analytic]), np.array([numeric]), floor)
