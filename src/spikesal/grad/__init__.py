"""numpy-backed reverse-mode autodiff with the op set the network needs."""

from .tensor import (
    Tensor, no_grad, grad_enabled, relaxed, relaxed_enabled, as_tensor,
    add, sub, mul, div, pow_, log, exp, sigmoid, clip,
    matmul, reshape, transpose, swapaxes, take, concat, stack,
    sum_, mean,
)
from .nnops import (
    conv2d, upsample_conv2d, blur2d, maxpool2d, nearest_upsample2d, linear,
    batchnorm, spike_gate, lif_scan, lif_fire, elementwise_or, surrogate_slope,
    soft_gate_value,
)
from .module import Module, ModuleList, kaiming_uniform
from .gradcheck import (
    numeric_gradient, check_gradients, check_gradients_sampled,
    directional_check, relative_error,
)
from .store import save_tensors, load_tensors

__all__ = [
    "Tensor", "no_grad", "grad_enabled", "relaxed", "relaxed_enabled",
    "as_tensor",
    "add", "sub", "mul", "div", "pow_", "log", "exp", "sigmoid", "clip",
    "matmul", "reshape", "transpose", "swapaxes", "take", "concat", "stack",
    "sum_", "mean",
    "conv2d", "upsample_conv2d", "blur2d", "maxpool2d", "nearest_upsample2d",
    "linear", "batchnorm",
    "spike_gate", "lif_scan", "lif_fire", "elementwise_or", "surrogate_slope",
    "soft_gate_value", "Module", "ModuleList", "kaiming_uniform",
    "numeric_gradient", "check_gradients", "check_gradients_sampled",
    "directional_check", "relative_error",
    "save_tensors", "load_tensors",
]
