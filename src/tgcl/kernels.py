"""Dense numeric kernels with exact reverse-mode adjoints, plus Adam.

Every kernel comes as a forward function and a matching ``*_backward``
that maps the output gradient (plus whatever the forward saw) to input
gradients. Compositions are wired by hand in the model module; there is
no tape. Arrays are float64 unless the caller opts into float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError


def check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {name}")


def _shape_check(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _shape_check(a, b)
    return a @ b


def matmul_backward(grad: np.ndarray, a: np.ndarray, b: np.ndarray):
    return grad @ b.T, a.T @ grad


def add_bias(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.shape[1] != b.shape[0]:
        raise ValueError(f"add_bias shape mismatch: {x.shape} + {b.shape}")
    return x + b


def add_bias_backward(grad: np.ndarray):
    return grad, grad.sum(axis=0)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(grad: np.ndarray, x: np.ndarray) -> np.ndarray:
    return grad * (x > 0.0)


def leaky_relu(x: np.ndarray, slope: float = 0.01) -> np.ndarray:
    return np.where(x > 0.0, x, slope * x)


def leaky_relu_backward(grad: np.ndarray, x: np.ndarray, slope: float = 0.01) -> np.ndarray:
    return grad * np.where(x > 0.0, 1.0, slope)


def row_l2_normalize(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise NumericError(f"zero-norm row(s) {zero[:5].tolist()} in l2 normalization")
    return x / norms[:, None]


def row_l2_normalize_backward(grad: np.ndarray, x: np.ndarray) -> np.ndarray:
    # z = x / |x|;  dL/dx = (g - z (z.g)) / |x|
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    z = x / norms
    return (grad - z * np.sum(z * grad, axis=1, keepdims=True)) / norms


def segment_reduce(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Column-wise max over consecutive row segments of ``values``.

    Segment i is values[indptr[i]:indptr[i+1]]; segments must be non-empty.
    """
    if np.any(np.diff(indptr) <= 0):
        raise ValueError("segment_reduce: empty segment")
    return np.maximum.reduceat(values, indptr[:-1], axis=0)


def segment_reduce_backward(grad: np.ndarray, values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Route each segment's gradient, per column, to the first row that holds its max."""
    starts = indptr[:-1]
    top = np.repeat(np.maximum.reduceat(values, starts, axis=0), np.diff(indptr), axis=0)
    pos = np.where(values == top, np.arange(values.shape[0])[:, None], values.shape[0])
    first = np.minimum.reduceat(pos, starts, axis=0)
    out = np.zeros_like(values)
    out[first, np.arange(values.shape[1])] = grad
    return out


@dataclass
class AdamState:
    """Optimizer state for one named parameter set."""

    lr: float = 4e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One Adam update, in place on the arrays of ``params``.

    Weight decay is coupled L2: added to the gradient before the moment
    updates. Bias correction is the standard 1/(1-beta^t) form. A
    non-finite gradient raises NumericError.
    """
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"adam_step shape mismatch for {name}: {g.shape} vs {p.shape}")
        check_finite(f"grad[{name}]", g)
        if state.weight_decay != 0.0:
            g = g + state.weight_decay * p
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
