"""Dense numeric kernels with exact reverse-mode adjoints, plus Adam.

Every kernel comes as a forward function and a matching ``*_backward``
that maps the output gradient (plus whatever the forward saw) to input
gradients. Compositions are wired by hand in the model module; there is
no tape. Arrays are float64.
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
    """a @ b, each output row bit-identical to that row of any taller product.

    NumPy hands a one-row product to gemv, whose sums round differently
    from gemm's, so a single row goes through gemm as two copies.
    """
    _shape_check(a, b)
    if a.shape[0] == 1:
        return (np.repeat(a, 2, axis=0) @ b)[:1]
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
    """x where x > 0, else slope * x; for 0 < slope <= 1 that is the larger of the two."""
    return np.maximum(x, slope * x)


def leaky_relu_backward(grad: np.ndarray, x: np.ndarray, slope: float = 0.01) -> np.ndarray:
    out = grad * slope
    np.copyto(out, grad, where=x > 0.0)
    return out


def row_l2_normalize(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        norms = np.linalg.norm(x, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise NumericError(f"zero-norm row(s) {zero[:5].tolist()} in l2 normalization")
    huge = np.nonzero(norms == np.inf)[0]  # x / inf would be a silent zero row
    if huge.size:
        raise NumericError(f"overflowing row norm(s) {huge[:5].tolist()} in l2 normalization")
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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Optimizer state for one named parameter set."""

    lr: float = 4e-3
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One Adam update, in place on the arrays of ``params``.

    Weight decay is coupled L2: added to the gradient before the moment
    updates. Bias correction is the standard 1/(1-beta^t) form. A
    gradient whose square is not finite (a NaN or inf entry, or one whose
    square overflows) raises NumericError before any parameter or moment
    changes. Each tensor is updated through two scratch arrays of its
    size, with the rounding of ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``
    written out.
    """
    work = []
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"adam_step shape mismatch for {name}: {g.shape} vs {p.shape}")
        step, tmp = np.empty_like(p), np.empty_like(p)
        if state.weight_decay != 0.0:
            g = np.multiply(p, state.weight_decay, out=step)
            g += grads[name]
        with np.errstate(over="ignore"):  # an overflow is the check's to report
            np.multiply(g, g, out=tmp)
        check_finite(f"squared grad[{name}]", tmp)
        work.append((name, p, g, step, tmp))
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for name, p, g, step, tmp in work:
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        v *= ADAM_BETA2
        tmp *= 1.0 - ADAM_BETA2
        v += tmp
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, c1, out=step)
        step *= state.lr
        step /= tmp
        p -= step
