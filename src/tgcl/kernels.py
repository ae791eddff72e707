"""Numeric kernels: dense ones with exact reverse-mode adjoints, Adam, and
the sparse propagation product.

Each dense kernel holds an algorithm or a rounding rule that one NumPy
expression would not: the row-stable GEMM, LeakyReLU in its max form, row
L2 normalization with its zero-row and overflow rules, segment max, and the
in-place Adam update. Each but Adam comes as a forward function and a
matching ``*_backward`` that maps the output gradient (plus what the
forward saw or returned) to input gradients. The model module wires them together by
hand, with the one-expression steps (bias adds, the encoder's ReLU)
written out there; there is no tape. Arrays are float64.

:func:`spmm` is ``adj @ x`` for a CSR ``adj``, byte for byte; every sparse
product of the model runs on it, the two transposed ones on CSR transposes.
A large product is split by rows over the CPUs (:data:`SPLIT_WORK` says which).

:func:`map_tasks` runs independent tasks over the CPUs the process may use,
on one thread pool: spmm's row blocks, a training step's views and InfoNCE
pairs, grad-check's four settings and the invariance probe's timespans. It
raises the first failure in task order. Its callers form every sum on the
calling thread, in task order, so no output depends on the CPU count.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import _sparsetools

from .errors import NumericError


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, each output row bit-identical to that row of any taller product.

    NumPy hands a one-row product to gemv, whose sums round differently
    from gemm's, so a single row goes through gemm as two copies.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    if a.shape[0] == 1:
        return (np.repeat(a, 2, axis=0) @ b)[:1]
    return a @ b


def matmul_backward(grad: np.ndarray, a: np.ndarray, b: np.ndarray):
    return grad @ b.T, a.T @ grad


# multiply-adds (nonzeros × columns) per row block of :func:`spmm`; a product
# of less than twice this runs serially. Set from the benchmark's workloads:
# their training products (1.9M at most) and a 400-node embed (1.9M) stay
# serial, a 10k-node embed's two products (26M and 52M) split. Two blocks
# already win at about 1M on a 2-CPU host. Training keeps its CPUs busy with
# whole views and loss pairs instead, inside which every product is serial
SPLIT_WORK = 1 << 22

_pool = None  # the worker threads of map_tasks, made on first use
_pool_lock = threading.Lock()
_in_task = contextvars.ContextVar("tgcl_in_task", default=False)


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads: it makes its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(_cpu_count() - 1, 1), thread_name_prefix="tgcl")
        return _pool


def _run_share(fn, tasks, err):
    """fn(*task) for each task until one raises, under the NumPy error state
    ``err`` (NumPy before 2 keeps it per thread): (results, the exception or None)."""
    results = []
    try:
        with np.errstate(**err):
            for task in tasks:
                results.append(fn(*task))
    except Exception as exc:  # map_tasks raises it once every task is done
        return results, exc
    return results, None


def map_tasks(fn, tasks) -> list:
    """[fn(*task) for task in tasks], run over the CPUs this process may use.

    With ways = min(len(tasks), CPUs), the calling thread runs tasks[0::ways]
    and pool thread w runs tasks[w::ways], each in a copy of the caller's
    context and under its NumPy error state. It waits for every task, then
    raises the first failure in task order, the exception the serial loop
    would raise. With one way, and inside a task (on any thread), it is the
    serial loop, so a task never waits on the pool it runs on: this is the
    one place that rule is kept, so spmm inside a task runs its row blocks
    one after another, with the same bytes. The caller
    runs a share itself, so the arrays it keeps come from its own malloc arena.
    """
    tasks = list(tasks)
    ways = min(len(tasks), _cpu_count())
    if ways < 2 or _in_task.get():
        return [fn(*task) for task in tasks]
    err = np.geterr()
    token = _in_task.set(True)
    futures = []
    try:
        pool = _executor()
        futures = [pool.submit(contextvars.copy_context().run, _run_share, fn, tasks[w::ways], err)
                   for w in range(1, ways)]
        mine = _run_share(fn, tasks[0::ways], err)
    finally:
        _in_task.reset(token)
        shares = [future.result() for future in futures]  # the tasks run until they are done
    shares.insert(0, mine)
    failed = [(w + len(results) * ways, exc)
              for w, (results, exc) in enumerate(shares) if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [shares[i % ways][0][i // ways] for i in range(len(tasks))]


def spmm(adj, x: np.ndarray) -> np.ndarray:
    """adj @ x for a CSR array ``adj`` and a 2-D array ``x``, byte for byte.

    The product is cut into min(CPUs, nnz × columns // SPLIT_WORK) blocks
    of rows with about equal nonzeros; with one block it is ``adj @ x``.
    Each block runs the routine that ``adj @ x`` runs (SciPy's
    ``csr_matvecs``, or ``csr_matvec`` for one column) on its rows,
    writing them in place into one zeroed output, so every row is summed in
    the order and with the rounding SciPy gives it. The calling thread makes
    every array and the blocks run on :func:`map_tasks`, serially inside
    one of its tasks.
    """
    if x.shape[0] != adj.shape[1]:  # the routines read x unchecked
        raise ValueError(f"spmm shape mismatch: {adj.shape} x {x.shape}")
    blocks = min(_cpu_count(), adj.nnz * x.shape[1] // SPLIT_WORK)
    if blocks < 2:
        return adj @ x
    (m, n), k = adj.shape, x.shape[1]
    indptr = adj.indptr
    out = np.zeros((m, k), dtype=np.result_type(adj.dtype, x.dtype))
    cuts = np.searchsorted(indptr, np.arange(blocks) * int(indptr[-1]) // blocks).tolist() + [m]
    xs = x.ravel()
    tasks = []
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        if r0 == r1:
            continue
        p0, p1 = indptr[r0], indptr[r1]
        csr = (indptr[r0:r1 + 1] - p0, adj.indices[p0:p1], adj.data[p0:p1])
        if k == 1:  # adj @ x runs a one-column product as a vector product
            tasks.append((r1 - r0, n, *csr, xs, out[r0:r1, 0]))
        else:
            tasks.append((r1 - r0, n, k, *csr, xs, out[r0:r1].ravel()))
    map_tasks(_sparsetools.csr_matvec if k == 1 else _sparsetools.csr_matvecs, tasks)
    return out


def leaky_relu(x: np.ndarray, slope: float = 0.01) -> np.ndarray:
    """x where x > 0, else slope * x; for 0 < slope <= 1 that is the larger of the two."""
    return np.maximum(x, slope * x)


def leaky_relu_backward(grad: np.ndarray, x: np.ndarray, slope: float = 0.01) -> np.ndarray:
    """``x`` is the forward's input or its output: for 0 < slope <= 1 the
    output is positive exactly where the input is, NaN and signed zeros too."""
    out = grad * slope
    np.copyto(out, grad, where=x > 0.0)
    return out


def row_l2_normalize(x: np.ndarray):
    """Each row over its L2 norm, and the norms: (rows, norms). A zero row
    stays a zero row: its norm is taken as inf."""
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        norms = np.linalg.norm(x, axis=1)
    huge = np.nonzero(norms == np.inf)[0]  # x / inf would be a silent zero row
    if huge.size:
        raise NumericError(f"overflowing row norm(s) {huge[:5].tolist()} in l2 normalization")
    norms[norms == 0.0] = np.inf
    return x / norms[:, None], norms


def row_l2_normalize_backward(grad: np.ndarray, z: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """From the forward's (rows, norms) = (z, |x|): dL/dx = (g - z (z.g)) / |x|;
    a zero row's |x| is inf, so z = dL/dx = 0. One array of grad's size is
    allocated, each step written into it with the rounding of the one
    expression."""
    out = np.multiply(z, grad)
    dots = np.sum(out, axis=1, keepdims=True)
    np.multiply(z, dots, out=out)
    np.subtract(grad, out, out=out)
    out /= norms[:, None]
    return out


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
        if not np.isfinite(tmp).all():
            raise NumericError(f"non-finite values in squared grad[{name}]")
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
