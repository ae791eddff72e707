"""Softmax cross-entropy, and InfoNCE over multiple views built on it.

Each view brings queries and keys, one row per batch node in the same
order in every view. View i's queries are contrasted with view j's keys
for every ordered pair i != j, and the sum is divided by v(v-1), so with
keys equal to queries the two-view case is the familiar
(ctr(z1,z2) + ctr(z2,z1)) / 2. InfoNCE is the cross-entropy of
QK^T/tau against the diagonal, so with P = row-softmax(QK^T/tau),
dL/dQ = (P - I)K / (N tau) and dL/dK = (P - I)^T Q / (N tau).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

LOSS_LEVELS = ("node", "graph")


@dataclass(frozen=True)
class LossConfig:
    """``level`` picks each view's keys: the batch rows' own projections
    (node) or their neighbourhood readouts' (graph)."""

    level: str = "node"
    tau: float = 0.5

    def validate(self) -> "LossConfig":
        if self.level not in LOSS_LEVELS:
            raise DataError(f"unknown loss level {self.level!r}; expected one of {LOSS_LEVELS}")
        if not 0 < self.tau < np.inf:
            raise DataError(f"temperature must be positive and finite, got {self.tau}")
        return self


def softmax_cross_entropy(scores: np.ndarray, targets: np.ndarray, tau: float = 1.0):
    """Mean cross-entropy of row-softmax(scores / tau) against integer targets,
    and its exact gradient: (softmax - one-hot) / (rows * tau).

    One score-sized array is allocated, the C-ordered logits, and every
    later step works in place on it, so ``scores`` is never written. The
    row max is read at argmax, the same value as ``max`` at a fraction of
    its cost; it and the target entries are read through flat indices,
    which the C order makes row start + column. Logits that overflow give
    a non-finite loss or gradient, without a NumPy warning, for the callers'
    finiteness checks to report.
    """
    logits = np.array(scores, dtype=np.result_type(scores, tau), order="C")  # np.divide's dtype
    return _cross_entropy(logits, targets, tau)


@np.errstate(over="ignore", invalid="ignore")
def _cross_entropy(logits: np.ndarray, targets: np.ndarray, tau: float):
    """:func:`softmax_cross_entropy` on C-ordered scores that it owns and overwrites."""
    logits /= tau
    rows, cols = logits.shape
    starts = np.arange(0, rows * cols, cols)
    m = logits.take(starts + logits.argmax(axis=1))
    hits = starts + targets
    target_logits = logits.take(hits)
    logits -= m[:, None]  # max-subtract for stable exp
    np.exp(logits, out=logits)
    denom = logits.sum(axis=1)
    loss = -(target_logits - m - np.log(denom)).mean()
    logits /= denom[:, None]
    logits.reshape(-1)[hits] -= 1.0
    logits /= rows * tau
    return loss, logits


def infonce(q: np.ndarray, k: np.ndarray, tau: float):
    """Contrastive cross-entropy with in-batch negatives.

    Row i of q and k describe the same item, so the positive logits sit on
    the diagonal of q @ k.T / tau and every other row of k is a negative.
    Returns (loss, grad_q, grad_k).
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape != k.shape or q.ndim != 2:
        raise ValueError(f"q and k must be equal-shape 2-d arrays, got {q.shape} and {k.shape}")
    n = q.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    loss, grad = _cross_entropy(q @ k.T, np.arange(n), tau)  # q @ k.T is fresh and C-ordered
    return loss, grad @ k, grad.T @ q


def multi_view_loss(pairs, tau: float):
    """Average InfoNCE of view i's queries against view j's keys over all
    ordered view pairs i != j.

    ``pairs[i]`` is view i's (queries, keys), as :func:`tgcl.embed_views`
    returns them. Returns (loss, grads) with grads[i] = (g_queries,
    g_keys) for view i, ready for the embedding backward pass.
    """
    v = len(pairs)
    if v < 2:
        raise ValueError(f"need at least 2 views, got {v}")
    g_q = [np.zeros_like(q) for q, _ in pairs]
    g_k = [np.zeros_like(k) for _, k in pairs]
    total = 0.0
    for qi, (q, _) in enumerate(pairs):
        for ki, (_, k) in enumerate(pairs):
            if ki != qi:
                loss, gq, gk = infonce(q, k, tau)
                g_q[qi] += gq
                g_k[ki] += gk
                total += loss
    scale = 1.0 / (v * (v - 1))
    for g in g_q + g_k:
        g *= scale
    return total * scale, list(zip(g_q, g_k))
