"""Evaluation stack: stratified splits, a frozen-embedding linear probe,
classification metrics, the temporal invariance probe, and a synthetic
persistent-community graph generator used as the desk-scale fixture.

The invariance probe splits a graph into sequential timespans, fits an
independent supervised encoder per timespan (one self-contained call; the
timespans run on the CPUs' task pool), and reports how often their
predictions agree on the nodes the timespans share. High agreement on
community-structured data is the empirical premise behind treating
timespan views as label-preserving augmentations.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError, NumericError
from .graph import SampledView, TemporalGraph, build_graph, to_snapshots
from .kernels import AdamState, adam_step, map_tasks
from .losses import softmax_cross_entropy
from .model import ViewEntry, encode, encode_backward, glorot, init_params, view_entry, view_inputs
from .training import shared_nodes

PROBE_ENCODERS = ("gcn", "mlp")


@dataclass(frozen=True)
class SplitSpec:
    """Materialized train/val/test node lists (internal indices, sorted)."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def make_split(labels: np.ndarray, ratios: tuple = (1, 1, 8), seed: int = 0) -> SplitSpec:
    """Stratified random split of the labeled nodes at the given ratios.

    Per class the members are shuffled once and cut by rounded ratio
    counts, so per-class fractions track the global ratios. A class with
    fewer members than split parts goes wholly to train with a warning. A
    larger class that the rounding leaves without a train or validation
    node, where that part's ratio is positive, is cut as usual and warned
    of too: the probe can never learn it, or never validate on it.
    """
    if seed < 0:
        raise DataError(f"split seed must be non-negative, got {seed}")
    labels = np.asarray(labels)
    labeled = np.flatnonzero(labels >= 0)
    if labeled.size < 10:
        raise DataError(f"need at least 10 labeled nodes to split, got {labeled.size}")
    if len(ratios) != 3 or any(r < 0 for r in ratios) or sum(ratios) <= 0:
        raise DataError(f"ratios must be three non-negative numbers, got {ratios!r}")
    rng = np.random.default_rng([seed, 23])
    total = sum(ratios)
    tr, va, te = [], [], []
    for c in np.unique(labels[labeled]):
        members = rng.permutation(labeled[labels[labeled] == c])
        if members.size < 3:
            warnings.warn(f"class {c} has only {members.size} members; placed wholly in train")
            tr.append(members)
            continue
        n_tr = round(members.size * ratios[0] / total)
        n_va = round(members.size * ratios[1] / total)
        empty = [part for part, count, ratio in zip(("train", "validation"), (n_tr, n_va), ratios)
                 if count == 0 and ratio > 0]
        if empty:
            warnings.warn(f"class {c} has {members.size} members and gets no "
                          f"{' and no '.join(empty)} node at ratios {tuple(ratios)}")
        tr.append(members[:n_tr])
        va.append(members[n_tr:n_tr + n_va])
        te.append(members[n_tr + n_va:])

    def cat(parts):
        return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)

    return SplitSpec(train=cat(tr), val=cat(va), test=cat(te))


@dataclass(eq=False)
class LinearProbe:
    """Multinomial logistic classifier over frozen embeddings."""

    w: np.ndarray
    b: np.ndarray
    best_epoch: int

    @property
    def num_classes(self) -> int:
        return self.w.shape[1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(x @ self.w + self.b, axis=1)


def train_linear_probe(
    embeddings: np.ndarray,
    labels: np.ndarray,
    split: SplitSpec,
    lr: float = 1e-2,
    weight_decay: float = 1e-4,
    epochs: int = 200,
) -> LinearProbe:
    """Fit the linear probe with Adam on the train split only.

    Zero-initialized weights keep the fit deterministic without a seed;
    the validation split picks the best epoch, the first of equal
    accuracies (epoch 0 is the untrained classifier, so epochs=0 returns
    the chance-level predictor). ``w`` and ``b`` are the rows of one
    (d+1) x C block, so each epoch takes one Adam step over both.

    ``epochs`` is an upper bound: the fit stops at the first epoch whose
    validation accuracy is 1.0, epoch 0 included, since no later epoch
    can beat it. The returned probe is the one a full-length run returns.
    """
    if epochs < 0:
        raise DataError(f"probe epochs must be non-negative, got {epochs}")
    if not 0 < lr < math.inf:
        raise DataError(f"probe learning rate must be positive and finite, got {lr}")
    if not 0 <= weight_decay < math.inf:
        raise DataError(f"probe weight decay must be non-negative and finite, got {weight_decay}")
    y_train = labels[split.train]
    if np.unique(y_train).size < 2:
        raise DataError("degenerate train split: a linear probe needs at least 2 classes")
    if split.val.size == 0:
        raise DataError("empty validation split: the linear probe picks its epoch on it")
    num_classes = int(labels[np.concatenate([split.train, split.val, split.test])].max()) + 1
    x_train = embeddings[split.train]
    x_val = embeddings[split.val]
    y_val = labels[split.val]

    d = embeddings.shape[1]
    theta = np.zeros((d + 1, num_classes))
    grad = np.empty_like(theta)
    w, b = theta[:d], theta[d]
    params, grads = {"probe": theta}, {"probe": grad}
    state = AdamState(lr=lr, weight_decay=weight_decay)

    def val_accuracy():
        scores = x_val @ w
        scores += b
        return np.count_nonzero(scores.argmax(axis=1) == y_val) / y_val.size

    best_acc, best_epoch, best = val_accuracy(), 0, theta.copy()
    for epoch in range(1, epochs + 1):
        if best_acc == 1.0:
            break
        scores = x_train @ w
        scores += b
        _, g_logits = softmax_cross_entropy(scores, y_train)
        np.matmul(x_train.T, g_logits, out=grad[:d])
        g_logits.sum(axis=0, out=grad[d])
        adam_step(params, grads, state)
        acc = val_accuracy()
        if acc > best_acc:
            best_acc, best_epoch, best = acc, epoch, theta.copy()
    return LinearProbe(w=best[:d], b=best[d], best_epoch=best_epoch)


@dataclass(eq=False)
class EvalReport:
    """Test-split classification report."""

    accuracy: float
    weighted_f1: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "weighted_f1": self.weighted_f1,
            "per_class": [
                {
                    "label": int(c),
                    "precision": float(self.precision[c]),
                    "recall": float(self.recall[c]),
                    "f1": float(self.f1[c]),
                    "support": int(self.support[c]),
                }
                for c in range(self.support.shape[0])
            ],
        }


def classification_report(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int) -> EvalReport:
    """Accuracy plus per-class precision/recall/F1 and the support-weighted
    F1 mean. Undefined ratios (empty denominator) count as 0."""
    if y_true.size == 0:
        raise DataError("empty evaluation set")
    if min(y_true.min(), y_pred.min()) < 0 or max(y_true.max(), y_pred.max()) >= num_classes:
        raise DataError(f"labels and predictions must lie in 0..{num_classes - 1}")
    # confusion[t, p]: how many nodes of class t are predicted p
    confusion = np.bincount(y_true * num_classes + y_pred, minlength=num_classes * num_classes)
    confusion = confusion.reshape(num_classes, num_classes)
    tp = np.diagonal(confusion)
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    precision = np.divide(tp, predicted, out=np.zeros(num_classes), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(num_classes), where=support > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(num_classes), where=both > 0)
    accuracy = float(np.mean(y_pred == y_true))
    weighted_f1 = float(np.sum(support * f1) / support.sum())
    return EvalReport(accuracy=accuracy, weighted_f1=weighted_f1, precision=precision,
                      recall=recall, f1=f1, support=support)


def evaluate(probe: LinearProbe, embeddings: np.ndarray, labels: np.ndarray,
             split: SplitSpec) -> EvalReport:
    """Score the probe on the test split."""
    if split.test.size == 0:
        raise DataError("empty test split")
    y_true = labels[split.test]
    y_pred = probe.predict(embeddings[split.test])
    return classification_report(y_true, y_pred, probe.num_classes)


@dataclass(frozen=True)
class InvarianceConfig:
    """Protocol knobs for the per-timespan supervised probe."""

    epochs: int = 150
    lr: float = 1e-2
    weight_decay: float = 5e-4
    d_hidden: int = 128
    d_out: int = 64
    encoder: str = "gcn"
    ratios: tuple = (1, 1, 8)
    seed: int = 0

    def validate(self) -> "InvarianceConfig":
        if self.encoder not in PROBE_ENCODERS:
            raise DataError(f"unknown probe encoder {self.encoder!r}; expected one of {PROBE_ENCODERS}")
        if self.epochs < 1 or not (0 < self.lr < math.inf and 0 <= self.weight_decay < math.inf):
            raise DataError("probe epochs must be >= 1 and rates finite, lr > 0, weight decay >= 0")
        if self.d_hidden < 1 or self.d_out < 1:
            raise DataError(f"probe layer widths must be at least 1, got d_hidden {self.d_hidden} "
                            f"and d_out {self.d_out}")
        if self.seed < 0:
            raise DataError(f"probe seed must be non-negative, got {self.seed}")
        return self


@dataclass(eq=False)
class InvarianceResult:
    """Pairwise prediction-agreement rates between timespan probes.

    ``matrix[i, j]`` is the fraction of shared evaluation nodes on which
    the probes of timespans i and j predict the same label. A missing
    timespan (no edges or no trainable labels) has NaN in its whole row
    and column, its diagonal entry included.
    """

    matrix: np.ndarray
    eval_nodes: np.ndarray

    def mean_agreement(self) -> float:
        s = self.matrix.shape[0]
        off = ~np.eye(s, dtype=bool)
        vals = self.matrix[off]
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            return float("nan")
        return float(vals.mean())


def _fit_timespan_probe(view: SampledView, x: np.ndarray, train_nodes: np.ndarray, y_train: np.ndarray,
                        eval_nodes: np.ndarray, num_classes: int, cfg: InvarianceConfig,
                        stream: int) -> np.ndarray:
    """Fit one supervised encoder on timespan ``stream``'s view; return the logits of
    ``eval_nodes``, a row each in the order given (internal ids, as ``train_nodes``, in any
    order). Its rows come from :func:`view_inputs`. It opens its own errstate and raises its
    own NumericError, naming the timespan, so a fit behaves the same on any thread."""
    base = np.random.default_rng([cfg.seed, 31, stream])
    params = init_params(x.shape[1], cfg.d_hidden, cfg.d_out, seed=int(base.integers(2 ** 31)))
    head_w = glorot(base, cfg.d_out, num_classes)
    head_b = np.zeros(num_classes)
    entry = (view_entry(view, x) if cfg.encoder == "gcn"
             else ViewEntry(view, sp.eye_array(view.num_active, format="csr"), x))

    trainable = {"gcn_w1": params.gcn_w1, "gcn_w2": params.gcn_w2,
                 "head_w": head_w, "head_b": head_b}
    state = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    field, train_h, _ = view_inputs(entry, train_nodes, False)  # every epoch encodes the same rows
    with np.errstate(over="ignore", invalid="ignore"):  # checked below and by adam_step
        for _ in range(cfg.epochs):
            h, cache = encode(field, params)
            _, g_logits = softmax_cross_entropy(h[train_h] @ head_w + head_b, y_train)
            g_h = np.zeros_like(h)
            g_h[train_h] = g_logits @ head_w.T
            enc_grads = encode_backward(g_h, cache, params)
            grads = {"gcn_w1": enc_grads["gcn_w1"], "gcn_w2": enc_grads["gcn_w2"],
                     "head_w": h[train_h].T @ g_logits, "head_b": g_logits.sum(axis=0)}
            try:
                adam_step(trainable, grads, state)
            except NumericError as exc:
                raise NumericError(f"{exc} in the probe of timespan {stream}") from exc
        h, _ = encode(view_inputs(entry, view.active, False)[0], params)  # Â itself
        logits = h @ head_w + head_b
    if not np.isfinite(logits).all():
        raise NumericError(f"non-finite logits from the probe of timespan {stream}")
    return logits[view.local_index_of(eval_nodes)]


def probe_invariance(graph: TemporalGraph, labels, s: int,
                     cfg: InvarianceConfig = InvarianceConfig()) -> InvarianceResult:
    """Agreement of independent per-timespan supervised probes.

    ``labels`` is either one full-length label array used everywhere or a
    sequence of s arrays (one per timespan), which enables the
    shuffled-label control. It picks the timespans to measure and compares
    their predictions of the shared test nodes; each is one fit on its view
    of the train split (:func:`_fit_timespan_probe`), and the fits run as tasks of
    :func:`tgcl.kernels.map_tasks`. It warns of every missing timespan, in timespan
    order, before any fit starts; a failed fit's error is the first in timespan order,
    raised after every fit is done. Fewer than two measured is a DataError.
    """
    cfg.validate()
    if not 2 <= s <= graph.num_edges:  # more timespans than edges leave some empty
        raise DataError(f"agreement needs from 2 timespans to one per edge "
                        f"({graph.num_edges}), got s={s}")
    if isinstance(labels, np.ndarray) and labels.ndim == 1:
        labels_per_span = [labels] * s
    else:
        labels_per_span = [np.asarray(a) for a in labels]
        if len(labels_per_span) != s:
            raise DataError(f"got {len(labels_per_span)} label arrays for s={s} timespans")
    for t, a in enumerate(labels_per_span):
        if a.shape != (graph.num_nodes,):
            raise DataError(f"label array {t} has shape {a.shape}; expected one entry for "
                            f"each of the graph's {graph.num_nodes} nodes")

    # a timespan without labels is marked missing below
    num_classes = max((int(a.max()) for a in labels_per_span), default=-1) + 1
    if num_classes < 1:
        raise DataError("no timespan has a labeled node")
    views = to_snapshots(graph, s)
    split = make_split(labels_per_span[0], ratios=cfg.ratios, seed=cfg.seed)

    # the first and last snapshots hold the edges at t_min and t_max, so two have edges
    nonempty = [view for view in views if not view.is_empty]
    eval_nodes = np.intersect1d(shared_nodes(nonempty), split.test, assume_unique=True)

    fits = {}  # measured timespan -> the arguments of its fit; a timespan not here is missing
    for t, view in enumerate(views):
        y_full = labels_per_span[t]
        train_nodes = np.intersect1d(split.train, view.active, assume_unique=True)
        train_nodes = train_nodes[y_full[train_nodes] >= 0]
        if view.is_empty:
            warnings.warn(f"timespan {t} has no edges; marked missing")
        elif not (train_nodes.size and eval_nodes.size):
            warnings.warn(f"timespan {t} has no shared labeled nodes; marked missing")
        else:
            fits[t] = (view, graph.features, train_nodes, y_full[train_nodes], eval_nodes,
                       num_classes, cfg, t)
    # measured timespan -> its predictions of eval_nodes
    preds = {t: np.argmax(logits, axis=1)
             for t, logits in zip(fits, map_tasks(_fit_timespan_probe, fits.values()))}

    if len(preds) < 2:
        raise DataError(f"no pair of timespans to compare: measured {len(preds)} of {s}, the rest "
                        f"have no edges or no shared labeled train or test node")
    matrix = np.full((s, s), np.nan)
    for i, j in itertools.combinations_with_replacement(preds, 2):  # the diagonal reads 1.0
        matrix[i, j] = matrix[j, i] = np.mean(preds[i] == preds[j])
    return InvarianceResult(matrix=matrix, eval_nodes=eval_nodes)


def generate_synthetic(
    k: int,
    n: int,
    T: float,
    p_in: float,
    p_out: float,
    events: int,
    seed: int = 0,
    feature_policy: str = "degree-buckets",
    feature_dim: int = 32,
) -> TemporalGraph:
    """Persistent-community temporal graph: a desk-scale learnable fixture.

    Node i belongs to community i mod k for the whole timespan. Each of
    ``events`` edges picks a uniform source, then a partner with weight
    p_in for same-community candidates and p_out otherwise; timestamps
    are uniform on [0, T]. Nodes left isolated get one self-event so the
    node table always covers 0..n-1. Labels are the community ids.
    """
    if k < 2 or n < k:
        raise DataError(f"need n >= k >= 2, got k={k} n={n}")
    if not 0 < T < math.inf:
        raise DataError(f"timespan must be positive and finite, got {T}")
    if not 0 <= p_out < p_in < math.inf:
        raise DataError(f"need p_in > p_out >= 0, both finite, got p_in={p_in} p_out={p_out}")
    if events < n:
        raise DataError(f"need events >= n, got events={events} n={n}")

    rng = np.random.default_rng([seed, 5])
    comm = np.arange(n, dtype=np.int64) % k  # community c is c, c+k, c+2k, ...
    sizes = np.bincount(comm, minlength=k)
    if not all(math.isfinite(p_in * (c - 1) + p_out * (n - c)) for c in set(sizes.tolist())):
        raise DataError(f"p_in={p_in} is too large: a source's total partner weight overflows")

    src = rng.integers(0, n, size=events)
    m_same = sizes[comm[src]] - 1
    m_diff = n - sizes[comm[src]]
    weight_in = p_in * m_same
    p_intra = np.divide(weight_in, weight_in + p_out * m_diff,
                        out=np.zeros(events), where=(weight_in + p_out * m_diff) > 0)
    intra = rng.random(events) < p_intra
    j = rng.integers(0, np.where(intra, np.maximum(m_same, 1), m_diff))

    # the j-th partner among the source's community with the source skipped,
    # or among the other nodes in ascending order, k-1 in each block of k
    q, r = np.divmod(j, k - 1)
    dst = np.where(intra, comm[src] + k * (j + (j >= src // k)),
                   q * k + r + (r >= comm[src]))
    timestamps = rng.uniform(0.0, T, size=events)

    present = np.zeros(n, dtype=bool)
    present[src] = True
    present[dst] = True
    lonely = np.flatnonzero(~present)
    if lonely.size:
        src = np.concatenate([src, lonely])
        dst = np.concatenate([dst, lonely])
        timestamps = np.concatenate([timestamps, rng.uniform(0.0, T, size=lonely.size)])

    return build_graph(
        src, dst, timestamps,
        labels=(np.arange(n), comm),
        feature_policy=feature_policy,
        feature_dim=feature_dim,
        feature_seed=seed,
    )
