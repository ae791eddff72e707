"""Output checks computed apart from tgcl.

Each check compares a stage's output with a computation or a property the
method must have, built from the benchmark's own input arrays, never with
a stored copy of earlier output. Every check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.sparse as sp

# float64 rounding over a few dozen summands per entry stays near 1e-15
# relative; anything above this is a different computation
EMB_RTOL = 1e-10
CHECKPOINT_MAGIC = b"tgcl-checkpoint v1\n"


def read_checkpoint(path) -> dict:
    """Tensors of a checkpoint in tgcl's documented layout: a magic line, a
    JSON header line listing the tensors, then raw little-endian float64."""
    with open(path, "rb") as fh:
        if fh.readline() != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic")
        header = json.loads(fh.readline())
        tensors = {}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            count = math.prod(shape)
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise ValueError(f"{path}: truncated tensor {entry['name']}")
            tensors[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape)
    return tensors


def normalized_adjacency(node_ids, src, dst) -> sp.csr_matrix:
    """D^-1/2 (A + I) D^-1/2, A the 0/1 symmetric adjacency of the distinct
    non-self-loop pairs among the edges (external ids)."""
    n = node_ids.size
    u = np.searchsorted(node_ids, src)
    v = np.searchsorted(node_ids, dst)
    keep = u != v
    a = sp.coo_matrix((np.ones(int(keep.sum())), (u[keep], v[keep])), shape=(n, n)).tocsr()
    a = ((a + a.T) > 0).astype(np.float64) + sp.identity(n, format="csr")
    d = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    return sp.diags(d) @ a @ sp.diags(d)


def check_ingest(inputs, node_ids, labels, features, num_edges, t_min, t_max) -> list:
    problems = []
    if not np.array_equal(node_ids, inputs.node_ids):
        problems.append("node table differs from the ids in the input files")
        return problems
    if not np.array_equal(labels, inputs.labels):
        problems.append("labels differ from the labels file")
    if not np.array_equal(features, inputs.features):
        problems.append("features differ from the features file")
    if num_edges != inputs.timestamps.size:
        problems.append(f"{num_edges} edges loaded, {inputs.timestamps.size} written")
    if (t_min, t_max) != (inputs.timestamps.min(), inputs.timestamps.max()):
        problems.append(f"timespan [{t_min}, {t_max}] differs from the edges file")
    return problems


def check_embeddings(inputs, features, tensors, emb) -> list:
    """embed_all must equal Â·ReLU(Â·X·W1)·W2 with the checkpoint's weights."""
    adj = normalized_adjacency(inputs.node_ids, inputs.src, inputs.dst)
    ref = adj @ np.maximum((adj @ features) @ tensors["gcn_w1"], 0.0) @ tensors["gcn_w2"]
    if emb.shape != ref.shape:
        return [f"embeddings shape {emb.shape}, expected {ref.shape}"]
    if not np.all(np.isfinite(emb)):
        return ["non-finite embeddings"]
    err = float(np.max(np.abs(emb - ref)))
    scale = float(np.max(np.abs(ref)))
    if err > EMB_RTOL * scale:
        return [f"embeddings differ from the reference by {err:.3e} (scale {scale:.3e})"]
    return []


def check_windows(timestamps, windows, s, strategy) -> list:
    """Every window has length timespan/s, lies in [t_min, t_max] and holds
    an edge; sequential windows sit on distinct slots of the s-way partition.
    ``windows`` has shape (epochs, v, 2) holding (lo, hi)."""
    t_min, t_max = float(timestamps.min()), float(timestamps.max())
    length = (t_max - t_min) / s
    tol = 1e-9 * (t_max - t_min)
    ts = np.sort(timestamps)
    problems = []
    for epoch, ws in enumerate(windows, start=1):
        for lo, hi in ws:
            where = f"epoch {epoch} window [{lo!r}, {hi!r}]"
            if abs((hi - lo) - length) > tol:
                problems.append(f"{where}: length {hi - lo!r}, expected {length!r}")
            if lo < t_min - tol or hi > t_max + tol:
                problems.append(f"{where}: outside [{t_min!r}, {t_max!r}]")
            if np.searchsorted(ts, hi, side="right") <= np.searchsorted(ts, lo, side="left"):
                problems.append(f"{where}: holds no edge")
        if strategy == "sequential":
            slots = (ws.mean(axis=1) - t_min) / length - 0.5
            k = np.rint(slots)
            if (np.any(np.abs(slots - k) > 1e-9) or np.any(k < 0) or np.any(k >= s)
                    or np.unique(k).size != k.size):
                problems.append(f"epoch {epoch}: windows not on distinct slots of the {s}-way partition")
    return problems


def shared_count(src, dst, timestamps, window_pairs) -> int:
    """Size of the intersection of the windows' endpoint sets."""
    shared = None
    for lo, hi in window_pairs:
        mask = (timestamps >= lo) & (timestamps <= hi)
        ends = np.unique(np.concatenate([src[mask], dst[mask]]))
        shared = ends if shared is None else np.intersect1d(shared, ends, assume_unique=True)
    return int(shared.size)


def check_shared(inputs, windows, shared) -> list:
    problems = []
    for epoch, (ws, logged) in enumerate(zip(windows, shared), start=1):
        expected = shared_count(inputs.src, inputs.dst, inputs.timestamps, ws)
        if int(logged) != expected:
            problems.append(f"epoch {epoch}: shared {int(logged)}, expected {expected}")
    return problems


def infonce_bounds(batch: int, tau: float):
    """Range of InfoNCE over unit vectors with a batch of B in-batch rows."""
    return (math.log1p((batch - 1) * math.exp(-2.0 / tau)),
            math.log1p((batch - 1) * math.exp(2.0 / tau)))


def check_losses(losses, shared, batch_size, tau, must_fall: bool) -> list:
    problems = []
    for epoch, (loss, n) in enumerate(zip(losses, shared), start=1):
        lo, hi = infonce_bounds(min(batch_size, int(n)), tau)
        if not (math.isfinite(loss) and lo - 1e-9 <= loss <= hi + 1e-9):
            problems.append(f"epoch {epoch}: loss {loss!r} outside [{lo:.6f}, {hi:.6f}]")
    if must_fall:
        tail = float(np.mean(losses[-max(1, len(losses) // 4):]))
        if not tail < losses[0]:
            problems.append(f"loss did not fall: first epoch {losses[0]:.6f}, last epochs {tail:.6f}")
    return problems


def probe_accuracy(labels, test, preds) -> float:
    """Accuracy of the probe's test-split predictions against planted labels."""
    return float(np.mean(np.asarray(preds) == labels[test]))


def check_probe(labels, test, preds, reported: float, communities: int) -> list:
    acc = probe_accuracy(labels, test, preds)
    problems = []
    if abs(acc - reported) > 1e-12:
        problems.append(f"reported accuracy {reported!r}, predictions give {acc!r}")
    if not acc > 1.0 / communities:
        problems.append(f"accuracy {acc!r} does not beat chance 1/{communities}")
    return problems
