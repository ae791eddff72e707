"""Forward model: shared-weight GCN encoder, neighborhood readout,
projection head; plus hand-wired backward passes and checkpoint IO.

The encoder is the standard two-layer graph convolution over the
symmetrically normalized self-loop adjacency: ReLU after the first
propagation, no activation after the second (the second layer's output is
the representation handed to downstream consumers). It computes only the
rows it is asked for, from the rows they need of the first propagation
P0 = Â·X. P0 and Â's rows carry no parameters, so they are taken apart
from the encoder (:func:`receptive_field`, :func:`view_inputs`), and a
caller that encodes the same rows again takes them once. The projection
head is linear -> LeakyReLU -> linear -> row L2 normalization. All views
share one parameter object.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import kernels
from .errors import DataError, NumericError
from .graph import SampledView, running_index

CHECKPOINT_MAGIC = "tgcl-checkpoint v1"
PARAM_FIELDS = ("gcn_w1", "gcn_w2", "proj_w1", "proj_b1", "proj_w2", "proj_b2")
READOUT_STATS = ("mean", "max", "sum")
_MAX_HEADER_BYTES = 1 << 20


@dataclass
class ModelParams:
    """All trainable tensors: two GCN weights, two projection layers."""

    gcn_w1: np.ndarray
    gcn_w2: np.ndarray
    proj_w1: np.ndarray
    proj_b1: np.ndarray
    proj_w2: np.ndarray
    proj_b2: np.ndarray

    @property
    def d_in(self) -> int:
        return self.gcn_w1.shape[0]

    @property
    def d_hidden(self) -> int:
        return self.gcn_w1.shape[1]

    @property
    def d_out(self) -> int:
        return self.gcn_w2.shape[1]

    @property
    def num_params(self) -> int:
        return sum(getattr(self, f).size for f in PARAM_FIELDS)

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in PARAM_FIELDS}

    def zeros_like_grads(self) -> dict:
        return {f: np.zeros_like(getattr(self, f)) for f in PARAM_FIELDS}


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """A (fan_in, fan_out) Glorot-uniform weight matrix drawn from rng."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(d_in: int, d_hidden: int = 128, d_out: int = 64, seed: int = 0) -> ModelParams:
    """Seeded Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng([seed, 17])
    return ModelParams(
        gcn_w1=glorot(rng, d_in, d_hidden),
        gcn_w2=glorot(rng, d_hidden, d_out),
        proj_w1=glorot(rng, d_out, d_out),
        proj_b1=np.zeros(d_out),
        proj_w2=glorot(rng, d_out, d_out),
        proj_b2=np.zeros(d_out),
    )


def normalize_adjacency(view: SampledView) -> sp.csr_array:
    """Â = D^-1/2 (A + I) D^-1/2 over the view's active nodes, CSR with
    sorted column indices: symmetrize, add self-loops, normalize by the
    sqrt of the augmented degrees. The encoder propagates with it, and the
    readout reads its neighbour rows off its structure (:func:`readout_rows`).

    Duplicate, reversed and self edges collapse, so Â depends only on the
    set of distinct undirected pairs, not on edge order.
    """
    if view.is_empty:
        raise DataError("cannot normalize adjacency of an empty view")
    n = view.num_active
    a = np.minimum(view.src, view.dst)
    b = np.maximum(view.src, view.dst)
    # sort + adjacent compare: plain np.unique hashes, many times slower than a sort
    keys = np.sort((a * np.int64(n) + b)[a != b])
    pairs = keys[np.diff(keys, prepend=-1) != 0]
    a, b = np.divmod(pairs, n)
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n) + 1  # self-loop
    loops = np.arange(n, dtype=np.int64)
    # the entries (a, b), (b, a) and (i, i) in row-major order, by their keys row·n + col
    rows, cols = np.divmod(np.sort(np.concatenate([pairs, b * n + a, loops * (n + 1)])), n)
    indptr = np.concatenate(([0], np.cumsum(deg)))
    return sp.csr_array((1.0 / np.sqrt(deg[rows] * deg[cols]), cols, indptr), shape=(n, n))


def adj_matmul(entry: ViewEntry, x: np.ndarray, rows: np.ndarray):
    """Rows ``rows`` (a boolean mask over the view's nodes) of P0 = Â·X, each bit-identical to
    that row of the full product; ``x`` is ``entry.x``, passed for bench/tracer.py to read."""
    a = entry.adj if rows.all() else entry.adj[rows]  # Â itself with every row asked
    cols = entry.view.active[a.indices]  # graph ids, sorted as active is
    return kernels.spmm(sp.csr_array((a.data, cols, a.indptr), shape=(a.shape[0], len(x))), x)


@dataclass(eq=False)
class ViewEntry:
    """One view, its Â (``adj``) and a reference to the graph's feature matrix ``x``."""

    view: SampledView
    adj: sp.csr_array
    x: np.ndarray

    @property
    def vals(self) -> np.ndarray:
        """Â's nonzeros, read-only. It stays only because bench/tracer.py
        counts them per ``adj_matmul`` call, and goes once the tracer counts
        the nonzeros of the rows each product reads off ``adj``."""
        vals = self.adj.data.view()
        vals.flags.writeable = False
        return vals


def view_entry(view: SampledView, x: np.ndarray) -> ViewEntry:
    return ViewEntry(view, normalize_adjacency(view), x)


def receptive_field(entry: ViewEntry, rows: np.ndarray):
    """The parameter-free part of :func:`encode` for the rows ``rows``, a
    boolean mask over the view's nodes: (a_rows, p0). F is the set of nodes
    Â[rows] reaches; ``a_rows`` is Â[rows] with its columns renumbered to
    positions in F, and ``p0`` is P0[F], those rows of P0 = Â·X, each
    bit-identical to that row of the full product. With every row asked, F
    is every node (each row holds its self-loop), so ``a_rows`` is Â itself."""
    if rows.all():
        return entry.adj, adj_matmul(entry, entry.x, rows)
    a_rows = entry.adj[rows]
    frontier = np.zeros(rows.shape[0], dtype=bool)
    frontier[a_rows.indices] = True
    p0 = adj_matmul(entry, entry.x, frontier)
    cols = running_index(frontier)[a_rows.indices]  # positions in F
    a_rows = sp.csr_array((a_rows.data, cols, a_rows.indptr), shape=(a_rows.shape[0], p0.shape[0]))
    return a_rows, p0


@dataclass(eq=False)
class EncodeCache:
    a_rows: sp.csr_array  # Â[rows], its columns renumbered to positions in F
    p0: np.ndarray  # P0[F]
    mask: np.ndarray  # S1 > 0, the ReLU's mask, where S1 = P0[F] · W1
    p1: np.ndarray  # Â[rows] · ReLU(S1)


def encode(field, params: ModelParams):
    """Two-layer graph convolution, ReLU between the layers, on the rows of
    a :func:`receptive_field` ``field``: H = Â[rows] · ReLU(P0[F] · W1) · W2.
    Returns (H, cache); H has one row per row asked for, in row order.
    """
    a_rows, p0 = field
    if p0.shape[1] != params.d_in:
        raise ValueError(f"feature dim {p0.shape[1]} != encoder input dim {params.d_in}")
    s1 = kernels.matmul(p0, params.gcn_w1)
    p1 = kernels.spmm(a_rows, np.maximum(s1, 0.0))
    h = kernels.matmul(p1, params.gcn_w2)
    return h, EncodeCache(a_rows=a_rows, p0=p0, mask=s1 > 0.0, p1=p1)


def encode_backward(grad_h2: np.ndarray, cache: EncodeCache, params: ModelParams) -> dict:
    """Gradients of W1 and W2 from the gradient of :func:`encode`'s H."""
    g_p1, g_w2 = kernels.matmul_backward(grad_h2, cache.p1, params.gcn_w2)
    g_s1 = kernels.spmm(cache.a_rows.T.tocsr(), g_p1) * cache.mask
    return {"gcn_w1": cache.p0.T @ g_s1, "gcn_w2": g_w2}


def readout_rows(adj: sp.csr_array, batch: np.ndarray) -> sp.csr_array:
    """The 0/1 neighbour rows of the view nodes ``batch``: each node's
    distinct neighbours, or the node itself when it has none, so every row
    is non-empty. They are Â's rows without the self-loop, kept only on a
    row that has nothing else."""
    a_rows = adj[batch]
    deg = np.diff(a_rows.indptr)  # distinct neighbours plus the self-loop
    cols = a_rows.indices[(a_rows.indices != np.repeat(batch, deg)) | (np.repeat(deg, deg) == 1)]
    indptr = np.concatenate(([0], np.cumsum(np.maximum(deg - 1, 1))))
    return sp.csr_array((np.ones(cols.size), cols, indptr), shape=a_rows.shape)


def readout(rows: sp.csr_array, h: np.ndarray, stat: str):
    """Aggregate each batch node's 1-hop in-view neighbor rows of ``h``.

    ``rows`` are the batch rows of a view's neighbour matrix
    (:func:`readout_rows`), with columns that index ``h``. The node itself
    is excluded; a batch node with no in-view neighbor falls back to its
    own row. Mean and sum are one sparse product with ``rows``; max
    reduces over their index segments.
    """
    if stat not in READOUT_STATS:
        raise ValueError(f"unknown readout stat {stat!r}; expected one of {READOUT_STATS}")
    if stat == "max":
        out = kernels.segment_reduce(h[rows.indices], rows.indptr)
    else:
        out = kernels.spmm(rows, h)
        if stat == "mean":
            out /= np.diff(rows.indptr)[:, None]
    return out


def readout_backward(grad_out: np.ndarray, rows: sp.csr_array, h: np.ndarray, stat: str) -> np.ndarray:
    """The gradient of :func:`readout`'s matrix with respect to ``h``."""
    if stat == "max":
        grad_values = kernels.segment_reduce_backward(grad_out, h[rows.indices], rows.indptr)
        grad_h = np.zeros_like(h)
        np.add.at(grad_h, rows.indices, grad_values)
        return grad_h
    if stat == "mean":
        grad_out = grad_out / np.diff(rows.indptr)[:, None]
    return kernels.spmm(rows.T.tocsr(), grad_out)


@dataclass(eq=False)
class ProjectCache:
    x: np.ndarray
    l1: np.ndarray  # LeakyReLU(s1), positive exactly where s1 is
    z: np.ndarray  # the rows of s2 over their norms
    norms: np.ndarray


def project(x: np.ndarray, params: ModelParams):
    """Two-layer MLP head with LeakyReLU, rows L2-normalized to the sphere."""
    s1 = kernels.matmul(x, params.proj_w1)
    s1 += params.proj_b1
    l1 = kernels.leaky_relu(s1)
    s2 = kernels.matmul(l1, params.proj_w2)
    s2 += params.proj_b2
    z, norms = kernels.row_l2_normalize(s2)
    return z, ProjectCache(x=x, l1=l1, z=z, norms=norms)


def project_backward(grad_z: np.ndarray, cache: ProjectCache, params: ModelParams):
    """(dL/dx, the head's grads) from dL/dz. Each gradient is dropped once
    read, so at most two arrays of the batch's size are alive at a time."""
    g_s2 = kernels.row_l2_normalize_backward(grad_z, cache.z, cache.norms)
    grad_z = None
    g_b2 = g_s2.sum(axis=0)
    g_l1, g_w2 = kernels.matmul_backward(g_s2, cache.l1, params.proj_w2)
    g_s2 = None
    g_s1 = kernels.leaky_relu_backward(g_l1, cache.l1)
    g_l1 = None
    g_x, g_w1 = kernels.matmul_backward(g_s1, cache.x, params.proj_w1)
    return g_x, {"proj_w1": g_w1, "proj_b1": g_s1.sum(axis=0), "proj_w2": g_w2, "proj_b2": g_b2}


@dataclass(eq=False)
class ViewCache:
    enc: EncodeCache
    batch: np.ndarray  # the batch rows' positions in h
    h: np.ndarray
    proj: ProjectCache
    neigh: sp.csr_array | None  # the batch rows' readout rows, columns into h; None at node level
    stat: str


def view_inputs(entry: ViewEntry, batch_nodes: np.ndarray, with_neighborhood: bool):
    """The parameter-free part of :func:`embed_views` for one view and the
    ``batch_nodes`` (internal graph node indices, all active in the view):
    (field, batch, neigh). ``field`` is the :func:`receptive_field` of the
    batch rows, and of their neighbour rows with the neighborhood; ``batch``
    holds the batch rows' positions in the encoder's H, and ``neigh`` their
    readout rows with columns into H, or None without the neighborhood."""
    batch_local = entry.view.local_index_of(np.asarray(batch_nodes, dtype=np.int64))
    rows = np.zeros(entry.view.num_active, dtype=bool)
    rows[batch_local] = True
    neigh = readout_rows(entry.adj, batch_local) if with_neighborhood else None
    if neigh is not None:
        rows[neigh.indices] = True
    pos = running_index(rows)  # the row of H of each node in rows
    batch = pos[batch_local]
    if neigh is not None:
        neigh = sp.csr_array((neigh.data, pos[neigh.indices], neigh.indptr),
                             shape=(batch.size, np.count_nonzero(rows)))
    return receptive_field(entry, rows), batch, neigh


def embed_views(inputs, params: ModelParams, stat: str):
    """Encode every view with the same parameters and project the batch
    rows into queries and keys.

    ``inputs`` holds one :func:`view_inputs` triple per view. The queries
    are the projected batch rows. With the neighborhood, the keys are the
    projected readouts of those rows; the batch rows and the readouts go
    through one projection. Without it, the keys are the queries. Returns
    (pairs, caches), both lists indexed by view, with pairs[i] =
    (queries, keys). The views run as tasks of :func:`kernels.map_tasks`.
    """
    def embed_view(field, batch, neigh):
        h, enc_cache = encode(field, params)
        x = h[batch]
        if neigh is not None:
            x = np.vstack([x, readout(neigh, h, stat=stat)])
        z, proj_cache = project(x, params)
        pair = (z, z) if neigh is None else (z[:batch.size], z[batch.size:])
        return pair, ViewCache(enc_cache, batch, h, proj_cache, neigh, stat)

    views = kernels.map_tasks(embed_view, inputs)
    return [pair for pair, _ in views], [cache for _, cache in views]


def embed_views_backward(zgrads, caches, params: ModelParams) -> dict:
    """Accumulate parameter gradients from per-view (queries, keys) grads.

    ``zgrads`` holds one (g_queries, g_keys) per view, aligned with the
    list ``caches`` from :func:`embed_views`. Where the keys are the
    queries, the two gradients add. Each view's backward is a task of
    :func:`kernels.map_tasks`. The backward consumes the caches: each task
    takes its view's cache out of ``caches``, which is left all None, and
    empties it as it reads it, so a view's arrays die during its backward
    and not after every view's. The views' gradients are summed in view order.
    """
    zgrads = list(zgrads)
    if not isinstance(caches, list):
        raise TypeError(f"caches must be the list embed_views returned, got {type(caches).__name__}")
    if len(caches) != len(zgrads):
        raise ValueError(f"{len(zgrads)} views' gradients for {len(caches)} caches")
    if any(cache is None for cache in caches):
        raise ValueError("a cache was consumed by an earlier embed_views_backward")

    def view_backward(i, g_q, g_k):
        cache, caches[i] = caches[i], None
        b = cache.batch.size
        g_x, proj_grads = project_backward(
            g_q + g_k if cache.neigh is None else np.vstack([g_q, g_k]), cache.proj, params)
        cache.proj = None  # dropped as soon as read, as are g_x and h below
        grad_h = np.zeros_like(cache.h)
        grad_h[cache.batch] += g_x[:b]  # the batch positions are distinct
        if cache.neigh is not None:
            grad_h += readout_backward(g_x[b:], cache.neigh, cache.h, cache.stat)
        g_x = cache.h = None
        proj_grads.update(encode_backward(grad_h, cache.enc, params))
        return proj_grads

    total = params.zeros_like_grads()
    for grads in kernels.map_tasks(view_backward, [(i, *g) for i, g in enumerate(zgrads)]):
        for k, g in grads.items():
            total[k] += g
    return total


def save_params(path, params: ModelParams, meta: dict | None = None) -> None:
    """Write a deterministic binary checkpoint (header JSON + raw float64).

    Layout: one magic line, one JSON line (dims, tensor manifest, meta),
    then the tensors' C-order little-endian float64 bytes in manifest
    order. Written atomically via a temp file. A non-finite tensor raises
    NumericError and writes nothing, since :func:`load_params` rejects it.
    """
    path = Path(path)
    for f in PARAM_FIELDS:
        if not np.isfinite(getattr(params, f)).all():
            raise NumericError(f"non-finite values in {f}; checkpoint {path} not written")
    header = {
        "dims": {"d_in": params.d_in, "d_hidden": params.d_hidden, "d_out": params.d_out},
        "tensors": [{"name": f, "shape": list(getattr(params, f).shape)} for f in PARAM_FIELDS],
        "meta": meta or {},
    }
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write((CHECKPOINT_MAGIC + "\n").encode("utf-8"))
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for f in PARAM_FIELDS:
            arr = np.ascontiguousarray(getattr(params, f), dtype="<f8")
            fh.write(arr.tobytes())
    os.replace(tmp, path)


def load_params(path):
    """Read a checkpoint back; returns (params, meta). Bit-exact round trip.

    Anything but the layout :func:`save_params` writes is a DataError: the
    header's tensor list must match its dims, the file must end with the
    last tensor, and every value must be finite.
    """
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.readline(len(CHECKPOINT_MAGIC) + 1).decode("utf-8", errors="replace").rstrip("\n")
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a checkpoint (bad magic {magic!r})")
        line = fh.readline(_MAX_HEADER_BYTES + 1)
        if len(line) > _MAX_HEADER_BYTES:
            raise DataError(f"{path}: checkpoint header exceeds {_MAX_HEADER_BYTES} bytes")
        try:
            header = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8
            raise DataError(f"{path}: malformed checkpoint header: {exc}") from None
        body = fh.read()
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    dims = header.get("dims")
    keys = ("d_in", "d_hidden", "d_out")
    if not isinstance(dims, dict) or not all(type(dims.get(k)) is int and dims[k] > 0 for k in keys):
        raise DataError(f"{path}: checkpoint dims must give positive integers {', '.join(keys)}")
    d_in, d_hidden, d_out = (dims[k] for k in keys)
    shapes = {"gcn_w1": [d_in, d_hidden], "gcn_w2": [d_hidden, d_out], "proj_w1": [d_out, d_out],
              "proj_b1": [d_out], "proj_w2": [d_out, d_out], "proj_b2": [d_out]}
    if header.get("tensors") != [{"name": f, "shape": shapes[f]} for f in PARAM_FIELDS]:
        raise DataError(f"{path}: checkpoint tensor list does not match its dims {dims}")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint meta is not a JSON object")
    sizes = {f: math.prod(shapes[f]) for f in PARAM_FIELDS}
    need = 8 * sum(sizes.values())
    if len(body) != need:
        what = "truncated checkpoint" if len(body) < need else "trailing bytes in checkpoint"
        raise DataError(f"{path}: {what}: {len(body)} tensor bytes where its dims need {need}")
    flat = np.frombuffer(body, dtype="<f8")
    if not np.all(np.isfinite(flat)):
        raise DataError(f"{path}: non-finite values in checkpoint tensors")
    arrays, start = {}, 0
    for f in PARAM_FIELDS:
        arrays[f] = flat[start:start + sizes[f]].reshape(shapes[f]).copy()
        start += sizes[f]
    return ModelParams(**arrays), meta
