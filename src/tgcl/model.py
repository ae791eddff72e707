"""Forward model: shared-weight GCN encoder, neighborhood readout,
projection head; plus hand-wired backward passes and checkpoint IO.

The encoder is the standard two-layer graph convolution over the
symmetrically normalized self-loop adjacency: ReLU after the first
propagation, no activation after the second (the second layer's output is
the representation handed to downstream consumers). The projection head
is linear -> LeakyReLU -> linear -> row L2 normalization. All views share
one parameter object.
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
from .errors import DataError
from .graph import SampledView

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

    def copy(self) -> "ModelParams":
        return ModelParams(**{f: getattr(self, f).copy() for f in PARAM_FIELDS})

    def zeros_like_grads(self) -> dict:
        return {f: np.zeros_like(getattr(self, f)) for f in PARAM_FIELDS}


def init_params(d_in: int, d_hidden: int = 128, d_out: int = 64, seed: int = 0) -> ModelParams:
    """Seeded Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng([seed, 17])

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    return ModelParams(
        gcn_w1=glorot(d_in, d_hidden),
        gcn_w2=glorot(d_hidden, d_out),
        proj_w1=glorot(d_out, d_out),
        proj_b1=np.zeros(d_out),
        proj_w2=glorot(d_out, d_out),
        proj_b2=np.zeros(d_out),
    )


@dataclass(frozen=True, eq=False)
class NormalizedAdjacency:
    """A view's two sparse neighbour matrices over its active nodes.

    ``norm`` is the symmetric D^-1/2 (A + I) D^-1/2 the encoder propagates
    with. ``nbr`` is the 0/1 neighbour matrix A with a self-loop on each
    node that has no other neighbour, so every row is non-empty; the
    readout aggregates its rows. Both are CSR with sorted column indices.
    """

    norm: sp.csr_array
    nbr: sp.csr_array

    @property
    def vals(self) -> np.ndarray:
        """The nonzeros of ``norm``, read-only."""
        vals = self.norm.data.view()
        vals.flags.writeable = False
        return vals


def normalize_adjacency(view: SampledView) -> NormalizedAdjacency:
    """Symmetrize, add self-loops, normalize by sqrt of augmented degrees.

    Duplicate, reversed and self edges collapse, so both matrices depend
    only on the set of distinct undirected pairs, not on edge order.
    """
    if view.is_empty:
        raise DataError("cannot normalize adjacency of an empty view")
    n = view.num_active
    a = np.minimum(view.src, view.dst)
    b = np.maximum(view.src, view.dst)
    pairs = np.unique((a * np.int64(n) + b)[a != b])
    a, b = pairs // n, pairs % n
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n) + 1  # self-loop
    loops = np.arange(n, dtype=np.int64)
    rows = np.concatenate([a, b, loops])
    cols = np.concatenate([b, a, loops])
    order = np.argsort(rows * n + cols)
    rows, cols = rows[order], cols[order]
    norm_indptr = np.concatenate(([0], np.cumsum(deg)))
    norm = sp.csr_array((1.0 / np.sqrt(deg[rows] * deg[cols]), cols, norm_indptr), shape=(n, n))
    # drop the self-loop of every node that has another neighbour
    nbr_cols = cols[(rows != cols) | (deg[rows] == 1)]
    nbr_indptr = np.concatenate(([0], np.cumsum(np.maximum(deg - 1, 1))))
    nbr = sp.csr_array((np.ones(nbr_cols.size), nbr_cols, nbr_indptr), shape=(n, n))
    return NormalizedAdjacency(norm=norm, nbr=nbr)


def adj_matmul(adj: NormalizedAdjacency, x: np.ndarray) -> np.ndarray:
    """Â @ x; Â is symmetric, so this is also its own adjoint."""
    return adj.norm @ x


@dataclass(eq=False)
class EncodeCache:
    p0: np.ndarray
    s1: np.ndarray
    p1: np.ndarray


def encode(view: SampledView, adj: NormalizedAdjacency, params: ModelParams):
    """Two-layer graph convolution of the view's features, ReLU between
    the layers.

    Returns (H, cache); H has one row per active node.
    """
    h0 = view.features
    if h0.shape[1] != params.d_in:
        raise ValueError(f"feature dim {h0.shape[1]} != encoder input dim {params.d_in}")
    p0 = adj_matmul(adj, h0)
    s1 = kernels.matmul(p0, params.gcn_w1)
    h1 = kernels.relu(s1)
    p1 = adj_matmul(adj, h1)
    h2 = kernels.matmul(p1, params.gcn_w2)
    return h2, EncodeCache(p0=p0, s1=s1, p1=p1)


def encode_backward(grad_h2: np.ndarray, cache: EncodeCache, adj: NormalizedAdjacency,
                    params: ModelParams) -> dict:
    g_p1, g_w2 = kernels.matmul_backward(grad_h2, cache.p1, params.gcn_w2)
    g_h1 = adj_matmul(adj, g_p1)  # symmetric adjoint
    g_s1 = kernels.relu_backward(g_h1, cache.s1)
    _, g_w1 = kernels.matmul_backward(g_s1, cache.p0, params.gcn_w1)
    return {"gcn_w1": g_w1, "gcn_w2": g_w2}


@dataclass(eq=False)
class ReadoutCache:
    rows: sp.csr_array  # the batch rows of the neighbour matrix
    stat: str


def readout(adj: NormalizedAdjacency, h: np.ndarray, batch_local: np.ndarray,
            stat: str = "mean"):
    """Aggregate each batch node's 1-hop in-view neighbor rows of ``h``.

    The node itself is excluded; a batch node with no in-view neighbor
    falls back to its own row. Mean and sum are one sparse product with
    the batch rows of ``adj.nbr``; max reduces over those rows' index
    segments. Returns (matrix, cache).
    """
    if stat not in READOUT_STATS:
        raise ValueError(f"unknown readout stat {stat!r}; expected one of {READOUT_STATS}")
    rows = adj.nbr[batch_local]
    if stat == "max":
        out = kernels.segment_reduce(h[rows.indices], rows.indptr)
    else:
        out = rows @ h
        if stat == "mean":
            out /= np.diff(rows.indptr)[:, None]
    return out, ReadoutCache(rows=rows, stat=stat)


def readout_backward(grad_out: np.ndarray, cache: ReadoutCache, h: np.ndarray) -> np.ndarray:
    rows = cache.rows
    if cache.stat == "max":
        grad_values = kernels.segment_reduce_backward(grad_out, h[rows.indices], rows.indptr)
        grad_h = np.zeros_like(h)
        np.add.at(grad_h, rows.indices, grad_values)
        return grad_h
    if cache.stat == "mean":
        grad_out = grad_out / np.diff(rows.indptr)[:, None]
    return rows.T @ grad_out


@dataclass(eq=False)
class ProjectCache:
    x: np.ndarray
    s1: np.ndarray
    l1: np.ndarray
    s2: np.ndarray


LEAKY_SLOPE = 0.01


def project(x: np.ndarray, params: ModelParams):
    """Two-layer MLP head with LeakyReLU, rows L2-normalized to the sphere."""
    s1 = kernels.add_bias(kernels.matmul(x, params.proj_w1), params.proj_b1)
    l1 = kernels.leaky_relu(s1, LEAKY_SLOPE)
    s2 = kernels.add_bias(kernels.matmul(l1, params.proj_w2), params.proj_b2)
    z = kernels.row_l2_normalize(s2)
    return z, ProjectCache(x=x, s1=s1, l1=l1, s2=s2)


def project_backward(grad_z: np.ndarray, cache: ProjectCache, params: ModelParams):
    g_s2 = kernels.row_l2_normalize_backward(grad_z, cache.s2)
    g_s2, g_b2 = kernels.add_bias_backward(g_s2)
    g_l1, g_w2 = kernels.matmul_backward(g_s2, cache.l1, params.proj_w2)
    g_s1 = kernels.leaky_relu_backward(g_l1, cache.s1, LEAKY_SLOPE)
    g_s1, g_b1 = kernels.add_bias_backward(g_s1)
    g_x, g_w1 = kernels.matmul_backward(g_s1, cache.x, params.proj_w1)
    grads = {"proj_w1": g_w1, "proj_b1": g_b1, "proj_w2": g_w2, "proj_b2": g_b2}
    return g_x, grads


@dataclass(eq=False)
class ViewEmbeddings:
    """Projected node (and optionally neighborhood) embeddings for one view,
    rows aligned with ``node_index`` across views."""

    node_z: np.ndarray
    neigh_z: np.ndarray | None
    node_index: np.ndarray


@dataclass(eq=False)
class ViewCache:
    adj: NormalizedAdjacency
    enc: EncodeCache
    batch_local: np.ndarray
    h: np.ndarray
    proj_node: ProjectCache
    proj_neigh: ProjectCache | None
    read: ReadoutCache | None


def embed_views(
    views,
    batch_nodes: np.ndarray,
    params: ModelParams,
    stat: str = "mean",
    with_neighborhood: bool = True,
):
    """Encode every view with the same parameters and project the batch rows.

    ``batch_nodes`` are internal graph node indices that must be active in
    every view. Returns (embeddings, caches), both lists indexed by view.
    """
    batch_nodes = np.asarray(batch_nodes, dtype=np.int64)
    embeddings, caches = [], []
    for view in views:
        adj = normalize_adjacency(view)
        h, enc_cache = encode(view, adj, params)
        batch_local = view.local_index_of(batch_nodes)
        node_z, proj_node = project(h[batch_local], params)
        neigh_z = proj_neigh = read_cache = None
        if with_neighborhood:
            r, read_cache = readout(adj, h, batch_local, stat=stat)
            neigh_z, proj_neigh = project(r, params)
        embeddings.append(ViewEmbeddings(node_z=node_z, neigh_z=neigh_z, node_index=batch_nodes))
        caches.append(
            ViewCache(
                adj=adj,
                enc=enc_cache,
                batch_local=batch_local,
                h=h,
                proj_node=proj_node,
                proj_neigh=proj_neigh,
                read=read_cache,
            )
        )
    return embeddings, caches


def embed_views_backward(zgrads, caches, params: ModelParams) -> dict:
    """Accumulate parameter gradients from per-view (node_z, neigh_z) grads.

    ``zgrads`` is a list of (grad_node_z, grad_neigh_z_or_None) aligned
    with the caches from :func:`embed_views`.
    """
    total = params.zeros_like_grads()
    for (g_node_z, g_neigh_z), cache in zip(zgrads, caches):
        grad_h = np.zeros_like(cache.h)
        g_rows, proj_grads = project_backward(g_node_z, cache.proj_node, params)
        np.add.at(grad_h, cache.batch_local, g_rows)
        for k, g in proj_grads.items():
            total[k] += g
        if g_neigh_z is not None:
            if cache.proj_neigh is None:
                raise ValueError("neighborhood gradient given but forward skipped the readout path")
            g_read, proj_grads_n = project_backward(g_neigh_z, cache.proj_neigh, params)
            grad_h += readout_backward(g_read, cache.read, cache.h)
            for k, g in proj_grads_n.items():
                total[k] += g
        enc_grads = encode_backward(grad_h, cache.enc, cache.adj, params)
        for k, g in enc_grads.items():
            total[k] += g
    return total


def save_params(path, params: ModelParams, meta: dict | None = None) -> None:
    """Write a deterministic binary checkpoint (header JSON + raw float64).

    Layout: one magic line, one JSON line (dims, tensor manifest, meta),
    then the tensors' C-order little-endian float64 bytes in manifest
    order. Written atomically via a temp file.
    """
    path = Path(path)
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
