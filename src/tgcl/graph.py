"""Continuous-time dynamic graph data model and file ingestion.

A temporal graph is a timestamped edge list over a fixed node table, plus a
static per-node feature matrix and optional per-node labels. External node
ids are remapped to dense internal indices at load time (sorted ascending,
so two loads of the same files always agree). Edges keep their stored
direction; encoding layers symmetrize later.

File formats:
  edges     src,dst,timestamp     one edge per line, '#' lines ignored
  features  node_id,f1,...,fd
  labels    node_id,label         label is an integer or a string
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError

FEATURE_POLICIES = ("degree-buckets", "random")


@dataclass(frozen=True, eq=False)
class TemporalGraph:
    """Immutable dynamic graph: node table, timestamped edges, features.

    ``src``/``dst`` hold dense internal indices; ``node_ids`` maps an
    internal index back to the external id. Edges are sorted by timestamp
    (stably, so ties keep file order), which makes every time window a
    contiguous slice. ``labels`` uses -1 for unlabeled nodes.
    """

    node_ids: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    timestamps: np.ndarray
    features: np.ndarray
    t_min: float
    t_max: float
    labels: Optional[np.ndarray] = None
    label_names: Optional[tuple] = None

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def timespan(self) -> float:
        return self.t_max - self.t_min

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def degrees(self) -> np.ndarray:
        """Incident-edge count per node on the stored (multi)edge list."""
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(deg, self.src, 1)
        np.add.at(deg, self.dst, 1)
        return deg

    def labeled_nodes(self) -> np.ndarray:
        """Internal indices of nodes that carry a label."""
        if self.labels is None:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self.labels >= 0)[0].astype(np.int64)

    def edge_range(self, lo: float, hi: float) -> tuple:
        """Bounds [i, j) of the edges with lo <= timestamp <= hi."""
        ts = self.timestamps
        return int(np.searchsorted(ts, lo, "left")), int(np.searchsorted(ts, hi, "right"))


@dataclass(frozen=True, eq=False)
class SampledView:
    """Subgraph induced by the edges inside one time window.

    ``active`` holds the internal node indices that appear as an endpoint
    of a retained edge (sorted); ``src``/``dst`` are positions into
    ``active``; ``features`` is the feature matrix restricted to the
    active nodes, in ``active`` order.
    """

    lo: float
    hi: float
    active: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    timestamps: np.ndarray
    features: np.ndarray

    @property
    def is_empty(self) -> bool:
        return self.timestamps.shape[0] == 0

    @property
    def num_active(self) -> int:
        return int(self.active.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.timestamps.shape[0])

    def local_index_of(self, nodes: np.ndarray) -> np.ndarray:
        """Positions of internal node indices inside ``active``.

        Raises DataError if any requested node is not active in the view.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if self.num_active == 0:
            if nodes.size:
                raise DataError(f"nodes not active in empty view [{self.lo}, {self.hi}]")
            return np.empty(0, dtype=np.int64)
        pos = np.searchsorted(self.active, nodes)
        bad = (pos >= self.active.shape[0]) | (self.active[np.minimum(pos, self.num_active - 1)] != nodes)
        if np.any(bad):
            missing = nodes[bad][:5].tolist()
            raise DataError(f"nodes not active in view [{self.lo}, {self.hi}]: {missing}")
        return pos


def _parse_edges(path: Path):
    src, dst, ts = [], [], []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 'src,dst,timestamp', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
                t = float(parts[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed edge line {line!r}") from None
            if u < 0 or v < 0:
                raise DataError(f"{path}:{lineno}: negative node id in {line!r}")
            if not math.isfinite(t):
                raise DataError(f"{path}:{lineno}: non-finite timestamp {parts[2]!r}")
            src.append(u)
            dst.append(v)
            ts.append(t)
    if not ts:
        raise DataError(f"{path}: no edges")
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(ts, dtype=np.float64)


def _parse_features(path: Path):
    rows = {}
    dim = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise DataError(f"{path}:{lineno}: expected 'node_id,f1,...', got {line!r}")
            try:
                nid = int(parts[0])
                vec = [float(x) for x in parts[1:]]
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed feature line") from None
            if nid < 0:
                raise DataError(f"{path}:{lineno}: negative node id")
            if any(not math.isfinite(x) for x in vec):
                raise DataError(f"{path}:{lineno}: non-finite feature value")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise DataError(
                    f"{path}:{lineno}: feature dimension {len(vec)} != {dim} of earlier rows"
                )
            if nid in rows:
                raise DataError(f"{path}:{lineno}: duplicate node id {nid}")
            rows[nid] = np.array(vec, dtype=np.float64)
    return rows, (dim or 0)


def _parse_labels(path: Path):
    raw_rows = []
    seen = set()
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'node_id,label', got {line!r}")
            try:
                nid = int(parts[0])
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed node id") from None
            if nid < 0:
                raise DataError(f"{path}:{lineno}: negative node id")
            if nid in seen:
                raise DataError(f"{path}:{lineno}: duplicate node id {nid}")
            seen.add(nid)
            raw_rows.append((nid, parts[1]))

    all_int = True
    for _, lab in raw_rows:
        try:
            int(lab)
        except ValueError:
            all_int = False
            break
    if all_int:
        return {nid: int(lab) for nid, lab in raw_rows}, None
    # intern strings by first occurrence
    names: list = []
    index = {}
    out = {}
    for nid, lab in raw_rows:
        if lab not in index:
            index[lab] = len(names)
            names.append(lab)
        out[nid] = index[lab]
    return out, tuple(names)


def synthesize_features(
    num_nodes: int,
    degrees: np.ndarray,
    policy: str = "degree-buckets",
    dim: int = 32,
    seed: int = 0,
) -> np.ndarray:
    """Deterministic label-free node features for graphs without a feature file.

    degree-buckets: one-hot over log2 degree buckets (bucket = bit length of
    the degree, capped at dim-1). random: per-node unit-norm vectors from a
    seeded generator, tied to the node ordering.
    """
    if dim < 1:
        raise DataError(f"feature dimension must be at least 1, got {dim}")
    if policy == "degree-buckets":
        buckets = np.minimum([int(d).bit_length() for d in degrees], dim - 1)
        feats = np.zeros((num_nodes, dim), dtype=np.float64)
        feats[np.arange(num_nodes), buckets] = 1.0
        return feats
    if policy == "random":
        rng = np.random.default_rng([seed, num_nodes, dim])
        feats = rng.standard_normal((num_nodes, dim))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        return feats
    raise DataError(f"unknown feature policy {policy!r}; expected one of {FEATURE_POLICIES}")


def build_graph(
    src_ext: np.ndarray,
    dst_ext: np.ndarray,
    timestamps: np.ndarray,
    feature_rows: Optional[dict] = None,
    label_rows: Optional[dict] = None,
    label_names: Optional[tuple] = None,
    feature_policy: str = "degree-buckets",
    feature_dim: int = 32,
    feature_seed: int = 0,
) -> TemporalGraph:
    """Assemble a TemporalGraph from parsed pieces (external ids).

    Edges are stored sorted by timestamp; the sort is stable, so edges
    with equal timestamps keep their input order.
    """
    feature_rows = feature_rows or {}
    extra = np.fromiter([*feature_rows, *(label_rows or {})], dtype=np.int64)
    node_ids = np.unique(np.concatenate([src_ext, dst_ext, extra]))

    def index(ids) -> np.ndarray:
        return np.searchsorted(node_ids, np.fromiter(ids, dtype=np.int64, count=len(ids)))

    timestamps = np.asarray(timestamps, dtype=np.float64)
    order = np.argsort(timestamps, kind="stable")
    src = np.searchsorted(node_ids, np.asarray(src_ext)[order])
    dst = np.searchsorted(node_ids, np.asarray(dst_ext)[order])

    n = node_ids.shape[0]
    if feature_rows:
        features = np.zeros((n, len(next(iter(feature_rows.values())))), dtype=np.float64)
        features[index(feature_rows)] = list(feature_rows.values())
    else:
        deg = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
        features = synthesize_features(n, deg, feature_policy, feature_dim, feature_seed)

    labels = None
    if label_rows is not None:
        labels = np.full(n, -1, dtype=np.int64)
        labels[index(label_rows)] = list(label_rows.values())

    return TemporalGraph(
        node_ids=node_ids,
        src=src,
        dst=dst,
        timestamps=timestamps[order],
        features=features,
        t_min=float(timestamps[order[0]]),
        t_max=float(timestamps[order[-1]]),
        labels=labels,
        label_names=label_names,
    )


def load_temporal_graph(
    edges_path,
    features_path=None,
    labels_path=None,
    feature_policy: str = "degree-buckets",
    feature_dim: int = 32,
    feature_seed: int = 0,
) -> TemporalGraph:
    """Load a temporal graph from an edges file plus optional features/labels.

    The node table is the union of every id seen in any of the files. When
    no features file is given, features are synthesized with the requested
    policy (see :func:`synthesize_features`).
    """
    src_ext, dst_ext, ts = _parse_edges(Path(edges_path))
    feature_rows = None
    if features_path is not None:
        feature_rows, _ = _parse_features(Path(features_path))
    label_rows = label_names = None
    if labels_path is not None:
        label_rows, label_names = _parse_labels(Path(labels_path))
    return build_graph(
        src_ext,
        dst_ext,
        ts,
        feature_rows=feature_rows,
        label_rows=label_rows,
        label_names=label_names,
        feature_policy=feature_policy,
        feature_dim=feature_dim,
        feature_seed=feature_seed,
    )


def slice_interval(graph: TemporalGraph, lo: float, hi: float) -> SampledView:
    """View retaining exactly the edges with lo <= timestamp <= hi (closed).

    Active nodes are the endpoints of retained edges; empty views are legal
    and flagged by ``is_empty``.
    """
    if lo > hi:
        raise DataError(f"window lo {lo} > hi {hi}")
    return _edge_slice_view(graph, lo, hi, *graph.edge_range(lo, hi))


def _edge_slice_view(graph: TemporalGraph, lo: float, hi: float, i: int, j: int) -> SampledView:
    """View of the time-sorted edges i..j-1, labelled with the window [lo, hi]."""
    src, dst = graph.src[i:j], graph.dst[i:j]
    active = np.unique(np.concatenate([src, dst]))
    return SampledView(
        lo=float(lo),
        hi=float(hi),
        active=active,
        src=np.searchsorted(active, src),
        dst=np.searchsorted(active, dst),
        timestamps=graph.timestamps[i:j],
        features=graph.features[active],
    )


def full_view(graph: TemporalGraph) -> SampledView:
    """Whole-timespan view with every node active, isolated ones included."""
    return SampledView(
        lo=graph.t_min,
        hi=graph.t_max,
        active=np.arange(graph.num_nodes, dtype=np.int64),
        src=graph.src.copy(),
        dst=graph.dst.copy(),
        timestamps=graph.timestamps.copy(),
        features=graph.features,
    )


def to_snapshots(graph: TemporalGraph, s: int) -> list:
    """Partition the timespan into ``s`` equal intervals, one view each.

    Edge k goes to bin floor(s * (t_k - t_min) / timespan), the last bin
    also taking t_max, so the intervals are left-closed/right-open except
    the last and every edge lands in exactly one snapshot. The bins are
    non-decreasing along the time-sorted edges, so each snapshot is a
    contiguous slice. A view's lo/hi are its interval's bounds.
    """
    if s < 1:
        raise DataError(f"snapshot count must be >= 1, got {s}")
    if graph.timespan <= 0.0:
        raise DataError("degenerate timespan: all edges share one timestamp")
    rel = (graph.timestamps - graph.t_min) / graph.timespan
    bins = np.clip(np.floor(rel * s).astype(np.int64), 0, s - 1)
    cuts = np.searchsorted(bins, np.arange(s + 1))
    bounds = graph.t_min + graph.timespan / s * np.arange(s + 1)
    bounds[-1] = graph.t_max
    return [_edge_slice_view(graph, bounds[k], bounds[k + 1], cuts[k], cuts[k + 1]) for k in range(s)]
