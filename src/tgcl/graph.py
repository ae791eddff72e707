"""Continuous-time dynamic graph data model and file ingestion.

A temporal graph is a timestamped edge list over a fixed node table, plus a
static per-node feature matrix and optional per-node labels. External node
ids are remapped to dense internal indices at load time (sorted ascending,
so two loads of the same files always agree). Edges keep their stored
direction; encoding layers symmetrize later.

File formats, all read by :func:`read_table`:
  edges       src,dst,timestamp   one edge per line
  features    node_id,f1,...,fd
  labels      node_id,label       label is an integer or a string
  embeddings  node_id,e1,...,ed   written by `tgcl embed`
In every table, blank lines and lines whose first non-blank character is
'#' are skipped; a '#' anywhere else is part of the row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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
    ``feature_spec`` records how synthesized features were made
    (``{"policy", "dim", "seed"}``, the arguments of
    :func:`synthesize_features`, plus ``"nodes"``, the node count, for
    ``random``); it is None when they were given.
    """

    node_ids: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    timestamps: np.ndarray
    features: np.ndarray
    t_min: float
    t_max: float
    labels: Optional[np.ndarray] = None
    feature_spec: Optional[dict] = None

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

    def edge_range(self, lo: float, hi: float) -> tuple:
        """Bounds [i, j) of the edges with lo <= timestamp <= hi."""
        ts = self.timestamps
        return int(np.searchsorted(ts, lo, "left")), int(np.searchsorted(ts, hi, "right"))


@dataclass(frozen=True, eq=False)
class SampledView:
    """Subgraph induced by the edges inside one time window.

    ``active`` holds the internal node indices that appear as an endpoint
    of a retained edge (sorted); ``src``/``dst`` are positions into
    ``active``. A view holds structure only: its node i's features are
    row ``active[i]`` of the graph's one feature matrix.
    """

    lo: float
    hi: float
    active: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    timestamps: np.ndarray

    @property
    def is_empty(self) -> bool:
        return self.timestamps.shape[0] == 0

    @property
    def num_active(self) -> int:
        return int(self.active.shape[0])

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


# table -> (row layout, leading id columns, row width; None: at least 2
# and as wide as the first row)
_TABLES = {
    "edges": ("src,dst,timestamp", 2, 3),
    "features": ("node_id,f1,...,fd", 1, None),
    "labels": ("node_id,label", 1, 2),
    "embeddings": ("node_id,e1,...,ed", 1, None),
}


def _ascii_numerals(text: str) -> bool:
    """False when ``text`` holds what ``int``, ``float`` or ``loadtxt`` take
    in a numeral though no ASCII numeral does: a non-ASCII letter they read
    as a digit, ``_``, or ``\x1c``-``\x1f``, which they read as blanks."""
    return text.isascii() and not any(c in text for c in "_\x1c\x1d\x1e\x1f")


def read_table(path, table: str) -> tuple:
    """Read a CSV table: ``table`` is "edges", "features", "labels" or
    "embeddings", in the layouts of the module docstring.

    Rows are the stripped lines that are neither blank nor whole-line
    ``#`` comments; one ``np.loadtxt`` call converts them all. Ids are
    int64 and values float64, both ASCII numerals without ``_``. A label
    is read as an int64 class code: when every label is an ASCII numeral
    without ``_`` that parses with ``int`` and fits int64, the codes are
    those integers; otherwise each distinct string is a class, numbered in
    first-occurrence order. Returns ``(ids, values)``: ids are (n,), or
    (n, 2) src/dst pairs for edges; values are (n,) for edges and labels,
    (n, d) for features and embeddings, in file order. A malformed row, a
    negative id, a non-finite value, a negative integer class label, an id
    repeated in a per-node table and a table without rows are DataErrors
    that name the file and the first offending line.
    """
    layout, k, fixed = _TABLES[table]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    rows = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    n = len(rows)
    if not n:
        raise DataError(f"{path}: no {table}")
    width = fixed or rows[0].count(",") + 1
    numeric = table != "labels"
    kind = np.float64 if numeric else object
    # at least 2 columns: a first row without a value fails, and the width check names it
    dtype = [("ids", np.int64, (k,)), ("values", kind, (max(width, 2) - k,))]

    def convert(rows: list) -> np.ndarray:
        """The rows as records; ValueError if any row does not convert."""
        if not _ascii_numerals("".join(rows if numeric else [row.partition(",")[0] for row in rows])):
            raise ValueError("a numeric cell is not an ASCII numeral")
        with warnings.catch_warnings():  # older NumPy reads an int cell '2.5' as 2, and warns
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(rows, delimiter=",", comments=None, ndmin=1, dtype=dtype)

    def fail(bad: np.ndarray, problem: str) -> None:
        if bad.any():  # line numbers are counted only to report an error
            row = int(np.argmax(bad))
            kept = enumerate(map(str.strip, lines), 1)
            lineno = [i for i, line in kept if line and line[0] != "#"][row]
            raise DataError(f"{path}:{lineno}: {problem} {rows[row]!r}")

    try:
        records = convert(rows)
    except ValueError:  # only to name the first offending row
        widths = np.array([row.count(",") + 1 for row in rows])
        bad = (widths != width) | (widths < 2)
        w = widths[np.argmax(bad)]
        fail(bad, f"expected '{layout}', got" if fixed or w < 2 else
             f"dimension {w - 1} != {width - 1} of earlier rows in")
        lo, hi = 0, n  # rows[lo:hi] holds the first row that does not convert
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                convert(rows[lo:mid])
                lo = mid
            except ValueError:
                hi = mid
        fail(np.arange(n) == lo, "malformed row")
    ids = np.ascontiguousarray(records["ids"])
    values = np.ascontiguousarray(records["values"])
    fail((ids < 0).any(axis=1), "negative node id in")
    if numeric:
        fail(~np.isfinite(values).all(axis=1), "non-finite value in")
    else:
        labels = values[:, 0]
        try:
            if not _ascii_numerals("".join(labels)):
                raise ValueError("a label is not an ASCII numeral")
            codes = np.fromiter(map(int, labels), np.int64, n)
        except (ValueError, OverflowError):
            number = {name: i for i, name in enumerate(dict.fromkeys(labels))}
            codes = np.fromiter(map(number.__getitem__, labels), np.int64, n)
        else:  # integer classes count from 0, and -1 would read as unlabelled
            fail(codes < 0, "negative class label in")
        values = codes[:, None]  # one column, as for edges
    if k == 1:
        repeat = np.ones(n, dtype=bool)
        repeat[np.unique(ids, return_index=True)[1]] = False  # first occurrences
        fail(repeat, "duplicate node id in")
    return (ids[:, 0] if k == 1 else ids), (values[:, 0] if fixed else values)


def csv_text(rows) -> str:
    """CSV text, one ``repr`` per cell. Cells must be Python ints and floats
    (``.tolist()``, ``float()``): NumPy 2 reprs a scalar as ``np.float64(...)``."""
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def synthesize_features(
    num_nodes: int,
    degrees: np.ndarray,
    policy: str,
    dim: int,
    seed: int,
) -> np.ndarray:
    """Deterministic label-free node features for graphs without a feature file.

    degree-buckets: one-hot over log2 degree buckets (bucket = bit length of
    the degree, capped at dim-1). random: per-node unit-norm vectors from a
    seeded generator, tied to the node ordering.
    """
    if dim < 1:
        raise DataError(f"feature dimension must be at least 1, got {dim}")
    if seed < 0:
        raise DataError(f"feature seed must be non-negative, got {seed}")
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
    features: Optional[tuple] = None,
    labels: Optional[tuple] = None,
    feature_policy: str = "degree-buckets",
    feature_dim: int = 32,
    feature_seed: int = 0,
) -> TemporalGraph:
    """Assemble a TemporalGraph from parsed pieces (external ids).

    ``features`` is (ids, matrix) with one row per id, ``labels`` is (ids,
    codes) with int64 class codes as :func:`read_table` reads them; nodes
    without a row get zero features and label -1. Edges are stored sorted by
    timestamp; the sort is stable, so edges with equal timestamps keep
    their input order.
    """
    extra = [np.asarray(part[0], dtype=np.int64) for part in (features, labels) if part is not None]
    node_ids, index = np.unique(np.concatenate([src_ext, dst_ext, *extra]), return_inverse=True)

    timestamps = np.asarray(timestamps, dtype=np.float64)
    m = timestamps.shape[0]
    order = np.argsort(timestamps, kind="stable")
    src, dst, timestamps = index[:m][order], index[m:2 * m][order], timestamps[order]

    n = node_ids.shape[0]
    feature_spec = None
    if features is not None:
        ids, matrix = features
        matrix = np.asarray(matrix, dtype=np.float64)
        feats = np.zeros((n, matrix.shape[1]), dtype=np.float64)
        feats[np.searchsorted(node_ids, ids)] = matrix
    else:  # a line repeated verbatim is one event, and only edges that share a time repeat one
        rank = np.cumsum(np.diff(timestamps, prepend=np.nan) != 0)  # equal times, equal ranks
        tied = np.bincount(rank)[rank] > 1
        once = np.unique(np.column_stack([rank[tied], src[tied], dst[tied]]), axis=0)
        deg = np.bincount(np.concatenate([src[~tied], dst[~tied], once[:, 1:].ravel()]), minlength=n)
        feats = synthesize_features(n, deg, feature_policy, feature_dim, feature_seed)
        feature_spec = {"policy": feature_policy, "dim": feature_dim, "seed": feature_seed}
        if feature_policy == "random":  # every row depends on the node count
            feature_spec["nodes"] = n

    codes = None
    if labels is not None:
        ids, classes = labels
        codes = np.full(n, -1, dtype=np.int64)
        codes[np.searchsorted(node_ids, ids)] = classes

    return TemporalGraph(
        node_ids=node_ids,
        src=src,
        dst=dst,
        timestamps=timestamps,
        features=feats,
        t_min=float(timestamps[0]),
        t_max=float(timestamps[-1]),
        labels=codes,
        feature_spec=feature_spec,
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
    ends, timestamps = read_table(edges_path, "edges")
    return build_graph(
        ends[:, 0],
        ends[:, 1],
        timestamps,
        features=None if features_path is None else read_table(features_path, "features"),
        labels=None if labels_path is None else read_table(labels_path, "labels"),
        feature_policy=feature_policy,
        feature_dim=feature_dim,
        feature_seed=feature_seed,
    )


def running_index(mask: np.ndarray) -> np.ndarray:
    """The position of each True entry of a boolean mask among the True
    entries, by one running count: ``running_index(mask)[mask]`` is
    ``arange(mask.sum())``. A False entry holds the count before it, minus 1."""
    return np.cumsum(mask) - 1


def slice_interval(graph: TemporalGraph, lo: float, hi: float) -> SampledView:
    """View retaining exactly the edges with lo <= timestamp <= hi (closed).

    Active nodes are the endpoints of retained edges; empty views are legal
    and flagged by ``is_empty``.
    """
    if lo > hi:
        raise DataError(f"window lo {lo} > hi {hi}")
    return _edge_slice_view(graph, lo, hi, *graph.edge_range(lo, hi))


def _edge_slice_view(graph: TemporalGraph, lo: float, hi: float, i: int, j: int,
                     every_node: bool = False) -> SampledView:
    """View of the time-sorted edges i..j-1, labelled with the window [lo, hi];
    with ``every_node``, the nodes no edge touches are active too."""
    src, dst = graph.src[i:j], graph.dst[i:j]
    # an endpoint mask, O(N + m): plain np.unique hashes, many times slower than this
    mask = np.full(graph.num_nodes, every_node)
    mask[src] = True
    mask[dst] = True
    local = running_index(mask)  # a node's position in active
    return SampledView(
        lo=float(lo),
        hi=float(hi),
        active=np.flatnonzero(mask),
        src=local[src],
        dst=local[dst],
        timestamps=graph.timestamps[i:j],
    )


def full_view(graph: TemporalGraph) -> SampledView:
    """Whole-timespan view with every node active, isolated ones included."""
    return _edge_slice_view(graph, graph.t_min, graph.t_max, 0, graph.num_edges, every_node=True)


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
