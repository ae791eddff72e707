"""View construction against the sort-based algorithm it replaced.

The oracles below are the straightforward versions of slicing and of the
adjacency build: ``np.unique`` plus ``searchsorted`` for a view's local
indices, and an ``argsort`` of the keys row·n + col for Â and the readout rows.
Every array the fast builders return must equal the oracle's byte for
byte, dtype included.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tgcl import (build_graph, full_view, normalize_adjacency, readout_rows, slice_interval,
                  to_snapshots)


def _oracle_view(graph, edges):
    """The view of the graph's (time-sorted) edges selected by ``edges``."""
    src, dst = graph.src[edges], graph.dst[edges]
    active = np.unique(np.concatenate([src, dst]))
    return {"active": active, "src": np.searchsorted(active, src),
            "dst": np.searchsorted(active, dst), "timestamps": graph.timestamps[edges]}


def _oracle_adjacency(view):
    n = view.num_active
    a = np.minimum(view.src, view.dst)
    b = np.maximum(view.src, view.dst)
    pairs = np.unique((a * np.int64(n) + b)[a != b])
    a, b = pairs // n, pairs % n
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n) + 1
    loops = np.arange(n, dtype=np.int64)
    rows = np.concatenate([a, b, loops])
    cols = np.concatenate([b, a, loops])
    order = np.argsort(rows * n + cols)
    rows, cols = rows[order], cols[order]
    norm = sp.csr_array((1.0 / np.sqrt(deg[rows] * deg[cols]), cols,
                         np.concatenate(([0], np.cumsum(deg)))), shape=(n, n))
    nbr_cols = cols[(rows != cols) | (deg[rows] == 1)]
    nbr = sp.csr_array((np.ones(nbr_cols.size), nbr_cols,
                        np.concatenate(([0], np.cumsum(np.maximum(deg - 1, 1))))), shape=(n, n))
    return norm, nbr


def _former_nbr(view):
    """The neighbour matrix as normalize_adjacency built it beside Â before
    the readout's rows were read off Â's structure, kept verbatim."""
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
    # drop the self-loop of every node that has another neighbour
    nbr_cols = cols[(rows != cols) | (deg[rows] == 1)]
    nbr_indptr = np.concatenate(([0], np.cumsum(np.maximum(deg - 1, 1))))
    nbr = sp.csr_array((np.ones(nbr_cols.size), nbr_cols, nbr_indptr), shape=(n, n))
    return nbr


def _assert_bytes_equal(got, want, name):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    assert got.tobytes() == want.tobytes(), name


def _check(view, oracle):
    for name, want in oracle.items():
        _assert_bytes_equal(getattr(view, name), want, name)
    if view.is_empty:
        return
    adj = normalize_adjacency(view)
    every = readout_rows(adj, np.arange(view.num_active))
    for name, got, want in zip(("norm", "nbr"), (adj, every), _oracle_adjacency(view)):
        assert got.has_canonical_format and want.has_canonical_format, name
        for part in ("indptr", "indices", "data"):
            _assert_bytes_equal(getattr(got, part), getattr(want, part), f"{name}.{part}")


@st.composite
def _graphs(draw):
    """Few node ids, so duplicate, reversed and self edges are common; a
    small timestamp pool, so ties are too; labels may name nodes no edge
    touches, which are isolated in the full view."""
    m = draw(st.integers(1, 40))
    ids = st.lists(st.integers(0, 9), min_size=m, max_size=m)
    src, dst = np.array(draw(ids)), np.array(draw(ids))
    pool = draw(st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=1, max_size=5))
    ts = np.array(draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m)))
    label_ids = np.array(draw(st.lists(st.integers(0, 14), max_size=6, unique=True)), dtype=np.int64)
    labels = (label_ids, label_ids % 2) if label_ids.size else None
    return build_graph(src, dst, ts, labels=labels, feature_policy="random", feature_dim=3)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_graphs(), st.data())
def test_windows_match_the_sort_based_oracle(graph, data):
    ends = st.sampled_from(sorted(set(graph.timestamps.tolist())) + [-51.0, 51.0])
    lo, hi = sorted((data.draw(ends), data.draw(ends)))
    view = slice_interval(graph, lo, hi)
    _check(view, _oracle_view(graph, (graph.timestamps >= lo) & (graph.timestamps <= hi)))


@settings(deadline=None, derandomize=True)
@given(_graphs(), st.integers(1, 6))
def test_snapshots_match_the_sort_based_oracle(graph, s):
    assume(graph.timespan > 0)
    rel = (graph.timestamps - graph.t_min) / graph.timespan
    bins = np.clip(np.floor(rel * s).astype(np.int64), 0, s - 1)
    for k, view in enumerate(to_snapshots(graph, s)):
        _check(view, _oracle_view(graph, bins == k))


@settings(deadline=None, derandomize=True)
@given(_graphs())
def test_full_view_matches_the_sort_based_oracle(graph):
    view = full_view(graph)
    # every node is active, isolated and label-only nodes included
    _check(view, {"active": np.arange(graph.num_nodes, dtype=np.int64), "src": graph.src,
                  "dst": graph.dst, "timestamps": graph.timestamps})


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_graphs(), st.data())
def test_readout_rows_read_off_norm_equal_the_former_construction(graph, data):
    ends = st.sampled_from(sorted(set(graph.timestamps.tolist())))
    lo, hi = sorted((data.draw(ends), data.draw(ends)))
    view = data.draw(st.sampled_from([slice_interval(graph, lo, hi), full_view(graph)]))
    # a non-empty batch of distinct nodes in any order, as training draws them
    batch = np.array(data.draw(st.permutations(range(view.num_active)))
                     [:data.draw(st.integers(1, view.num_active))], dtype=np.int64)
    got, want = readout_rows(normalize_adjacency(view), batch), _former_nbr(view)[batch]
    assert got.shape == want.shape and got.has_canonical_format
    for part in ("indptr", "indices", "data"):
        _assert_bytes_equal(getattr(got, part), getattr(want, part), part)
