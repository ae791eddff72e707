import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tgcl import (
    DataError,
    build_graph,
    full_view,
    generate_synthetic,
    load_temporal_graph,
    slice_interval,
    synthesize_features,
    to_snapshots,
)
from tgcl.graph import read_table, running_index


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_basic(tmp_path):
    p = _write(tmp_path, "e.csv", "0,1,5.0\n1,2,7.0\n")
    g = load_temporal_graph(p)
    assert g.num_nodes == 3
    assert g.num_edges == 2
    assert g.t_min == 5.0 and g.t_max == 7.0
    assert g.timespan == 2.0


def test_load_empty_file(tmp_path):
    p = _write(tmp_path, "e.csv", "")
    with pytest.raises(DataError, match="no edges"):
        load_temporal_graph(p)


def test_load_comments_and_blanks_ignored(tmp_path):
    p = _write(tmp_path, "e.csv", "# header\n\n0,1,5.0\n# mid\n1,2,7.0\n")
    g = load_temporal_graph(p)
    assert g.num_edges == 2


def test_load_single_timestamp(tmp_path):
    # degenerate Dt = 0 loads fine; downstream sampling rejects it
    p = _write(tmp_path, "e.csv", "0,1,3.0\n1,2,3.0\n2,0,3.0\n")
    g = load_temporal_graph(p)
    assert g.t_min == g.t_max == 3.0
    assert g.timespan == 0.0
    with pytest.raises(DataError, match="degenerate timespan"):
        to_snapshots(g, 2)


def test_load_malformed_line_reports_lineno(tmp_path):
    p = _write(tmp_path, "e.csv", "0,1,5.0\n0,oops,6.0\n")
    with pytest.raises(DataError, match=r":2:"):
        load_temporal_graph(p)
    p2 = _write(tmp_path, "e2.csv", "0,1,5.0\n0,1\n")
    with pytest.raises(DataError, match=r":2:"):
        load_temporal_graph(p2)


def test_load_nonfinite_timestamp(tmp_path):
    p = _write(tmp_path, "e.csv", "0,1,nan\n")
    with pytest.raises(DataError, match="non-finite"):
        load_temporal_graph(p)
    p2 = _write(tmp_path, "e2.csv", "0,1,inf\n")
    with pytest.raises(DataError, match="non-finite"):
        load_temporal_graph(p2)


def test_load_negative_id(tmp_path):
    p = _write(tmp_path, "e.csv", "-1,1,5.0\n")
    with pytest.raises(DataError, match="negative node id"):
        load_temporal_graph(p)


def test_external_ids_remapped_dense_sorted(tmp_path):
    p = _write(tmp_path, "e.csv", "50,7,1.0\n7,1000,2.0\n")
    g = load_temporal_graph(p)
    assert g.node_ids.tolist() == [7, 50, 1000]
    # stored direction preserved under the remap
    assert g.src.tolist() == [1, 0]
    assert g.dst.tolist() == [0, 2]


def test_features_file(tmp_path):
    e = _write(tmp_path, "e.csv", "0,1,1.0\n")
    f = _write(tmp_path, "f.csv", "0,1.5,2.5\n1,3.5,4.5\n")
    g = load_temporal_graph(e, features_path=f)
    assert g.features.shape == (2, 2)
    np.testing.assert_allclose(g.features, [[1.5, 2.5], [3.5, 4.5]])


def test_features_dim_mismatch(tmp_path):
    e = _write(tmp_path, "e.csv", "0,1,1.0\n")
    f = _write(tmp_path, "f.csv", "0,1.0,2.0\n1,3.0\n")
    with pytest.raises(DataError, match="dimension"):
        load_temporal_graph(e, features_path=f)


def test_features_duplicate_id(tmp_path):
    e = _write(tmp_path, "e.csv", "0,1,1.0\n")
    f = _write(tmp_path, "f.csv", "0,1.0\n0,2.0\n")
    with pytest.raises(DataError, match="duplicate node id"):
        load_temporal_graph(e, features_path=f)


def test_labels_integer(tmp_path):
    e = _write(tmp_path, "e.csv", "0,1,1.0\n1,2,2.0\n")
    l = _write(tmp_path, "l.csv", "0,3\n2,1\n")
    g = load_temporal_graph(e, labels_path=l)
    assert g.labels.tolist() == [3, -1, 1]  # integer labels are their own codes
    assert np.flatnonzero(g.labels >= 0).tolist() == [0, 2]


def test_labels_string_interned_by_first_occurrence(tmp_path):
    e = _write(tmp_path, "e.csv", "0,1,1.0\n1,2,2.0\n")
    l = _write(tmp_path, "l.csv", "1,cat\n0,dog\n2,cat\n")
    g = load_temporal_graph(e, labels_path=l)
    assert g.labels.tolist() == [1, 0, 0]  # cat, seen first, is 0; dog is 1


def test_labels_that_are_not_ascii_numerals_are_strings(tmp_path):
    # int would read 1_0 as 10, the Arabic-Indic digit and +3 as 3, merging
    # five distinct texts into two classes
    l = _write(tmp_path, "l.csv", "0,10\n1,1_0\n2,\u0663\n3,3\n4,+3\n")
    ids, codes = read_table(l, "labels")
    assert ids.tolist() == [0, 1, 2, 3, 4]
    assert codes.tolist() == [0, 1, 2, 3, 4]


def test_labels_duplicate_id(tmp_path):
    e = _write(tmp_path, "e.csv", "0,1,1.0\n")
    l = _write(tmp_path, "l.csv", "0,1\n0,2\n")
    with pytest.raises(DataError, match="duplicate node id"):
        load_temporal_graph(e, labels_path=l)


def test_node_table_is_union_of_all_files(tmp_path):
    # ids only present in features/labels still enter the node table
    e = _write(tmp_path, "e.csv", "0,1,1.0\n")
    f = _write(tmp_path, "f.csv", "0,1.0\n1,2.0\n5,3.0\n")
    l = _write(tmp_path, "l.csv", "9,0\n")
    g = load_temporal_graph(e, features_path=f, labels_path=l)
    assert g.node_ids.tolist() == [0, 1, 5, 9]


def test_loader_determinism(tmp_path):
    rng = np.random.default_rng(3)
    lines = [f"{rng.integers(0, 50)},{rng.integers(0, 50)},{rng.uniform(0, 10)}" for _ in range(200)]
    p = _write(tmp_path, "e.csv", "\n".join(lines) + "\n")
    g1 = load_temporal_graph(p, feature_policy="random", feature_dim=8, feature_seed=1)
    g2 = load_temporal_graph(p, feature_policy="random", feature_dim=8, feature_seed=1)
    assert np.array_equal(g1.node_ids, g2.node_ids)
    assert np.array_equal(g1.src, g2.src)
    assert np.array_equal(g1.timestamps, g2.timestamps)
    assert np.array_equal(g1.features, g2.features)


def test_slice_closed_interval(tmp_path):
    p = _write(tmp_path, "e.csv", "0,1,1.0\n1,2,2.0\n2,0,3.0\n")
    g = load_temporal_graph(p)
    view = slice_interval(g, 2.0, 3.0)
    assert sorted(view.timestamps.tolist()) == [2.0, 3.0]
    assert not view.is_empty


def test_slice_disjoint_window_is_empty(tmp_path):
    p = _write(tmp_path, "e.csv", "0,1,1.0\n1,2,2.0\n2,0,3.0\n")
    g = load_temporal_graph(p)
    view = slice_interval(g, 10.0, 11.0)
    assert view.is_empty
    assert view.num_active == 0
    assert g.features[view.active].shape[0] == 0


def test_slice_rejects_a_window_whose_lo_exceeds_its_hi(tmp_path):
    g = load_temporal_graph(_write(tmp_path, "e.csv", "0,1,1.0\n1,2,2.0\n2,0,3.0\n"))
    with pytest.raises(DataError, match="window lo 2.5 > hi 1.5"):
        slice_interval(g, 2.5, 1.5)


@pytest.mark.parametrize("s", [0, -1])
def test_to_snapshots_needs_at_least_one_snapshot(tmp_path, s):
    g = load_temporal_graph(_write(tmp_path, "e.csv", "0,1,1.0\n1,2,2.0\n2,0,3.0\n"))
    with pytest.raises(DataError, match=f"snapshot count must be >= 1, got {s}"):
        to_snapshots(g, s)


def test_slice_brute_force_count(tmp_path):
    rng = np.random.default_rng(11)
    ts = rng.uniform(0, 100, size=100)
    lines = [f"{rng.integers(0, 30)},{rng.integers(0, 30)},{t}" for t in ts]
    p = _write(tmp_path, "e.csv", "\n".join(lines) + "\n")
    g = load_temporal_graph(p)
    view = slice_interval(g, 25.0, 75.0)
    expect = sum(1 for t in g.timestamps if 25.0 <= t <= 75.0)
    assert view.timestamps.size == expect


def test_slice_monotonicity(tmp_path):
    rng = np.random.default_rng(5)
    lines = [f"{rng.integers(0, 20)},{rng.integers(0, 20)},{rng.uniform(0, 50)}" for _ in range(80)]
    p = _write(tmp_path, "e.csv", "\n".join(lines) + "\n")
    g = load_temporal_graph(p)
    inner = slice_interval(g, 10.0, 20.0)
    outer = slice_interval(g, 5.0, 30.0)
    inner_ts = set(inner.timestamps.tolist())
    outer_ts = set(outer.timestamps.tolist())
    assert inner_ts <= outer_ts
    assert set(inner.active.tolist()) <= set(outer.active.tolist())


def test_slice_active_nodes_and_features(tmp_path):
    p = _write(tmp_path, "e.csv", "0,1,1.0\n1,2,2.0\n3,4,9.0\n")
    f = _write(tmp_path, "f.csv", "\n".join(f"{i},{float(i)},{float(i) * 2}" for i in range(5)) + "\n")
    g = load_temporal_graph(p, features_path=f)
    view = slice_interval(g, 0.0, 3.0)
    assert view.active.tolist() == [0, 1, 2]
    np.testing.assert_allclose(g.features[view.active], g.features[[0, 1, 2]])
    # local positions point back at the right active nodes
    assert view.active[view.src].tolist() == [0, 1]
    assert view.active[view.dst].tolist() == [1, 2]


def test_local_index_of_rejects_inactive(tmp_path):
    p = _write(tmp_path, "e.csv", "0,1,1.0\n3,4,9.0\n")
    g = load_temporal_graph(p)
    view = slice_interval(g, 0.0, 2.0)
    assert view.local_index_of(np.array([0, 1])).tolist() == [0, 1]
    with pytest.raises(DataError, match="not active"):
        view.local_index_of(np.array([3]))


def test_snapshot_partition_boundaries(tmp_path):
    # edges exactly on the quarter boundaries of [0, 100]
    ts = [0.0, 24.999, 25.0, 50.0, 74.999, 75.0, 100.0]
    lines = [f"{i},{i + 1},{t}" for i, t in enumerate(ts)]
    p = _write(tmp_path, "e.csv", "\n".join(lines) + "\n")
    g = load_temporal_graph(p)
    seq = to_snapshots(g, 4)
    counts = [snap.timestamps.size for snap in seq]
    # [0,25) [25,50) [50,75) [75,100]: boundary edges open the next bin
    assert counts == [2, 1, 2, 2]
    assert seq[3].timestamps.tolist() == [75.0, 100.0]


def test_snapshot_identity_case(tmp_path):
    p = _write(tmp_path, "e.csv", "0,1,0.0\n1,2,5.0\n2,0,10.0\n")
    g = load_temporal_graph(p)
    seq = to_snapshots(g, 1)
    assert len(seq) == 1
    assert np.array_equal(seq[0].timestamps, g.timestamps)
    assert np.array_equal(seq[0].active[seq[0].src], g.src)


def test_snapshot_edge_conservation(tmp_path):
    rng = np.random.default_rng(17)
    lines = [f"{rng.integers(0, 40)},{rng.integers(0, 40)},{rng.uniform(0, 60)}" for _ in range(1000)]
    p = _write(tmp_path, "e.csv", "\n".join(lines) + "\n")
    g = load_temporal_graph(p)
    for s in (1, 3, 7):
        seq = to_snapshots(g, s)
        assert sum(snap.timestamps.size for snap in seq) == 1000
        merged = np.sort(np.concatenate([snap.timestamps for snap in seq]))
        assert np.array_equal(merged, np.sort(g.timestamps))


def test_snapshots_share_node_table(tmp_path):
    p = _write(tmp_path, "e.csv", "0,1,0.0\n2,3,10.0\n")
    g = load_temporal_graph(p)
    seq = to_snapshots(g, 2)
    assert [snap.active.tolist() for snap in seq] == [[0, 1], [2, 3]]
    # active ids index the graph's node table, and so its feature rows
    assert [g.node_ids[snap.active].tolist() for snap in seq] == [[0, 1], [2, 3]]


def test_degree_bucket_features(tmp_path):
    p = _write(tmp_path, "e.csv", "0,1,1.0\n0,2,2.0\n0,3,3.0\n")
    g = load_temporal_graph(p)
    assert g.features.shape == (4, 32)
    # one-hot rows
    np.testing.assert_allclose(g.features.sum(axis=1), 1.0)
    # node 0 has degree 3 (bucket 2), the leaves degree 1 (bucket 1)
    assert g.features[0, 2] == 1.0
    for i in (1, 2, 3):
        assert g.features[i, 1] == 1.0


def test_degree_buckets_count_each_distinct_event_once(tmp_path):
    # node 0 meets node 1 at times 1 and 2, each line written twice, and
    # node 2 once: 3 distinct events, degree 3 (bucket 2), not 5 (bucket 3).
    # Two events of one pair at different times both count
    p = _write(tmp_path, "e.csv", "0,1,1\n0,1,2\n0,2,2\n0,1,1\n0,1,2\n")
    g = load_temporal_graph(p, feature_dim=8)
    assert g.num_edges == 5
    assert np.flatnonzero(g.features[0]).tolist() == [2]
    assert np.flatnonzero(g.features[1]).tolist() == [2]  # degree 2
    assert np.flatnonzero(g.features[2]).tolist() == [1]


def test_random_features_unit_norm_and_seeded():
    deg = np.array([1, 2, 3])
    a = synthesize_features(3, deg, "random", 16, seed=4)
    b = synthesize_features(3, deg, "random", 16, seed=4)
    c = synthesize_features(3, deg, "random", 16, seed=5)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_unknown_feature_policy():
    with pytest.raises(DataError, match="unknown feature policy"):
        synthesize_features(2, np.array([1, 1]), "fancy", 8, seed=0)


def test_negative_feature_seed_rejected():
    with pytest.raises(DataError, match="feature seed"):
        synthesize_features(2, np.array([1, 1]), "random", 8, seed=-1)


def test_feature_spec_records_synthesized_features(tmp_path):
    e = _write(tmp_path, "e.csv", "0,1,1.0\n")
    g = load_temporal_graph(e, feature_policy="random", feature_dim=4, feature_seed=2)
    # random rows depend on the node count, so the record carries it
    assert g.feature_spec == {"policy": "random", "dim": 4, "seed": 2, "nodes": 2}
    g = load_temporal_graph(e, feature_dim=4, feature_seed=2)
    assert g.feature_spec == {"policy": "degree-buckets", "dim": 4, "seed": 2}
    f = _write(tmp_path, "f.csv", "0,1.0\n1,2.0\n")
    assert load_temporal_graph(e, features_path=f).feature_spec is None


def test_a_whole_span_slice_holds_structure_only():
    # a view holds its active nodes and its edges' local ends, not a copy of
    # their feature rows: on 2,000 nodes and 20,000 edges the slice peaks at
    # 0.34 MiB, while a gathered copy of the 128-dim rows alone is 1.95 MiB
    graph = generate_synthetic(k=4, n=2000, T=20.0, p_in=5.0, p_out=1.0, events=20000,
                               feature_dim=128)
    slice_interval(graph, graph.t_min, graph.t_max)  # any first-call allocation happens here
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        view = slice_interval(graph, graph.t_min, graph.t_max)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert view.num_active == graph.num_nodes
    assert peak < 0.5 * 2 ** 20 < graph.features.nbytes, peak / 2 ** 20


def test_full_view_includes_isolated_nodes(tmp_path):
    e = _write(tmp_path, "e.csv", "0,1,1.0\n")
    f = _write(tmp_path, "f.csv", "0,1.0\n1,2.0\n7,3.0\n")
    g = load_temporal_graph(e, features_path=f)
    view = full_view(g)
    assert view.num_active == 3
    assert g.features[view.active].shape == (3, 1)


@st.composite
def _edges_with_ties(draw):
    """(src, dst, timestamps) over few ids, drawing timestamps from a small
    pool so that equal timestamps are common."""
    pool = draw(st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=1, max_size=6))
    m = draw(st.integers(1, 40))
    ids = st.lists(st.integers(0, 9), min_size=m, max_size=m)
    ts = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    return np.array(draw(ids)), np.array(draw(ids)), np.array(ts)


def _external_edges(g, view):
    return list(zip(g.node_ids[view.active[view.src]].tolist(),
                    g.node_ids[view.active[view.dst]].tolist(), view.timestamps.tolist()))


@settings(deadline=None, derandomize=True)
@given(_edges_with_ties(), st.data())
def test_slice_interval_keeps_exactly_the_closed_window(edges, data):
    src, dst, ts = edges
    g = build_graph(src, dst, ts, feature_policy="random", feature_dim=2)
    ends = st.sampled_from(sorted(set(ts.tolist())) + [-101.0, 101.0])
    lo, hi = sorted((data.draw(ends), data.draw(ends)))
    # a stable sort by time of the input edges, then the closed-window filter
    expected = sorted(
        [(int(u), int(v), float(t)) for u, v, t in zip(src, dst, ts) if lo <= t <= hi],
        key=lambda e: e[2])
    assert _external_edges(g, slice_interval(g, lo, hi)) == expected


@settings(deadline=None, derandomize=True)
@given(_edges_with_ties(), st.integers(1, 8))
def test_to_snapshots_bins_by_floor(edges, s):
    src, dst, ts = edges
    t_min, t_max = ts.min(), ts.max()
    assume(t_max > t_min)
    g = build_graph(src, dst, ts, feature_policy="random", feature_dim=2)
    bins = np.clip(np.floor((ts - t_min) / (t_max - t_min) * s).astype(np.int64), 0, s - 1)
    snaps = to_snapshots(g, s)
    assert len(snaps) == s
    for k, snap in enumerate(snaps):
        expected = [(int(u), int(v), float(t)) for u, v, t, b in zip(src, dst, ts, bins) if b == k]
        assert sorted(_external_edges(g, snap)) == sorted(expected)


def test_comment_rule_is_whole_line_only(tmp_path):
    # a '#' after the first non-blank character belongs to the row
    e = _write(tmp_path, "e.csv", "  # header\n0,1,1.0\n1,2,3.0 # c\n")
    with pytest.raises(DataError, match=r":3:"):
        load_temporal_graph(e)
    e = _write(tmp_path, "e.csv", "0,1,1.0\n")
    l = _write(tmp_path, "l.csv", "0,C#\n1,C\n")
    g = load_temporal_graph(e, labels_path=l)
    assert g.labels.tolist() == [0, 1]  # C# and C are two classes


def test_ids_above_2_to_the_53_are_exact(tmp_path):
    big = 2**53 + 1  # float64 would round it to 2**53
    e = _write(tmp_path, "e.csv", f"{big},{big + 2},1.0\n")
    f = _write(tmp_path, "f.csv", f"{big},0.5\n{2**63 - 1},1.5\n")
    ends, _ = read_table(e, "edges")
    assert ends.tolist() == [[big, big + 2]]
    ids, _ = read_table(f, "features")
    assert ids.tolist() == [big, 2**63 - 1]
    g = load_temporal_graph(e, features_path=f)
    assert g.node_ids.tolist() == [big, big + 2, 2**63 - 1]


@pytest.mark.parametrize("table,text,match", [
    ("edges", f"{2**63},1,1.0\n", ":1: malformed"),
    ("features", "", "no features"),
    ("labels", "# only a comment\n", "no labels"),
    ("embeddings", "0,1.0\n1,2.0,3.0\n", ":2: dimension"),
    ("features", "0,1.0\n5\n", ":2: expected"),
    ("features", "0,1.0\n1,-inf\n", ":2: non-finite"),
    ("labels", "0,a\n-3,b\n", ":2: negative node id"),
    ("labels", "4,a\n2,b\n4,c\n2,d\n", ":3: duplicate node id"),
    # ids and numeric values are ASCII numerals without '_', though int and float take both
    ("edges", "0,1,1.0\n1_0,2,3.0\n", ":2: malformed row '1_0,2,3.0'"),
    ("edges", "0,1,1.0\n# c\n٣,2,3.0\n", ":3: malformed row '٣,2,3.0'"),
    ("edges", "0,1,1.0\n1,2,1_0.5\n", ":2: malformed row '1,2,1_0.5'"),
    ("features", "0,1.0\n1,\u00a02.0\n", ":2: malformed row"),  # a no-break space
    ("labels", "0,a\n1Ǿ,b\n", ":2: malformed row"),  # loadtxt alone reads 472
    ("features", "0,1.0\n1\x1c,2.0\n", ":2: malformed row"),  # loadtxt alone takes it for a blank
])
def test_read_table_errors_name_the_first_offending_line(tmp_path, table, text, match):
    with pytest.raises(DataError, match=match):
        read_table(_write(tmp_path, "t.csv", text), table)


def test_read_table_rejects_text_that_is_not_utf8(tmp_path):
    p = tmp_path / "e.csv"
    p.write_bytes(b"0,1,1.0\n\xff,2,3.0\n")
    with pytest.raises(DataError, match="UTF-8"):
        read_table(p, "edges")


def test_numeric_cells_must_be_ascii_but_label_values_need_not_be(tmp_path):
    ids, values = read_table(_write(tmp_path, "l.csv", "0,٣\n1,1_0\n2,é\n"), "labels")
    assert ids.tolist() == [0, 1, 2] and values.tolist() == [0, 1, 2]  # three string classes
    # comments, and blanks around a row, are stripped before any cell is read
    ids, _ = read_table(_write(tmp_path, "f.csv", "# été\n\u00a07,1.5\u2003\n"), "features")
    assert ids.tolist() == [7]


@pytest.mark.parametrize("bad,match", [
    ("4,5,oops", "malformed row '4,5,oops'"),
    ("4,5", "expected 'src,dst,timestamp', got '4,5'"),
])
def test_a_bad_row_near_the_end_of_a_long_file_names_its_line(tmp_path, bad, match):
    lines = ["# src,dst,timestamp"] + [f"{i},{i + 1},{i / 7!r}" for i in range(20_000)]
    lines[19_990] = bad
    p = _write(tmp_path, "e.csv", "\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f":19991: {match}"):
        read_table(p, "edges")


# repr'd doubles at the edges of float64, a few spellings that must round
# as float rounds them, and ids that int64 holds but float64 would round
_EXACT_VALUES = ["5e-324", "-5e-324", "1e-320", "2.225073858507201e-308",
                 "2.2250738585072014e-308", "-0.0", "0.0", "0.1", "0.3333333333333333",
                 "9.999999999999999e+307", "1e+308", "1.7976931348623157e+308",
                 "-1.7976931348623157e+308", "4.9406564584124654e-324", "2.4703282292062328e-324",
                 "2.4703282292062327e-324", "1e-400", "9007199254740993",
                 "123456789012345678901234567890"]
_EXACT_IDS = [0, 2**53 + 1, 2**63 - 1]


def test_running_index_numbers_the_true_entries():
    mask = np.array([False, True, True, False, False, True])
    np.testing.assert_array_equal(running_index(mask), [-1, 0, 1, 1, 1, 2])
    assert running_index(mask).dtype == np.cumsum(mask).dtype
    assert running_index(np.zeros(0, dtype=bool)).size == 0


def test_values_and_ids_read_bit_identical_to_float_and_int(tmp_path):
    ids = [_EXACT_IDS[j % 3] for j in range(len(_EXACT_VALUES))]
    text = "".join(f"{i},{j},{v}\n" for j, (i, v) in enumerate(zip(ids, _EXACT_VALUES)))
    ends, ts = read_table(_write(tmp_path, "e.csv", text), "edges")
    expected = np.array([float(v) for v in _EXACT_VALUES])
    assert ts.dtype == np.float64 and ts.tobytes() == expected.tobytes()
    assert ends.dtype == np.int64 and ends.tolist() == [[i, j] for j, i in enumerate(ids)]
    row = ",".join(_EXACT_VALUES)
    f = _write(tmp_path, "f.csv", f"{2**63 - 1},{row}\n{2**53 + 1},{row}\n")
    node_ids, matrix = read_table(f, "embeddings")
    assert node_ids.tolist() == [2**63 - 1, 2**53 + 1]
    assert matrix.tobytes() == np.stack([expected, expected]).tobytes()


_TABLE_SHAPES = {"edges": (2, 3), "features": (1, None), "labels": (1, 2), "embeddings": (1, None)}


def _oracle(path, table):
    """Per-line reference for read_table: (ids, values) as nested lists, or
    None where read_table must raise DataError. Labels are class codes: the
    integers when every label is an ASCII numeral without ``_`` or
    ``\x1c``-``\x1f`` that fits int64, else each distinct string numbered by
    its first occurrence."""
    k, width = _TABLE_SHAPES[table]
    ids, values = [], []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 2 or len(parts) != (width or len(parts)):
                return None
            width = len(parts)
            numerals = parts[:k] if table == "labels" else parts
            if any("_" in p or not p.isascii() for p in numerals):
                return None
            try:
                row_ids = [int(p) for p in parts[:k]]
                row_values = parts[k:] if table == "labels" else [float(p) for p in parts[k:]]
            except ValueError:
                return None
            if not all(0 <= i < 2**63 for i in row_ids):
                return None
            if table != "labels" and not all(math.isfinite(v) for v in row_values):
                return None
            if k == 1 and [row_ids[0]] in ids:
                return None
            ids.append(row_ids)
            values.append(row_values)
    if table == "labels" and ids:
        labels = [label for label, in values]
        try:
            if any("_" in label or not label.isascii() or set(label) & set("\x1c\x1d\x1e\x1f")
                   for label in labels):
                raise ValueError("not an ASCII numeral")
            codes = [int(label) for label in labels]
            if not all(-2**63 <= c < 2**63 for c in codes):
                raise ValueError("past int64")
        except ValueError:
            names = []
            for label in labels:
                if label not in names:
                    names.append(label)
            codes = [names.index(label) for label in labels]
        else:
            if any(c < 0 for c in codes):
                return None
        values = [[c] for c in codes]
    return (ids, values) if ids else None


# any cell at all: ids, floats, the non-finite spellings, junk, '#'
_ODD_CELLS = st.one_of(
    st.sampled_from(["-1", "2.5", "1e400", "nan", "inf", "-inf", "", "x", "#", "# c", "C#",
                     str(2**63)]),
    st.integers(-2, 2**64).map(str),
    st.floats().map(repr),
    st.text(st.characters(codec="utf-8"), max_size=3),
)


@st.composite
def _table_files(draw):
    """(table, lines): rows mostly of the table's shape with well-formed
    cells, some odd cells, ragged rows, blanks and comments."""
    table = draw(st.sampled_from(sorted(_TABLE_SHAPES)))
    k, width = _TABLE_SHAPES[table]
    width = width or draw(st.integers(2, 4))
    ids = st.one_of(st.integers(0, 1000).map(str),
                    st.sampled_from([" 3", "+2", "1_0", str(2**53 + 1), str(2**63 - 1)]))
    if table == "labels":
        values = st.sampled_from(["0", "1", " 2", "a", "C#", "b c", "1_0", "\u0663", "+3"])
    else:
        values = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                           st.sampled_from(["2", " 1.5 ", "1e3", "-0.0", "1_0.5"]))

    def cell(good):
        return draw(good if draw(st.sampled_from([True] * 14 + [False])) else _ODD_CELLS)

    def line():
        kind = draw(st.sampled_from(["row"] * 12 + ["ragged", "blank"]))
        if kind == "ragged":
            return ",".join(draw(st.lists(_ODD_CELLS, min_size=1, max_size=4)))
        if kind == "blank":
            return draw(st.sampled_from(["", "  ", "# comment", "  # indented", "\t"]))
        return ",".join([cell(ids) for _ in range(k)] + [cell(values) for _ in range(width - k)])

    return table, [line() for _ in range(draw(st.integers(0, 8)))]


@settings(deadline=None, derandomize=True, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_table_files(), st.sampled_from(["\n", "\r\n"]))
def test_read_table_matches_a_per_line_oracle(tmp_path, file, newline):
    table, lines = file
    path = tmp_path / "t.csv"
    path.write_text(newline.join(lines), encoding="utf-8", newline="")
    expected = _oracle(path, table)
    if expected is None:
        with pytest.raises(DataError):
            read_table(path, table)
        return
    ids, values = read_table(path, table)
    n = len(expected[0])
    assert ids.dtype == np.int64 and ids.reshape(n, -1).tolist() == expected[0]
    assert values.dtype == (np.int64 if table == "labels" else np.float64)
    assert values.reshape(n, -1).tolist() == expected[1]
