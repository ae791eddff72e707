import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tgcl import (
    DataError,
    ModelParams,
    NumericError,
    build_graph,
    embed_views,
    embed_views_backward,
    encode,
    full_view,
    init_params,
    load_params,
    multi_view_loss,
    normalize_adjacency,
    project,
    readout,
    readout_rows,
    receptive_field,
    save_params,
    slice_interval,
    view_entry,
    view_inputs,
)
from tgcl.kernels import matmul
from tgcl.model import (
    CHECKPOINT_MAGIC,
    PARAM_FIELDS,
    encode_backward,
    project_backward,
    readout_backward,
)


def _random_view(n=30, m=90, d=6, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    ts = rng.uniform(0.0, 10.0, size=m)
    g = build_graph(src, dst, ts, feature_policy="random", feature_dim=d, feature_seed=seed)
    return slice_interval(g, 0.0, 10.0), g.features


def _identity_params(d):
    return ModelParams(
        gcn_w1=np.eye(d),
        gcn_w2=np.eye(d),
        proj_w1=np.eye(d),
        proj_b1=np.zeros(d),
        proj_w2=np.eye(d),
        proj_b2=np.zeros(d),
    )


def _encode_all(view, x, params):
    """The encoder asked for every row of the view, on the graph's features x."""
    return encode(receptive_field(view_entry(view, x), np.ones(view.num_active, dtype=bool)), params)


def _embed(entries, batch, params, stat="mean", with_neighborhood=True):
    """embed_views on the views' inputs for the batch nodes, as a training
    step builds them."""
    return embed_views([view_inputs(entry, batch, with_neighborhood) for entry in entries],
                       params, stat=stat)


def _dense_norm_adj(view):
    """Brute-force D^-1/2 (A + I) D^-1/2 over the active nodes."""
    n = view.num_active
    a = np.eye(n)
    for u, v in zip(view.src, view.dst):
        if u != v:
            a[u, v] = a[v, u] = 1.0
    d = a.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return inv[:, None] * a * inv[None, :]


def test_adjacency_single_isolated_node():
    g = build_graph(np.array([5]), np.array([5]), np.array([1.0]),
                    feature_policy="random", feature_dim=3)
    view = slice_interval(g, 0.0, 2.0)
    assert view.num_active == 1
    adj = normalize_adjacency(view)
    np.testing.assert_allclose(adj.toarray(), [[1.0]])


def test_adjacency_two_nodes_one_edge():
    g = build_graph(np.array([0]), np.array([1]), np.array([1.0]),
                    feature_policy="random", feature_dim=3)
    adj = normalize_adjacency(slice_interval(g, 0.0, 2.0))
    np.testing.assert_allclose(adj.toarray(), np.full((2, 2), 0.5))


def test_adjacency_matches_dense_oracle():
    view, _ = _random_view(seed=3)
    adj = normalize_adjacency(view)
    assert np.max(np.abs(adj.toarray() - _dense_norm_adj(view))) < 1e-12
    # entries in (0, 1], diagonal strictly positive, symmetric
    assert np.all(adj.data > 0.0) and np.all(adj.data <= 1.0)
    dense = adj.toarray()
    np.testing.assert_array_equal(dense, dense.T)
    assert np.all(np.diag(dense) > 0.0)


def test_adjacency_ignores_duplicate_and_reversed_edges():
    # (0,1) twice and (1,0) once must collapse to a single undirected edge
    g = build_graph(np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([1.0, 2.0, 3.0]),
                    feature_policy="random", feature_dim=3)
    adj = normalize_adjacency(slice_interval(g, 0.0, 4.0))
    np.testing.assert_allclose(adj.toarray(), np.full((2, 2), 0.5))


def test_adjacency_empty_view_rejected():
    g = build_graph(np.array([0]), np.array([1]), np.array([1.0]),
                    feature_policy="random", feature_dim=3)
    with pytest.raises(DataError, match="empty view"):
        normalize_adjacency(slice_interval(g, 5.0, 6.0))


def test_encode_isolated_identity_returns_features():
    feats = np.array([[1.5, -2.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    g = build_graph(np.array([0, 1]), np.array([0, 2]), np.array([1.0, 9.0]),
                    features=(np.arange(3), feats))
    view = slice_interval(g, 0.0, 2.0)  # only the self-loop edge at node 0
    h, _ = _encode_all(view, g.features, _identity_params(3))
    np.testing.assert_allclose(h, [[1.5, 0.0, 0.5]])  # relu between the layers


def test_encode_path_graph_dense_oracle():
    feats = np.array([[1.0, 2.0], [-1.0, 0.5], [2.0, -3.0]])
    g = build_graph(np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]),
                    features=(np.arange(3), feats))
    view = slice_interval(g, 0.0, 3.0)
    w1 = np.array([[1.0, -2.0], [3.0, 1.0]])
    w2 = np.array([[2.0, 0.0], [-1.0, 1.0]])
    params = ModelParams(gcn_w1=w1, gcn_w2=w2, proj_w1=np.eye(2),
                         proj_b1=np.zeros(2), proj_w2=np.eye(2), proj_b2=np.zeros(2))
    h, _ = _encode_all(view, g.features, params)

    x = np.stack([feats[i] for i in range(3)])
    a_hat = _dense_norm_adj(view)
    expect = a_hat @ np.maximum(a_hat @ x @ w1, 0.0) @ w2
    assert np.max(np.abs(h - expect)) < 1e-10


def test_encode_dim_mismatch():
    view, x = _random_view(d=6)
    with pytest.raises(ValueError, match="dim"):
        _encode_all(view, x, init_params(5, 8, 4))


def _fd_param_grad(loss_fn, arr, h=1e-5):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = arr[i]
        arr[i] = orig + h
        up = loss_fn()
        arr[i] = orig - h
        dn = loss_fn()
        arr[i] = orig
        g[i] = (up - dn) / (2 * h)
        it.iternext()
    return g


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / max(1e-6, np.max(np.abs(a)), np.max(np.abs(b)))


def test_encode_backward_fd():
    view, x = _random_view(n=10, m=25, d=4, seed=5)
    params = init_params(4, d_hidden=5, d_out=3, seed=1)
    w = np.random.default_rng(2).standard_normal((view.num_active, 3))

    def loss():
        h, _ = _encode_all(view, x, params)
        return float(np.sum(w * h))

    h, cache = _encode_all(view, x, params)
    grads = encode_backward(w, cache, params)
    for name in ("gcn_w1", "gcn_w2"):
        fd = _fd_param_grad(loss, getattr(params, name))
        assert _rel_err(grads[name], fd) < 1e-4, name


def test_readout_mean_sum_hand_case():
    # star: node 0 adjacent to 1 and 2 with rows [1,3] and [3,5]
    feats = np.array([[9.0, 9.0], [1.0, 3.0], [3.0, 5.0]])
    g = build_graph(np.array([0, 0]), np.array([1, 2]), np.array([1.0, 2.0]),
                    features=(np.arange(3), feats))
    view = slice_interval(g, 0.0, 3.0)
    h = g.features[view.active]  # use raw features as the hidden rows
    batch = view.local_index_of(np.array([0]))
    out = readout(readout_rows(normalize_adjacency(view), batch), h, stat="mean")
    np.testing.assert_allclose(out, [[2.0, 4.0]])
    out = readout(readout_rows(normalize_adjacency(view), batch), h, stat="sum")
    np.testing.assert_allclose(out, [[4.0, 8.0]])
    out = readout(readout_rows(normalize_adjacency(view), batch), h, stat="max")
    np.testing.assert_allclose(out, [[3.0, 5.0]])


def test_readout_excludes_self_and_falls_back_when_isolated():
    # 0-1 edge plus a self-loop-only node 2
    feats = np.array([[1.0], [10.0], [7.0]])
    g = build_graph(np.array([0, 2]), np.array([1, 2]), np.array([1.0, 1.5]),
                    features=(np.arange(3), feats))
    view = slice_interval(g, 0.0, 2.0)
    h = g.features[view.active]
    batch = view.local_index_of(np.array([0, 1, 2]))
    out = readout(readout_rows(normalize_adjacency(view), batch), h, stat="mean")
    # neighbors only: 0 sees 1, 1 sees 0; 2 has none and keeps its own row
    np.testing.assert_allclose(out, [[10.0], [1.0], [7.0]])


def test_readout_matches_naive_loop():
    view, _ = _random_view(n=20, m=50, d=5, seed=9)
    rng = np.random.default_rng(1)
    h = rng.standard_normal((view.num_active, 5))
    batch = np.arange(view.num_active)

    nbrs = {i: set() for i in range(view.num_active)}
    for u, v in zip(view.src, view.dst):
        if u != v:
            nbrs[int(u)].add(int(v))
            nbrs[int(v)].add(int(u))

    for stat, red in (("mean", np.mean), ("sum", np.sum), ("max", np.max)):
        out = readout(readout_rows(normalize_adjacency(view), batch), h, stat=stat)
        for i in range(view.num_active):
            rows = h[sorted(nbrs[i])] if nbrs[i] else h[[i]]
            np.testing.assert_allclose(out[i], red(rows, axis=0), err_msg=f"{stat} node {i}")


def test_readout_permutation_invariance():
    view, _ = _random_view(n=15, m=40, d=4, seed=11)
    rng = np.random.default_rng(2)
    h = rng.standard_normal((view.num_active, 4))
    batch = np.arange(view.num_active)
    perm = rng.permutation(view.timestamps.size)
    shuffled = type(view)(
        lo=view.lo, hi=view.hi, active=view.active,
        src=view.src[perm], dst=view.dst[perm],
        timestamps=view.timestamps[perm],
    )
    for stat in ("mean", "sum", "max"):
        a = readout(readout_rows(normalize_adjacency(view), batch), h, stat=stat)
        b = readout(readout_rows(normalize_adjacency(shuffled), batch), h, stat=stat)
        np.testing.assert_allclose(a, b, atol=1e-12, err_msg=stat)


def test_readout_unknown_stat():
    view, x = _random_view()
    with pytest.raises(ValueError, match="unknown readout stat"):
        readout(readout_rows(normalize_adjacency(view), np.array([0])), x, stat="median")


def test_project_rows_unit_norm():
    rng = np.random.default_rng(3)
    params = init_params(6, 8, 5, seed=0)
    z, _ = project(rng.standard_normal((10, 5)), params)
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-6)
    # renormalizing changes nothing
    z2 = z / np.linalg.norm(z, axis=1, keepdims=True)
    assert np.max(np.abs(z - z2)) < 1e-12


def test_project_identity_345_case():
    params = _identity_params(4)
    # the LeakyReLU's slope 0.01 takes -400 to -4
    z, _ = project(np.array([[3.0, 4.0, 0.0, 0.0], [3.0, 0.0, 0.0, -400.0]]), params)
    np.testing.assert_allclose(z, [[0.6, 0.8, 0.0, 0.0], [0.6, 0.0, 0.0, -0.8]])


def test_project_backward_fd():
    rng = np.random.default_rng(4)
    params = init_params(5, 6, 4, seed=2)
    x = rng.standard_normal((6, 4))
    w = rng.standard_normal((6, 4))

    def loss():
        z, _ = project(x, params)
        return float(np.sum(w * z))

    z, cache = project(x, params)
    g_x, grads = project_backward(w, cache, params)
    for name in ("proj_w1", "proj_b1", "proj_w2", "proj_b2"):
        fd = _fd_param_grad(loss, getattr(params, name))
        assert _rel_err(grads[name], fd) < 1e-4, name
    fd_x = _fd_param_grad(loss, x)
    assert _rel_err(g_x, fd_x) < 1e-4


def _two_view_graph(seed=0, d=5):
    rng = np.random.default_rng(seed)
    n, m = 14, 60
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    ts = rng.uniform(0.0, 10.0, size=m)
    # force every node into both halves so any batch works
    extra_src = np.concatenate([np.arange(n), np.arange(n)])
    extra_dst = np.concatenate([(np.arange(n) + 1) % n, (np.arange(n) + 1) % n])
    extra_ts = np.concatenate([np.full(n, 1.0), np.full(n, 9.0)])
    g = build_graph(
        np.concatenate([src, extra_src]), np.concatenate([dst, extra_dst]),
        np.concatenate([ts, extra_ts]), feature_policy="random", feature_dim=d,
        feature_seed=seed,
    )
    return [view_entry(slice_interval(g, lo, hi), g.features) for lo, hi in ((0.0, 5.0), (5.0, 10.0))]


def test_embed_views_identical_windows_equal():
    views = _two_view_graph()
    params = init_params(5, 8, 4, seed=0)
    batch = np.arange(6)
    pairs, _ = _embed([views[0], views[0]], batch, params)
    np.testing.assert_array_equal(pairs[0][0], pairs[1][0])
    np.testing.assert_array_equal(pairs[0][1], pairs[1][1])


def test_embed_views_shapes_and_alignment():
    views = _two_view_graph()
    params = init_params(5, 8, 4, seed=0)
    pairs, caches = _embed(views, np.array([3]), params)
    for entry, (q, k), cache in zip(views, pairs, caches):
        view = entry.view
        assert q.shape == (1, 4) and k.shape == (1, 4)
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-6)
        full, _ = _encode_all(view, entry.x, params)
        local = view.local_index_of(np.array([3]))
        np.testing.assert_array_equal(cache.h[cache.batch], full[local])


def test_embed_views_compositional_oracle():
    views = _two_view_graph(seed=7)
    params = init_params(5, 8, 4, seed=1)
    batch = np.array([0, 2, 5])
    pairs, _ = _embed(views, batch, params, stat="sum")
    for entry, (q, k) in zip(views, pairs):
        h, _ = _encode_all(entry.view, entry.x, params)
        local = entry.view.local_index_of(batch)
        queries, _ = project(h[local], params)
        r = readout(readout_rows(entry.adj, local), h, stat="sum")
        keys, _ = project(r, params)
        np.testing.assert_allclose(q, queries, atol=1e-12)
        np.testing.assert_allclose(k, keys, atol=1e-12)


def test_embed_views_weight_sharing():
    views = _two_view_graph(seed=2)
    params = init_params(5, 8, 4, seed=3)
    batch = np.arange(5)
    before, _ = _embed(views, batch, params)
    params.gcn_w1[0, 0] += 0.25
    after, _ = _embed(views, batch, params)
    for b, a in zip(before, after):
        assert not np.allclose(b[0], a[0])


def test_embed_views_without_neighborhood():
    views = _two_view_graph(seed=4)
    params = init_params(5, 8, 4, seed=0)
    pairs, caches = _embed(views, np.arange(4), params, with_neighborhood=False)
    assert all(k is q for q, k in pairs)
    assert all(c.neigh is None for c in caches)


def test_embed_views_backward_fd():
    views = _two_view_graph(seed=5)
    params = init_params(5, 6, 4, seed=2)
    batch = np.arange(7)
    rng = np.random.default_rng(8)
    w_q = [rng.standard_normal((7, 4)) for _ in views]
    w_k = [rng.standard_normal((7, 4)) for _ in views]

    def loss():
        pairs, _ = _embed(views, batch, params, stat="mean")
        return float(
            sum(np.sum(wq * q) + np.sum(wk * k) for wq, wk, (q, k) in zip(w_q, w_k, pairs))
        )

    _, caches = _embed(views, batch, params, stat="mean")
    zgrads = list(zip(w_q, w_k))
    grads = embed_views_backward(zgrads, caches, params)
    for name in PARAM_FIELDS:
        fd = _fd_param_grad(loss, getattr(params, name))
        assert _rel_err(grads[name], fd) < 1e-4, name


def test_embed_views_backward_consumes_its_caches():
    views = _two_view_graph(seed=5)
    params = init_params(5, 6, 4, seed=2)
    pairs, caches = _embed(views, np.arange(7), params, stat="mean")
    zgrads = [(np.ones_like(q), np.ones_like(k)) for q, k in pairs]
    with pytest.raises(TypeError, match="caches must be the list embed_views returned"):
        embed_views_backward(zgrads, tuple(caches), params)
    with pytest.raises(ValueError, match="3 views' gradients for 2 caches"):
        embed_views_backward(zgrads + zgrads[:1], caches, params)
    assert all(cache is not None for cache in caches)  # a refused call takes nothing
    embed_views_backward(zgrads, caches, params)
    assert caches == [None, None]
    with pytest.raises(ValueError, match="consumed by an earlier embed_views_backward"):
        embed_views_backward(zgrads, caches, params)


def _ring_views(n=40, chords=10, seed=0, d=5):
    """Two view entries of a sparse graph. A ring in each half keeps every
    node active in both, so a small batch has a small receptive field."""
    rng = np.random.default_rng(seed)
    ring = np.arange(n)
    src = np.concatenate([ring, ring, rng.integers(0, n, 2 * chords)])
    dst = np.concatenate([(ring + 1) % n, (ring + 1) % n, rng.integers(0, n, 2 * chords)])
    ts = np.concatenate([np.full(n, 1.0), np.full(n, 9.0), rng.uniform(0.0, 10.0, 2 * chords)])
    g = build_graph(src, dst, ts, feature_policy="random", feature_dim=d, feature_seed=seed)
    return [view_entry(slice_interval(g, lo, hi), g.features) for lo, hi in ((0.0, 5.0), (5.0, 10.0))]


def _full_path(entries, batch, params, level, stat):
    """Embeddings and the six gradients with the encoder run on every row,
    forward and backward, with a dense Â, and the readouts projected apart
    from the batch rows: the oracle for the restriction and the stacking."""
    pairs, saved = [], []
    for entry in entries:
        view, adj = entry.view, entry.adj
        a = adj.toarray()
        p0 = a @ entry.x[view.active]
        s1 = p0 @ params.gcn_w1
        p1 = a @ np.maximum(s1, 0.0)
        h = p1 @ params.gcn_w2
        local = view.local_index_of(batch)
        queries, proj_q = project(h[local], params)
        keys, proj_k, read = queries, None, None
        if level == "graph":
            read = readout_rows(adj, local)
            keys, proj_k = project(readout(read, h, stat=stat), params)
        pairs.append((queries, keys))
        saved.append((a, p0, s1, p1, h, local, proj_q, proj_k, read))
    _, zgrads = multi_view_loss(pairs, 0.5)
    grads = params.zeros_like_grads()
    for (g_q, g_k), (a, p0, s1, p1, h, local, proj_q, proj_k, read) in zip(zgrads, saved):
        g_h = np.zeros_like(h)
        if proj_k is None:  # the keys are the queries
            g_q = g_q + g_k
        g_rows, proj_grads = project_backward(g_q, proj_q, params)
        np.add.at(g_h, local, g_rows)
        if proj_k is not None:
            g_read, more = project_backward(g_k, proj_k, params)
            g_h += readout_backward(g_read, read, h, stat)
            proj_grads = {k: proj_grads[k] + more[k] for k in proj_grads}
        g_s1 = (a @ (g_h @ params.gcn_w2.T)) * (s1 > 0.0)
        proj_grads.update(gcn_w1=p0.T @ g_s1, gcn_w2=p1.T @ g_h)
        for k, g in proj_grads.items():
            grads[k] += g
    return pairs, zgrads, grads


@pytest.mark.parametrize("level, stat", [
    ("node", "mean"), ("graph", "mean"), ("graph", "sum"), ("graph", "max")])
def test_restricted_encoder_matches_the_full_path(level, stat):
    entries = _ring_views(seed=3)
    params = init_params(5, 8, 4, seed=4)
    batch = np.array([30, 2, 17, 3])  # unsorted, as make_minibatch draws them
    want, zgrads, want_grads = _full_path(entries, batch, params, level, stat)
    pairs, caches = _embed(entries, batch, params, stat=stat, with_neighborhood=level == "graph")
    for entry, cache, (q, k), (wq, wk) in zip(entries, caches, pairs, want):
        assert cache.enc.p0.shape[0] < entry.view.num_active  # the restriction restricts
        np.testing.assert_allclose(q, wq, rtol=0, atol=1e-12)
        if level == "graph":
            np.testing.assert_allclose(k, wk, rtol=0, atol=1e-12)
    grads = embed_views_backward(zgrads, caches, params)
    for name in PARAM_FIELDS:
        np.testing.assert_allclose(grads[name], want_grads[name], rtol=0, atol=1e-12,
                                   err_msg=name)


@st.composite
def _small_views(draw):
    """A view of every edge of a random small graph, self-loops and
    repeated edges included."""
    n = draw(st.integers(1, 9))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         min_size=1, max_size=24))
    src, dst = np.array(ends).T
    g = build_graph(src, dst, np.arange(len(ends), dtype=np.float64),
                    feature_policy="random", feature_dim=3, feature_seed=n)
    return slice_interval(g, g.t_min, g.t_max), g.features


@settings(deadline=None, derandomize=True)
@given(_small_views())
def test_normalized_adjacency_is_the_symmetric_dense_reference(small):
    view, _ = small
    norm = normalize_adjacency(view).toarray()
    np.testing.assert_array_equal(norm, norm.T)
    np.testing.assert_allclose(norm, _dense_norm_adj(view), rtol=1e-15, atol=0)


@settings(deadline=None, derandomize=True)
@given(_small_views())
def test_neighbour_rows_sum_to_distinct_neighbour_counts(small):
    view, _ = small
    neighbours = [set() for _ in range(view.num_active)]
    for u, v in zip(view.src.tolist(), view.dst.tolist()):
        if u != v:
            neighbours[u].add(v)
            neighbours[v].add(u)
    expect = [len(s) or 1 for s in neighbours]
    rows = readout_rows(normalize_adjacency(view), np.arange(view.num_active))
    np.testing.assert_array_equal(rows.sum(axis=1), expect)


@settings(deadline=None, derandomize=True)
@given(_small_views(), st.data())
def test_restricted_encode_rows_equal_the_full_encode(small, data):
    view, x = small
    rows = np.array(data.draw(st.lists(st.booleans(), min_size=view.num_active,
                                       max_size=view.num_active)))
    params = init_params(3, 4, 2, seed=data.draw(st.integers(0, 3)))
    entry = view_entry(view, x)
    full, _ = encode(receptive_field(entry, np.ones(view.num_active, dtype=bool)), params)
    h, _ = encode(receptive_field(entry, rows), params)
    assert h.shape[0] == rows.sum()
    assert h.tobytes() == full[rows].tobytes()


# zeros, NaN, infinities and subnormals among finite values
_SPECIALS = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324])


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_small_views(), st.data())
def test_encode_backward_bytes_at_zero_and_nan_pre_activations(small, data):
    view, x = small
    # P0 and W1 with zero rows and columns, NaN and infinities make the
    # pre-activations s1 = P0 · W1 hold 0.0 and NaN (a GEMM sums from +0.0, so
    # never -0.0; the LeakyReLU tests cover -0.0). The W1 gradient must be the
    # bytes of P0ᵀ · ((Â[rows]ᵀ · g W2ᵀ) * (s1 > 0)), the form a ReLU that keeps
    # only a mask of s1 for its backward has to reproduce
    n = view.num_active
    rows = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    a_rows, p0 = receptive_field(view_entry(view, x), rows)
    p0 = data.draw(hnp.arrays(np.float64, p0.shape, elements=_SPECIALS))
    params = init_params(p0.shape[1], 4, 2, seed=0)
    params.gcn_w1 = data.draw(hnp.arrays(np.float64, params.gcn_w1.shape, elements=_SPECIALS))
    g = data.draw(hnp.arrays(np.float64, (a_rows.shape[0], 2), elements=st.floats(-1e3, 1e3)))
    with np.errstate(over="ignore", invalid="ignore"):
        _, cache = encode((a_rows, p0), params)
        got = encode_backward(g, cache, params)["gcn_w1"]
        s1 = matmul(p0, params.gcn_w1)
        want = p0.T @ ((a_rows.T @ (g @ params.gcn_w2.T)) * (s1 > 0.0))
    assert got.tobytes() == want.tobytes()


@st.composite
def _views_with_isolated_nodes(draw):
    """The full view of a small graph, or the view of a window of its
    edges, and the graph: duplicate, reversed and self edges are common, and
    label-only nodes are isolated, so their rows of Â in the full view hold
    only the self-loop. A window leaves them out, so its active nodes are a
    strict subset of the graph's and view node i need not be graph node i."""
    n = draw(st.integers(1, 8))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         min_size=1, max_size=20))
    src, dst = np.array(ends).T
    extra = np.array(draw(st.lists(st.integers(n, n + 3), max_size=3, unique=True)), dtype=np.int64)
    g = build_graph(src, dst, np.arange(len(ends), dtype=np.float64),
                    labels=(extra, extra % 2) if extra.size else None,
                    feature_policy="random", feature_dim=draw(st.sampled_from([1, 3])),
                    feature_seed=n)
    if extra.size and draw(st.booleans()):
        lo = draw(st.integers(0, len(ends) - 1))
        return slice_interval(g, lo, draw(st.integers(lo, len(ends) - 1))), g
    return full_view(g), g


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_views_with_isolated_nodes(), st.data())
def test_receptive_field_is_the_rows_of_the_full_product(view_graph, data):
    view, graph = view_graph
    n = view.num_active
    rows = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    entry = view_entry(view, graph.features)
    dense = entry.adj.toarray()
    frontier = dense[rows].any(axis=0)  # F: every node a row asked for reaches
    full = entry.adj @ graph.features[view.active]
    a_rows, p0 = receptive_field(entry, rows)
    assert (p0.dtype, p0.shape) == (full.dtype, full[frontier].shape)
    assert p0.tobytes() == full[frontier].tobytes()
    assert a_rows.shape == (rows.sum(), frontier.sum())
    assert a_rows.toarray().tobytes() == dense[rows][:, frontier].tobytes()


def test_an_all_rows_receptive_field_is_a_hat_itself():
    # every node reaches itself through its self-loop, so F is every node in
    # order: the field holds Â, not a copy with renumbered columns
    g = build_graph(np.array([0, 1, 2, 5]), np.array([1, 2, 0, 5]),
                    np.arange(4.0), feature_policy="random", feature_dim=3)
    view = full_view(g)
    entry = view_entry(view, g.features)
    a_rows, p0 = receptive_field(entry, np.ones(view.num_active, dtype=bool))
    assert a_rows is entry.adj
    assert p0.tobytes() == (entry.adj @ g.features[view.active]).tobytes()


def test_save_params_refuses_non_finite_tensors(tmp_path):
    params = init_params(3, 4, 2)
    params.proj_b2[1] = np.inf
    with pytest.raises(NumericError, match="non-finite values in proj_b2"):
        save_params(tmp_path / "p.ckpt", params)
    assert list(tmp_path.iterdir()) == []  # the temp file is never opened


def test_param_count_formula():
    p = init_params(128, 128, 64)
    assert p.num_params == 128 * 128 + 128 * 64 + 2 * (64**2 + 64)
    q = init_params(10, 6, 4)
    assert q.num_params == 10 * 6 + 6 * 4 + 2 * (4**2 + 4)


def test_init_params_seeded():
    a = init_params(8, 6, 4, seed=5)
    b = init_params(8, 6, 4, seed=5)
    c = init_params(8, 6, 4, seed=6)
    for f in PARAM_FIELDS:
        np.testing.assert_array_equal(getattr(a, f), getattr(b, f))
    assert not np.array_equal(a.gcn_w1, c.gcn_w1)
    assert np.all(a.proj_b1 == 0.0) and np.all(a.proj_b2 == 0.0)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = init_params(7, 5, 3, seed=9)
    path = tmp_path / "p.ckpt"
    save_params(path, params, meta={"epoch": 3, "note": "x"})
    loaded, meta = load_params(path)
    for f in PARAM_FIELDS:
        assert np.array_equal(getattr(params, f), getattr(loaded, f))
    assert meta == {"epoch": 3, "note": "x"}


def test_checkpoint_bytes_deterministic(tmp_path):
    params = init_params(7, 5, 3, seed=9)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_params(p1, params, meta={"epoch": 1})
    save_params(p2, params, meta={"epoch": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"not a checkpoint\n{}\n")
    with pytest.raises(DataError, match="bad magic"):
        load_params(p)


def test_checkpoint_truncated(tmp_path):
    params = init_params(7, 5, 3, seed=9)
    p = tmp_path / "p.ckpt"
    save_params(p, params)
    data = p.read_bytes()
    p.write_bytes(data[:-16])
    with pytest.raises(DataError, match="truncated"):
        load_params(p)


def test_a_checkpoint_header_over_one_mib_is_a_data_error(tmp_path):
    params = init_params(7, 5, 3, seed=9)
    p = tmp_path / "p.ckpt"
    save_params(p, params, meta={"note": "x" * (1 << 20)})
    with pytest.raises(DataError, match=f"checkpoint header exceeds {1 << 20} bytes"):
        load_params(p)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def _checkpoint_files(draw):
    """A well-formed checkpoint with any of its header parts, its whole
    header or its tensor bytes possibly replaced by arbitrary values."""
    params = init_params(*draw(st.tuples(*[st.integers(1, 3)] * 3)))
    good = {
        "dims": {"d_in": params.d_in, "d_hidden": params.d_hidden, "d_out": params.d_out},
        "tensors": [{"name": f, "shape": list(getattr(params, f).shape)} for f in PARAM_FIELDS],
        "meta": {},
    }
    header = draw(st.just({k: draw(st.just(v) | _JSON) for k, v in good.items()}) | _JSON)
    size = 8 * params.num_params
    body = draw(st.binary(min_size=size, max_size=size) | st.binary(max_size=size + 16))
    return json.dumps(header).encode() + b"\n" + body


@settings(deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_checkpoint_files())
def test_load_params_returns_or_raises_data_error(tmp_path, data):
    path = tmp_path / "p.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC.encode() + b"\n" + data)
    try:
        params, meta = load_params(path)
    except DataError:
        return
    assert all(np.all(np.isfinite(getattr(params, f))) for f in PARAM_FIELDS)
    assert isinstance(meta, dict)
