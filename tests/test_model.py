import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tgcl import (
    DataError,
    ModelParams,
    build_graph,
    embed_views,
    embed_views_backward,
    encode,
    init_params,
    load_params,
    normalize_adjacency,
    project,
    readout,
    save_params,
    slice_interval,
)
from tgcl.model import CHECKPOINT_MAGIC, PARAM_FIELDS, encode_backward, project_backward


def _random_view(n=30, m=90, d=6, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    ts = rng.uniform(0.0, 10.0, size=m)
    g = build_graph(src, dst, ts, feature_policy="random", feature_dim=d, feature_seed=seed)
    return slice_interval(g, 0.0, 10.0)


def _identity_params(d):
    return ModelParams(
        gcn_w1=np.eye(d),
        gcn_w2=np.eye(d),
        proj_w1=np.eye(d),
        proj_b1=np.zeros(d),
        proj_w2=np.eye(d),
        proj_b2=np.zeros(d),
    )


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
    np.testing.assert_allclose(adj.norm.toarray(), [[1.0]])


def test_adjacency_two_nodes_one_edge():
    g = build_graph(np.array([0]), np.array([1]), np.array([1.0]),
                    feature_policy="random", feature_dim=3)
    adj = normalize_adjacency(slice_interval(g, 0.0, 2.0))
    np.testing.assert_allclose(adj.norm.toarray(), np.full((2, 2), 0.5))


def test_adjacency_matches_dense_oracle():
    view = _random_view(seed=3)
    adj = normalize_adjacency(view)
    assert np.max(np.abs(adj.norm.toarray() - _dense_norm_adj(view))) < 1e-12
    # entries in (0, 1], diagonal strictly positive, symmetric
    assert np.all(adj.vals > 0.0) and np.all(adj.vals <= 1.0)
    dense = adj.norm.toarray()
    np.testing.assert_array_equal(dense, dense.T)
    assert np.all(np.diag(dense) > 0.0)


def test_adjacency_ignores_duplicate_and_reversed_edges():
    # (0,1) twice and (1,0) once must collapse to a single undirected edge
    g = build_graph(np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([1.0, 2.0, 3.0]),
                    feature_policy="random", feature_dim=3)
    adj = normalize_adjacency(slice_interval(g, 0.0, 4.0))
    np.testing.assert_allclose(adj.norm.toarray(), np.full((2, 2), 0.5))


def test_adjacency_empty_view_rejected():
    g = build_graph(np.array([0]), np.array([1]), np.array([1.0]),
                    feature_policy="random", feature_dim=3)
    with pytest.raises(DataError, match="empty view"):
        normalize_adjacency(slice_interval(g, 5.0, 6.0))


def test_encode_isolated_identity_returns_features():
    feats = {0: np.array([1.5, -2.0, 0.5]), 1: np.zeros(3), 2: np.zeros(3)}
    g = build_graph(np.array([0, 1]), np.array([0, 2]), np.array([1.0, 9.0]),
                    feature_rows=feats)
    view = slice_interval(g, 0.0, 2.0)  # only the self-loop edge at node 0
    adj = normalize_adjacency(view)
    h, _ = encode(view, adj, _identity_params(3))
    np.testing.assert_allclose(h, [[1.5, 0.0, 0.5]])  # relu between the layers


def test_encode_path_graph_dense_oracle():
    feats = {0: np.array([1.0, 2.0]), 1: np.array([-1.0, 0.5]), 2: np.array([2.0, -3.0])}
    g = build_graph(np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]),
                    feature_rows=feats)
    view = slice_interval(g, 0.0, 3.0)
    w1 = np.array([[1.0, -2.0], [3.0, 1.0]])
    w2 = np.array([[2.0, 0.0], [-1.0, 1.0]])
    params = ModelParams(gcn_w1=w1, gcn_w2=w2, proj_w1=np.eye(2),
                         proj_b1=np.zeros(2), proj_w2=np.eye(2), proj_b2=np.zeros(2))
    h, _ = encode(view, normalize_adjacency(view), params)

    x = np.stack([feats[i] for i in range(3)])
    a_hat = _dense_norm_adj(view)
    expect = a_hat @ np.maximum(a_hat @ x @ w1, 0.0) @ w2
    assert np.max(np.abs(h - expect)) < 1e-10


def test_encode_dim_mismatch():
    view = _random_view(d=6)
    with pytest.raises(ValueError, match="dim"):
        encode(view, normalize_adjacency(view), init_params(5, 8, 4))


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
    view = _random_view(n=10, m=25, d=4, seed=5)
    params = init_params(4, d_hidden=5, d_out=3, seed=1)
    adj = normalize_adjacency(view)
    w = np.random.default_rng(2).standard_normal((view.num_active, 3))

    def loss():
        h, _ = encode(view, adj, params)
        return float(np.sum(w * h))

    h, cache = encode(view, adj, params)
    grads = encode_backward(w, cache, adj, params)
    for name in ("gcn_w1", "gcn_w2"):
        fd = _fd_param_grad(loss, getattr(params, name))
        assert _rel_err(grads[name], fd) < 1e-4, name


def test_readout_mean_sum_hand_case():
    # star: node 0 adjacent to 1 and 2 with rows [1,3] and [3,5]
    feats = {0: np.array([9.0, 9.0]), 1: np.array([1.0, 3.0]), 2: np.array([3.0, 5.0])}
    g = build_graph(np.array([0, 0]), np.array([1, 2]), np.array([1.0, 2.0]),
                    feature_rows=feats)
    view = slice_interval(g, 0.0, 3.0)
    h = view.features  # use raw features as the hidden rows
    batch = view.local_index_of(np.array([0]))
    out, _ = readout(normalize_adjacency(view), h, batch, stat="mean")
    np.testing.assert_allclose(out, [[2.0, 4.0]])
    out, _ = readout(normalize_adjacency(view), h, batch, stat="sum")
    np.testing.assert_allclose(out, [[4.0, 8.0]])
    out, _ = readout(normalize_adjacency(view), h, batch, stat="max")
    np.testing.assert_allclose(out, [[3.0, 5.0]])


def test_readout_excludes_self_and_falls_back_when_isolated():
    # 0-1 edge plus a self-loop-only node 2
    feats = {0: np.array([1.0]), 1: np.array([10.0]), 2: np.array([7.0])}
    g = build_graph(np.array([0, 2]), np.array([1, 2]), np.array([1.0, 1.5]),
                    feature_rows=feats)
    view = slice_interval(g, 0.0, 2.0)
    h = view.features
    batch = view.local_index_of(np.array([0, 1, 2]))
    out, _ = readout(normalize_adjacency(view), h, batch, stat="mean")
    # neighbors only: 0 sees 1, 1 sees 0; 2 has none and keeps its own row
    np.testing.assert_allclose(out, [[10.0], [1.0], [7.0]])


def test_readout_matches_naive_loop():
    view = _random_view(n=20, m=50, d=5, seed=9)
    rng = np.random.default_rng(1)
    h = rng.standard_normal((view.num_active, 5))
    batch = np.arange(view.num_active)

    nbrs = {i: set() for i in range(view.num_active)}
    for u, v in zip(view.src, view.dst):
        if u != v:
            nbrs[int(u)].add(int(v))
            nbrs[int(v)].add(int(u))

    for stat, red in (("mean", np.mean), ("sum", np.sum), ("max", np.max)):
        out, _ = readout(normalize_adjacency(view), h, batch, stat=stat)
        for i in range(view.num_active):
            rows = h[sorted(nbrs[i])] if nbrs[i] else h[[i]]
            np.testing.assert_allclose(out[i], red(rows, axis=0), err_msg=f"{stat} node {i}")


def test_readout_permutation_invariance():
    view = _random_view(n=15, m=40, d=4, seed=11)
    rng = np.random.default_rng(2)
    h = rng.standard_normal((view.num_active, 4))
    batch = np.arange(view.num_active)
    perm = rng.permutation(view.num_edges)
    shuffled = type(view)(
        lo=view.lo, hi=view.hi, active=view.active,
        src=view.src[perm], dst=view.dst[perm],
        timestamps=view.timestamps[perm], features=view.features,
    )
    for stat in ("mean", "sum", "max"):
        a, _ = readout(normalize_adjacency(view), h, batch, stat=stat)
        b, _ = readout(normalize_adjacency(shuffled), h, batch, stat=stat)
        np.testing.assert_allclose(a, b, atol=1e-12, err_msg=stat)


def test_readout_unknown_stat():
    view = _random_view()
    with pytest.raises(ValueError, match="unknown readout stat"):
        readout(normalize_adjacency(view), view.features, np.array([0]), stat="median")


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
    z, _ = project(np.array([[3.0, 4.0, 0.0, 0.0]]), params)
    np.testing.assert_allclose(z, [[0.6, 0.8, 0.0, 0.0]])


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
    return [slice_interval(g, 0.0, 5.0), slice_interval(g, 5.0, 10.0)]


def test_embed_views_identical_windows_equal():
    views = _two_view_graph()
    params = init_params(5, 8, 4, seed=0)
    batch = np.arange(6)
    emb, _ = embed_views([views[0], views[0]], batch, params)
    np.testing.assert_array_equal(emb[0].node_z, emb[1].node_z)
    np.testing.assert_array_equal(emb[0].neigh_z, emb[1].neigh_z)


def test_embed_views_shapes_and_alignment():
    views = _two_view_graph()
    params = init_params(5, 8, 4, seed=0)
    emb, _ = embed_views(views, np.array([3]), params)
    for e in emb:
        assert e.node_z.shape == (1, 4) and e.neigh_z.shape == (1, 4)
        np.testing.assert_allclose(np.linalg.norm(e.node_z, axis=1), 1.0, atol=1e-6)
        assert e.node_index.tolist() == [3]


def test_embed_views_compositional_oracle():
    views = _two_view_graph(seed=7)
    params = init_params(5, 8, 4, seed=1)
    batch = np.array([0, 2, 5])
    emb, _ = embed_views(views, batch, params, stat="sum")
    for view, e in zip(views, emb):
        adj = normalize_adjacency(view)
        h, _ = encode(view, adj, params)
        local = view.local_index_of(batch)
        node_z, _ = project(h[local], params)
        r, _ = readout(adj, h, local, stat="sum")
        neigh_z, _ = project(r, params)
        np.testing.assert_allclose(e.node_z, node_z, atol=1e-12)
        np.testing.assert_allclose(e.neigh_z, neigh_z, atol=1e-12)


def test_embed_views_weight_sharing():
    views = _two_view_graph(seed=2)
    params = init_params(5, 8, 4, seed=3)
    batch = np.arange(5)
    before, _ = embed_views(views, batch, params)
    params.gcn_w1[0, 0] += 0.25
    after, _ = embed_views(views, batch, params)
    for b, a in zip(before, after):
        assert not np.allclose(b.node_z, a.node_z)


def test_embed_views_without_neighborhood():
    views = _two_view_graph(seed=4)
    params = init_params(5, 8, 4, seed=0)
    emb, caches = embed_views(views, np.arange(4), params, with_neighborhood=False)
    assert all(e.neigh_z is None for e in emb)
    assert all(c.read is None for c in caches)


def test_embed_views_backward_fd():
    views = _two_view_graph(seed=5)
    params = init_params(5, 6, 4, seed=2)
    batch = np.arange(7)
    rng = np.random.default_rng(8)
    w_node = [rng.standard_normal((7, 4)) for _ in views]
    w_neigh = [rng.standard_normal((7, 4)) for _ in views]

    def loss():
        emb, _ = embed_views(views, batch, params, stat="mean")
        return float(
            sum(np.sum(wn * e.node_z) + np.sum(wg * e.neigh_z)
                for wn, wg, e in zip(w_node, w_neigh, emb))
        )

    _, caches = embed_views(views, batch, params, stat="mean")
    zgrads = list(zip(w_node, w_neigh))
    grads = embed_views_backward(zgrads, caches, params)
    for name in PARAM_FIELDS:
        fd = _fd_param_grad(loss, getattr(params, name))
        assert _rel_err(grads[name], fd) < 1e-4, name


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
