import numpy as np
import pytest

from tgcl import (
    DataError,
    LossConfig,
    SamplerConfig,
    TrainConfig,
    build_graph,
    embed_all,
    init_params,
    load_params,
    make_minibatch,
    sample_windows,
    shared_nodes,
    slice_interval,
    train,
)


def _train_graph(seed=0, n=30, m=600, d=8):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    ts = rng.uniform(0.0, 12.0, size=m)
    return build_graph(src, dst, ts, feature_policy="random", feature_dim=d, feature_seed=seed)


GRAPH = _train_graph()


def _small_cfg(**kw):
    base = dict(
        sampler=SamplerConfig("random", 3, 2),
        loss=LossConfig("node", 0.5),
        d_hidden=16,
        d_out=8,
        batch_size=16,
        epochs=3,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    _small_cfg().validate()
    with pytest.raises(DataError, match="learning rate"):
        _small_cfg(lr=0.0).validate()
    with pytest.raises(DataError, match="weight decay"):
        _small_cfg(weight_decay=-1.0).validate()
    with pytest.raises(DataError, match="batch size"):
        _small_cfg(batch_size=1).validate()
    with pytest.raises(DataError, match="epochs"):
        _small_cfg(epochs=0).validate()
    with pytest.raises(DataError, match="readout stat"):
        _small_cfg(readout_stat="median").validate()
    with pytest.raises(DataError, match="batches_per_epoch"):
        _small_cfg(batches_per_epoch=0).validate()


def test_shared_nodes_intersection():
    a = slice_interval(GRAPH, 0.0, 6.0)
    b = slice_interval(GRAPH, 6.0, 12.0)
    shared = shared_nodes([a, b])
    expect = np.intersect1d(a.active, b.active)
    np.testing.assert_array_equal(shared, expect)
    with pytest.raises(ValueError, match="at least 2"):
        shared_nodes([a])


def test_make_minibatch_clamps_and_errors():
    rng = np.random.default_rng(0)
    small = np.array([3, 5, 9])
    np.testing.assert_array_equal(make_minibatch(small, 10, rng), small)
    out = make_minibatch(np.arange(100), 7, rng)
    assert out.shape == (7,)
    assert len(set(out.tolist())) == 7
    with pytest.raises(DataError, match="no shared nodes"):
        make_minibatch(np.empty(0, dtype=np.int64), 4, rng)


def test_make_minibatch_uniform():
    # each of 20 nodes should appear in ~ 10000 * 5/20 draws
    rng = np.random.default_rng(1)
    pool = np.arange(20)
    counts = np.zeros(20)
    n = 10000
    for _ in range(n):
        counts[make_minibatch(pool, 5, rng)] += 1
    p = 5 / 20
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) < 3.5 * sigma)


def test_train_one_epoch_bookkeeping():
    cfg = _small_cfg(epochs=1)
    params, log = train(GRAPH, cfg)
    assert len(log.records) == 1
    rec = log.records[0]
    assert rec.epoch == 1
    assert np.isfinite(rec.loss)
    assert rec.shared > 0
    assert len(rec.windows) == 2
    assert params.d_in == GRAPH.feature_dim
    assert params.d_hidden == 16 and params.d_out == 8


def test_train_windows_match_sampler_stream():
    # the trainer samples windows with cfg.seed
    cfg = _small_cfg(epochs=2, seed=42, sampler=SamplerConfig("random", 3, 2))
    _, log = train(GRAPH, cfg)
    for rec in log.records:
        expect = sample_windows(GRAPH, SamplerConfig("random", 3, 2), rec.epoch, seed=42)
        assert [(w.lo, w.hi) for w in rec.windows] == [(w.lo, w.hi) for w in expect]


def test_train_loss_decreases_on_average():
    cfg = _small_cfg(epochs=30, batch_size=30)
    _, log = train(GRAPH, cfg)
    losses = log.loss_values()
    assert np.mean(losses[-5:]) < losses[0]


def test_train_updates_all_parameters():
    cfg = _small_cfg(epochs=2)
    params, _ = train(GRAPH, cfg)
    fresh = init_params(GRAPH.feature_dim, 16, 8, seed=0)
    for f in ("gcn_w1", "gcn_w2", "proj_w1", "proj_b1", "proj_w2", "proj_b2"):
        assert not np.array_equal(getattr(params, f), getattr(fresh, f)), f


def test_train_graph_level_runs():
    cfg = _small_cfg(loss=LossConfig("graph", 0.5), epochs=2)
    params, log = train(GRAPH, cfg)
    assert np.isfinite(log.loss_values()).all()


def test_train_determinism():
    cfg = _small_cfg(epochs=4)
    p1, l1 = train(GRAPH, cfg)
    p2, l2 = train(GRAPH, cfg)
    np.testing.assert_array_equal(l1.loss_values(), l2.loss_values())
    for f in ("gcn_w1", "gcn_w2", "proj_w1", "proj_b1", "proj_w2", "proj_b2"):
        assert np.array_equal(getattr(p1, f), getattr(p2, f))
    assert l1.csv_lines() == l2.csv_lines()


def test_train_seed_changes_outcome():
    p1, _ = train(GRAPH, _small_cfg(epochs=2, seed=0))
    p2, _ = train(GRAPH, _small_cfg(epochs=2, seed=1))
    assert not np.array_equal(p1.gcn_w1, p2.gcn_w1)


def test_train_checkpoint_written(tmp_path):
    path = tmp_path / "params.ckpt"
    cfg = _small_cfg(epochs=2, checkpoint_path=str(path))
    params, _ = train(GRAPH, cfg)
    loaded, meta = load_params(path)
    assert np.array_equal(loaded.gcn_w1, params.gcn_w1)
    assert meta["epoch"] == 2
    assert meta["level"] == "node" and meta["strategy"] == "random"
    # the graph's feature record, not a default
    assert (meta["feature_policy"], meta["feature_dim"], meta["feature_seed"]) == ("random", 8, 0)


def test_train_checkpoint_omits_features_read_from_rows(tmp_path):
    rows = {int(nid): GRAPH.features[i] for i, nid in enumerate(GRAPH.node_ids)}
    g = build_graph(GRAPH.node_ids[GRAPH.src], GRAPH.node_ids[GRAPH.dst], GRAPH.timestamps,
                    feature_rows=rows)
    assert g.feature_spec is None
    path = tmp_path / "params.ckpt"
    train(g, _small_cfg(epochs=1, checkpoint_path=str(path)))
    _, meta = load_params(path)
    assert not any(key.startswith("feature_") for key in meta)


def test_csv_lines_format():
    cfg = _small_cfg(epochs=2)
    _, log = train(GRAPH, cfg)
    lines = log.csv_lines()
    assert lines[0] == "epoch,loss,shared,lo1,hi1,lo2,hi2\n"
    first = lines[1].rstrip("\n").split(",")
    assert first[0] == "1"
    assert float(first[1]) == log.records[0].loss
    # full-precision floats round-trip exactly
    assert float(first[3]) == log.records[0].windows[0].lo


def test_train_no_shared_nodes_error():
    # two node populations alive in disjoint eras: early windows see only
    # one clique, late windows the other, so sequential s=2 v=2 never shares
    n = 6
    src_a, dst_a = np.triu_indices(n, k=1)
    src_b, dst_b = src_a + n, dst_a + n
    rng = np.random.default_rng(0)
    ts_a = rng.uniform(0.0, 1.0, size=src_a.size)
    ts_b = rng.uniform(9.0, 10.0, size=src_b.size)
    g = build_graph(
        np.concatenate([src_a, src_b]), np.concatenate([dst_a, dst_b]),
        np.concatenate([ts_a, ts_b]), feature_policy="random", feature_dim=4)
    cfg = _small_cfg(sampler=SamplerConfig("sequential", 2, 2), epochs=1)
    with pytest.raises(DataError, match="no shared nodes"):
        train(g, cfg)


def test_embed_all_shapes_and_isolated():
    params = init_params(GRAPH.feature_dim, 16, 8, seed=0)
    h = embed_all(GRAPH, params)
    assert h.shape == (GRAPH.num_nodes, 8)
    assert np.all(np.isfinite(h))


def test_embed_all_uses_whole_timespan():
    params = init_params(GRAPH.feature_dim, 16, 8, seed=0)
    h1 = embed_all(GRAPH, params)
    h2 = embed_all(GRAPH, params)
    np.testing.assert_array_equal(h1, h2)
    # trained params shift the representation
    trained, _ = train(GRAPH, _small_cfg(epochs=2))
    assert not np.allclose(embed_all(GRAPH, trained), h1)
