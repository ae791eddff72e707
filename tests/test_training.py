import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgcl import kernels, training
from tgcl import (
    DataError,
    LossConfig,
    NumericError,
    SamplerConfig,
    TrainConfig,
    build_graph,
    contrastive_step,
    embed_all,
    fixture_graph,
    fixture_views,
    generate_synthetic,
    init_params,
    load_params,
    make_minibatch,
    sample_windows,
    shared_nodes,
    slice_interval,
    train,
    view_entry,
)
from tgcl.sampling import ViewWindow
from tgcl.training import EpochRecord, TrainLog


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
    with pytest.raises(DataError, match="seed"):
        _small_cfg(seed=-1).validate()


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


@pytest.mark.parametrize("strategy, s, v", [("sequential", 3, 2), ("random", 3, 2),
                                           ("random", 2, 3)])
def test_train_slices_a_window_only_when_it_left_the_cache(monkeypatch, strategy, s, v):
    sliced, views, most_alive = [], [], [0]

    def counting_slice(graph, lo, hi):
        most_alive[0] = max(most_alive[0], sum(ref() is not None for ref in views))
        sliced.append((lo, hi))
        view = slice_interval(graph, lo, hi)
        views.append(weakref.ref(view))
        return view

    monkeypatch.setattr(training, "slice_interval", counting_slice)
    _, log = train(GRAPH, _small_cfg(sampler=SamplerConfig(strategy, s, v), epochs=8))
    cached, expect = [], []  # the s windows drawn most recently, least recent first
    for record in log.records:
        for w in record.windows:
            if (w.lo, w.hi) not in cached:
                expect.append((w.lo, w.hi))
            cached = ([key for key in cached if key != (w.lo, w.hi)] + [(w.lo, w.hi)])[-s:]
    assert sliced == expect
    assert most_alive[0] <= s  # evicted views are let go
    if strategy == "sequential":
        assert len(sliced) == s


def test_train_keeps_the_windows_drawn_most_recently(monkeypatch):
    # windows A B C A D A over three epochs at s = 3: A's hit makes B the
    # least recent, so D evicts B and the last A hits again. A cache that
    # evicts the oldest entry instead would let A go for D and slice it twice
    spans = dict(A=(0.0, 6.0), B=(2.0, 8.0), C=(4.0, 10.0), D=(6.0, 12.0))
    script = {1: "AB", 2: "CA", 3: "DA"}
    monkeypatch.setattr(training, "sample_windows", lambda graph, cfg, epoch, seed: [
        ViewWindow((spans[k][0] + spans[k][1]) / 2, *spans[k]) for k in script[epoch]])
    sliced = []

    def counting_slice(graph, lo, hi):
        sliced.append((lo, hi))
        return slice_interval(graph, lo, hi)

    monkeypatch.setattr(training, "slice_interval", counting_slice)
    train(GRAPH, _small_cfg(sampler=SamplerConfig("random", 3, 2), epochs=3))
    assert sliced == [spans[k] for k in "ABCD"]


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


def test_train_takes_batches_per_epoch_steps_and_logs_their_mean(monkeypatch):
    steps, losses = [0], []
    adam_step, multi_view_loss = training.adam_step, training.multi_view_loss

    def counting_adam(params, grads, state):
        steps[0] += 1
        return adam_step(params, grads, state)

    def recording_loss(pairs, tau):
        loss, grads = multi_view_loss(pairs, tau)
        losses.append(loss)
        return loss, grads

    monkeypatch.setattr(training, "adam_step", counting_adam)
    monkeypatch.setattr(training, "multi_view_loss", recording_loss)
    _, log = train(GRAPH, _small_cfg(epochs=3, batches_per_epoch=4))
    assert steps[0] == len(losses) == 12
    for i, record in enumerate(log.records):
        assert record.loss == sum(losses[4 * i:4 * i + 4]) / 4
    assert len({*losses[:4]}) > 1  # the epoch's steps see different batches or weights


def test_a_non_finite_loss_stops_the_step_ahead_of_its_backward():
    # the grad-check fixture at the graph level: under the max readout a NaN
    # weight reaches the backward's segment max, which fails with an IndexError
    graph = fixture_graph(7)
    views = fixture_views(graph)
    cfg = TrainConfig(loss=LossConfig("graph", 0.5), d_hidden=16, d_out=8, readout_stat="max")
    params = init_params(graph.feature_dim, cfg.d_hidden, cfg.d_out, seed=7)
    params.gcn_w2[0, 0] = np.nan
    with pytest.raises(NumericError, match=r"^non-finite loss nan$"):
        contrastive_step([view_entry(v, graph.features) for v in views], shared_nodes(views), params, cfg)


def test_a_graph_level_step_keeps_its_transient_memory_under_9_5_mib(monkeypatch):
    # 3 random views of a 400-node graph, a 256-node batch and the default
    # widths, as the graph-rand-400 benchmark trains, with as many ways as
    # the step has views, whatever the host has: the caller and two pool
    # threads each run one view, one backward and two InfoNCE pairs. The
    # projection head keeps for its backward only what it reads (its input,
    # the LeakyReLU's output, the normalized rows and their norms), the
    # encoder only the ReLU's mask of S1, and the loss works in place on the
    # scores it computes. A view's backward drops each array once read, its
    # cache's too, so the backwards overlap in little memory. Serially the
    # step peaks at 7.14 MiB, in the loss; on three ways its peak depends on
    # how the views' tasks overlap, 7.15-7.65 MiB in 4 runs of 40 steps on a
    # 2-CPU host, so the largest of 20 peaks is what the bound holds. A view's
    # backward that keeps its cache whole until it returns peaks at 9.55-10.09
    # MiB on three ways in 3 such runs, over the bound.
    graph = generate_synthetic(k=4, n=400, T=20.0, p_in=5.0, p_out=1.0, events=8000,
                               feature_dim=64)
    cfg = TrainConfig(sampler=SamplerConfig("random", 4, 3), loss=LossConfig("graph", 0.5))
    entries = [view_entry(slice_interval(graph, w.lo, w.hi), graph.features)
               for w in sample_windows(graph, cfg.sampler, 1, 0)]
    batch = make_minibatch(shared_nodes([e.view for e in entries]), 256, np.random.default_rng(0))
    assert batch.size == 256
    params = init_params(graph.feature_dim, seed=0)
    monkeypatch.setattr(kernels, "_cpu_count", lambda: len(entries))
    monkeypatch.setattr(kernels, "_pool", None)  # made anew, with len(entries) - 1 threads
    peaks = []
    try:
        contrastive_step(entries, batch, params, cfg)  # any first-call allocation happens here
        tracemalloc.start()
        for _ in range(20):
            start = tracemalloc.get_traced_memory()[0]
            contrastive_step(entries, batch, params, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            tracemalloc.reset_peak()
    finally:
        tracemalloc.stop()
        if kernels._pool is not None:
            kernels._pool.shutdown()
    assert kernels._pool._max_workers == len(entries) - 1
    assert max(peaks) < 9.5 * 2 ** 20, max(peaks) / 2 ** 20


def test_embed_all_of_a_400_node_graph_keeps_its_transient_memory_under_1_75_mib():
    # graph-rand-400's make-up. Its products stay serial, and the all-rows
    # field is Â itself, so embed_all peaks at 1.60 MiB: the view, Â, P0 and
    # the encoder's three 400 × 128 arrays
    graph = generate_synthetic(k=4, n=400, T=20.0, p_in=5.0, p_out=1.0, events=8000,
                               feature_dim=64)
    params = init_params(graph.feature_dim, seed=0)
    embed_all(graph, params)  # any first-call allocation happens here
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        embed_all(graph, params)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 2 ** 20, peak / 2 ** 20


def test_train_checkpoints_every_k_epochs_and_after_the_last(monkeypatch, tmp_path):
    saved, save_params = [], training.save_params

    def recording_save(path, params, meta):
        saved.append(meta["epoch"])
        return save_params(path, params, meta=meta)

    monkeypatch.setattr(training, "save_params", recording_save)
    path = tmp_path / "params.ckpt"
    train(GRAPH, _small_cfg(epochs=6, checkpoint_every=2, checkpoint_path=str(path)))
    assert saved == [2, 4, 6, 6]
    assert load_params(path)[1]["epoch"] == 6


def test_train_checkpoint_omits_features_read_from_rows(tmp_path):
    g = build_graph(GRAPH.node_ids[GRAPH.src], GRAPH.node_ids[GRAPH.dst], GRAPH.timestamps,
                    features=(GRAPH.node_ids, GRAPH.features))
    assert g.feature_spec is None
    path = tmp_path / "params.ckpt"
    train(g, _small_cfg(epochs=1, checkpoint_path=str(path)))
    _, meta = load_params(path)
    assert not any(key.startswith("feature_") for key in meta)


def _former_csv_lines(log):
    """TrainLog.csv_lines as it was before it wrote through the shared CSV
    writer, kept verbatim."""
    if not log.records:
        return ["epoch,loss,shared\n"]
    v = len(log.records[0].windows)
    cols = ["epoch", "loss", "shared"]
    for i in range(1, v + 1):
        cols += [f"lo{i}", f"hi{i}"]
    lines = [",".join(cols) + "\n"]
    for r in log.records:
        cells = [str(r.epoch), repr(float(r.loss)), str(r.shared)]
        for w in r.windows:
            cells += [repr(float(w.lo)), repr(float(w.hi))]
        lines.append(",".join(cells) + "\n")
    return lines


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
    assert lines == _former_csv_lines(log)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda v: st.lists(st.tuples(
    st.integers(1, 10 ** 6), st.floats(), st.integers(0, 10 ** 6),
    st.lists(st.tuples(_finite, _finite), min_size=v, max_size=v)), max_size=4)))
def test_csv_lines_equal_the_former_formatter(rows):
    # NumPy scalars, as the samplers and the loss hand them over
    log = TrainLog([EpochRecord(epoch, np.float64(loss), shared, tuple(
        ViewWindow(np.float64((lo + hi) / 2), np.float64(lo), np.float64(hi))
        for lo, hi in windows)) for epoch, loss, shared, windows in rows])
    assert "".join(log.csv_lines()).encode() == "".join(_former_csv_lines(log)).encode()


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


@pytest.mark.filterwarnings("error")
def test_embed_all_raises_numeric_error_without_a_warning_when_the_weights_overflow():
    # as train and the probes do: the overflow is reported once, as an error
    graph = generate_synthetic(k=3, n=45, T=6.0, p_in=8.0, p_out=1.0, events=400, seed=0)
    params = init_params(graph.feature_dim, 8, 4, seed=0)
    params.gcn_w1 *= 1e200
    params.gcn_w2 *= 1e200
    with pytest.raises(NumericError, match="non-finite embeddings"):
        embed_all(graph, params)


def test_embed_all_uses_whole_timespan():
    params = init_params(GRAPH.feature_dim, 16, 8, seed=0)
    h1 = embed_all(GRAPH, params)
    h2 = embed_all(GRAPH, params)
    np.testing.assert_array_equal(h1, h2)
    # trained params shift the representation
    trained, _ = train(GRAPH, _small_cfg(epochs=2))
    assert not np.allclose(embed_all(GRAPH, trained), h1)
