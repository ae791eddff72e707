"""Training against a dense reference written from the math alone.

For a small random temporal graph the reference slices each window's edges
with a boolean mask, builds the view's Â as a dense D^-1/2 (A+I) D^-1/2,
runs the two-layer GCN on every row, reads out through a dense 0/1
neighbour matrix, projects, and takes InfoNCE over the ordered view pairs.
Its gradients are matrix formulas written here, and so is its Adam with
coupled weight decay; nothing comes from ``tgcl.kernels``. One test checks
one ``contrastive_step``; the other checks whole ``train`` runs, whose
window cache and P0 row store the reference does without. A zero projection
row maps to a zero row with a zero gradient, in both.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tgcl import (DataError, LossConfig, ModelParams, SamplerConfig, TrainConfig, build_graph,
                  contrastive_step, init_params, sample_windows, slice_interval, train, view_entry)
from tgcl.model import PARAM_FIELDS
from tgcl.sampling import STRATEGIES

SLOPE = 0.01  # the projection head's LeakyReLU slope
TAU = 0.5


@st.composite
def _steps(draw):
    """(graph, windows, batch, params): view i holds the edges drawn for it,
    at times i, i + 0.25 or i + 0.5, so the windows [i, i + 0.5] are
    disjoint and ties are common. Few node ids make duplicate, reversed and
    self edges common; a node whose only edges in a view are self edges is
    isolated there. Label-only nodes are in the graph but in no view. The
    batch is in every view, in drawn order."""
    n = draw(st.integers(2, 9))
    v = draw(st.sampled_from([2, 3]))
    node = st.integers(0, n - 1)
    batch = draw(st.permutations(range(n)))[:draw(st.integers(2, n))]
    src, dst, ts = [], [], []
    for i in range(v):
        # an edge at each batch node, either way round, keeps the batch in every
        # view; the simplest draw, a self edge, leaves the node isolated there
        edges = [(b, (b + draw(node)) % n)[::draw(st.sampled_from([1, -1]))] for b in batch]
        edges += draw(st.lists(st.tuples(node, node), max_size=n))
        src += [a for a, _ in edges]
        dst += [b for _, b in edges]
        ts += [i + t for t in draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]),
                                            min_size=len(edges), max_size=len(edges)))]
    src, dst, ts = np.array(src), np.array(dst), np.array(ts)
    windows = [(float(i), i + 0.5) for i in range(v)]
    extra = np.arange(n, n + draw(st.integers(0, 2)))
    dims = [draw(st.integers(1, 4)), draw(st.integers(2, 5)), draw(st.integers(2, 4))]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # unit-scale features and weights, and small non-zero biases: with small
    # rows or large biases every projected row comes out nearly the same
    ids = np.arange(n + extra.size)  # so internal indices are the ids
    graph = build_graph(src, dst, ts, features=(ids, rng.standard_normal((ids.size, dims[0]))),
                        labels=(extra, extra % 2) if extra.size else None)
    shapes = [(dims[0], dims[1]), (dims[1], dims[2]), (dims[2], dims[2]), (dims[2],),
              (dims[2], dims[2]), (dims[2],)]
    params = ModelParams(*(rng.standard_normal(shape) * (0.1 if len(shape) == 1 else 1.0)
                           for shape in shapes))
    return graph, windows, np.array(batch), params


def _window(graph, lo, hi):
    """The edges with lo <= t <= hi, by a boolean mask, and their endpoints."""
    inside = (graph.timestamps >= lo) & (graph.timestamps <= hi)
    src, dst = graph.src[inside], graph.dst[inside]
    return src, dst, np.unique(np.concatenate([src, dst]))


def _dense_view(graph, lo, hi):
    """(Â, the 0/1 neighbour matrix without self edges, X, active nodes)."""
    src, dst, active = _window(graph, lo, hi)
    i, j = np.searchsorted(active, src), np.searchsorted(active, dst)
    a = np.zeros((active.size, active.size))
    a[i, j] = 1.0
    a[j, i] = 1.0
    np.fill_diagonal(a, 0.0)  # a self edge adds nothing to the self-loop
    a_loop = a + np.eye(active.size)
    d = 1.0 / np.sqrt(a_loop.sum(axis=1))
    return d[:, None] * a_loop * d[None, :], a, graph.features[active], active


def _project(x, p):
    s1 = x @ p.proj_w1 + p.proj_b1
    l1 = np.where(s1 > 0.0, s1, SLOPE * s1)
    s2 = l1 @ p.proj_w2 + p.proj_b2
    norm = np.sqrt(np.sum(s2 * s2, axis=1, keepdims=True))
    norm[norm == 0.0] = np.inf  # a zero row: z = 0, and dL/ds2 = 0 below
    return s2 / norm, (x, s1, l1, s2, norm)


def _project_backward(g_z, saved, p, grads):
    """Adds the head's parameter gradients to ``grads``; returns dL/dx."""
    x, s1, l1, s2, norm = saved
    z = s2 / norm
    g_s2 = (g_z - z * np.sum(z * g_z, axis=1, keepdims=True)) / norm
    grads["proj_b2"] += g_s2.sum(axis=0)
    grads["proj_w2"] += l1.T @ g_s2
    g_s1 = (g_s2 @ p.proj_w2.T) * np.where(s1 > 0.0, 1.0, SLOPE)
    grads["proj_b1"] += g_s1.sum(axis=0)
    grads["proj_w1"] += x.T @ g_s1
    return g_s1 @ p.proj_w1.T


def _infonce(q, k):
    """Cross-entropy of q k^T / tau against the diagonal, and dL/dq, dL/dk."""
    s = q @ k.T / TAU
    s -= s.max(axis=1, keepdims=True)
    lse = np.log(np.exp(s).sum(axis=1))
    n = q.shape[0]
    g = (np.exp(s - lse[:, None]) - np.eye(n)) / (n * TAU)
    return np.mean(lse - np.diag(s)), g @ k, g.T @ q


def _reference_step(graph, windows, batch, params, level, stat):
    """The loss and the six parameter gradients of one step."""
    views = []
    for lo, hi in windows:
        a_hat, a, x, active = _dense_view(graph, lo, hi)
        b = np.searchsorted(active, batch)
        p0 = a_hat @ x
        s = p0 @ params.gcn_w1
        p1 = a_hat @ np.maximum(s, 0.0)
        h = p1 @ params.gcn_w2
        q, saved_q = _project(h[b], params)
        k, saved_k, nb, masked = q, None, None, None
        if level == "graph":
            nb = a[b]
            alone = nb.sum(axis=1) == 0
            nb[alone, b[alone]] = 1.0  # a node without neighbours reads itself
            masked = np.where(nb[:, :, None] > 0.0, h[None, :, :], -np.inf)
            r = {"mean": nb @ h / nb.sum(axis=1, keepdims=True), "sum": nb @ h,
                 "max": masked.max(axis=1)}[stat]
            k, saved_k = _project(r, params)
        views.append((q, k, a_hat, b, p0, s, p1, h, saved_q, saved_k, nb, masked))

    v = len(views)
    loss, g_q, g_k = 0.0, [0.0] * v, [0.0] * v
    for i in range(v):
        for j in range(v):
            if i != j:
                lij, gq, gk = _infonce(views[i][0], views[j][1])
                loss += lij / (v * (v - 1))
                g_q[i] = g_q[i] + gq / (v * (v - 1))
                g_k[j] = g_k[j] + gk / (v * (v - 1))

    grads = {name: np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS}
    for (q, k, a_hat, b, p0, s, p1, h, saved_q, saved_k, nb, masked), gq, gk in zip(views, g_q, g_k):
        g_h = np.zeros_like(h)
        if saved_k is None:  # the keys are the queries
            g_h[b] += _project_backward(gq + gk, saved_q, params, grads)
        else:
            g_h[b] += _project_backward(gq, saved_q, params, grads)
            g_r = _project_backward(gk, saved_k, params, grads)
            if stat == "mean":
                g_h += nb.T @ (g_r / nb.sum(axis=1, keepdims=True))
            elif stat == "sum":
                g_h += nb.T @ g_r
            else:  # to the first neighbour holding each column's max
                np.add.at(g_h, (masked.argmax(axis=1), np.arange(h.shape[1])), g_r)
        grads["gcn_w2"] += p1.T @ g_h
        g_s = (a_hat @ (g_h @ params.gcn_w2.T)) * (s > 0.0)
        grads["gcn_w1"] += p0.T @ g_s
    return loss, grads


def _floor_close(got, want, tol):
    """Within ``tol`` of the largest entry of ``want``, floored at 1e-4: a
    value that cancels to about zero, as a gradient does when no view tells
    the batch nodes apart, is held to tol * 1e-4, the rounding of its O(1)
    terms."""
    return np.max(np.abs(got - want)) <= tol * max(np.max(np.abs(want)), 1e-4)


@pytest.mark.parametrize("level, stat", [
    ("node", "mean"), ("graph", "mean"), ("graph", "sum"), ("graph", "max")])
@settings(deadline=None, derandomize=True, max_examples=200)
@given(step=_steps())
def test_one_step_matches_the_dense_reference(level, stat, step):
    graph, windows, batch, params = step
    want_loss, want = _reference_step(graph, windows, batch, params, level, stat)
    entries = [view_entry(slice_interval(graph, lo, hi), graph.features) for lo, hi in windows]
    cfg = TrainConfig(loss=LossConfig(level, TAU), readout_stat=stat)
    loss, grads = contrastive_step(entries, batch, params, cfg)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss), (loss, want_loss)
    for name in PARAM_FIELDS:
        assert _floor_close(grads[name], want[name], 1e-10), name


@st.composite
def _runs(draw):
    """(graph, cfg): a small temporal graph with duplicate, reversed and self
    edges, timestamp ties, nodes isolated in a view, nodes in no view and
    label-only nodes, and any sampling, level, readout and batch settings."""
    n = draw(st.integers(3, 7))
    node = st.integers(0, n - 1)
    times = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    # nodes 0 and 1 have an edge at every time, so each window, at least
    # 3/4 long, holds both; any node may be their partner, themselves too
    edges = [(hub, draw(node))[::draw(st.sampled_from([1, -1]))] for hub in (0, 1) for _ in times]
    ts = times * 2
    more = draw(st.lists(st.tuples(node, node, st.sampled_from(times)), max_size=12))
    edges += [(a, b) for a, b, _ in more]
    ts += [t for _, _, t in more]
    extra = np.arange(n, n + draw(st.integers(0, 2)))
    ids = np.arange(n + extra.size)  # so internal indices are the ids
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.standard_normal((ids.size, draw(st.integers(2, 4))))
    graph = build_graph(np.array([a for a, _ in edges]), np.array([b for _, b in edges]),
                        np.array(ts), features=(ids, x),
                        labels=(extra, extra % 2) if extra.size else None)
    strategy = draw(st.sampled_from(STRATEGIES))
    v = draw(st.integers(2, 3))
    s = draw(st.integers(v if strategy == "sequential" else 1, 6))
    level = draw(st.sampled_from(["node", "graph"]))
    cfg = TrainConfig(sampler=SamplerConfig(strategy, s, v), loss=LossConfig(level, TAU),
                      d_hidden=draw(st.integers(1, 6)), d_out=draw(st.integers(1, 4)),
                      batch_size=draw(st.integers(2, 6)), epochs=draw(st.integers(2, 3)),
                      seed=draw(st.integers(0, 1000)),
                      readout_stat=draw(st.sampled_from(["mean", "sum", "max"])),
                      batches_per_epoch=draw(st.integers(1, 3)))
    return graph, cfg


def _reference_train(graph, cfg):
    """Each epoch's (windows, shared count, loss), the final parameters, and
    whether some step's gradient was tiny but not zero, of ``cfg.epochs``
    epochs: every view is sliced and every step computed afresh, with
    nothing kept between steps but the parameters and Adam's moments. A run
    with no shared node in some epoch raises DataError."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    params = init_params(graph.feature_dim, cfg.d_hidden, cfg.d_out, seed=cfg.seed)
    m = {name: 0.0 for name in PARAM_FIELDS}
    v = {name: 0.0 for name in PARAM_FIELDS}
    records, t, tiny = [], 0, False
    for epoch in range(1, cfg.epochs + 1):
        windows = [(w.lo, w.hi) for w in sample_windows(graph, cfg.sampler, epoch, cfg.seed)]
        shared = reduce(np.intersect1d, [_window(graph, lo, hi)[2] for lo, hi in windows])
        if shared.size == 0:
            raise DataError("no shared nodes")
        batch_rng = np.random.default_rng([cfg.seed, epoch, 101])
        total = 0.0
        for _ in range(cfg.batches_per_epoch):
            batch = shared if shared.size <= cfg.batch_size else batch_rng.choice(
                shared, size=cfg.batch_size, replace=False)
            loss, grads = _reference_step(graph, windows, batch, params, cfg.loss.level,
                                          cfg.readout_stat)
            total += loss
            largest = max(np.max(np.abs(g)) for g in grads.values())
            tiny |= 0.0 < largest < 100 * eps
            t += 1
            for name in PARAM_FIELDS:
                p = getattr(params, name)
                g = grads[name] + cfg.weight_decay * p  # coupled weight decay
                m[name] = beta1 * m[name] + (1.0 - beta1) * g
                v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
                m_hat = m[name] / (1.0 - beta1**t)
                v_hat = v[name] / (1.0 - beta2**t)
                setattr(params, name, p - cfg.lr * m_hat / (np.sqrt(v_hat) + eps))
        records.append((windows, shared.size, total / cfg.batches_per_epoch))
    return records, params, tiny


@settings(deadline=None, derandomize=True, max_examples=300)
@given(run=_runs())
def test_train_matches_the_dense_reference(run):
    graph, cfg = run
    try:
        want_records, want, tiny = _reference_train(graph, cfg)
    except DataError:  # infeasible windows, or no shared node
        with pytest.raises(DataError):
            train(graph, cfg)
        return
    # at any width: a node whose hidden units are all dead projects to a zero row
    params, log = train(graph, cfg)
    # Adam takes a step of about lr from any gradient well above its eps, so
    # from one that cancels to within 100 eps of zero, as when no view tells
    # the batch nodes apart, it steps in the direction of the rounding noise
    assume(not tiny)
    assert len(log.records) == cfg.epochs
    for record, (windows, shared, loss) in zip(log.records, want_records):
        assert [(w.lo, w.hi) for w in record.windows] == windows
        assert record.shared == shared
        assert _floor_close(record.loss, loss, 1e-12), (record.epoch, record.loss, loss)
    for name in PARAM_FIELDS:
        assert _floor_close(getattr(params, name), getattr(want, name), 1e-10), name
