import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tgcl.model
from tgcl import (
    AdamState,
    DataError,
    InvarianceConfig,
    InvarianceResult,
    LinearProbe,
    NumericError,
    adam_step,
    build_graph,
    classification_report,
    evaluate,
    generate_synthetic,
    init_params,
    make_split,
    normalize_adjacency,
    probe_invariance,
    slice_interval,
    softmax_cross_entropy,
    to_snapshots,
    train_linear_probe,
)
from tgcl import evaluation
from tgcl.evaluation import SplitSpec, _fit_timespan_probe


def _labels(sizes):
    """Label array with sizes[c] nodes of class c, interleaved."""
    out = []
    for c, s in enumerate(sizes):
        out.extend([c] * s)
    arr = np.array(out)
    return arr[np.random.default_rng(0).permutation(arr.size)]


def test_split_counts_10x10():
    labels = _labels([10] * 10)
    split = make_split(labels, (1, 1, 8), seed=0)
    assert (split.train.size, split.val.size, split.test.size) == (10, 10, 80)
    for c in range(10):
        assert np.sum(labels[split.train] == c) == 1
        assert np.sum(labels[split.val] == c) == 1
        assert np.sum(labels[split.test] == c) == 8


def test_split_partition_and_stratification():
    labels = _labels([40, 35, 25])
    split = make_split(labels, (1, 1, 8), seed=3)
    parts = [split.train, split.val, split.test]
    merged = np.concatenate(parts)
    assert np.unique(merged).size == merged.size  # disjoint
    np.testing.assert_array_equal(np.sort(merged), np.flatnonzero(labels >= 0))
    for c, size in enumerate([40, 35, 25]):
        frac = np.sum(labels[split.test] == c) / size
        assert abs(frac - 0.8) <= 1.0 / size + 1e-12


def test_split_excludes_unlabeled():
    labels = _labels([20, 20])
    labels[:5] = -1
    split = make_split(labels, (1, 1, 8), seed=0)
    merged = np.concatenate([split.train, split.val, split.test])
    assert np.all(labels[merged] >= 0)


def test_split_determinism_and_seed():
    labels = _labels([30, 30])
    a = make_split(labels, (1, 1, 8), seed=5)
    b = make_split(labels, (1, 1, 8), seed=5)
    c = make_split(labels, (1, 1, 8), seed=6)
    np.testing.assert_array_equal(a.train, b.train)
    np.testing.assert_array_equal(a.test, b.test)
    assert not np.array_equal(a.train, c.train)


def test_split_tiny_class_goes_to_train():
    labels = np.array([0] * 20 + [1] * 2)
    with pytest.warns(UserWarning, match="placed wholly in train"):
        split = make_split(labels, (1, 1, 8), seed=0)
    assert np.sum(labels[split.train] == 1) == 2
    assert np.sum(labels[split.val] == 1) == 0
    assert np.sum(labels[split.test] == 1) == 0


def test_split_warns_of_a_class_rounded_out_of_validation():
    # 4 members at 2:1:7 round to 1 train, 0 validation and 3 test nodes
    labels = _labels([4] * 5)
    with pytest.warns(UserWarning, match=r"class \d has 4 members and gets no validation node") as seen:
        split = make_split(labels, (2, 1, 7), seed=0)
    assert sorted(int(str(w.message).split()[1]) for w in seen) == [0, 1, 2, 3, 4]
    # the cut itself is the same as without the warning
    assert (split.train.size, split.val.size, split.test.size) == (5, 0, 15)


def test_split_warns_of_a_class_rounded_out_of_train_and_validation():
    labels = _labels([20, 20, 5])  # round(0.5) is 0: no train and no validation node
    with pytest.warns(UserWarning, match="class 2 has 5 members and gets no train and no validation"):
        split = make_split(labels, (1, 1, 8), seed=0)
    assert np.count_nonzero(labels[split.test] == 2) == 5


def test_split_validation():
    with pytest.raises(DataError, match="at least 10 labeled"):
        make_split(np.array([0, 1, 0, -1]), (1, 1, 8))
    labels = _labels([10, 10])
    with pytest.raises(DataError, match="ratios"):
        make_split(labels, (1, 1), seed=0)
    with pytest.raises(DataError, match="ratios"):
        make_split(labels, (1, -1, 8), seed=0)
    with pytest.raises(DataError, match="seed must be non-negative"):
        make_split(labels, (1, 1, 8), seed=-1)


def test_cross_entropy_hand_case():
    loss, grad = softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)
    np.testing.assert_allclose(grad, [[-0.5, 0.5]])


def test_cross_entropy_fd():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((6, 4))
    y = rng.integers(0, 4, size=6)
    _, grad = softmax_cross_entropy(logits, y)
    h = 1e-5
    fd = np.zeros_like(logits)
    it = np.nditer(logits, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = logits[i]
        logits[i] = orig + h
        up, _ = softmax_cross_entropy(logits, y)
        logits[i] = orig - h
        dn, _ = softmax_cross_entropy(logits, y)
        logits[i] = orig
        fd[i] = (up - dn) / (2 * h)
        it.iternext()
    assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(grad)), 1e-6) < 1e-6


def _separable_embeddings(labels, noise, seed=0):
    rng = np.random.default_rng(seed)
    k = labels.max() + 1
    x = np.zeros((labels.size, k)) + rng.standard_normal((labels.size, k)) * noise
    x[np.arange(labels.size), labels] += 1.0
    return x


def test_probe_separable_fixture():
    labels = _labels([30, 30, 30])
    x = _separable_embeddings(labels, noise=0.05)
    split = make_split(labels, (2, 2, 6), seed=0)
    probe = train_linear_probe(x, labels, split)
    rep = evaluate(probe, x, labels, split)
    assert rep.accuracy == 1.0
    assert rep.weighted_f1 == 1.0


def test_probe_zero_epochs_is_chance():
    labels = _labels([25, 25])
    x = _separable_embeddings(labels, noise=0.05)
    split = make_split(labels, (2, 2, 6), seed=0)
    probe = train_linear_probe(x, labels, split, epochs=0)
    assert probe.best_epoch == 0
    assert np.all(probe.w == 0.0) and np.all(probe.b == 0.0)
    # zero weights predict class 0 everywhere
    rep = evaluate(probe, x, labels, split)
    y_test = labels[split.test]
    assert rep.accuracy == pytest.approx(np.mean(y_test == 0))


def test_probe_deterministic():
    labels = _labels([20, 20, 20])
    x = _separable_embeddings(labels, noise=0.3)
    split = make_split(labels, (2, 2, 6), seed=1)
    a = train_linear_probe(x, labels, split)
    b = train_linear_probe(x, labels, split)
    np.testing.assert_array_equal(a.w, b.w)
    np.testing.assert_array_equal(a.b, b.b)
    assert a.best_epoch == b.best_epoch


def test_probe_never_sees_test_labels():
    labels = _labels([20, 20, 20])
    x = _separable_embeddings(labels, noise=0.3)
    split = make_split(labels, (2, 2, 6), seed=2)
    probe = train_linear_probe(x, labels, split)
    scrambled = labels.copy()
    scrambled[split.test] = scrambled[np.random.default_rng(9).permutation(split.test)]
    probe2 = train_linear_probe(x, scrambled, split)
    np.testing.assert_array_equal(probe.w, probe2.w)
    np.testing.assert_array_equal(probe.b, probe2.b)


def test_probe_single_class_train_rejected():
    labels = np.array([0] * 12 + [1] * 3)
    x = _separable_embeddings(labels, noise=0.1)
    only0 = np.flatnonzero(labels == 0)
    degenerate = SplitSpec(train=only0[:4], val=only0[4:6], test=only0[6:])
    with pytest.raises(DataError, match="degenerate train split"):
        train_linear_probe(x, labels, degenerate)


def _former_linear_probe(embeddings, labels, split, lr, weight_decay, epochs):
    """The two-tensor loop that train_linear_probe replaced: separate w and b,
    two Adam tensors, a fresh score array per product."""
    y_train = labels[split.train]
    num_classes = int(labels[np.concatenate([split.train, split.val, split.test])].max()) + 1
    x_train = embeddings[split.train]
    x_val = embeddings[split.val]
    y_val = labels[split.val]
    w = np.zeros((embeddings.shape[1], num_classes))
    b = np.zeros(num_classes)
    params = {"w": w, "b": b}
    state = AdamState(lr=lr, weight_decay=weight_decay)

    def val_accuracy():
        return float(np.mean(np.argmax(x_val @ w + b, axis=1) == y_val))

    best = (val_accuracy(), 0, w.copy(), b.copy())
    for epoch in range(1, epochs + 1):
        _, g_logits = softmax_cross_entropy(x_train @ w + b, y_train)
        grads = {"w": x_train.T @ g_logits, "b": g_logits.sum(axis=0)}
        adam_step(params, grads, state)
        acc = val_accuracy()
        if acc > best[0]:
            best = (acc, epoch, w.copy(), b.copy())
    return best[1:]


@st.composite
def _probe_args(draw):
    """Embeddings of 2-5 classes of 5-20 nodes with no, some or separating
    class signal, a split with every part non-empty, and the probe's
    settings. Separable draws reach validation accuracy 1.0 and stop early;
    the others mostly run every epoch."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = [draw(st.integers(5, 20)) for _ in range(draw(st.integers(2, 5)))]
    labels = np.repeat(np.arange(len(sizes)), sizes)[rng.permutation(sum(sizes))]
    d = draw(st.integers(1, 12))
    x = rng.standard_normal((labels.size, d)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    x += rng.standard_normal((len(sizes), d))[labels] * draw(st.sampled_from([0.0, 1.0, 30.0]))
    split = make_split(labels, draw(st.sampled_from([(2, 2, 6), (3, 2, 5), (4, 3, 3)])),
                       seed=draw(st.integers(0, 99)))
    settings_ = dict(lr=draw(st.sampled_from([1e-3, 1e-2, 0.1, 0.7])),
                     weight_decay=draw(st.sampled_from([0.0, 1e-4, 0.05, 0.5])),
                     epochs=draw(st.integers(0, 60)))
    return x, labels, split, settings_


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_probe_args())
def test_probe_is_the_former_two_tensor_loop_bit_for_bit(drawn):
    x, labels, split, kw = drawn
    probe = train_linear_probe(x, labels, split, **kw)
    best_epoch, w, b = _former_linear_probe(x, labels, split, **kw)
    assert probe.best_epoch == best_epoch
    assert probe.w.shape == w.shape and probe.w.tobytes() == w.tobytes()
    assert probe.b.shape == b.shape and probe.b.tobytes() == b.tobytes()


def _probe_and_adam_steps(monkeypatch, *args, **kw):
    """train_linear_probe's result and the number of Adam steps it took."""
    steps = []

    def counted(params, grads, state):
        steps.append(state.step_count)
        adam_step(params, grads, state)

    monkeypatch.setattr(evaluation, "adam_step", counted)
    return train_linear_probe(*args, **kw), len(steps)


def _val_accuracy(probe, x, labels, split):
    return np.mean(probe.predict(x[split.val]) == labels[split.val])


def test_probe_stops_once_every_validation_node_is_right(monkeypatch):
    labels = _labels([30, 30, 30])
    x = _separable_embeddings(labels, noise=0.05)
    split = make_split(labels, (2, 2, 6), seed=0)
    # it stops right after its first all-correct validation epoch, with the
    # full-length run's result
    probe, steps = _probe_and_adam_steps(monkeypatch, x, labels, split)
    assert 0 < probe.best_epoch == steps < 200
    assert _val_accuracy(probe, x, labels, split) == 1.0
    best_epoch, w, b = _former_linear_probe(x, labels, split, 1e-2, 1e-4, 200)
    assert probe.best_epoch == best_epoch
    assert probe.w.tobytes() == w.tobytes() and probe.b.tobytes() == b.tobytes()

    # no step at all when the untrained classifier, which predicts class 0,
    # is all-correct: here every validation node is of class 0
    only0 = SplitSpec(train=split.train, val=split.val[labels[split.val] == 0], test=split.test)
    probe, steps = _probe_and_adam_steps(monkeypatch, x, labels, only0)
    assert steps == 0 and probe.best_epoch == 0
    assert np.all(probe.w == 0.0) and np.all(probe.b == 0.0)

    # every epoch when validation never gets there
    noise = np.random.default_rng(4).standard_normal((labels.size, 3))  # no class signal
    probe, steps = _probe_and_adam_steps(monkeypatch, noise, labels, split, epochs=60)
    assert steps == 60
    assert _val_accuracy(probe, noise, labels, split) < 1.0


def test_probe_raises_when_a_squared_gradient_overflows():
    # x @ g stays finite at this scale but its square does not, so Adam's
    # second moment would turn inf and every step 0, leaving the probe at chance
    labels = _labels([40, 40, 40])
    x = _separable_embeddings(labels, noise=0.4)
    split = make_split(labels, (1, 1, 8), seed=0)
    assert evaluate(train_linear_probe(x, labels, split), x, labels, split).accuracy > 0.9
    with pytest.raises(NumericError, match=r"squared grad\[probe\]"):
        train_linear_probe(x * 1e160, labels, split)


def _overflowing_probe_inputs():
    """120 nodes of 3 classes whose embeddings are about 10 in size: one Adam
    step at a learning rate of 1e308 moves every weight by about 1e308, so
    every later product overflows."""
    labels = np.arange(120) % 3
    x = np.stack([labels + 9.0, np.arange(120) % 7 + 5.0], axis=1)
    return x, labels, make_split(labels, (1, 1, 8), seed=0)


@pytest.mark.filterwarnings("error")  # the probe's own check reports, not a NumPy warning
@pytest.mark.parametrize("epochs", [1, 200])
def test_probe_raises_on_non_finite_validation_scores_naming_the_epoch(epochs):
    x, labels, split = _overflowing_probe_inputs()
    with pytest.raises(NumericError, match="non-finite validation scores from the linear probe "
                                           "at epoch 1$"):
        train_linear_probe(x, labels, split, lr=1e308, epochs=epochs)


@pytest.mark.filterwarnings("error")
def test_evaluate_raises_on_non_finite_test_scores():
    x, labels, split = _overflowing_probe_inputs()
    probe = LinearProbe(w=np.full((2, 3), 1e308), b=np.zeros(3), best_epoch=1)
    with pytest.raises(NumericError, match="non-finite test scores from the linear probe"):
        evaluate(probe, x, labels, split)


def test_evaluate_rejects_an_empty_test_split():
    x, labels, split = _overflowing_probe_inputs()
    probe = train_linear_probe(x, labels, split, epochs=0)
    with pytest.raises(DataError, match="empty test split"):
        evaluate(probe, x, labels, SplitSpec(train=split.train, val=split.val, test=split.test[:0]))


def test_report_hand_confusion_oracle():
    y_true = np.array([0, 0, 1, 1, 2])
    y_pred = np.array([0, 1, 1, 1, 2])
    rep = classification_report(y_true, y_pred, 3)
    assert rep.accuracy == pytest.approx(0.8)
    np.testing.assert_allclose(rep.precision, [1.0, 2 / 3, 1.0])
    np.testing.assert_allclose(rep.recall, [0.5, 1.0, 1.0])
    np.testing.assert_allclose(rep.f1, [2 / 3, 0.8, 1.0])
    assert rep.support.tolist() == [2, 2, 1]
    assert rep.weighted_f1 == pytest.approx((2 * 2 / 3 + 2 * 0.8 + 1 * 1.0) / 5)


def test_report_all_one_class_predictions():
    y_true = np.array([0, 1, 2])
    y_pred = np.array([0, 0, 0])
    rep = classification_report(y_true, y_pred, 3)
    assert rep.accuracy == pytest.approx(1 / 3)
    np.testing.assert_allclose(rep.precision, [1 / 3, 0.0, 0.0])
    np.testing.assert_allclose(rep.recall, [1.0, 0.0, 0.0])
    assert rep.weighted_f1 == pytest.approx(0.5 / 3)


def test_report_perfect_case_and_dict():
    y = np.array([0, 1, 1, 2])
    rep = classification_report(y, y.copy(), 3)
    assert rep.accuracy == 1.0 and rep.weighted_f1 == 1.0
    d = rep.as_dict()
    assert set(d) == {"accuracy", "weighted_f1", "per_class"}
    assert len(d["per_class"]) == 3
    assert d["per_class"][1]["support"] == 2
    assert d["per_class"][1]["f1"] == 1.0


def test_report_empty_rejected():
    with pytest.raises(DataError, match="empty"):
        classification_report(np.empty(0, dtype=int), np.empty(0, dtype=int), 2)


def test_report_rejects_labels_outside_its_classes():
    # a label of C or above would land in another class's confusion cell
    for y_true, y_pred in (([0, 1, 3], [0, 1, 1]), ([0, 1, 2], [0, 3, 1]), ([0, -1, 2], [0, 1, 2])):
        with pytest.raises(DataError, match=r"must lie in 0\.\.2"):
            classification_report(np.array(y_true), np.array(y_pred), 3)


def _former_classification_report(y_true, y_pred, num_classes):
    """classification_report's per-class loop before the confusion matrix,
    kept verbatim."""
    precision = np.zeros(num_classes)
    recall = np.zeros(num_classes)
    f1 = np.zeros(num_classes)
    support = np.zeros(num_classes, dtype=np.int64)
    for c in range(num_classes):
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        support[c] = tp + fn
        precision[c] = tp / (tp + fp) if tp + fp else 0.0
        recall[c] = tp / (tp + fn) if tp + fn else 0.0
        f1[c] = (2 * precision[c] * recall[c] / (precision[c] + recall[c])
                 if precision[c] + recall[c] else 0.0)
    accuracy = float(np.mean(y_pred == y_true))
    weighted_f1 = float(np.sum(support * f1) / support.sum())
    return accuracy, weighted_f1, precision, recall, f1, support


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.data())
def test_report_is_the_former_per_class_loop_bit_for_bit(data):
    # few classes and short arrays make empty rows and columns common
    num_classes = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, 60))
    classes = st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n)
    y_true, y_pred = np.array(data.draw(classes)), np.array(data.draw(classes))
    rep = classification_report(y_true, y_pred, num_classes)
    want = _former_classification_report(y_true, y_pred, num_classes)
    got = (rep.accuracy, rep.weighted_f1, rep.precision, rep.recall, rep.f1, rep.support)
    for name, g, w in zip(("accuracy", "weighted_f1", "precision", "recall", "f1", "support"), got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), name


def test_generator_validation():
    with pytest.raises(DataError, match="n >= k >= 2"):
        generate_synthetic(1, 10, 5.0, 2.0, 1.0, 20)
    with pytest.raises(DataError, match="n >= k >= 2"):
        generate_synthetic(12, 10, 5.0, 2.0, 1.0, 20)
    with pytest.raises(DataError, match="timespan"):
        generate_synthetic(2, 10, 0.0, 2.0, 1.0, 20)
    with pytest.raises(DataError, match="timespan must be positive and finite"):
        generate_synthetic(2, 10, math.inf, 2.0, 1.0, 20)
    with pytest.raises(DataError, match="p_in > p_out"):
        generate_synthetic(2, 10, 5.0, 1.0, 1.0, 20)
    with pytest.raises(DataError, match="p_in > p_out >= 0, both finite"):
        generate_synthetic(2, 10, 5.0, math.inf, 1.0, 20)
    with pytest.raises(DataError, match="events >= n"):
        generate_synthetic(2, 10, 5.0, 2.0, 1.0, 5)
    # communities of 50 at n = 200: 1e307 * 49 overflows, 1e306 * 49 does not
    with pytest.raises(DataError, match="total partner weight overflows"):
        generate_synthetic(4, 200, 10.0, 1e307, 1.0, 4000)
    with pytest.raises(DataError, match="total partner weight overflows"):
        generate_synthetic(4, 200, 10.0, 1e308, 1e306, 4000)
    g = generate_synthetic(4, 200, 10.0, 1e306, 1.0, 4000)
    assert np.all(g.labels[g.src] == g.labels[g.dst])


def test_generator_basic_shape():
    g = generate_synthetic(3, 60, 10.0, 5.0, 1.0, 300, seed=0)
    assert g.num_nodes == 60
    assert g.num_edges >= 300
    assert g.labels.tolist() == [i % 3 for i in range(60)]
    assert g.t_min >= 0.0 and g.t_max <= 10.0
    # no isolated nodes: every node is an endpoint
    touched = np.union1d(g.src, g.dst)
    assert touched.size == 60


def test_generator_pure_intra_when_p_out_zero():
    g = generate_synthetic(4, 80, 10.0, 3.0, 0.0, 400, seed=1)
    comm = g.labels
    assert np.all(comm[g.src] == comm[g.dst])


def test_generator_deterministic():
    a = generate_synthetic(3, 50, 8.0, 4.0, 1.0, 200, seed=7)
    b = generate_synthetic(3, 50, 8.0, 4.0, 1.0, 200, seed=7)
    c = generate_synthetic(3, 50, 8.0, 4.0, 1.0, 200, seed=8)
    assert np.array_equal(a.src, b.src) and np.array_equal(a.timestamps, b.timestamps)
    assert not np.array_equal(a.src, c.src)


def _table_and_loop_generator(k, n, T, p_in, p_out, events, seed):
    """The generator's former partner drawing: member and complement tables
    per community, and a loop over communities."""
    rng = np.random.default_rng([seed, 5])
    comm = np.arange(n, dtype=np.int64) % k
    members = [np.flatnonzero(comm == c) for c in range(k)]
    complements = [np.flatnonzero(comm != c) for c in range(k)]
    sizes = np.array([m.size for m in members])

    src = rng.integers(0, n, size=events)
    m_same = sizes[comm[src]] - 1
    m_diff = n - sizes[comm[src]]
    weight_in = p_in * m_same
    p_intra = np.divide(weight_in, weight_in + p_out * m_diff,
                        out=np.zeros(events), where=(weight_in + p_out * m_diff) > 0)
    intra = rng.random(events) < p_intra
    draws = rng.integers(0, np.where(intra, np.maximum(m_same, 1), m_diff))

    dst = np.empty(events, dtype=np.int64)
    for c in range(k):
        pick_in = intra & (comm[src] == c)
        if pick_in.any():
            pos = np.searchsorted(members[c], src[pick_in])
            j = draws[pick_in]
            j = j + (j >= pos)  # skip the source itself
            dst[pick_in] = members[c][j]
        pick_out = ~intra & (comm[src] == c)
        if pick_out.any():
            dst[pick_out] = complements[c][draws[pick_out]]
    timestamps = rng.uniform(0.0, T, size=events)

    present = np.zeros(n, dtype=bool)
    present[src] = True
    present[dst] = True
    lonely = np.flatnonzero(~present)
    if lonely.size:
        src = np.concatenate([src, lonely])
        dst = np.concatenate([dst, lonely])
        timestamps = np.concatenate([timestamps, rng.uniform(0.0, T, size=lonely.size)])
    return build_graph(src, dst, timestamps, labels=(np.arange(n), comm), feature_seed=seed)


@st.composite
def _generator_args(draw):
    k = draw(st.integers(2, 9))
    n = draw(st.integers(k, 6 * k + 5))  # n need not be a multiple of k
    p_out = draw(st.sampled_from([0.0, 1.0]))
    p_in = draw(st.floats(p_out, 1e3, exclude_min=True))
    events = draw(st.integers(n, 4 * n))
    return k, n, 10.0, p_in, p_out, events, draw(st.integers(0, 2 ** 32 - 1))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(_generator_args())
def test_generator_draws_the_partners_of_the_table_and_loop_form(args):
    got, want = generate_synthetic(*args), _table_and_loop_generator(*args)
    for name in ("src", "dst", "timestamps", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_generator_modularity_above_half():
    # Q = sum_c (e_cc / m - (deg_c / 2m)^2) on the undirected multigraph
    g = generate_synthetic(4, 400, 20.0, 10.0, 1.0, 8000, seed=0)
    comm = g.labels
    m = g.num_edges
    e_cc = np.zeros(4)
    deg_c = np.zeros(4)
    for u, v in zip(g.src, g.dst):
        cu, cv = comm[u], comm[v]
        deg_c[cu] += 1
        deg_c[cv] += 1
        if cu == cv:
            e_cc[cu] += 1
    q = float(np.sum(e_cc / m - (deg_c / (2 * m)) ** 2))
    assert q > 0.5


def test_invariance_config_validation():
    InvarianceConfig().validate()
    with pytest.raises(DataError, match="unknown probe encoder"):
        InvarianceConfig(encoder="tree").validate()
    with pytest.raises(DataError, match="epochs"):
        InvarianceConfig(epochs=0).validate()
    with pytest.raises(DataError, match="seed must be non-negative"):
        InvarianceConfig(seed=-1).validate()


def test_mean_agreement_without_a_finite_off_diagonal_entry_is_nan():
    # only diagonal entries are finite: there is no pair to average
    matrix = np.full((3, 3), np.nan)
    matrix[0, 0] = matrix[2, 2] = 1.0
    assert math.isnan(InvarianceResult(matrix=matrix, eval_nodes=np.arange(4)).mean_agreement())


def _probe_fixture(seed=1):
    return generate_synthetic(2, 40, 8.0, 8.0, 1.0, 600, seed=seed,
                              feature_policy="random", feature_dim=16)


FAST_PROBE = InvarianceConfig(epochs=20, ratios=(2, 1, 7))


def test_invariance_matrix_shape_and_bounds():
    g = _probe_fixture()
    res = probe_invariance(g, g.labels, 2, FAST_PROBE)
    assert res.matrix.shape == (2, 2)
    np.testing.assert_allclose(np.diag(res.matrix), 1.0)
    np.testing.assert_allclose(res.matrix, res.matrix.T)
    assert 0.0 <= res.matrix[0, 1] <= 1.0
    assert res.mean_agreement() == pytest.approx(res.matrix[0, 1])
    assert res.eval_nodes.size > 0


def test_invariance_deterministic():
    g = _probe_fixture()
    a = probe_invariance(g, g.labels, 2, FAST_PROBE)
    b = probe_invariance(g, g.labels, 2, FAST_PROBE)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_invariance_label_list_length_checked():
    g = _probe_fixture()
    with pytest.raises(DataError, match="label arrays"):
        probe_invariance(g, [g.labels] * 3, 2, FAST_PROBE)


@pytest.mark.parametrize("size", [10, 41])
def test_invariance_label_arrays_must_cover_every_node(size):
    # the fixture has 40 nodes; a longer array would count a class of a node
    # that does not exist, a shorter one would index past its end
    g = _probe_fixture()
    wrong = np.resize(g.labels, size)
    with pytest.raises(DataError, match=f"label array 1 has shape \\({size},\\)"):
        probe_invariance(g, [g.labels, wrong], 2, FAST_PROBE)
    with pytest.raises(DataError, match="label array 0"):
        probe_invariance(g, wrong, 2, FAST_PROBE)


def test_invariance_per_span_labels_accepted():
    g = _probe_fixture()
    base = probe_invariance(g, g.labels, 2, FAST_PROBE)
    same = probe_invariance(g, [g.labels, g.labels], 2, FAST_PROBE)
    np.testing.assert_array_equal(base.matrix, same.matrix)


@pytest.mark.parametrize("encoder", ["gcn", "mlp"])
def test_invariance_probe_takes_two_fields_per_timespan(monkeypatch, encoder):
    # one receptive field for the train rows, taken before the epoch loop,
    # and one for every row at the end, whatever the number of epochs; the
    # second computes all of P0, not only the rows the first left out. The
    # fits run on the task pool, so the fields are read in each thread's order
    calls, adj_matmul = [], tgcl.model.adj_matmul

    def counted(entry, x, rows):
        calls.append((threading.get_ident(), rows))
        return adj_matmul(entry, x, rows)

    monkeypatch.setattr(tgcl.model, "adj_matmul", counted)
    g = _probe_fixture()
    for epochs in (3, 30):
        calls.clear()
        res = probe_invariance(g, g.labels, 2, replace(FAST_PROBE, epochs=epochs, encoder=encoder))
        assert len(calls) == 2 * np.isfinite(np.diag(res.matrix)).sum() == 4
        for thread in {ident for ident, _ in calls}:
            frontiers = [rows for ident, rows in calls if ident == thread]
            assert not any(f.all() for f in frontiers[::2]) and all(f.all() for f in frontiers[1::2])


def test_invariance_mlp_encoder_runs():
    g = _probe_fixture()
    cfg = InvarianceConfig(epochs=10, ratios=(2, 1, 7), encoder="mlp")
    res = probe_invariance(g, g.labels, 2, cfg)
    assert np.isfinite(res.matrix).all()


def _two_bursts_graph():
    """30 nodes whose edges live only in the first and last quarter of [0, 4]."""
    rng = np.random.default_rng(0)
    n, m = 30, 400
    src = rng.integers(0, n, size=m)
    dst = (src + 1 + rng.integers(0, n - 1, size=m)) % n
    ts = np.where(rng.random(m) < 0.5, rng.uniform(0.0, 1.0, m), rng.uniform(3.0, 4.0, m))
    ts[0], ts[1] = 0.0, 4.0  # pin the bounds
    return build_graph(src, dst, ts, labels=(np.arange(n), np.arange(n) % 2),
                       feature_policy="random", feature_dim=8)


def test_invariance_missing_timespan_nan():
    g = _two_bursts_graph()
    with pytest.warns(UserWarning, match="no edges"):
        res = probe_invariance(g, g.labels, 4, FAST_PROBE)
    assert np.flatnonzero(np.isnan(np.diag(res.matrix))).tolist() == [1, 2]  # marked missing
    assert np.isnan(res.matrix[1]).all() and np.isnan(res.matrix[:, 2]).all()
    assert np.isfinite(res.matrix[0, 3])
    assert res.mean_agreement() == pytest.approx(res.matrix[0, 3])


def test_every_missing_timespan_is_warned_of_before_the_first_fit_starts(monkeypatch):
    # of six timespans, 1 has no labeled node and 2 and 3 have no edges; the
    # three fits run on two CPUs, and each sees all three warnings issued
    monkeypatch.setattr(tgcl.kernels, "_cpu_count", lambda: 2)
    g = _two_bursts_graph()
    labels = [g.labels, np.full(g.num_nodes, -1)] + [g.labels] * 4
    fit, warned = evaluation._fit_timespan_probe, []

    def counted(*args):
        warned.append(len(seen))
        return fit(*args)

    monkeypatch.setattr(evaluation, "_fit_timespan_probe", counted)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        res = probe_invariance(g, labels, 6, FAST_PROBE)
    assert [str(w.message) for w in seen] == ["timespan 1 has no shared labeled nodes; marked missing",
                                              "timespan 2 has no edges; marked missing",
                                              "timespan 3 has no edges; marked missing"]
    assert warned == [3, 3, 3]
    assert np.flatnonzero(np.isfinite(np.diag(res.matrix))).tolist() == [0, 4, 5]


def test_a_failed_fit_raises_after_every_missing_timespan_is_warned_of(monkeypatch):
    # timespans 0 and 3 have edges and fail their fits, and 1 and 2 have none.
    # The empty timespans 1 and 2 are warned of before the fits run on two
    # CPUs; then timespan 0's error, the first in timespan order, is raised
    monkeypatch.setattr(tgcl.kernels, "_cpu_count", lambda: 2)
    g = _two_bursts_graph()
    cfg = replace(FAST_PROBE, epochs=1, lr=1e308)
    with pytest.warns(UserWarning) as seen, pytest.raises(NumericError, match="probe of timespan 0$"):
        probe_invariance(g, g.labels, 4, cfg)
    assert [str(w.message) for w in seen] == ["timespan 1 has no edges; marked missing",
                                              "timespan 2 has no edges; marked missing"]
    # only timespan 3's fit fails: the same warnings, then its error
    fit = evaluation._fit_timespan_probe

    def fails_at_3(*args):
        if args[-1] == 3:
            raise NumericError("timespan 3's fit failed")
        return fit(*args)

    monkeypatch.setattr(evaluation, "_fit_timespan_probe", fails_at_3)
    with pytest.warns(UserWarning) as seen, pytest.raises(NumericError, match="timespan 3's"):
        probe_invariance(g, g.labels, 4, FAST_PROBE)
    assert [str(w.message) for w in seen] == ["timespan 1 has no edges; marked missing",
                                              "timespan 2 has no edges; marked missing"]


def test_invariance_timespan_without_labels_is_missing():
    g = _probe_fixture()
    unlabeled = np.full(g.num_nodes, -1)
    with pytest.warns(UserWarning, match="timespan 1 has no shared labeled nodes"):
        res = probe_invariance(g, [g.labels, unlabeled, g.labels], 3, FAST_PROBE)
    assert np.isnan(res.matrix[1]).all() and np.isnan(res.matrix[:, 1]).all()
    assert res.matrix[0, 0] == res.matrix[2, 2] == 1.0 and np.isfinite(res.matrix[0, 2])
    # one measured timespan of two leaves no pair to compare
    with pytest.warns(UserWarning, match="timespan 1 has no shared labeled nodes"), \
            pytest.raises(DataError, match="no pair of timespans to compare: measured 1 of 2"):
        probe_invariance(g, [g.labels, unlabeled], 2, FAST_PROBE)
    with pytest.raises(DataError, match="no timespan has a labeled node"):
        probe_invariance(g, [unlabeled, unlabeled], 2, FAST_PROBE)


@pytest.mark.parametrize("s", [1, 0, -3, 601, 2 ** 62])
def test_invariance_needs_two_to_one_timespan_per_edge(s):
    # the fixture has 600 edges; s = 2**62 raised MemoryError building s label references
    g = _probe_fixture()
    with pytest.raises(DataError, match=rf"from 2 timespans to one per edge \(600\), got s={s}$"):
        probe_invariance(g, g.labels, s, FAST_PROBE)


def _full_height_probe(view, x, y_train, train_local, num_classes, cfg, stream):
    """The timespan probe with a dense Â and the encoder run on every row,
    forward and backward: the oracle for the compact rows of h."""
    base = np.random.default_rng([cfg.seed, 31, stream])
    params = init_params(x.shape[1], seed=int(base.integers(2 ** 31)))
    limit = np.sqrt(6.0 / (params.d_out + num_classes))
    head_w = base.uniform(-limit, limit, size=(params.d_out, num_classes))
    head_b = np.zeros(num_classes)
    a = normalize_adjacency(view).toarray()
    p0 = a @ x[view.active]
    trainable = {"gcn_w1": params.gcn_w1, "gcn_w2": params.gcn_w2,
                 "head_w": head_w, "head_b": head_b}
    state = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    for _ in range(cfg.epochs):
        s1 = p0 @ params.gcn_w1
        p1 = a @ np.maximum(s1, 0.0)
        h = p1 @ params.gcn_w2
        _, g_logits = softmax_cross_entropy(h[train_local] @ head_w + head_b, y_train)
        g_h = np.zeros_like(h)
        g_h[train_local] = g_logits @ head_w.T
        g_s1 = (a @ (g_h @ params.gcn_w2.T)) * (s1 > 0.0)
        grads = {"gcn_w1": p0.T @ g_s1, "gcn_w2": p1.T @ g_h,
                 "head_w": h[train_local].T @ g_logits, "head_b": g_logits.sum(axis=0)}
        adam_step(trainable, grads, state)
    return a @ np.maximum(p0 @ params.gcn_w1, 0.0) @ params.gcn_w2 @ head_w + head_b


def test_timespan_probe_unsorted_train_rows_match_the_full_height_path():
    g = _probe_fixture()
    view = slice_interval(g, g.t_min, g.t_max)
    train_local = np.array([17, 3, 36, 21, 8, 29, 0])
    y_train = g.labels[view.active[train_local]]
    cfg = InvarianceConfig(epochs=5)
    got = _fit_timespan_probe(view, g.features, view.active[train_local], y_train, view.active,
                              2, cfg, stream=1)
    want = _full_height_probe(view, g.features, y_train, train_local, 2, cfg, stream=1)
    assert got.shape == (view.num_active, 2)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def _timespan_fit_args(encoder, **over):
    """A fit of timespan 0 of the probe fixture, train and eval nodes unsorted."""
    g = _probe_fixture()
    view = to_snapshots(g, 2)[0]
    rng = np.random.default_rng(5)
    nodes = rng.permutation(view.active)
    train, evals = nodes[:12], nodes[12:]
    cfg = replace(FAST_PROBE, encoder=encoder, **over)
    return view, g.features, train, g.labels[train], evals, 2, cfg, 0


@pytest.mark.parametrize("encoder", ["gcn", "mlp"])
def test_a_timespan_fit_on_a_worker_thread_gives_the_main_threads_bytes(encoder):
    args = _timespan_fit_args(encoder)
    main = _fit_timespan_probe(*args)
    with ThreadPoolExecutor(1) as pool:
        worker = pool.submit(_fit_timespan_probe, *args).result()
    assert main.shape == (args[4].size, 2)
    assert worker.tobytes() == main.tobytes()


@pytest.mark.filterwarnings("error")
def test_a_timespan_fit_keeps_its_numeric_policy_on_a_worker_thread():
    # np.errstate does not reach a worker thread: a fit that relied on its
    # caller's would warn there where it should raise tgcl's error
    args = _timespan_fit_args("gcn", epochs=1, lr=1e308)
    with ThreadPoolExecutor(1) as pool, \
            pytest.raises(NumericError, match="non-finite logits from the probe of timespan 0"):
        pool.submit(_fit_timespan_probe, *args).result()
