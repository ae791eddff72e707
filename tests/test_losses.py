import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tgcl
from tgcl import DataError, LossConfig, infonce, multi_view_loss, softmax_cross_entropy


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _brute_force(q, k, tau):
    """Naive per-row softmax cross-entropy oracle."""
    n = q.shape[0]
    total = 0.0
    for i in range(n):
        logits = np.array([q[i] @ k[j] / tau for j in range(n)])
        total += -(logits[i] - np.log(np.sum(np.exp(logits))))
    return total / n


def _fd(loss_fn, arr, h):
    """Central differences of loss_fn() by perturbing arr in place."""
    fd = np.zeros_like(arr)
    for i in np.ndindex(arr.shape):
        orig = arr[i]
        arr[i] = orig + h
        up = loss_fn()
        arr[i] = orig - h
        dn = loss_fn()
        arr[i] = orig
        fd[i] = (up - dn) / (2 * h)
    return fd


def test_single_item_loss_zero():
    q = np.array([[0.6, 0.8]])
    k = np.array([[1.0, 0.0]])
    loss, gq, gk = infonce(q, k, 0.5)
    assert loss == 0.0
    np.testing.assert_allclose(gq, 0.0, atol=1e-15)
    np.testing.assert_allclose(gk, 0.0, atol=1e-15)


def test_all_equal_rows_ln_n():
    for n in (2, 5, 17):
        q = np.tile([1.0, 0.0, 0.0], (n, 1))
        loss, _, _ = infonce(q, q.copy(), 0.5)
        assert loss == pytest.approx(np.log(n), abs=1e-9)


def test_orthonormal_pair_value():
    # two orthogonal unit rows, tau=1: loss = ln(1 + e^-1) = 0.31326...
    q = np.eye(2)
    loss, _, _ = infonce(q, q.copy(), 1.0)
    assert loss == pytest.approx(np.log(1.0 + np.exp(-1.0)), abs=1e-12)
    assert loss == pytest.approx(0.31326, abs=1e-4)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for tau in (0.3, 0.5, 1.0):
        q = _unit_rows(rng, 9, 6)
        k = _unit_rows(rng, 9, 6)
        loss, _, _ = infonce(q, k, tau)
        assert loss == pytest.approx(_brute_force(q, k, tau), abs=1e-12)


def test_large_logits_stable():
    # max-subtraction keeps huge logits finite
    q = np.array([[1e3, 0.0], [0.0, 1e3]])
    loss, gq, gk = infonce(q, q.copy(), 1e-2)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(gq)) and np.all(np.isfinite(gk))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    q = _unit_rows(rng, 5, 4)
    k = _unit_rows(rng, 5, 4)
    tau = 0.5
    loss, gq, gk = infonce(q, k, tau)
    h = 1e-5
    for arr, grad in ((q, gq), (k, gk)):
        fd = _fd(lambda: infonce(q, k, tau)[0], arr, h)
        rel = np.max(np.abs(grad - fd)) / max(1e-6, np.max(np.abs(grad)), np.max(np.abs(fd)))
        assert rel < 1e-6


def test_input_validation():
    with pytest.raises(ValueError, match="equal-shape"):
        infonce(np.zeros((2, 3)), np.zeros((3, 3)), 0.5)
    with pytest.raises(ValueError, match="empty batch"):
        infonce(np.zeros((0, 3)), np.zeros((0, 3)), 0.5)
    with pytest.raises(ValueError, match="positive"):
        infonce(np.ones((2, 2)), np.ones((2, 2)), 0.0)


def test_loss_config_validation():
    LossConfig("node", 0.5).validate()
    LossConfig("graph", 2.0).validate()
    with pytest.raises(DataError, match="unknown loss level"):
        LossConfig("edge", 0.5).validate()
    with pytest.raises(DataError, match="positive"):
        LossConfig("node", 0.0).validate()
    for tau in (np.inf, np.nan):  # an infinite temperature flattens every logit to 0
        with pytest.raises(DataError, match="temperature must be positive and finite"):
            LossConfig("node", tau).validate()


def test_infonce_is_the_cross_entropy_against_the_diagonal():
    rng = np.random.default_rng(3)
    q, k = _unit_rows(rng, 7, 5), _unit_rows(rng, 7, 5)
    loss, grad = softmax_cross_entropy(q @ k.T, np.arange(7), 0.3)
    got = infonce(q, k, 0.3)
    assert got[0] == loss
    assert np.array_equal(got[1], grad @ k) and np.array_equal(got[2], grad.T @ q)
    # the temperature divides the scores and the gradient, exactly at tau = 1
    unit = softmax_cross_entropy(q @ k.T / 0.3, np.arange(7))
    assert unit[0] == pytest.approx(loss, rel=1e-14)
    np.testing.assert_allclose(unit[1] / 0.3, grad, rtol=1e-12)
    assert tgcl.evaluation.softmax_cross_entropy is softmax_cross_entropy


def _former_softmax_cross_entropy(scores, targets, tau=1.0):
    """The four-array formula that softmax_cross_entropy replaced, verbatim."""
    logits = scores / tau
    m = logits.max(axis=1, keepdims=True)  # max-subtract for stable exp
    ex = np.exp(logits - m)
    denom = ex.sum(axis=1)
    rows = np.arange(scores.shape[0])
    loss = -(logits[rows, targets] - m[:, 0] - np.log(denom)).mean()
    grad = ex / denom[:, None]
    grad[rows, targets] -= 1.0
    grad /= rows.size * tau
    return loss, grad


@st.composite
def _scores_and_targets(draw):
    """1 x 1 to 300 x 300 scores with ties at the row max, +-0.0 entries and
    rows spread past exp underflow, in C, F, transposed or strided layout."""
    n, c = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = draw(st.sampled_from([1.0, 40.0, 3000.0]))  # exp(-1500) is 0.0
    x = rng.standard_normal((n, c)) * spread
    if draw(st.booleans()):  # ties: copy each row's max into a few more columns
        tied = rng.integers(0, c, size=(n, 3))
        x[np.arange(n)[:, None], tied] = x.max(axis=1, keepdims=True)
    if draw(st.booleans()):  # signed zeros, the row max in half the rows
        negative = rng.random(n) < 0.5
        x[negative] = -np.abs(x[negative])
        zeros = rng.random((n, c)) < 0.3
        x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    layout = draw(st.sampled_from(["C", "F", "T", "strided"]))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "T":
        x = np.ascontiguousarray(x.T).T
    elif layout == "strided":
        x = np.repeat(x, 2, axis=0)[::2]
    targets = rng.integers(0, c, size=n)
    return x, targets, draw(st.sampled_from([1.0, 0.5, 0.3, 7.0]))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_scores_and_targets())
def test_softmax_cross_entropy_is_the_former_formula_bit_for_bit(drawn):
    scores, targets, tau = drawn
    before = scores.copy()
    loss, grad = softmax_cross_entropy(scores, targets, tau)
    # NumPy sums a strided row sequentially and a contiguous one pairwise,
    # so the former formula's bytes depended on the layout of scores; the
    # one-array form always computes on C-ordered logits
    want_loss, want_grad = _former_softmax_cross_entropy(np.ascontiguousarray(scores), targets, tau)
    assert _bits(loss) == _bits(want_loss)
    assert grad.flags.c_contiguous and grad.shape == scores.shape
    assert _bits(grad) == _bits(want_grad)
    assert _bits(scores) == _bits(before)


def _pairs(rng, v, n, d, level="node"):
    """Per view (queries, keys): the keys are the queries at node level
    and a second set of rows at graph level."""
    out = []
    for _ in range(v):
        q, r = _unit_rows(rng, n, d), _unit_rows(rng, n, d)
        out.append((q, q if level == "node" else r))
    return out


def test_two_view_node_level_symmetric_average():
    rng = np.random.default_rng(2)
    pairs = _pairs(rng, 2, 7, 4)
    loss, _ = multi_view_loss(pairs, 0.5)
    l12, _, _ = infonce(pairs[0][0], pairs[1][1], 0.5)
    l21, _, _ = infonce(pairs[1][0], pairs[0][1], 0.5)
    assert loss == pytest.approx((l12 + l21) / 2, abs=1e-12)


def test_two_view_graph_level_uses_neighborhoods():
    rng = np.random.default_rng(3)
    pairs = _pairs(rng, 2, 7, 4, "graph")
    loss, _ = multi_view_loss(pairs, 0.5)
    l12, _, _ = infonce(pairs[0][0], pairs[1][1], 0.5)
    l21, _, _ = infonce(pairs[1][0], pairs[0][1], 0.5)
    assert loss == pytest.approx((l12 + l21) / 2, abs=1e-12)


def test_three_view_matches_naive_triple_loop():
    rng = np.random.default_rng(4)
    for level in ("node", "graph"):
        pairs = _pairs(rng, 3, 6, 5, level)
        loss, _ = multi_view_loss(pairs, 0.4)
        total = 0.0
        for qi in range(3):
            for ki in range(3):
                if qi == ki:
                    continue
                total += _brute_force(pairs[qi][0], pairs[ki][1], 0.4)
        assert loss == pytest.approx(total / 6, abs=1e-10)


def test_view_permutation_symmetry():
    rng = np.random.default_rng(5)
    pairs = _pairs(rng, 3, 6, 4)
    base, _ = multi_view_loss(pairs, 0.5)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        loss, _ = multi_view_loss([pairs[i] for i in perm], 0.5)
        assert loss == pytest.approx(base, abs=1e-12)


def test_aligned_views_are_a_minimum():
    # equal views score lower than independently drawn ones
    rng = np.random.default_rng(6)
    z = _unit_rows(rng, 16, 8)
    z2 = z.copy()
    aligned, _ = multi_view_loss([(z, z), (z2, z2)], 0.5)
    worse = 0.0
    trials = 20
    for _ in range(trials):
        other = [(u, u) for u in (_unit_rows(rng, 16, 8) for _ in range(2))]
        l, _ = multi_view_loss(other, 0.5)
        worse += l / trials
        assert aligned < l
    assert aligned < worse


def _view_grads(pairs, grads):
    """Each distinct array of every view with its gradient: keys that are
    the queries take the sum of the two gradients."""
    out = []
    for (q, k), (gq, gk) in zip(pairs, grads):
        out += [(q, gq + gk)] if k is q else [(q, gq), (k, gk)]
    return out


def test_multi_view_gradients_match_fd():
    rng = np.random.default_rng(7)
    h = 1e-5
    for level in ("node", "graph"):
        pairs = _pairs(rng, 3, 4, 3, level)
        _, grads = multi_view_loss(pairs, 0.6)
        for vi, (arr, grad) in enumerate(_view_grads(pairs, grads)):
            fd = _fd(lambda: multi_view_loss(pairs, 0.6)[0], arr, h)
            rel = np.max(np.abs(grad - fd)) / max(1e-6, np.max(np.abs(grad)), np.max(np.abs(fd)))
            assert rel < 1e-6, (level, vi)


@st.composite
def _drawn_pairs(draw):
    """2-4 views of 1-6 rows of width 1-5, keys shared with the queries or
    drawn apart, and a temperature."""
    v, n, d = draw(st.integers(2, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rows = hnp.arrays(np.float64, (n, d), elements=st.floats(-1.0, 1.0))
    shared = draw(st.booleans())
    pairs = []
    for _ in range(v):
        q = draw(rows)
        pairs.append((q, q if shared else draw(rows)))
    return pairs, draw(st.floats(0.2, 2.0))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(_drawn_pairs())
def test_multi_view_loss_is_the_pairwise_average_with_exact_gradients(drawn):
    pairs, tau = drawn
    loss, grads = multi_view_loss(pairs, tau)
    v = len(pairs)
    brute = sum(_brute_force(pairs[qi][0], pairs[ki][1], tau)
                for qi in range(v) for ki in range(v) if qi != ki)
    assert loss == pytest.approx(brute / (v * (v - 1)), rel=1e-10, abs=1e-12)
    for arr, grad in _view_grads(pairs, grads):
        fd = _fd(lambda: multi_view_loss(pairs, tau)[0], arr, 1e-6)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


def _former_multi_view_loss(pairs, tau):
    """multi_view_loss and infonce as they were before they worked in place:
    the scores went through softmax_cross_entropy's copy, and the scaled
    gradients were new arrays."""
    v = len(pairs)
    g_q = [np.zeros_like(q) for q, _ in pairs]
    g_k = [np.zeros_like(k) for _, k in pairs]
    total = 0.0
    for qi, (q, _) in enumerate(pairs):
        for ki, (_, k) in enumerate(pairs):
            if ki != qi:
                loss, grad = softmax_cross_entropy(q @ k.T, np.arange(q.shape[0]), tau)
                g_q[qi] += grad @ k
                g_k[ki] += grad.T @ q
                total += loss
    scale = 1.0 / (v * (v - 1))
    return total * scale, [(gq * scale, gk * scale) for gq, gk in zip(g_q, g_k)]


@settings(deadline=None, derandomize=True, max_examples=100)
@given(_drawn_pairs())
def test_multi_view_loss_bytes_equal_the_former_form(drawn):
    pairs, tau = drawn
    loss, grads = multi_view_loss(pairs, tau)
    want_loss, want_grads = _former_multi_view_loss(pairs, tau)
    assert _bits(loss) == _bits(want_loss)
    assert [(_bits(gq), _bits(gk)) for gq, gk in grads] == \
        [(_bits(gq), _bits(gk)) for gq, gk in want_grads]


def test_misaligned_views_rejected():
    rng = np.random.default_rng(8)
    a = _unit_rows(rng, 5, 4)
    c = _unit_rows(rng, 6, 4)
    with pytest.raises(ValueError, match="shape"):
        multi_view_loss([(a, a), (c, c)], 0.5)
    with pytest.raises(ValueError, match="at least 2"):
        multi_view_loss([(a, a)], 0.5)
