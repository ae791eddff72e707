import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tgcl import AdamState, NumericError, adam_step
from tgcl.kernels import (
    LEAKY_SLOPE,
    leaky_relu,
    leaky_relu_backward,
    matmul,
    matmul_backward,
    row_l2_normalize,
    row_l2_normalize_backward,
    segment_reduce,
    segment_reduce_backward,
)

H = 1e-5
TOL = 1e-6


def _fd_grad(loss_fn, x, h=H):
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        up = loss_fn(x)
        x[i] = orig - h
        dn = loss_fn(x)
        x[i] = orig
        g[i] = (up - dn) / (2 * h)
        it.iternext()
    return g


def _rel_err(a, b):
    denom = max(1e-6, np.max(np.abs(a)), np.max(np.abs(b)))
    return np.max(np.abs(a - b)) / denom


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(matmul(a, np.eye(2)), a)


def test_matmul_shape_error():
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_row_l2_345():
    out, norms = row_l2_normalize(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(out, [[0.6, 0.8]])
    assert norms.tolist() == [5.0]


def test_row_l2_zero_row_stays_zero_with_a_zero_gradient():
    # a projection row that is exactly zero, as from a hidden row whose ReLU
    # units are all dead, scores 0 against every key instead of ending the run
    x = np.array([[0.0, -0.0], [3.0, 4.0]])
    z, norms = row_l2_normalize(x)
    assert z.tolist() == [[0.0, 0.0], [0.6, 0.8]]
    assert norms.tolist() == [np.inf, 5.0]
    g = row_l2_normalize_backward(np.array([[1.0, 2.0], [1.0, 2.0]]), z, norms)
    assert g[0].tolist() == [0.0, 0.0]
    one = row_l2_normalize_backward(np.array([[1.0, 2.0]]), *row_l2_normalize(x[1:]))
    assert g[1].tobytes() == one[0].tobytes()
    # a NaN row stays NaN, for the loss check to report
    assert np.isnan(row_l2_normalize(np.array([[np.nan, 0.0]]))[0]).all()


@pytest.mark.filterwarnings("error")
def test_l2_normalize_rejects_a_norm_that_overflows():
    # the squares overflow: x / inf made a silent zero row, after a NumPy warning
    with pytest.raises(NumericError, match=r"overflowing row norm\(s\) \[1\]"):
        row_l2_normalize(np.array([[3.0, 4.0], [1e200, -1e200]]))


def test_leaky_relu_values():
    x = np.array([[-2.0, 0.0, 3.0]])
    np.testing.assert_allclose(leaky_relu(x), [[-0.02, 0.0, 3.0]])


def test_leaky_relu_bytes_equal_the_select_form():
    # zeros of both signs, infinities, NaN, subnormals and the largest doubles
    x = np.array([[-0.0, 0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                   1.7976931348623157e308, -1.7976931348623157e308, -3.5, 2.25]])
    g = np.random.default_rng(0).standard_normal(x.shape)
    want = np.where(x > 0.0, x, LEAKY_SLOPE * x)
    assert leaky_relu(x).tobytes() == want.tobytes()
    want = g * np.where(x > 0.0, 1.0, LEAKY_SLOPE)
    assert leaky_relu_backward(g, x).tobytes() == want.tobytes()
    # the projection head keeps only the output, which is positive where x is
    assert leaky_relu_backward(g, leaky_relu(x)).tobytes() == want.tobytes()


# every double is a candidate: signed zeros, NaN, infinities and subnormals among them
_ANY_FLOATS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                         elements=st.floats(width=64) | st.sampled_from([0.0, -0.0, np.nan]))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(_ANY_FLOATS, st.data())
def test_leaky_relu_backward_from_the_output_equals_it_from_the_input(x, data):
    g = data.draw(hnp.arrays(np.float64, x.shape, elements=st.floats(-1e3, 1e3)))
    with np.errstate(over="ignore", invalid="ignore"):
        from_output = leaky_relu_backward(g, leaky_relu(x))
    assert from_output.tobytes() == leaky_relu_backward(g, x).tobytes()


def _former_row_l2_normalize_backward(grad, x):
    """The backward before it took the forward's rows and norms, verbatim."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0.0] = np.inf
    z = x / norms
    return (grad - z * np.sum(z * grad, axis=1, keepdims=True)) / norms


@settings(deadline=None, derandomize=True, max_examples=200)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                  elements=st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0])), st.data())
def test_row_l2_backward_bytes_equal_the_former_recompute(x, data):
    # zero rows (their norm is inf) and rows of subnormals or 1e100s included
    g = data.draw(hnp.arrays(np.float64, x.shape, elements=st.floats(-1e3, 1e3)))
    got = row_l2_normalize_backward(g, *row_l2_normalize(x))
    assert got.tobytes() == _former_row_l2_normalize_backward(g, x).tobytes()


def test_segment_reduce_examples():
    vals = np.array([[1.0, 3.0], [3.0, 5.0]])
    ptr = np.array([0, 2])
    np.testing.assert_allclose(segment_reduce(vals, ptr), [[3.0, 5.0]])
    with pytest.raises(ValueError, match="empty segment"):
        segment_reduce(vals, np.array([0, 0, 2]))


def test_matmul_backward_fd():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 5))
    w = rng.standard_normal((4, 5))
    ga, gb = matmul_backward(w, a, b)
    assert _rel_err(ga, _fd_grad(lambda x: np.sum(w * matmul(x, b)), a)) < TOL
    assert _rel_err(gb, _fd_grad(lambda x: np.sum(w * matmul(a, x)), b)) < TOL


def test_relu_backward_fd():
    rng = np.random.default_rng(2)
    # keep entries away from the kink at 0
    x = rng.standard_normal((4, 3))
    x[np.abs(x) < 0.05] += 0.1
    w = rng.standard_normal((4, 3))
    g = leaky_relu_backward(w, x)
    assert _rel_err(g, _fd_grad(lambda z: np.sum(w * leaky_relu(z)), x)) < TOL


def test_row_l2_backward_fd():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 3)) + 0.5
    w = rng.standard_normal((4, 3))
    g = row_l2_normalize_backward(w, *row_l2_normalize(x))
    assert _rel_err(g, _fd_grad(lambda z: np.sum(w * row_l2_normalize(z)[0]), x)) < TOL


def test_segment_reduce_backward_fd():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((7, 3))
    ptr = np.array([0, 2, 3, 7])
    w = rng.standard_normal((3, 3))
    g = segment_reduce_backward(w, vals, ptr)
    fd = _fd_grad(lambda z: np.sum(w * segment_reduce(z, ptr)), vals)
    assert _rel_err(g, fd) < TOL


def test_adjoint_inner_product_identity():
    # <w, K(x+d) - K(x)> ~= <backward(w), d> for small d
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 3)) + 0.3
    d = rng.standard_normal((4, 3)) * 1e-7
    w = rng.standard_normal((4, 3))
    lhs = np.sum(w * (row_l2_normalize(x + d)[0] - row_l2_normalize(x)[0]))
    rhs = np.sum(row_l2_normalize_backward(w, *row_l2_normalize(x)) * d)
    assert abs(lhs - rhs) < 1e-12


def test_adam_zero_grad_fixed_point():
    p = {"w": np.array([1.0, -2.0, 3.0])}
    before = p["w"].copy()
    st = AdamState(lr=0.1, weight_decay=0.0)
    adam_step(p, {"w": np.zeros(3)}, st)
    np.testing.assert_array_equal(p["w"], before)


def test_adam_first_step_hand_case():
    # p=1, g=1, lr=0.1: bias-corrected first step moves by ~lr
    p = {"w": np.array([1.0])}
    st = AdamState(lr=0.1, weight_decay=0.0)
    adam_step(p, {"w": np.array([1.0])}, st)
    m_hat, v_hat = 0.1 / 0.1, 0.001 / 0.001
    expect = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert p["w"][0] == pytest.approx(expect, abs=1e-15)
    assert p["w"][0] == pytest.approx(0.9, abs=1e-8)


def test_adam_monotone_decrease_vs_scalar_reference():
    p = {"w": np.array([1.0])}
    st = AdamState(lr=0.01, weight_decay=0.0)
    # scalar reference recurrence
    w_ref, m, v = 1.0, 0.0, 0.0
    seen = [1.0]
    for t in range(1, 101):
        adam_step(p, {"w": np.array([1.0])}, st)
        m = 0.9 * m + 0.1 * 1.0
        v = 0.999 * v + 0.001 * 1.0
        w_ref -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert p["w"][0] == pytest.approx(w_ref, rel=1e-12)
        assert p["w"][0] < seen[-1]
        seen.append(p["w"][0])


def test_adam_weight_decay_coupled():
    # wd pulls toward zero even with zero loss gradient
    p = {"w": np.array([5.0])}
    st = AdamState(lr=0.1, weight_decay=0.01)
    adam_step(p, {"w": np.array([0.0])}, st)
    assert p["w"][0] < 5.0


def _allocating_adam_step(params, grads, state):
    """The update written with a temporary per operation, as the rounding
    of in-place Adam must reproduce."""
    state.step_count += 1
    t = state.step_count
    c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
    for name, p in params.items():
        g = grads[name]
        if state.weight_decay != 0.0:
            g = g + state.weight_decay * p
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_adam_bytes_equal_the_allocating_update(weight_decay):
    rng = np.random.default_rng(3)
    got = {"w": rng.standard_normal((65, 4)), "b": rng.standard_normal(7)}
    want = {k: v.copy() for k, v in got.items()}
    st_got = AdamState(lr=4e-3, weight_decay=weight_decay)
    st_want = AdamState(lr=4e-3, weight_decay=weight_decay)
    for _ in range(20):
        grads = {k: rng.standard_normal(v.shape) * 10.0 ** rng.integers(-6, 3) for k, v in got.items()}
        kept = {k: g.copy() for k, g in grads.items()}
        adam_step(got, grads, st_got)
        _allocating_adam_step(want, grads, st_want)
        for k in got:
            assert grads[k].tobytes() == kept[k].tobytes(), k  # the gradients are not written
            assert got[k].tobytes() == want[k].tobytes(), k
            assert st_got.m[k].tobytes() == st_want.m[k].tobytes(), k
            assert st_got.v[k].tobytes() == st_want.v[k].tobytes(), k


def test_adam_shape_mismatch():
    st = AdamState(lr=4e-3, weight_decay=0.0)
    with pytest.raises(ValueError, match="shape mismatch"):
        adam_step({"w": np.zeros((2, 2))}, {"w": np.zeros(3)}, st)


def test_adam_checked_nonfinite():
    st = AdamState(lr=4e-3, weight_decay=0.0)
    with pytest.raises(NumericError):
        adam_step({"w": np.zeros(2)}, {"w": np.array([1.0, np.inf])}, st)


@pytest.mark.parametrize("bad", [1e160, np.inf, np.nan])
def test_adam_raises_on_a_non_finite_squared_gradient_before_any_change(bad):
    # at 1e160 the gradient is finite but its square is not: the second
    # moment would turn inf and every later step 0
    st = AdamState(lr=0.1, weight_decay=1e-3)
    p = {"a": np.ones(3), "w": np.ones(2)}
    adam_step(p, {"a": np.ones(3), "w": np.ones(2)}, st)
    kept = [{k: a.copy() for k, a in d.items()} for d in (p, st.m, st.v)]
    with pytest.raises(NumericError, match=r"squared grad\[w\]"):
        adam_step(p, {"a": np.ones(3), "w": np.array([1.0, bad])}, st)
    assert st.step_count == 1
    for now, before in zip((p, st.m, st.v), kept):
        assert all(now[k].tobytes() == before[k].tobytes() for k in before)
