import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgcl import (
    DataError,
    SamplerConfig,
    build_graph,
    overlap_centers,
    random_centers,
    sample_windows,
    sequential_centers,
    slice_interval,
)
from tgcl.sampling import STRATEGIES


def _grid_graph(t_lo=0.0, t_hi=100.0, n_ts=401):
    """Dense evenly spaced timestamps so no window is ever empty."""
    ts = np.linspace(t_lo, t_hi, n_ts)
    src = np.arange(n_ts) % 10
    dst = (np.arange(n_ts) + 1) % 10
    return build_graph(src, dst, ts, feature_policy="random", feature_dim=4)


GRAPH = _grid_graph()


def _overlap(a, b):
    return max(0.0, min(a.hi, b.hi) - max(a.lo, b.lo))


def test_config_validation():
    with pytest.raises(DataError, match="unknown strategy"):
        SamplerConfig("zigzag", 4, 2).validate()
    with pytest.raises(DataError, match="v must be >= 2"):
        SamplerConfig("random", 4, 1).validate()
    with pytest.raises(DataError, match="v <= s"):
        SamplerConfig("sequential", 3, 4).validate()
    with pytest.raises(DataError, match="positive"):
        SamplerConfig("random", 0, 2).validate()
    SamplerConfig("sequential", 4, 4).validate()


def test_window_geometry_all_strategies():
    for strategy in ("sequential", "high_overlap", "low_overlap", "random"):
        cfg = SamplerConfig(strategy, 4, 2)
        ws = sample_windows(GRAPH, cfg, epoch=0, seed=0)
        assert len(ws) == 2
        for w in ws:
            assert w.hi - w.lo == 25.0  # exactly Dt/s
            assert 0.0 <= w.lo <= w.hi <= 100.0
            assert w.lo == w.center - 12.5 and w.hi == w.center + 12.5


def test_sequential_candidate_centers():
    rng = np.random.default_rng(0)
    centers = sequential_centers(SamplerConfig("sequential", 4, 4), 100.0, 0.0, rng)
    assert sorted(centers) == [12.5, 37.5, 62.5, 87.5]


def test_sequential_windows_partition_slots():
    slots = {12.5, 37.5, 62.5, 87.5}
    cfg = SamplerConfig("sequential", 4, 2)
    for epoch in range(50):
        ws = sample_windows(GRAPH, cfg, epoch, seed=9)
        cs = [w.center for w in ws]
        assert set(cs) <= slots
        assert len(set(cs)) == 2
        # interior-disjoint: closed intervals may share only an endpoint
        assert _overlap(ws[0], ws[1]) == 0.0


def test_sequential_exhaustive_when_v_equals_s():
    cfg = SamplerConfig("sequential", 4, 4)
    ws = sample_windows(GRAPH, cfg, epoch=3, seed=1)
    assert sorted(w.center for w in ws) == [12.5, 37.5, 62.5, 87.5]


def test_sequential_slot_frequencies_uniform():
    # 1,000 draws of 3-of-10 slots; per-slot count ~ Binomial(1000, 0.3)
    cfg = SamplerConfig("sequential", 10, 3)
    counts = np.zeros(10)
    n = 1000
    for epoch in range(n):
        ws = sample_windows(GRAPH, cfg, epoch, seed=5)
        cs = {w.center for w in ws}
        assert len(cs) == 3
        for c in cs:
            slot = int((c - 5.0) / 10.0)
            assert abs(c - (5.0 + 10.0 * slot)) < 1e-9
            counts[slot] += 1
    mean = n * 0.3
    sigma = np.sqrt(n * 0.3 * 0.7)
    assert np.all(np.abs(counts - mean) < 3.5 * sigma)


def test_high_overlap_spacing_and_ratio():
    cfg = SamplerConfig("high_overlap", 4, 3)
    for epoch in range(200):
        ws = sample_windows(GRAPH, cfg, epoch, seed=2)
        for a, b in zip(ws, ws[1:]):
            assert b.center - a.center == pytest.approx(6.25, abs=1e-9)
            assert _overlap(a, b) / 25.0 == pytest.approx(0.75, abs=1e-9)


def test_high_overlap_hand_case():
    # first center at 20 with v=3: centers 20, 26.25, 32.5
    cfg = SamplerConfig("high_overlap", 4, 3)

    class Fixed:
        def integers(self, lo, hi):
            return 0  # grid point 0 -> center = range lo = 12.5

    centers = overlap_centers(cfg, 100.0, 0.0, Fixed())
    assert centers == [12.5, 18.75, 25.0]
    shifted = [c + 7.5 for c in centers]  # translate to the quoted case
    assert shifted == [20.0, 26.25, 32.5]


def test_high_overlap_infeasible():
    cfg = SamplerConfig("high_overlap", 4, 20)
    with pytest.raises(DataError, match="infeasible"):
        sample_windows(GRAPH, cfg, epoch=0, seed=0)


def test_low_overlap_spacing_and_ratio():
    cfg = SamplerConfig("low_overlap", 4, 3)
    for epoch in range(200):
        ws = sample_windows(GRAPH, cfg, epoch, seed=3)
        for a, b in zip(ws, ws[1:]):
            assert b.center - a.center == pytest.approx(18.75, abs=1e-9)
            assert _overlap(a, b) / 25.0 == pytest.approx(0.25, abs=1e-9)
        # stride 2 windows are disjoint (spacing 1.5x window length)
        for a, b in zip(ws, ws[2:]):
            assert _overlap(a, b) == 0.0


def test_low_overlap_hand_case():
    cfg = SamplerConfig("low_overlap", 4, 2)

    class Fixed:
        def integers(self, lo, hi):
            return 0

    centers = overlap_centers(cfg, 100.0, 0.0, Fixed())
    assert centers == [12.5, 31.25]
    shifted = [c + 2.5 for c in centers]  # the T1=15 case from the docs
    assert shifted == [15.0, 33.75]
    lo_hi = [(c - 12.5, c + 12.5) for c in shifted]
    assert lo_hi == [(2.5, 27.5), (21.25, 46.25)]
    inter = lo_hi[0][1] - lo_hi[1][0]
    assert inter == pytest.approx(6.25)


def test_low_overlap_infeasible():
    cfg = SamplerConfig("low_overlap", 4, 8)
    with pytest.raises(DataError, match="infeasible"):
        sample_windows(GRAPH, cfg, epoch=0, seed=0)


def test_random_centers_bounds():
    cfg = SamplerConfig("random", 5, 4)
    for epoch in range(500):
        ws = sample_windows(GRAPH, cfg, epoch, seed=7)
        for w in ws:
            assert 10.0 <= w.center <= 90.0
        for a in ws:
            for b in ws:
                assert abs(a.center - b.center) <= 80.0 + 1e-12


def test_random_center_distribution_uniform():
    # KS distance of 10,000 centers against Uniform[10, 90]
    cfg = SamplerConfig("random", 5, 2)
    centers = []
    for epoch in range(5000):
        centers.extend(w.center for w in sample_windows(GRAPH, cfg, epoch, seed=13))
    x = np.sort(np.array(centers))
    n = x.shape[0]
    assert n == 10000
    cdf = (x - 10.0) / 80.0
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(cdf - emp_lo)))
    assert ks < 0.02


def test_random_s1_degenerate_point():
    rng = np.random.default_rng(0)
    centers = random_centers(SamplerConfig("random", 1, 2), 100.0, 0.0, rng)
    assert centers == [50.0, 50.0]
    ws = sample_windows(GRAPH, SamplerConfig("random", 1, 2), epoch=0, seed=0)
    assert (ws[0].lo, ws[0].hi) == (0.0, 100.0)


def test_determinism_and_epoch_variation():
    for strategy in ("sequential", "high_overlap", "low_overlap", "random"):
        cfg = SamplerConfig(strategy, 4, 2)
        a = sample_windows(GRAPH, cfg, epoch=6, seed=21)
        b = sample_windows(GRAPH, cfg, epoch=6, seed=21)
        assert [(w.lo, w.hi) for w in a] == [(w.lo, w.hi) for w in b]
    # continuous strategies re-draw every epoch (sequential's finite slot
    # grid can repeat, so it is excluded here)
    for strategy in ("high_overlap", "low_overlap", "random"):
        cfg = SamplerConfig(strategy, 4, 2)
        a = sample_windows(GRAPH, cfg, epoch=6, seed=21)
        c = sample_windows(GRAPH, cfg, epoch=7, seed=21)
        assert [(w.lo, w.hi) for w in a] != [(w.lo, w.hi) for w in c]
    # sequential still varies across a run of epochs
    cfg = SamplerConfig("sequential", 4, 2)
    draws = {tuple(w.center for w in sample_windows(GRAPH, cfg, e, seed=21)) for e in range(12)}
    assert len(draws) > 1


def test_seed_changes_draw():
    a = sample_windows(GRAPH, SamplerConfig("random", 4, 2), epoch=0, seed=0)
    b = sample_windows(GRAPH, SamplerConfig("random", 4, 2), epoch=0, seed=1)
    assert [(w.lo, w.hi) for w in a] != [(w.lo, w.hi) for w in b]


def test_degenerate_timespan_rejected():
    ts = np.full(5, 3.0)
    g = build_graph(np.arange(5), (np.arange(5) + 1) % 5, ts, feature_policy="random", feature_dim=4)
    with pytest.raises(DataError, match="degenerate timespan"):
        sample_windows(g, SamplerConfig("random", 2, 2), epoch=0, seed=0)


def test_empty_window_resampled_then_error():
    # two edge clusters at the ends; tiny windows between them are empty
    ts = np.concatenate([np.full(30, 0.0), np.full(30, 0.001), np.full(30, 99.999), np.full(30, 100.0)])
    src = np.tile(np.arange(6), 20)
    dst = np.tile((np.arange(6) + 1) % 6, 20)
    g = build_graph(src, dst, ts, feature_policy="random", feature_dim=4)
    cfg = SamplerConfig("random", 50, 2)
    with pytest.raises(DataError, match="no edges after"):
        # windows of length 2 centered in (1, 99) can never catch the clusters
        sample_windows(g, cfg, epoch=0, seed=0)


def test_sampled_windows_slice_nonempty():
    cfg = SamplerConfig("random", 4, 3)
    for epoch in range(20):
        for w in sample_windows(GRAPH, cfg, epoch, seed=2):
            assert not slice_interval(GRAPH, w.lo, w.hi).is_empty


_QUARTERS = {"high_overlap": 1, "low_overlap": 3}  # an overlap chain's step, in dt/(4s)


@st.composite
def _sampler_cases(draw):
    strategy = draw(st.sampled_from(STRATEGIES))
    s, v = draw(st.integers(1, 8)), draw(st.integers(2, 8))
    q = _QUARTERS.get(strategy)
    if q and draw(st.booleans()):  # the longest chain that fits: its first center has one place
        v = max(2, (4 * s - 4) // q)
    t_min = draw(st.floats(-1e3, 1e3, allow_nan=False))
    span = draw(st.floats(1e-3, 1e4, allow_nan=False))
    return strategy, s, v, t_min, span, draw(st.integers(0, 2**32)), draw(st.integers(0, 1000))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(_sampler_cases())
def test_window_geometry_property(case):
    strategy, s, v, t_min, span, seed, epoch = case
    # edges every dt/(64s): no window can come out empty
    ts = np.linspace(t_min, t_min + span, 64 * s + 1)
    n = ts.size
    g = build_graph(np.arange(n) % 10, (np.arange(n) + 1) % 10, ts,
                    feature_policy="random", feature_dim=2)
    cfg = SamplerConfig(strategy, s, v)
    q = _QUARTERS.get(strategy)
    # sequential needs v distinct slots; an overlap chain of v windows
    # spans (2 + q v) dt/(4s), which must fit in dt
    if (strategy == "sequential" and v > s) or (q and q * v > 4 * s - 4):
        with pytest.raises(DataError):
            sample_windows(g, cfg, epoch, seed)
        return
    dt = g.timespan
    ws = sample_windows(g, cfg, epoch, seed)
    tol = 16 * np.spacing(max(abs(g.t_min), abs(g.t_max)))  # a few roundings of t
    assert len(ws) == v
    for w in ws:
        assert w.hi - w.lo == pytest.approx(dt / s, rel=0, abs=tol)
        assert g.t_min - tol <= w.lo <= w.hi <= g.t_max + tol
    centers = np.array([w.center for w in ws])
    if strategy == "sequential":
        slots = (centers - g.t_min) / (dt / s) - 0.5  # slot k has its center at t_min + (k + ½)dt/s
        np.testing.assert_allclose(slots, np.round(slots), rtol=0, atol=1e-6)
        k = set(np.round(slots).astype(int).tolist())
        assert len(k) == v and k <= set(range(s))
    elif q:
        np.testing.assert_allclose(np.diff(centers), q * dt / (4 * s), rtol=0, atol=tol)
