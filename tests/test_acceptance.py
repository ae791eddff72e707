"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (visible with pytest -s) and then
asserts the same conditions, so the suite both reports and enforces the
release bar. The shared 4-community fixture is cached at module scope
because three of the checks reuse it.

Known failing check: acceptance 4 requires the trained encoder to beat a
randomly initialized one by 15 accuracy points. On this generator a
random-init encoder already scores ~0.99 through a linear probe (the
two-hop feature smoothing it performs is that strong), so no training
margin of that size exists. The check is asserted faithfully rather than
weakened; every other condition of acceptance 4 passes.
"""

import time

import numpy as np
import pytest

from tgcl import (
    InvarianceConfig,
    LossConfig,
    SamplerConfig,
    TrainConfig,
    build_graph,
    embed_all,
    evaluate,
    generate_synthetic,
    infonce,
    init_params,
    make_split,
    multi_view_loss,
    normalize_adjacency,
    probe_invariance,
    project,
    readout,
    readout_rows,
    run_grad_check,
    sample_windows,
    slice_interval,
    train,
    train_linear_probe,
)
from tgcl.cli import dispatch

_CACHE = {}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _community_graph():
    if "graph" not in _CACHE:
        t0 = time.perf_counter()
        _CACHE["graph"] = generate_synthetic(
            4, 400, 20.0, 10.0, 1.0, 8000, seed=0,
            feature_policy="random", feature_dim=64,
        )
        _CACHE["gen_time"] = time.perf_counter() - t0
    return _CACHE["graph"]


def _probe_accuracy(graph, params) -> float:
    h = embed_all(graph, params)
    split = make_split(graph.labels, (1, 1, 8), seed=0)
    probe = train_linear_probe(h, graph.labels, split)
    return evaluate(probe, h, graph.labels, split).accuracy


def _trained(level: str):
    """Train once per contrast level on the shared fixture; cache results."""
    key = f"run_{level}"
    if key not in _CACHE:
        graph = _community_graph()
        cfg = TrainConfig(
            sampler=SamplerConfig("sequential", 4, 2),
            loss=LossConfig(level, 0.5),
            epochs=100,
            batch_size=256,
            seed=0,
        )
        t0 = time.perf_counter()
        params, log = train(graph, cfg)
        train_time = time.perf_counter() - t0
        _CACHE[key] = (_probe_accuracy(graph, params), log.loss_values(), train_time)
    return _CACHE[key]


def test_acceptance_1_gradient_exactness():
    t0 = time.perf_counter()
    report = run_grad_check(seed=7, h=1e-5)
    dt = time.perf_counter() - t0
    worst = report["worst"]
    ok = worst < 1e-4 and dt < 10.0
    _report(
        "acceptance 1 (gradient exactness)", ok,
        f"worst rel err {worst:.3e} < 1e-4 on both contrast levels, {dt:.1f}s < 10s",
    )
    assert worst < 1e-4
    assert dt < 10.0


def test_acceptance_2_sampling_invariants():
    ts = np.linspace(0.0, 100.0, 501)
    graph = build_graph(np.arange(501) % 9, (np.arange(501) + 1) % 9, ts,
                        feature_policy="random", feature_dim=4)
    t0 = time.perf_counter()
    worst_len = 0.0
    worst_overlap = {"high_overlap": 0.0, "low_overlap": 0.0}
    target = {"high_overlap": 0.75, "low_overlap": 0.25}

    def overlap(a, b):
        return max(0.0, min(a.hi, b.hi) - max(a.lo, b.lo))

    for strategy in ("sequential", "high_overlap", "low_overlap", "random"):
        cfg = SamplerConfig(strategy, 4, 3)
        for epoch in range(1000):
            ws = sample_windows(graph, cfg, epoch, seed=11)
            for w in ws:
                worst_len = max(worst_len, abs((w.hi - w.lo) - 25.0))
                assert 0.0 <= w.lo <= w.hi <= 100.0
            if strategy == "sequential":
                for i, a in enumerate(ws):
                    for b in ws[i + 1:]:
                        assert overlap(a, b) == 0.0
            if strategy in worst_overlap:
                for a, b in zip(ws, ws[1:]):
                    ratio = overlap(a, b) / 25.0
                    worst_overlap[strategy] = max(
                        worst_overlap[strategy], abs(ratio - target[strategy]))
    dt = time.perf_counter() - t0
    ok = (worst_len == 0.0 and worst_overlap["high_overlap"] <= 1e-9
          and worst_overlap["low_overlap"] <= 1e-9 and dt < 5.0)
    _report(
        "acceptance 2 (sampling invariants)", ok,
        f"1000 draws x 4 strategies: length err {worst_len:.1e}, overlap err "
        f"high {worst_overlap['high_overlap']:.1e} / low {worst_overlap['low_overlap']:.1e}, "
        f"{dt:.1f}s < 5s",
    )
    assert worst_len == 0.0
    assert worst_overlap["high_overlap"] <= 1e-9
    assert worst_overlap["low_overlap"] <= 1e-9
    assert dt < 5.0


def test_acceptance_3_contrastive_oracles():
    loss_single, _, _ = infonce(np.array([[0.6, 0.8]]), np.array([[1.0, 0.0]]), 0.5)

    n = 7
    same = np.tile([1.0, 0.0, 0.0], (n, 1))
    loss_equal, _, _ = infonce(same, same.copy(), 0.5)

    loss_ortho, _, _ = infonce(np.eye(2), np.eye(2), 1.0)

    def brute(q, k, tau):
        total = 0.0
        for i in range(q.shape[0]):
            logits = np.array([q[i] @ k[j] / tau for j in range(q.shape[0])])
            total += -(logits[i] - np.log(np.sum(np.exp(logits))))
        return total / q.shape[0]

    rng = np.random.default_rng(3)

    def unit(nr, d):
        x = rng.standard_normal((nr, d))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    rows = [(unit(6, 5), unit(6, 5)) for _ in range(3)]
    naive = {}
    got = {}
    for level in ("node", "graph"):
        # per view (queries, keys): the node's own rows or its neighbourhood's
        pairs = [(q, q if level == "node" else r) for q, r in rows]
        got[level], _ = multi_view_loss(pairs, 0.4)
        total = 0.0
        for qi in range(3):
            for ki in range(3):
                if qi != ki:
                    total += brute(pairs[qi][0], pairs[ki][1], 0.4)
        naive[level] = total / 6

    err_equal = abs(loss_equal - np.log(n))
    err_ortho = abs(loss_ortho - 0.31326)
    err_multi = max(abs(got[l] - naive[l]) for l in got)
    ok = (loss_single == 0.0 and err_equal <= 1e-9 and err_ortho <= 1e-4
          and err_multi <= 1e-10)
    _report(
        "acceptance 3 (contrastive-loss oracles)", ok,
        f"single-item {loss_single}, all-equal err {err_equal:.1e} <= 1e-9, "
        f"orthonormal err {err_ortho:.1e} <= 1e-4, 3-view vs naive {err_multi:.1e} <= 1e-10",
    )
    assert loss_single == 0.0
    assert err_equal <= 1e-9
    assert err_ortho <= 1e-4
    assert err_multi <= 1e-10


def test_acceptance_4_synthetic_end_to_end():
    graph = _community_graph()
    acc, losses, train_time = _trained("node")
    untrained = _probe_accuracy(graph, init_params(graph.feature_dim, seed=0))
    runtime = _CACHE["gen_time"] + train_time
    gap = 100.0 * (acc - untrained)
    first, last10 = losses[0], float(np.mean(losses[-10:]))
    ok = acc >= 0.90 and gap >= 15.0 and last10 < first and runtime < 120.0
    _report(
        "acceptance 4 (synthetic end-to-end)", ok,
        f"trained acc {acc:.4f} >= 0.90, untrained {untrained:.4f}, "
        f"gap {gap:.2f}pp vs required 15pp, loss {first:.4f} -> {last10:.4f}, "
        f"{runtime:.1f}s < 120s",
    )
    assert acc >= 0.90
    assert last10 < first
    assert runtime < 120.0
    # A random-init encoder already reaches ~0.99 on this fixture, so the
    # 15-point training margin cannot exist; kept as an honest failure.
    assert gap >= 15.0


def test_acceptance_5_local_global_parity():
    acc_node, _, _ = _trained("node")
    acc_graph, _, _ = _trained("graph")
    diff = abs(acc_node - acc_graph)
    ok = diff <= 0.05
    _report(
        "acceptance 5 (node vs neighborhood parity)", ok,
        f"node {acc_node:.4f} vs graph {acc_graph:.4f}, diff {diff:.4f} <= 0.05",
    )
    assert diff <= 0.05


def test_acceptance_6_parameter_count():
    params = init_params(128, 128, 64)
    expect = 128 * 128 + 128 * 64 + 2 * (64**2 + 64)
    ok = params.num_params == expect and params.num_params < 100_000
    _report(
        "acceptance 6 (parameter count)", ok,
        f"{params.num_params} == {expect} and < 0.1M",
    )
    assert params.num_params == expect
    assert params.num_params < 100_000


def test_acceptance_7_timespan_invariance_probe():
    graph = _community_graph()
    cfg = InvarianceConfig(epochs=300, ratios=(2, 1, 7), seed=0)
    agreement = probe_invariance(graph, graph.labels, 4, cfg).mean_agreement()

    rng = np.random.default_rng(99)
    shuffled = []
    for _ in range(4):
        lab = graph.labels.copy()
        idx = np.flatnonzero(lab >= 0)
        lab[idx] = lab[rng.permutation(idx)]
        shuffled.append(lab)
    control = probe_invariance(graph, shuffled, 4, cfg).mean_agreement()

    ok = agreement >= 0.8 and abs(control - 0.25) <= 0.1
    _report(
        "acceptance 7 (timespan invariance probe)", ok,
        f"agreement {agreement:.4f} >= 0.8; shuffled control {control:.4f} "
        f"within 0.25 +- 0.1",
    )
    assert agreement >= 0.8
    assert abs(control - 0.25) <= 0.1


def test_acceptance_8_train_determinism(tmp_path, capsys):
    prefix = tmp_path / "toy"
    assert dispatch(["synth", "--k", "3", "--n", "45", "--T", "6.0",
                     "--events", "400", "--ratio-in-out", "8.0",
                     "--out-prefix", str(prefix)]) == 0
    edges = str(prefix) + ".edges.csv"
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert dispatch(["train", "--edges", edges, "--out", str(out),
                         "--epochs", "20", "--d-hidden", "16", "--d-out", "8",
                         "--batch-size", "32", "--strategy", "random", "--s", "3",
                         "--feature-policy", "random", "--feature-dim", "8",
                         "--seed", "3"]) == 0
        runs.append(out)
    capsys.readouterr()
    log_same = (runs[0] / "train_log.csv").read_bytes() == (runs[1] / "train_log.csv").read_bytes()
    ckpt_same = (runs[0] / "params.ckpt").read_bytes() == (runs[1] / "params.ckpt").read_bytes()
    ok = log_same and ckpt_same
    _report(
        "acceptance 8 (training determinism)", ok,
        f"20-epoch reruns byte-identical: log {log_same}, checkpoint {ckpt_same}",
    )
    assert log_same
    assert ckpt_same


def test_acceptance_9_readout_and_normalization():
    rng = np.random.default_rng(5)
    worst_adj = 0.0
    worst_norm = 0.0
    perm_ok = True
    for trial in range(5):
        n, m = 25, 70
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        ts = rng.uniform(0.0, 10.0, size=m)
        g = build_graph(src, dst, ts, feature_policy="random", feature_dim=6,
                        feature_seed=trial)
        view = slice_interval(g, 0.0, 10.0)

        adj = normalize_adjacency(view)
        dense = np.eye(view.num_active)
        for u, v in zip(view.src, view.dst):
            if u != v:
                dense[u, v] = dense[v, u] = 1.0
        d = dense.sum(axis=1)
        oracle = dense / np.sqrt(np.outer(d, d))
        worst_adj = max(worst_adj, float(np.max(np.abs(adj.toarray() - oracle))))

        h = rng.standard_normal((view.num_active, 6))
        batch = np.arange(view.num_active)
        perm = rng.permutation(view.timestamps.size)
        shuffled = type(view)(lo=view.lo, hi=view.hi, active=view.active,
                              src=view.src[perm], dst=view.dst[perm],
                              timestamps=view.timestamps[perm], features=view.features)
        for stat in ("mean", "max", "sum"):
            a = readout(readout_rows(adj, batch), h, stat=stat)
            b = readout(readout_rows(normalize_adjacency(shuffled), batch), h, stat=stat)
            perm_ok = perm_ok and bool(np.array_equal(a, b))

        params = init_params(6, 8, 6, seed=trial)
        z, _ = project(h, params)
        worst_norm = max(worst_norm, float(np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0))))

    ok = worst_adj < 1e-12 and perm_ok and worst_norm < 1e-6
    _report(
        "acceptance 9 (readout and normalization properties)", ok,
        f"adjacency vs dense oracle {worst_adj:.1e} < 1e-12, readout permutation "
        f"invariance {perm_ok}, projected row-norm err {worst_norm:.1e} < 1e-6",
    )
    assert worst_adj < 1e-12
    assert perm_ok
    assert worst_norm < 1e-6
