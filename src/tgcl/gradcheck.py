"""Finite-difference verification of the analytic gradients.

Builds a fixed 12-node two-view fixture, takes the training step
(``contrastive_step``) at both loss levels and the graph level under every
readout statistic, and compares its parameter gradients with central
differences of its forward loss. Relative error uses
|a - f| / max(1e-6, |a|, |f|) per component, worst case over all entries.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .graph import TemporalGraph, build_graph, slice_interval
from .kernels import map_tasks
from .losses import LossConfig, multi_view_loss
from .model import PARAM_FIELDS, READOUT_STATS, embed_views, init_params, view_entry, view_inputs
from .training import TrainConfig, contrastive_step, shared_nodes

FIXTURE_NODES = 12
FIXTURE_SPLIT = 50.0


def fixture_graph(seed: int = 7) -> TemporalGraph:
    """12 nodes, ring plus random chords in each half of [0, 100].

    Every node sits on the ring in both halves, so the two standard views
    share all 12 nodes. Features are seeded unit-norm random rows (dim 8).
    """
    rng = np.random.default_rng([seed, 12])
    src, dst, ts = [], [], []
    for lo in (1.0, 51.0):
        ring_t = lo + np.arange(FIXTURE_NODES) * (48.0 / FIXTURE_NODES)
        for i in range(FIXTURE_NODES):
            src.append(i)
            dst.append((i + 1) % FIXTURE_NODES)
            ts.append(ring_t[i])
        for _ in range(6):
            a, b = rng.choice(FIXTURE_NODES, size=2, replace=False)
            src.append(int(a))
            dst.append(int(b))
            ts.append(float(rng.uniform(lo, lo + 48.0)))
    return build_graph(
        np.array(src), np.array(dst), np.array(ts),
        feature_policy="random", feature_dim=8, feature_seed=seed,
    )


def fixture_views(graph: TemporalGraph):
    """The two standard halves of the fixture timespan."""
    return [
        slice_interval(graph, graph.t_min, FIXTURE_SPLIT),
        slice_interval(graph, FIXTURE_SPLIT, graph.t_max),
    ]


def _fd_inplace(loss_fn, arr: np.ndarray, h: float) -> np.ndarray:
    """Central differences by perturbing arr in place (restored after)."""
    grad = np.zeros_like(arr)
    flat, gflat = arr.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_fn()
        flat[i] = orig - h
        lm = loss_fn()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic)
    f = np.asarray(numeric)
    denom = np.maximum(1e-6, np.maximum(np.abs(a), np.abs(f)))
    return float((np.abs(a - f) / denom).max())


def model_grad_errors(level: str = "node", seed: int = 7, h: float = 1e-5,
                      stat: str = "mean") -> dict:
    """Per-parameter worst relative gradient error on the fixture."""
    graph = fixture_graph(seed)
    views = fixture_views(graph)
    batch = shared_nodes(views)
    entries = [view_entry(view, graph.features) for view in views]
    # a small model, for a fast sweep of the training step
    cfg = TrainConfig(loss=LossConfig(level, 0.5), d_hidden=16, d_out=8, readout_stat=stat)
    params = init_params(graph.feature_dim, cfg.d_hidden, cfg.d_out, seed=seed)
    inputs = [view_inputs(entry, batch, level == "graph") for entry in entries]

    def loss_value():  # the step's forward alone on fixed inputs: no backward per difference
        pairs, _ = embed_views(inputs, params, stat=stat)
        return multi_view_loss(pairs, cfg.loss.tau)[0]

    _, analytic = contrastive_step(entries, batch, params, cfg)

    errors = {}
    for name in PARAM_FIELDS:
        numeric = _fd_inplace(loss_value, getattr(params, name), h)
        errors[name] = max_relative_error(analytic[name], numeric)
    return errors


def run_grad_check(seed: int = 7, h: float = 1e-5) -> dict:
    """Both loss levels on the fixture, the graph level under every readout
    statistic; returns per-level and worst errors.

    The four settings run as tasks of :func:`tgcl.kernels.map_tasks`; each
    setting's step and finite differences run serially inside its task.

    The graph level's ``per_param`` is each parameter's worst error over
    the statistics, and its ``per_stat`` each statistic's worst error. A
    NaN error (a difference that did not compute) makes every maximum
    above it NaN, so the check fails rather than skipping it.
    """
    if not 0.0 < h < np.inf:
        raise DataError(f"finite-difference step h must be positive and finite, got {h}")
    settings = [("node", seed, h, "mean")] + [("graph", seed, h, stat) for stat in READOUT_STATS]
    node, *graph_errors = map_tasks(model_grad_errors, settings)  # the node level reads no readout
    by_stat = dict(zip(READOUT_STATS, graph_errors))
    graph = {name: float(np.max([errors[name] for errors in by_stat.values()])) for name in node}
    report = {level: {"per_param": errors, "max": float(np.max(list(errors.values())))}
              for level, errors in (("node", node), ("graph", graph))}
    report["graph"]["per_stat"] = {stat: float(np.max(list(errors.values())))
                                   for stat, errors in by_stat.items()}
    report["worst"] = float(np.max([report["node"]["max"], report["graph"]["max"]]))
    return report
