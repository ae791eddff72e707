"""Finite-difference verification of the analytic gradients.

Builds a fixed 12-node two-view fixture, runs the full embed-and-contrast
pipeline at both loss levels, and compares every parameter gradient
against central differences. Relative error uses
|a - f| / max(1e-6, |a|, |f|) per component, worst case over all entries.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .graph import TemporalGraph, build_graph, slice_interval
from .losses import multi_view_loss
from .model import PARAM_FIELDS, embed_views, embed_views_backward, init_params, view_entry
from .training import shared_nodes

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
                      tau: float = 0.5, d_hidden: int = 16, d_out: int = 8,
                      stat: str = "mean") -> dict:
    """Per-parameter worst relative gradient error on the fixture.

    Small hidden dims keep the parameter sweep fast while exercising the
    identical code path as full-size training.
    """
    graph = fixture_graph(seed)
    views = fixture_views(graph)
    batch = shared_nodes(views)
    entries = [view_entry(view) for view in views]
    params = init_params(graph.feature_dim, d_hidden, d_out, seed=seed)
    with_neigh = level == "graph"

    def loss_value():
        pairs, _ = embed_views(entries, batch, params, stat=stat, with_neighborhood=with_neigh)
        return multi_view_loss(pairs, tau)[0]

    pairs, caches = embed_views(entries, batch, params, stat=stat, with_neighborhood=with_neigh)
    _, zgrads = multi_view_loss(pairs, tau)
    analytic = embed_views_backward(zgrads, caches, params)

    errors = {}
    for name in PARAM_FIELDS:
        numeric = _fd_inplace(loss_value, getattr(params, name), h)
        errors[name] = max_relative_error(analytic[name], numeric)
    return errors


def run_grad_check(seed: int = 7, h: float = 1e-5) -> dict:
    """Both loss levels on the fixture; returns per-level and worst errors.

    A NaN error (a difference that did not compute) makes every maximum
    above it NaN, so the check fails rather than skipping it.
    """
    if not 0.0 < h < np.inf:
        raise DataError(f"finite-difference step h must be positive and finite, got {h}")
    report = {}
    for level in ("node", "graph"):
        errors = model_grad_errors(level=level, seed=seed, h=h)
        report[level] = {"per_param": errors, "max": float(np.max(list(errors.values())))}
    report["worst"] = float(np.max([report[level]["max"] for level in ("node", "graph")]))
    return report
