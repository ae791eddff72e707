"""Span tracing of tgcl's public functions, installed from outside the program.

Every public function of the traced modules is wrapped, and the wrapper is
put wherever a caller looks the name up: the defining module, every tgcl
module that imported it by name (``training`` imports ``embed_views``,
``slice_interval``, ``adam_step`` and others that way) and the package
namespace. A span records its name, start, end and parent; a function's
self time is its span time minus the time of its child spans.

Each time metric sums the self times of the functions that
``TIME_METRICS`` maps to it. A wrapped function listed nowhere (``relu``,
``add_bias``, ``infonce``, ``save_params``, ...) folds its self time into
its nearest listed ancestor, so per stage the metrics plus the stage's
own remainder add up to the stage's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("graph", "sampling", "model", "kernels", "losses", "training", "evaluation")

# traced function -> the per-layer metric that sums its self time
TIME_METRICS = {
    "graph.load_temporal_graph": "graph.load_temporal_graph_s",
    "graph.build_graph": "graph.build_graph_s",
    "graph.slice_interval": "graph.slice_interval_s",
    "graph.full_view": "graph.full_view_s",
    "sampling.sample_windows": "sampling.sample_windows_s",
    "model.normalize_adjacency": "model.normalize_adjacency_s",
    "model.adj_matmul": "model.adj_matmul_s",
    "model.encode": "model.encode_s",
    "model.encode_backward": "model.encode_backward_s",
    "model.readout": "model.readout_s",
    "model.readout_backward": "model.readout_backward_s",
    "model.project": "model.project_s",
    "model.project_backward": "model.project_backward_s",
    "model.embed_views": "model.embed_views_self_s",
    "model.embed_views_backward": "model.embed_views_backward_self_s",
    "kernels.matmul": "kernels.matmul_s",
    "kernels.matmul_backward": "kernels.matmul_s",
    "kernels.segment_reduce": "kernels.segment_reduce_s",
    "kernels.segment_reduce_backward": "kernels.segment_reduce_backward_s",
    "kernels.adam_step": "kernels.adam_step_s",
    "losses.multi_view_loss": "losses.multi_view_loss_s",
    "training.train": "training.train_self_s",
    "training.shared_nodes": "training.shared_nodes_s",
    "evaluation.make_split": "evaluation.make_split_s",
    "evaluation.train_linear_probe": "evaluation.train_linear_probe_s",
    "evaluation.evaluate": "evaluation.evaluate_s",
}

# per-layer metric -> the traced function whose calls it counts
COUNT_METRICS = {
    "graph.slice_interval_calls": "graph.slice_interval",
    "sampling.sample_windows_calls": "sampling.sample_windows",
    "model.normalize_adjacency_calls": "model.normalize_adjacency",
    "model.adj_matmul_calls": "model.adj_matmul",
    "losses.infonce_calls": "losses.infonce",
}

# sum over model.adj_matmul calls of the adjacency's nonzeros times the
# columns of the dense operand
NNZ_COLS = "model.adj_matmul_nnz_cols"

TIME_NAMES = tuple(dict.fromkeys(TIME_METRICS.values()))
PER_LAYER = (*TIME_NAMES, *COUNT_METRICS, NNZ_COLS)


class Tracer:
    """In-memory span recorder; ``install`` wraps tgcl in place."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, work]
        self._stack = []

    def _open(self, name: str, work: float) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, work]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one stage."""
        rec = self._open(name, 0.0)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        is_adj_matmul = name == "model.adj_matmul"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = 0.0
            if is_adj_matmul:  # adj_matmul(adj, x)
                adj, x = args[0], args[1]
                work = float(adj.vals.size) * (x.shape[1] if x.ndim == 2 else 1)
            rec = self._open(name, work)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of LAYERS wherever tgcl looks them up."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        prefix = package.__name__ + "."
        namespaces = [package] + [
            mod for name, mod in sys.modules.items() if name.startswith(prefix) and mod is not None
        ]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(ns, attr, wrappers[val])

    def aggregate(self) -> dict:
        """Per root span (stage): wall time, self time per metric, counts, work."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        root = [0] * len(spans)
        owner = [""] * len(spans)
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, work) in enumerate(spans):
            # parents are recorded before their children
            root[i] = i if parent < 0 else root[parent]
            owner[i] = TIME_METRICS.get(name) or (owner[parent] if parent >= 0 else "")
            stage = out[spans[root[i]][0]]
            if parent < 0:
                stage["wall_s"] += end - start
            key = owner[i] or "remainder_s"
            stage[key] += (end - start) - child_time[i]
            stage[f"calls:{name}"] += 1
            if work:
                stage[NNZ_COLS] += work
        return {stage: dict(vals) for stage, vals in out.items()}


def per_layer(stage_aggregates: dict, repeats: dict) -> dict:
    """Per-layer metrics for one pipeline pass: each stage's totals divided
    by the number of times the round repeated that stage."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    for stage, agg in stage_aggregates.items():
        r = repeats[stage]
        for metric in (*TIME_NAMES, NNZ_COLS):
            values[metric] += agg.get(metric, 0.0) / r
        for metric, fn in COUNT_METRICS.items():
            values[metric] += agg.get(f"calls:{fn}", 0.0) / r
    return values
