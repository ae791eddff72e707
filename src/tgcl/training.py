"""Epoch loop: sample timespan views, embed the shared-node minibatch,
minimize the contrastive objective with Adam.

All randomness derives from TrainConfig.seed: window sampling uses the
stream (seed, epoch) inside the sampler and minibatch selection uses
(seed, epoch, 101), so two runs with the same config and inputs produce
bit-identical loss sequences and checkpoints in 64-bit mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError
from .graph import TemporalGraph, csv_text, full_view, slice_interval
from .kernels import AdamState, adam_step
from .losses import LossConfig, multi_view_loss
from .model import (
    ModelParams,
    READOUT_STATS,
    embed_views,
    embed_views_backward,
    encode,
    init_params,
    receptive_field,
    save_params,
    view_entry,
    view_inputs,
)
from .sampling import SamplerConfig, sample_windows


@dataclass(frozen=True)
class TrainConfig:
    sampler: SamplerConfig = SamplerConfig()
    loss: LossConfig = LossConfig()
    d_hidden: int = 128
    d_out: int = 64
    lr: float = 4e-3
    weight_decay: float = 5e-4
    batch_size: int = 256
    epochs: int = 100
    seed: int = 0
    readout_stat: str = "mean"
    checkpoint_path: str | None = None
    checkpoint_every: int = 0  # 0: only after the final epoch
    batches_per_epoch: int = 1

    def validate(self) -> "TrainConfig":
        self.sampler.validate()
        self.loss.validate()
        if not 0 < self.lr < math.inf:
            raise DataError(f"learning rate must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise DataError(f"weight decay must be non-negative and finite, got {self.weight_decay}")
        if self.d_hidden < 1 or self.d_out < 1:
            raise DataError(f"layer widths must be at least 1, got d_hidden {self.d_hidden} "
                            f"and d_out {self.d_out}")
        if self.batch_size < 2:
            raise DataError(f"batch size must be at least 2 for contrast, got {self.batch_size}")
        if self.epochs < 1:
            raise DataError(f"epochs must be at least 1, got {self.epochs}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if self.checkpoint_every < 0:
            raise DataError(f"checkpoint_every must be non-negative, got {self.checkpoint_every}")
        if self.batches_per_epoch < 1:
            raise DataError(f"batches_per_epoch must be at least 1, got {self.batches_per_epoch}")
        if self.readout_stat not in READOUT_STATS:
            raise DataError(
                f"unknown readout stat {self.readout_stat!r}; expected one of {READOUT_STATS}")
        return self


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    shared: int
    windows: tuple


@dataclass
class TrainLog:
    records: list = field(default_factory=list)

    def loss_values(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def csv_lines(self):
        """Deterministic CSV serialization: identical runs produce
        identical bytes."""
        v = len(self.records[0].windows) if self.records else 0
        cols = ["epoch", "loss", "shared"]
        cols += [f"{end}{i}" for i in range(1, v + 1) for end in ("lo", "hi")]
        body = csv_text((int(r.epoch), float(r.loss), int(r.shared),
                         *(float(x) for w in r.windows for x in (w.lo, w.hi))) for r in self.records)
        return [",".join(cols) + "\n", *body.splitlines(keepends=True)]


def shared_nodes(views) -> np.ndarray:
    """Intersection of the views' active node sets (internal ids, sorted)."""
    if len(views) < 2:
        raise ValueError(f"need at least 2 views, got {len(views)}")
    shared = views[0].active
    for view in views[1:]:
        shared = np.intersect1d(shared, view.active, assume_unique=True)
    return shared


def make_minibatch(shared: np.ndarray, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement sample of up to batch_size shared nodes."""
    if shared.size == 0:
        raise DataError(
            "no shared nodes across sampled views; lower s or change the sampling strategy")
    if shared.size <= batch_size:
        return shared.copy()
    return rng.choice(shared, size=batch_size, replace=False)


def contrastive_step(entries, batch: np.ndarray, params: ModelParams, cfg: TrainConfig):
    """Embed the views of ``entries`` (ViewEntry objects) with ``params``, take
    the InfoNCE objective of ``cfg.loss`` and ``cfg.readout_stat`` over the
    ``batch`` nodes and backpropagate it. Returns (loss, grads). A non-finite
    loss raises NumericError ahead of the backward, which cannot run on it.
    The views, the loss pairs and the views' backwards run on the CPUs' task
    pool and are summed in the serial order, so no byte depends on the CPUs."""
    inputs = [view_inputs(entry, batch, cfg.loss.level == "graph") for entry in entries]
    with np.errstate(over="ignore", invalid="ignore"):  # the step's own checks report
        pairs, caches = embed_views(inputs, params, stat=cfg.readout_stat)
        loss, zgrads = multi_view_loss(pairs, cfg.loss.tau)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss {loss}")
        return loss, embed_views_backward(zgrads, caches, params)


def train(graph: TemporalGraph, cfg: TrainConfig):
    """Run the contrastive training loop. Returns (params, log).

    Per epoch: sample v windows, slice views, intersect active sets, draw
    the minibatch, take a :func:`contrastive_step`, Adam step. A window drawn
    again while it is among the s windows drawn most recently (an LRU cache)
    reuses its view and adjacency. A checkpoint is written to
    cfg.checkpoint_path after the final epoch (and every checkpoint_every
    epochs when set); non-finite weights raise NumericError instead.
    """
    cfg.validate()
    params = init_params(graph.feature_dim, cfg.d_hidden, cfg.d_out, seed=cfg.seed)
    state = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    log = TrainLog()
    entry_of = functools.lru_cache(maxsize=cfg.sampler.s)(  # (lo, hi) -> ViewEntry
        lambda lo, hi: view_entry(slice_interval(graph, lo, hi), graph.features))
    drawn = []

    for epoch in range(1, cfg.epochs + 1):
        windows = sample_windows(graph, cfg.sampler, epoch, cfg.seed)
        drawn.clear()  # so a view the cache let go is freed before new ones are sliced
        drawn.extend(entry_of(w.lo, w.hi) for w in windows)
        shared = shared_nodes([entry.view for entry in drawn])
        batch_rng = np.random.default_rng([cfg.seed, epoch, 101])

        epoch_loss = 0.0
        for _ in range(cfg.batches_per_epoch):
            batch = make_minibatch(shared, cfg.batch_size, batch_rng)
            try:
                loss, grads = contrastive_step(drawn, batch, params, cfg)
                with np.errstate(over="ignore", invalid="ignore"):  # tgcl's later checks report
                    adam_step(params.as_dict(), grads, state)
            except NumericError as exc:
                spans = "; ".join(f"[{w.lo:.6g}, {w.hi:.6g}]" for w in windows)
                raise NumericError(f"{exc} at epoch {epoch}; windows {spans}") from exc
            epoch_loss += loss
        epoch_loss /= cfg.batches_per_epoch

        log.records.append(EpochRecord(
            epoch=epoch,
            loss=float(epoch_loss),
            shared=int(shared.size),
            windows=tuple(windows),
        ))
        if cfg.checkpoint_path and cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
            save_params(cfg.checkpoint_path, params, meta=_checkpoint_meta(cfg, graph, epoch))

    if cfg.checkpoint_path:
        save_params(cfg.checkpoint_path, params, meta=_checkpoint_meta(cfg, graph, cfg.epochs))
    return params, log


def _checkpoint_meta(cfg: TrainConfig, graph: TemporalGraph, epoch: int) -> dict:
    """Run settings for the checkpoint header. The graph's feature record
    goes in too, so that `embed` can rebuild synthesized features."""
    meta = {
        "epoch": epoch,
        "level": cfg.loss.level,
        "tau": cfg.loss.tau,
        "strategy": cfg.sampler.strategy,
        "s": cfg.sampler.s,
        "v": cfg.sampler.v,
        "seed": cfg.seed,
        "readout_stat": cfg.readout_stat,
    }
    for key, value in (graph.feature_spec or {}).items():
        meta[f"feature_{key}"] = value
    return meta


def embed_all(graph: TemporalGraph, params: ModelParams) -> np.ndarray:
    """Frozen-encoder representations for every node.

    Encodes the whole timespan as a single view and returns the
    pre-projection hidden matrix, one row per node in graph.node_ids
    order. Isolated nodes see only their self-loop. Weights that overflow
    the encoder raise NumericError.
    """
    rows = np.ones(graph.num_nodes, dtype=bool)  # the view goes before the encoder runs
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        h, _ = encode(receptive_field(view_entry(full_view(graph), graph.features), rows), params)
    if not np.isfinite(h).all():
        raise NumericError("non-finite embeddings: the weights overflow the encoder on this graph")
    return h
