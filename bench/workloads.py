"""Workload definitions and the benchmark's own input generator.

The generator plants balanced communities in a temporal edge list and
writes it in tgcl's documented CSV formats, so tgcl receives only files
and a change to ``tgcl.evaluation.generate_synthetic`` never changes the
benchmark's inputs. Every input is a pure function of (workload, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    events: int
    communities: int
    ratio: float  # per-candidate weight of a same-community partner over another one
    timespan: float
    feature_dim: int
    strategy: str
    s: int
    v: int
    level: str
    epochs: int
    # times each short stage runs per round (train runs once); every run is
    # timed and the median over all rounds reported, so a short stage gets
    # enough samples
    ingest_repeats: int = 1
    embed_repeats: int = 1
    eval_repeats: int = 1

    def repeats(self) -> dict:
        return {"ingest": self.ingest_repeats, "train": 1,
                "embed": self.embed_repeats, "linear_eval": self.eval_repeats}


# tgcl's own seeds (training, split) stay fixed: the workload seed changes
# the input files only
TGCL_SEED = 0
# seed of each workload's planted communities and features (see
# planted_communities)
STRUCTURE_SEED = 2024
# training settings shared by every workload
BATCH_SIZE = 256
TAU = 0.5
READOUT_STAT = "mean"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="node-seq-10k", nodes=10_000, events=200_000, communities=8, ratio=100.0,
            timespan=1000.0, feature_dim=64,
            strategy="sequential", s=4, v=2, level="node", epochs=4,
            ingest_repeats=3, embed_repeats=1, eval_repeats=8,
        ),
        Workload(
            name="graph-rand-400", nodes=400, events=8_000, communities=4, ratio=5.0,
            timespan=20.0, feature_dim=64,
            strategy="random", s=4, v=3, level="graph", epochs=30,
            ingest_repeats=10, embed_repeats=10, eval_repeats=20,
        ),
    )
}

# A tiny workload on the same code path, for the benchmark's own tests.
SMOKE = Workload(
    name="smoke", nodes=120, events=1_500, communities=3, ratio=10.0,
    timespan=10.0, feature_dim=8,
    strategy="sequential", s=4, v=2, level="graph", epochs=8,
    ingest_repeats=2, embed_repeats=2, eval_repeats=2,
)


def workload(name: str) -> Workload:
    if name == SMOKE.name:
        return SMOKE
    return WORKLOADS[name]


@dataclass(frozen=True)
class Inputs:
    """The generated graph, in the benchmark's own arrays (external ids)."""

    node_ids: np.ndarray  # sorted external ids; index i is tgcl's internal index i
    src: np.ndarray  # external ids
    dst: np.ndarray
    timestamps: np.ndarray
    labels: np.ndarray  # planted community per node, aligned with node_ids
    features: np.ndarray  # random unit rows, aligned with node_ids


def planted_communities(w: Workload, seed: int) -> Inputs:
    """Balanced planted-community temporal graph.

    Each event picks a uniform source and a partner: a same-community node
    with per-candidate weight ``ratio``, any other node with weight 1.
    Timestamps are uniform on [0, timespan) and events stay in draw order,
    so the edges file is not sorted by time. A node no event touched gets
    one edge to a member of its own community, so every node is an
    endpoint. External ids are a sorted random sample of [0, 8n), which
    exercises tgcl's id remapping. Features are random unit rows.

    The seed draws the events and the ids. The planted structure (each
    node's community and features) is drawn from a fixed seed: how well
    random features separate the communities varies from draw to draw, and
    it moved the probe's accuracy by 0.02-0.04 between seeds.
    """
    n, k, e = w.nodes, w.communities, w.events
    if n % k:
        raise ValueError(f"{w.name}: nodes {n} is not a multiple of communities {k}")
    structure = np.random.default_rng([STRUCTURE_SEED, n, k])
    comm = structure.permutation(np.arange(n, dtype=np.int64) % k)
    features = structure.standard_normal((n, w.feature_dim))
    features /= np.linalg.norm(features, axis=1, keepdims=True)
    rng = np.random.default_rng([seed, 2024])
    members = np.stack([np.flatnonzero(comm == c) for c in range(k)])  # (k, n/k), sorted
    m = n // k
    rank = np.empty(n, dtype=np.int64)
    rank[members.ravel()] = np.tile(np.arange(m), k)

    p_intra = w.ratio * (m - 1) / (w.ratio * (m - 1) + (n - m))
    src = rng.integers(0, n, size=e)
    intra = rng.random(e) < p_intra
    j = rng.integers(0, m - 1, size=e)
    j = j + (j >= rank[src])  # skip the source itself
    other = (comm[src] + rng.integers(1, k, size=e)) % k
    dst = np.where(intra, members[comm[src], j], members[other, rng.integers(0, m, size=e)])
    ts = rng.uniform(0.0, w.timespan, size=e)

    seen = np.zeros(n, dtype=bool)
    seen[src] = seen[dst] = True
    lonely = np.flatnonzero(~seen)
    if lonely.size:
        j = rng.integers(0, m - 1, size=lonely.size)
        j = j + (j >= rank[lonely])
        src = np.concatenate([src, lonely])
        dst = np.concatenate([dst, members[comm[lonely], j]])
        ts = np.concatenate([ts, rng.uniform(0.0, w.timespan, size=lonely.size)])

    ids = np.sort(rng.choice(8 * n, size=n, replace=False)).astype(np.int64)
    return Inputs(node_ids=ids, src=ids[src], dst=ids[dst], timestamps=ts,
                  labels=comm, features=features)


def input_paths(directory: Path) -> dict:
    return {name: directory / f"{name}.csv" for name in ("edges", "labels", "features")}


def write_inputs(inputs: Inputs, directory: Path) -> dict:
    """Write the edges, labels and features CSV files."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = input_paths(directory)
    with paths["edges"].open("w", encoding="utf-8") as fh:
        fh.write("# src,dst,timestamp\n")
        fh.writelines(
            f"{u},{v},{t!r}\n"
            for u, v, t in zip(inputs.src.tolist(), inputs.dst.tolist(), inputs.timestamps.tolist())
        )
    with paths["labels"].open("w", encoding="utf-8") as fh:
        fh.writelines(f"{i},{c}\n" for i, c in zip(inputs.node_ids.tolist(), inputs.labels.tolist()))
    with paths["features"].open("w", encoding="utf-8") as fh:
        fh.writelines(
            f"{i}," + ",".join(map(repr, row)) + "\n"
            for i, row in zip(inputs.node_ids.tolist(), inputs.features.tolist())
        )
    return paths
