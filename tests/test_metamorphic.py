"""Metamorphic properties of a whole training run.

Each relation rewrites the input files without changing the temporal graph
that tgcl reads from them: the same nodes in the same order, the same
features and the same set of (pair, time) events. Under each, a run writes
the same ``train_log.csv`` and ``params.ckpt`` and ``embed_all`` returns the
same bytes:
  (a) the edge lines shuffled;
  (b) every node id mapped to 3·id + 11, in every file;
  (c) src and dst swapped on every line;
  (d) every seventh edge line appended again.
Timestamps are small integers, so many edges tie.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tgcl
from tgcl import (
    DataError,
    LossConfig,
    SamplerConfig,
    TrainConfig,
    embed_all,
    load_temporal_graph,
    train,
)
from tgcl.sampling import STRATEGIES

SETTINGS = [("node", "mean"), ("graph", "mean"), ("graph", "sum"), ("graph", "max")]


def _shuffled(edges, features, perm):
    return [edges[i] for i in perm], features


def _ids_mapped(edges, features, perm):
    def f(i):
        return 3 * i + 11

    return ([(f(u), f(v), t) for u, v, t in edges],
            None if features is None else [(f(i), row) for i, row in features])


def _swapped(edges, features, perm):
    return [(v, u, t) for u, v, t in edges], features


def _seventh_again(edges, features, perm):
    return edges + edges[6::7], features


RELATIONS = {"shuffled": _shuffled, "ids mapped": _ids_mapped, "swapped": _swapped,
             "every seventh again": _seventh_again}


@st.composite
def _inputs(draw):
    """(edges, features, permutation): edges are (src, dst, time) with
    integer times; features are (id, row) rows that may name isolated
    nodes, or None for synthesized ones."""
    n = draw(st.integers(3, 10))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 4))
    edges = draw(st.lists(ends, min_size=8, max_size=30)
                 .filter(lambda e: len({t for *_, t in e}) > 1))  # a timespan to sample
    features = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        ids = sorted({u for u, v, _ in edges} | {v for u, v, _ in edges}
                     | set(draw(st.lists(st.integers(n, n + 3), max_size=2))))
        features = [(i, rng.standard_normal(3).tolist()) for i in ids]
    return edges, features, draw(st.permutations(range(len(edges))))


def _write(directory, edges, features):
    (directory / "edges.csv").write_text("".join(f"{u},{v},{t}\n" for u, v, t in edges))
    if features is None:
        return None
    path = directory / "features.csv"
    path.write_text("".join(f"{i}," + ",".join(map(repr, row)) + "\n" for i, row in features))
    return path


def _run(directory, edges, features, policy, strategy, level, stat):
    """The run's train_log.csv, params.ckpt and embed_all bytes, or the
    message of the DataError it stops with."""
    features_path = _write(directory, edges, features)
    graph = load_temporal_graph(directory / "edges.csv", features_path=features_path,
                                feature_policy=policy, feature_dim=4)
    ckpt = directory / "params.ckpt"
    cfg = TrainConfig(sampler=SamplerConfig(strategy, 4, 3), loss=LossConfig(level, 0.5),
                      epochs=3, batch_size=6, d_hidden=8, d_out=4, seed=0, readout_stat=stat,
                      checkpoint_path=str(ckpt))
    try:
        params, log = train(graph, cfg)
    except DataError as exc:  # the same inputs must stop the same way
        return str(exc)
    return "".join(log.csv_lines()), ckpt.read_bytes(), embed_all(graph, params).tobytes()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("level, stat", SETTINGS)
@settings(deadline=None, derandomize=True, max_examples=6)
@given(inputs=_inputs(), policy=st.sampled_from(["degree-buckets", "random"]))
def test_a_run_does_not_see_how_its_files_are_written(strategy, level, stat, inputs, policy):
    edges, features, perm = inputs
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        want = _run(directory, edges, features, policy, strategy, level, stat)
        for name, relation in RELATIONS.items():
            got = _run(directory, *relation(edges, features, perm), policy, strategy, level, stat)
            assert got == want, name


def _cli_outputs(directory, names):
    """train and embed through the CLI, in one child process, for the edge
    files under ``directory``/<name>/; returns each one's three files."""
    script = ("import sys\nfrom tgcl.cli import dispatch\n"
              "for d in sys.argv[1:]:\n"
              "    for argv in (['train', '--edges', d + '/edges.csv', '--out', d + '/run',\n"
              "                  '--strategy', 'random', '--s', '4', '--v', '3', '--level', 'graph',\n"
              "                  '--readout', 'sum', '--epochs', '4', '--batch-size', '6',\n"
              "                  '--d-hidden', '8', '--d-out', '4', '--feature-dim', '4'],\n"
              "                 ['embed', '--edges', d + '/edges.csv', '--ckpt',\n"
              "                  d + '/run/params.ckpt', '--out', d + '/run/emb.csv']):\n"
              "        assert dispatch(argv) == 0, argv\n")
    src = str(Path(tgcl.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *(str(directory / n) for n in names)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return {n: [(directory / n / "run" / f).read_bytes()
                for f in ("train_log.csv", "params.ckpt", "emb.csv")] for n in names}


def test_the_cli_does_not_see_how_its_files_are_written(tmp_path):
    rng = np.random.default_rng(5)
    edges = [(int(u), int(v), int(t)) for u, v, t in zip(
        rng.integers(0, 12, 40), rng.integers(0, 12, 40), rng.integers(0, 5, 40))]
    perm = rng.permutation(len(edges)).tolist()
    inputs = {"original": edges}
    for name, relation in RELATIONS.items():
        inputs[name] = relation(edges, None, perm)[0]
    for name, rows in inputs.items():
        (tmp_path / name).mkdir()
        _write(tmp_path / name, rows, None)
    out = _cli_outputs(tmp_path, list(inputs))
    log, ckpt, emb = out.pop("original")
    for name, (got_log, got_ckpt, got_emb) in out.items():
        assert (got_log, got_ckpt) == (log, ckpt), name
        if name == "ids mapped":  # the embeddings file names each node by its id
            lines = []
            for line in got_emb.decode().splitlines(keepends=True):
                i, rest = line.split(",", 1)
                lines.append(f"{(int(i) - 11) // 3},{rest}")
            got_emb = "".join(lines).encode()
        assert got_emb == emb, name
