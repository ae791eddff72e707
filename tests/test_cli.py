import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tgcl
from tgcl import (
    DataError,
    InvarianceConfig,
    InvarianceResult,
    LossConfig,
    SamplerConfig,
    TrainConfig,
    __version__,
    embed_all,
    generate_synthetic,
    load_params,
    load_temporal_graph,
    make_split,
    probe_invariance,
    run_grad_check,
    sample_windows,
    save_params,
    train,
    train_linear_probe,
)
from tgcl import cli
from tgcl.cli import dispatch
from tgcl.model import PARAM_FIELDS


def _synth(tmp_path, **over):
    args = dict(k=3, n=45, T="6.0", events=400, seed=0)
    args.update(over)
    prefix = tmp_path / "toy"
    code = dispatch([
        "synth", "--k", str(args["k"]), "--n", str(args["n"]), "--T", str(args["T"]),
        "--events", str(args["events"]), "--ratio-in-out", "8.0",
        "--seed", str(args["seed"]), "--out-prefix", str(prefix),
    ])
    assert code == 0
    return prefix.with_name("toy.edges.csv"), prefix.with_name("toy.labels.csv")


def _features_file(path, n, dim):
    rng = np.random.default_rng(dim)
    path.write_text("".join(f"{i}," + ",".join(repr(float(x)) for x in rng.standard_normal(dim))
                            + "\n" for i in range(n)), encoding="utf-8")
    return path


def _read_embeddings(path):
    rows = [line.split(",") for line in path.read_text().strip().splitlines()]
    return [int(r[0]) for r in rows], np.array([[float(x) for x in r[1:]] for r in rows])


def _train(tmp_path, edges, extra=()):
    out = tmp_path / "run"
    code = dispatch([
        "train", "--edges", str(edges), "--out", str(out),
        "--epochs", "3", "--d-hidden", "8", "--d-out", "4", "--batch-size", "16",
        "--s", "3", "--strategy", "random",
        "--feature-policy", "random", "--feature-dim", "8",
        *extra,
    ])
    assert code == 0
    return out


def test_no_args_usage(capsys):
    assert dispatch([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_and_version(capsys):
    assert dispatch(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out
    assert dispatch(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_unknown_subcommand(capsys):
    assert dispatch(["frobnicate"]) == 1
    assert "unknown subcommand" in capsys.readouterr().err


def test_missing_required_flag(capsys):
    assert dispatch(["sample-views"]) == 1
    assert "--edges is required" in capsys.readouterr().err


def test_bad_flag_value(capsys):
    assert dispatch(["sample-views", "--edges", "x", "--s", "four"]) == 1
    capsys.readouterr()


def test_missing_edges_file_is_data_error(capsys):
    assert dispatch(["sample-views", "--edges", "/nonexistent/e.csv"]) == 2
    capsys.readouterr()


def test_sample_views_stdout(tmp_path, capsys):
    edges, _ = _synth(tmp_path)
    capsys.readouterr()
    code = dispatch(["sample-views", "--edges", str(edges), "--strategy", "high_overlap",
                     "--s", "4", "--v", "2", "--seed", "1", "--epochs", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        epoch, index, lo, hi = line.split(",")
        assert int(epoch) in (1, 2) and int(index) in (0, 1)
        # full precision: the window length survives the text round trip
        assert float(hi) - float(lo) == pytest.approx(
            (float(lines[0].split(",")[3]) - float(lines[0].split(",")[2])), abs=0.0)


def test_sample_views_out_file(tmp_path, capsys):
    edges, _ = _synth(tmp_path)
    out = tmp_path / "w" / "windows.csv"
    code = dispatch(["sample-views", "--edges", str(edges), "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    assert len(out.read_text().strip().splitlines()) == 2
    resolved = (out.parent / "config.sample-views.resolved").read_text()
    assert "command=sample-views\n" in resolved
    assert f"version={__version__}\n" in resolved
    assert "strategy=sequential\n" in resolved


def test_sample_views_writes_the_former_f_string_bytes(tmp_path, capsys):
    edges, _ = _synth(tmp_path)
    graph = load_temporal_graph(edges)
    cfg = SamplerConfig("random", 4, 3)
    expected = "".join(f"{epoch},{index},{float(w.lo)!r},{float(w.hi)!r}\n"
                       for epoch in (1, 2, 3)
                       for index, w in enumerate(sample_windows(graph, cfg, epoch, 5)))
    args = ["sample-views", "--edges", str(edges), "--strategy", "random", "--s", "4",
            "--v", "3", "--epochs", "3", "--seed", "5"]
    capsys.readouterr()
    assert dispatch(args) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "w" / "windows.csv"
    assert dispatch([*args, "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("epochs", ["0", "-2"])
def test_sample_views_rejects_fewer_than_one_epoch(tmp_path, capsys, epochs):
    edges, _ = _synth(tmp_path)
    capsys.readouterr()
    out = tmp_path / "w" / "windows.csv"
    assert dispatch(["sample-views", "--edges", str(edges), "--epochs", epochs,
                     "--out", str(out)]) == 2
    assert "epochs must be at least 1" in capsys.readouterr().err
    assert not out.parent.exists()


def test_sample_views_deterministic(tmp_path, capsys):
    edges, _ = _synth(tmp_path)
    capsys.readouterr()
    args = ["sample-views", "--edges", str(edges), "--strategy", "random",
            "--epochs", "3", "--seed", "5"]
    assert dispatch(args) == 0
    first = capsys.readouterr().out
    assert dispatch(args) == 0
    assert capsys.readouterr().out == first


def test_synth_outputs(tmp_path, capsys):
    edges, labels = _synth(tmp_path)
    capsys.readouterr()
    edge_lines = edges.read_text().strip().splitlines()
    assert len(edge_lines) >= 400
    u, v, t = edge_lines[0].split(",")
    int(u), int(v), float(t)
    label_lines = labels.read_text().strip().splitlines()
    assert len(label_lines) == 45
    assert {int(l.split(",")[1]) for l in label_lines} == {0, 1, 2}


def test_synth_writes_the_former_f_string_bytes(tmp_path, capsys):
    edges, labels = _synth(tmp_path)
    capsys.readouterr()
    g = generate_synthetic(k=3, n=45, T=6.0, p_in=8.0, p_out=1.0, events=400, seed=0)
    ext_src, ext_dst = g.node_ids[g.src], g.node_ids[g.dst]
    assert edges.read_bytes() == "".join(
        f"{u},{v},{float(t)!r}\n" for u, v, t in zip(ext_src, ext_dst, g.timestamps)).encode()
    assert labels.read_bytes() == "".join(
        f"{nid},{lab}\n" for nid, lab in zip(g.node_ids, g.labels) if lab >= 0).encode()


@pytest.mark.parametrize("flag,value,match", [
    ("--ratio-in-out", "inf", "need p_in > p_out >= 0, both finite"),
    ("--T", "inf", "timespan must be positive and finite"),
    # 2e307 * 14 same-community candidates is inf: the generator wrote a graph
    # with no same-community edge and exited 0
    ("--ratio-in-out", "2e307", "total partner weight overflows"),
])
def test_synth_rejects_infinite_inputs(tmp_path, capsys, flag, value, match):
    prefix = tmp_path / "toy"
    args = {"--k": "3", "--n": "45", "--T": "6.0", "--events": "400", "--ratio-in-out": "8.0",
            "--out-prefix": str(prefix), flag: value}
    assert dispatch(["synth", *(part for item in args.items() for part in item)]) == 2
    assert match in capsys.readouterr().err
    assert not prefix.with_name("toy.edges.csv").exists()


def test_synth_deterministic(tmp_path, capsys):
    e1, l1 = _synth(tmp_path / "a")
    e2, l2 = _synth(tmp_path / "b")
    capsys.readouterr()
    assert e1.read_bytes() == e2.read_bytes()
    assert l1.read_bytes() == l2.read_bytes()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    edges, _ = _synth(tmp_path)
    conf = tmp_path / "run.conf"
    conf.write_text(f"edges={edges}\n# comment\ns=5\nv=3\n", encoding="utf-8")
    out = tmp_path / "w" / "windows.csv"
    code = dispatch(["sample-views", "--config", str(conf), "--v", "2",
                     "--strategy", "random", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    # v=2 from the flag wins over v=3 from the file; s=5 from the file holds
    assert len(out.read_text().strip().splitlines()) == 2
    resolved = (out.parent / "config.sample-views.resolved").read_text()
    assert "s=5\n" in resolved and "v=2\n" in resolved


def test_config_file_unknown_key(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("wibble=1\n", encoding="utf-8")
    assert dispatch(["sample-views", "--config", str(conf)]) == 2
    assert "unknown option" in capsys.readouterr().err


def test_config_file_malformed_line(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    # only whole lines are comments, as in every table
    for text, message in (("just words\n", "key=value"),
                          ("v=3  # comment\n", f"{conf}:1: bad value for v")):
        conf.write_text(text, encoding="utf-8")
        assert dispatch(["sample-views", "--config", str(conf)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command,key", [
    ("sample-views", "strategy"), ("train", "strategy"), ("train", "level"), ("train", "readout"),
    ("train", "feature-policy"), ("probe-invariance", "encoder"),
    ("probe-invariance", "feature-policy"),
])
def test_config_file_rejects_a_value_outside_the_choices(tmp_path, capsys, command, key):
    # with a features file, a train run never read its feature policy, so
    # feature-policy=bogus was echoed into config.resolved and the run exited 0
    edges, labels = _synth(tmp_path)
    features = _features_file(tmp_path / "f.csv", 45, 4)
    conf = tmp_path / "c.conf"
    conf.write_text(f"edges={edges}\n{key}=bogus\n", encoding="utf-8")
    out = tmp_path / "out"
    args = {"sample-views": [],
            "train": ["--features", str(features), "--out", str(out), "--epochs", "1"],
            "probe-invariance": ["--labels", str(labels), "--s", "2", "--out", str(out / "m.csv")]}
    capsys.readouterr()
    assert dispatch([command, "--config", str(conf), *args[command]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{conf}:2: bad value for {key}: 'bogus' is not one of" in captured.err
    assert not out.exists()


def test_config_file_repeated_key(tmp_path, capsys):
    # as in every per-node table, a second row for the same key is an error,
    # not a silent override of the first
    edges, _ = _synth(tmp_path)
    conf = tmp_path / "c.conf"
    conf.write_text(f"edges={edges}\nv=2\n\nv=3\n", encoding="utf-8")
    capsys.readouterr()
    assert dispatch(["sample-views", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{conf}:4: option 'v' is set twice" in captured.err


def test_train_artifacts(tmp_path, capsys):
    edges, _ = _synth(tmp_path)
    out = _train(tmp_path, edges)
    capsys.readouterr()
    assert (out / "params.ckpt").exists()
    log_lines = (out / "train_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,loss,shared,lo1,hi1,lo2,hi2"
    assert len(log_lines) == 4
    resolved = (out / "config.resolved").read_text()
    assert "command=train\n" in resolved
    assert "level=node\n" in resolved and "tau=0.5\n" in resolved


def test_train_reruns_from_its_config_resolved(tmp_path, capsys):
    edges, labels = _synth(tmp_path)
    feats = _features_file(tmp_path / "feats.csv", 45, 8)
    first = _train(tmp_path / "a", edges, extra=("--labels", str(labels), "--features", str(feats)))
    second = tmp_path / "b"
    assert dispatch(["train", "--config", str(first / "config.resolved"), "--out", str(second)]) == 0
    capsys.readouterr()
    assert (first / "train_log.csv").read_bytes() == (second / "train_log.csv").read_bytes()
    assert (first / "params.ckpt").read_bytes() == (second / "params.ckpt").read_bytes()
    # and without the optional files, which the file then leaves out
    third = _train(tmp_path / "c", edges)
    assert "features=" not in (third / "config.resolved").read_text()
    fourth = tmp_path / "d"
    assert dispatch(["train", "--config", str(third / "config.resolved"), "--out", str(fourth)]) == 0
    capsys.readouterr()
    assert (third / "params.ckpt").read_bytes() == (fourth / "params.ckpt").read_bytes()


def test_later_subcommands_leave_the_training_settings_in_config_resolved(tmp_path, capsys):
    # the README walkthrough's steps 3-5 in one directory, then step 3 again
    # from the file they leave: train's settings, so the rerun repeats the run
    edges, labels = _synth(tmp_path)
    run = _train(tmp_path, edges)
    assert dispatch(["embed", "--edges", str(edges), "--ckpt", str(run / "params.ckpt"),
                     "--out", str(run / "emb.csv")]) == 0
    assert dispatch(["linear-eval", "--embeddings", str(run / "emb.csv"), "--labels", str(labels),
                     "--out", str(run / "report.json")]) == 0
    again = tmp_path / "again"
    assert dispatch(["train", "--config", str(run / "config.resolved"), "--out", str(again)]) == 0
    capsys.readouterr()
    for name in ("train_log.csv", "params.ckpt"):
        assert (run / name).read_bytes() == (again / name).read_bytes(), name
    for command in ("embed", "linear-eval"):
        assert f"# command={command}\n" in (run / f"config.{command}.resolved").read_text()


def test_a_value_that_is_not_utf8_is_a_data_error_before_any_work(tmp_path, capsys):
    # config.resolved cannot hold a path holding the byte 0x85 (as Python
    # decodes argv), so the value is refused before any work
    edges, _ = _synth(tmp_path)
    capsys.readouterr()
    out = tmp_path / "run\udc85"
    assert dispatch(["train", "--edges", str(edges), "--out", str(out), "--epochs", "1"]) == 2
    assert "error: --out " in capsys.readouterr().err
    assert not out.exists()
    # the same byte in a config file, which is read as UTF-8
    conf = tmp_path / "run.conf"
    conf.write_bytes(f"edges={edges}\nout=run\x85\n".encode("latin-1"))
    assert dispatch(["train", "--config", str(conf), "--epochs", "1"]) == 2
    assert f"error: cannot read config file {conf}: " in capsys.readouterr().err


def test_config_resolved_round_trip_keeps_a_hash_in_a_path(tmp_path, capsys):
    # and the characters str.splitlines() breaks a line at, where only \n ends one
    for name in ("a#b", "a #b", "a\u0085b\u2028c\x1cd"):
        edges, _ = _synth(tmp_path / name)
        first = _train(tmp_path / name, edges)
        assert f"edges={edges}\n" in (first / "config.resolved").read_text()
        second = tmp_path / name / "again"
        assert dispatch(["train", "--config", str(first / "config.resolved"),
                         "--out", str(second)]) == 0
        capsys.readouterr()
        assert (first / "params.ckpt").read_bytes() == (second / "params.ckpt").read_bytes()


def test_negative_class_label_is_data_error(tmp_path, capsys):
    edges, _ = _synth(tmp_path)
    labels = tmp_path / "neg.labels.csv"
    labels.write_text("0,0\n1,-2\n2,1\n", encoding="utf-8")
    assert dispatch(["train", "--edges", str(edges), "--labels", str(labels),
                     "--out", str(tmp_path / "run"), "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{labels}:2: negative class label in '1,-2'" in err
    emb = tmp_path / "emb.csv"
    emb.write_text("".join(f"{i},{i}.0,1.0\n" for i in range(3)), encoding="utf-8")
    assert dispatch(["linear-eval", "--embeddings", str(emb), "--labels", str(labels),
                     "--out", str(tmp_path / "r.json")]) == 2
    assert "negative class label" in capsys.readouterr().err


_SEED_ARGS = {
    "sample-views": ["--edges", "e.csv"],
    "synth": ["--k", "2", "--n", "4", "--T", "1", "--events", "8", "--ratio-in-out", "2",
              "--out-prefix", "toy"],
    "train": ["--edges", "e.csv", "--out", "run"],
    "linear-eval": ["--embeddings", "emb.csv", "--labels", "l.csv", "--out", "r.json"],
    "probe-invariance": ["--edges", "e.csv", "--labels", "l.csv", "--s", "2", "--out", "m.csv"],
    "grad-check": [],
}


@pytest.mark.parametrize("command", sorted(
    name for name, (opts, _run) in cli._SUBCOMMANDS.items() if "seed" in opts))
def test_negative_seed_is_data_error(tmp_path, capsys, command):
    args = [str(tmp_path / a) if a.endswith((".csv", ".json", "run", "toy")) else a
            for a in _SEED_ARGS[command]]
    assert dispatch([command, *args, "--seed", "-1"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


def test_train_rerun_byte_identical(tmp_path, capsys):
    edges, _ = _synth(tmp_path)
    a = _train(tmp_path / "a", edges)
    b = _train(tmp_path / "b", edges)
    capsys.readouterr()
    assert (a / "train_log.csv").read_bytes() == (b / "train_log.csv").read_bytes()
    assert (a / "params.ckpt").read_bytes() == (b / "params.ckpt").read_bytes()


def test_embed_uses_checkpoint_feature_policy(tmp_path, capsys):
    edges, _ = _synth(tmp_path)
    run = _train(tmp_path, edges)
    out = tmp_path / "emb.csv"
    # no feature flags: the checkpoint metadata must supply random/8
    code = dispatch(["embed", "--edges", str(edges), "--ckpt", str(run / "params.ckpt"),
                     "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 45
    assert all(len(r.split(",")) == 5 for r in rows)  # node_id + d_out floats
    ids = [int(r.split(",")[0]) for r in rows]
    assert sorted(ids) == list(range(45))


def test_embed_matches_embed_all_of_the_trained_graph(tmp_path, capsys):
    # trained through the Python API on synthesized features: the checkpoint
    # records how they were made, and embed rebuilds exactly those (the
    # width is the default's, so degree buckets would fit it too)
    edges, _ = _synth(tmp_path)
    graph = load_temporal_graph(edges, feature_policy="random", feature_dim=32, feature_seed=4)
    ckpt = tmp_path / "params.ckpt"
    cfg = TrainConfig(sampler=SamplerConfig("random", 3, 2), loss=LossConfig("node", 0.5),
                      d_hidden=8, d_out=4, batch_size=16, epochs=2, checkpoint_path=str(ckpt))
    params, _ = train(graph, cfg)
    out = tmp_path / "emb.csv"
    assert dispatch(["embed", "--edges", str(edges), "--ckpt", str(ckpt), "--out", str(out)]) == 0
    capsys.readouterr()
    ids, table = _read_embeddings(out)
    assert ids == graph.node_ids.tolist()
    np.testing.assert_array_equal(table, embed_all(graph, params))


# -0.0, subnormals and magnitudes near the float64 limits, where a formatting shortcut would show
_AWKWARD = np.array([[-0.0, 1e-310, 1e308, 5e-324], [0.1, -1.5, -5e-324, 1.0 / 3.0]])


def _per_cell_repr(rows, ids=None):
    """The writers' former text: repr of each cell taken one at a time."""
    return "".join(("" if ids is None else f"{ids[i]},") + ",".join(repr(float(x)) for x in row)
                   + "\n" for i, row in enumerate(rows))


def test_embed_writes_the_per_cell_repr_bytes(tmp_path, monkeypatch, capsys):
    edges, _ = _synth(tmp_path)
    graph = load_temporal_graph(edges, feature_policy="random", feature_dim=32, feature_seed=4)
    ckpt = tmp_path / "params.ckpt"
    train(graph, TrainConfig(sampler=SamplerConfig("random", 3, 2), loss=LossConfig("node", 0.5),
                             d_hidden=8, d_out=4, batch_size=16, epochs=1,
                             checkpoint_path=str(ckpt)))
    table = np.resize(_AWKWARD, (graph.num_nodes, 4))
    monkeypatch.setattr(cli, "embed_all", lambda graph, params: table)
    out = tmp_path / "emb.csv"
    assert dispatch(["embed", "--edges", str(edges), "--ckpt", str(ckpt), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == _per_cell_repr(table, graph.node_ids).encode()


def test_probe_invariance_writes_the_per_cell_repr_bytes(tmp_path, monkeypatch, capsys):
    edges, labels = _synth(tmp_path)
    result = InvarianceResult(matrix=_AWKWARD[:, :2], eval_nodes=np.arange(3))
    monkeypatch.setattr(cli, "probe_invariance", lambda graph, labels, s, cfg: result)
    out = tmp_path / "m.csv"
    assert dispatch(["probe-invariance", "--edges", str(edges), "--labels", str(labels),
                     "--s", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == _per_cell_repr(result.matrix).encode()


def _label_only_run(tmp_path, policy, dim):
    """Train on 30 connected nodes plus node 99, which only the labels file
    names; returns (edges, checkpoint, the training graph, its params)."""
    edges = tmp_path / "ring.edges.csv"  # a 30-ring, walked round once per time quarter
    edges.write_text("".join(f"{u},{(u + 1) % 30},{30.0 * lap + u!r}\n"
                             for lap in range(4) for u in range(30)), encoding="utf-8")
    labels = tmp_path / "ring.labels.csv"
    labels.write_text("".join(f"{u},{u % 2}\n" for u in [*range(30), 99]), encoding="utf-8")
    run = tmp_path / "run"
    assert dispatch(["train", "--edges", str(edges), "--labels", str(labels), "--out", str(run),
                     "--epochs", "2", "--d-hidden", "8", "--d-out", "4", "--batch-size", "16",
                     "--feature-policy", policy, "--feature-dim", str(dim)]) == 0
    graph = load_temporal_graph(edges, labels_path=labels, feature_policy=policy, feature_dim=dim)
    assert graph.num_nodes == 31
    params, _ = load_params(run / "params.ckpt")
    return edges, run / "params.ckpt", graph, params


@pytest.mark.parametrize("key,value", [
    ("feature_dim", 8.0), ("feature_dim", 8.5), ("feature_dim", True), ("feature_dim", "8"),
    ("feature_seed", 0.0), ("feature_seed", False), ("feature_nodes", 45.0),
])
def test_embed_rejects_a_checkpoint_count_that_is_not_a_json_integer(tmp_path, capsys, key, value):
    edges, _ = _synth(tmp_path)
    params, meta = load_params(_train(tmp_path, edges) / "params.ckpt")
    assert type(meta[key]) is int  # the run's record: random features of dim 8, seed 0, 45 nodes
    ckpt = tmp_path / "edited.ckpt"
    save_params(ckpt, params, {**meta, key: value})
    out = tmp_path / "emb.csv"
    assert dispatch(["embed", "--edges", str(edges), "--ckpt", str(ckpt), "--out", str(out)]) == 2
    assert f"checkpoint {key} must be an integer, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_embed_rejects_random_features_of_another_node_count(tmp_path, capsys):
    # random features are drawn for the whole node table, so without node
    # 99 every node would get other features than it was trained on
    edges, ckpt, _, _ = _label_only_run(tmp_path, "random", 8)
    out = tmp_path / "emb.csv"
    assert dispatch(["embed", "--edges", str(edges), "--ckpt", str(ckpt), "--out", str(out)]) == 2
    assert "drawn for 31 nodes" in capsys.readouterr().err
    assert not out.exists()


def test_embed_of_label_only_nodes_under_degree_buckets(tmp_path, capsys):
    # a node's degree bucket depends on itself only, and the isolated node
    # 99 sees only its self-loop, so the other rows are those of training
    edges, ckpt, graph, params = _label_only_run(tmp_path, "degree-buckets", 8)
    assert graph.feature_spec == {"policy": "degree-buckets", "dim": 8, "seed": 0}
    out = tmp_path / "emb.csv"
    assert dispatch(["embed", "--edges", str(edges), "--ckpt", str(ckpt), "--out", str(out)]) == 0
    capsys.readouterr()
    ids, table = _read_embeddings(out)
    assert ids == list(range(30))
    np.testing.assert_array_equal(table, embed_all(graph, params)[:30])


def test_embed_of_a_checkpoint_without_a_node_count(tmp_path, capsys):
    # a checkpoint written before the node count was recorded still embeds
    edges, ckpt, _, params = _label_only_run(tmp_path, "random", 8)
    meta = load_params(ckpt)[1]
    del meta["feature_nodes"]
    save_params(ckpt, params, meta=meta)
    out = tmp_path / "emb.csv"
    assert dispatch(["embed", "--edges", str(edges), "--ckpt", str(ckpt), "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(_read_embeddings(out)[0]) == 30


def test_embed_with_the_training_features_file(tmp_path, capsys):
    edges, _ = _synth(tmp_path)
    # as wide as the features _train would synthesize, so only the record
    # tells embed that they came from this file
    feats = _features_file(tmp_path / "feats.csv", 45, 8)
    run = _train(tmp_path, edges, extra=("--features", str(feats)))
    out = tmp_path / "emb.csv"
    args = ["embed", "--edges", str(edges), "--ckpt", str(run / "params.ckpt"), "--out", str(out)]
    assert dispatch(args) == 2
    assert "--features" in capsys.readouterr().err
    assert not out.exists()
    assert dispatch([*args, "--features", str(feats)]) == 0
    capsys.readouterr()
    graph = load_temporal_graph(edges, features_path=feats)
    _, table = _read_embeddings(out)
    np.testing.assert_array_equal(table, embed_all(graph, load_params(run / "params.ckpt")[0]))


def test_embed_dim_mismatch(tmp_path, capsys):
    edges, _ = _synth(tmp_path)
    run = _train(tmp_path, edges)
    out = tmp_path / "emb.csv"
    code = dispatch(["embed", "--edges", str(edges), "--ckpt", str(run / "params.ckpt"),
                     "--out", str(out),
                     "--features", str(_features_file(tmp_path / "feats.csv", 45, 16))])
    assert code == 2
    assert "dim" in capsys.readouterr().err


_SHAPES = ([1, 1], [1, 1], [1, 1], [1], [1, 1], [1])  # each tensor's shape for dims (1, 1, 1)


def _ckpt_bytes(dims=(1, 1, 1), shapes=_SHAPES, values=6):
    d_in, d_hidden, d_out = dims
    header = {"dims": {"d_in": d_in, "d_hidden": d_hidden, "d_out": d_out},
              "tensors": [{"name": f, "shape": s} for f, s in zip(PARAM_FIELDS, shapes)]}
    body = values if isinstance(values, bytes) else np.zeros(values).tobytes()
    return json.dumps(header).encode() + b"\n" + body


@pytest.mark.parametrize("header", [
    b"{not json\n", b"\xff\xfe\n", b'{"dims": {}}\n',
    pytest.param(b'{"tensors": [{}]}\n', id="empty-tensor-entry"),
    pytest.param(b'{"tensors": [5]}\n', id="tensor-entry-not-an-object"),
    pytest.param(_ckpt_bytes(shapes=([-1], *_SHAPES[1:])), id="negative-shape"),
    pytest.param(_ckpt_bytes(shapes=("ab", *_SHAPES[1:])), id="shape-is-a-string"),
    pytest.param(_ckpt_bytes(dims=(2, 1, 1)), id="shapes-disagree-with-dims"),
    pytest.param(_ckpt_bytes(values=5), id="truncated"),
    pytest.param(_ckpt_bytes(values=7), id="trailing-bytes"),
    pytest.param(_ckpt_bytes(values=np.array([0, 0, np.nan, 0, 0, 0]).tobytes()), id="nan"),
    pytest.param(b"[]\n", id="header-not-an-object"),
])
def test_malformed_checkpoint_is_data_error(tmp_path, capsys, header):
    edges, _ = _synth(tmp_path)
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(b"tgcl-checkpoint v1\n" + header)
    code = dispatch(["embed", "--edges", str(edges), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "emb.csv")])
    assert code == 2
    assert "checkpoint" in capsys.readouterr().err
    with pytest.raises(DataError):
        load_params(ckpt)


def test_hand_written_checkpoint_loads(tmp_path):
    # the well-formed file each malformed case above departs from
    ckpt = tmp_path / "good.ckpt"
    ckpt.write_bytes(b"tgcl-checkpoint v1\n" + _ckpt_bytes())
    params, meta = load_params(ckpt)
    assert params.gcn_w1.shape == (1, 1) and params.proj_b2.shape == (1,)
    assert meta == {}


def test_train_feature_dim_zero_is_data_error(tmp_path, capsys):
    edges, _ = _synth(tmp_path)
    code = dispatch(["train", "--edges", str(edges), "--out", str(tmp_path / "run"),
                     "--epochs", "1", "--feature-dim", "0"])
    assert code == 2
    assert "feature dimension" in capsys.readouterr().err


def test_linear_eval_report(tmp_path, capsys):
    edges, labels = _synth(tmp_path)
    run = _train(tmp_path, edges)
    emb = tmp_path / "emb.csv"
    assert dispatch(["embed", "--edges", str(edges), "--ckpt", str(run / "params.ckpt"),
                     "--out", str(emb)]) == 0
    report_path = tmp_path / "report.json"
    code = dispatch(["linear-eval", "--embeddings", str(emb), "--labels", str(labels),
                     "--ratios", "2:2:6", "--seed", "1", "--out", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    report = json.loads(report_path.read_text())
    assert 0.0 <= report["accuracy"] <= 1.0
    assert 0.0 <= report["weighted_f1"] <= 1.0
    assert len(report["per_class"]) == 3
    assert report["config"]["ratios"] == "2:2:6"


def test_linear_eval_malformed_embeddings(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1.0,2.0\n1,oops,2.0\n", encoding="utf-8")
    labels = tmp_path / "l.csv"
    labels.write_text("\n".join(f"{i},{i % 2}" for i in range(12)), encoding="utf-8")
    code = dispatch(["linear-eval", "--embeddings", str(bad), "--labels", str(labels),
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert ":2:" in capsys.readouterr().err


def test_linear_eval_rejects_a_trailing_comment(tmp_path, capsys):
    # only whole-line comments are skipped; `embed` never writes a '#'
    bad = tmp_path / "bad.csv"
    bad.write_text("# node_id,e1,e2\n0,1.0,2.0\n1,3.0,4.0  # c\n", encoding="utf-8")
    labels = tmp_path / "l.csv"
    labels.write_text("0,0\n1,1\n", encoding="utf-8")
    code = dispatch(["linear-eval", "--embeddings", str(bad), "--labels", str(labels),
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert ":3:" in capsys.readouterr().err


def test_linear_eval_duplicate_ids(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1.0\n0,2.0\n", encoding="utf-8")
    labels = tmp_path / "l.csv"
    labels.write_text("0,0\n", encoding="utf-8")
    code = dispatch(["linear-eval", "--embeddings", str(bad), "--labels", str(labels),
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize("flags,match", [
    (["--s", "1"], "agreement needs from 2 timespans to one per edge (500), got s=1"),
    (["--s", "2", "--ratios", "0:0:1"], "no pair of timespans to compare: measured 0 of 2"),
    (["--s", "2", "--ratios", "1:0:0"], "no pair of timespans to compare: measured 0 of 2"),
    (["--s", "100"], "no pair of timespans to compare: measured 0 of 100"),
])
def test_probe_invariance_that_measures_no_pair_exits_2(tmp_path, capsys, flags, match):
    # each of these printed 'mean off-diagonal agreement nan' and exited 0
    edges, labels = _synth(tmp_path, n=60, events=500)
    out = tmp_path / "matrix.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the timespans marked missing
        code = dispatch(["probe-invariance", "--edges", str(edges), "--labels", str(labels),
                         "--epochs", "2", "--out", str(out), *flags])
    assert code == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["linear-eval", "probe-invariance"])
def test_ratios_of_two_parts_are_a_usage_error(tmp_path, capsys, command):
    assert dispatch([command, "--ratios", "1:2"]) == 1
    assert "ratios must look like 1:1:8, got '1:2'" in capsys.readouterr().err


def test_probe_invariance_cli(tmp_path, capsys):
    edges, labels = _synth(tmp_path, n=40, events=500)
    out = tmp_path / "matrix.csv"
    code = dispatch(["probe-invariance", "--edges", str(edges), "--labels", str(labels),
                     "--s", "2", "--epochs", "5", "--out", str(out),
                     "--feature-policy", "random", "--feature-dim", "8",
                     "--ratios", "2:1:7"])
    assert code == 0
    assert "mean off-diagonal agreement" in capsys.readouterr().out
    rows = [r.split(",") for r in out.read_text().strip().splitlines()]
    assert len(rows) == 2 and all(len(r) == 2 for r in rows)
    mat = np.array([[float(x) for x in r] for r in rows])
    np.testing.assert_allclose(np.diag(mat), 1.0)
    assert mat[0, 1] == mat[1, 0]


@pytest.mark.parametrize("via", ["flag", "config"])
def test_probe_invariance_reads_a_features_file_as_the_api_does(tmp_path, capsys, via):
    # train and probe-invariance share their graph inputs, --features included
    edges, labels = _synth(tmp_path, n=40, events=500)
    features = _features_file(tmp_path / "f.csv", 40, 6)
    graph = load_temporal_graph(edges, features_path=features, labels_path=labels)
    result = probe_invariance(graph, graph.labels, 2, InvarianceConfig(epochs=5, ratios=(2, 1, 7)))
    conf = tmp_path / "probe.conf"
    conf.write_text(f"features={features}\n", encoding="utf-8")
    given = ["--features", str(features)] if via == "flag" else ["--config", str(conf)]
    out = tmp_path / "run" / "agreement.csv"
    assert dispatch(["probe-invariance", "--edges", str(edges), "--labels", str(labels),
                     "--s", "2", "--epochs", "5", "--ratios", "2:1:7", "--out", str(out),
                     *given]) == 0
    capsys.readouterr()
    assert out.read_bytes() == _per_cell_repr(result.matrix).encode()
    resolved = (out.parent / "config.probe-invariance.resolved").read_text(encoding="utf-8")
    assert f"features={features}\n" in resolved.splitlines(keepends=True)


def test_grad_check_cli(capsys):
    assert dispatch(["grad-check"]) == 0
    out = capsys.readouterr().out
    assert "max relative gradient error" in out
    err = r"\d\.\d{3}e-\d\d"
    assert re.search(f"graph {err}: mean {err}, max {err}, sum {err}\\)", out), out


def test_grad_check_out_writes_the_report_and_its_resolved_config(tmp_path, capsys):
    out = tmp_path / "checks" / "grad_check.json"
    assert dispatch(["grad-check", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert {"node", "graph", "worst"} <= report.keys() and report["worst"] < 1e-4
    resolved = (out.parent / "config.grad-check.resolved").read_text().splitlines()
    assert resolved[0] == "# command=grad-check"
    assert resolved[2:] == ["h=1e-05", f"out={out}", "seed=7", "tol=0.0001"]


def test_grad_check_tol_failure(capsys):
    assert dispatch(["grad-check", "--tol", "1e-12"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_grad_check_rejects_a_tolerance_that_is_not_positive_and_finite(tmp_path, capsys, tol):
    out = tmp_path / "g.json"
    assert dispatch(["grad-check", f"--tol={tol}", "--out", str(out)]) == 2
    assert "tolerance must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("h", ["0", "-1e-5", "inf", "nan"])
def test_grad_check_rejects_a_step_that_is_not_positive_and_finite(capsys, h):
    assert dispatch(["grad-check", f"--h={h}"]) == 2
    assert "finite-difference step h must be positive and finite" in capsys.readouterr().err


def test_grad_check_fails_on_a_nan_error(monkeypatch, capsys):
    # max(0.0, nan) is 0.0: a NaN error must not read as a pass
    monkeypatch.setattr(tgcl.gradcheck, "model_grad_errors",
                        lambda level, seed, h, stat: {"w1": 1e-7, "w2": float("nan")})
    assert dispatch(["grad-check"]) == 3
    assert "max relative gradient error nan" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value,match", [
    ("--d-hidden", "-1", "layer widths must be at least 1"),
    ("--d-hidden", "0", "layer widths must be at least 1"),
    ("--d-out", "-3", "layer widths must be at least 1"),
    ("--d-out", "0", "layer widths must be at least 1"),
    ("--checkpoint-every", "-1", "checkpoint_every must be non-negative"),
    ("--lr", "inf", "learning rate must be positive and finite"),
    ("--lr", "nan", "learning rate must be positive and finite"),
    ("--tau", "inf", "temperature must be positive and finite"),
    ("--tau", "nan", "temperature must be positive and finite"),
    ("--weight-decay", "nan", "weight decay must be non-negative and finite"),
    ("--weight-decay", "inf", "weight decay must be non-negative and finite"),
])
def test_train_rejects_bad_settings(tmp_path, capsys, flag, value, match):
    edges, _ = _synth(tmp_path)
    out = tmp_path / "run"
    assert dispatch(["train", "--edges", str(edges), "--out", str(out), "--epochs", "2",
                     "--batch-size", "16", flag, value]) == 2
    assert match in capsys.readouterr().err
    assert not (out / "params.ckpt").exists()


@pytest.mark.parametrize("flag,value,match", [
    ("--epochs", "-1", "probe epochs must be non-negative"),
    ("--lr", "-1", "probe learning rate must be positive"),
    ("--lr", "0", "probe learning rate must be positive"),
    ("--weight-decay", "-1", "probe weight decay must be non-negative"),
    ("--lr", "inf", "probe learning rate must be positive and finite"),
    ("--lr", "nan", "probe learning rate must be positive and finite"),
    ("--weight-decay", "inf", "probe weight decay must be non-negative and finite"),
])
def test_linear_eval_rejects_bad_settings(tmp_path, capsys, flag, value, match):
    emb = tmp_path / "emb.csv"
    emb.write_text("".join(f"{i},{i % 2}.5,{i}.0\n" for i in range(40)), encoding="utf-8")
    labels = tmp_path / "l.csv"
    labels.write_text("".join(f"{i},{i % 2}\n" for i in range(40)), encoding="utf-8")
    args = ["linear-eval", "--embeddings", str(emb), "--labels", str(labels),
            "--ratios", "4:2:4", "--out", str(tmp_path / "r.json")]
    assert dispatch([*args, "--epochs", "0"]) == 0  # the untrained probe is legal
    capsys.readouterr()
    assert dispatch([*args, flag, value]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # the exit code and tgcl's message are the whole report
def test_linear_eval_exits_3_when_a_squared_gradient_overflows(tmp_path, capsys):
    # 1e160-scaled embeddings keep the probe's gradient finite but not its square
    emb = tmp_path / "emb.csv"
    emb.write_text("".join(f"{i},{i % 3 + 1}e160,{i}e158\n" for i in range(120)), encoding="utf-8")
    labels = tmp_path / "l.csv"
    labels.write_text("".join(f"{i},{i % 3}\n" for i in range(120)), encoding="utf-8")
    out = tmp_path / "r.json"
    assert dispatch(["linear-eval", "--embeddings", str(emb), "--labels", str(labels),
                     "--out", str(out)]) == 3
    assert "squared grad[probe]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epochs,warnings_flag", [(None, None), ("1", None),
                                                   (None, "error::RuntimeWarning"),
                                                   ("1", "error::RuntimeWarning")])
def test_linear_eval_exits_3_on_overflowing_scores_without_a_numpy_warning(tmp_path, epochs,
                                                                           warnings_flag):
    # one Adam step at 1e308 moves every weight by ~1e308, so the validation
    # scores of ~10-sized embeddings overflow at epoch 1; a child process shows
    # whatever NumPy would print, and its exit code
    emb = tmp_path / "emb.csv"
    emb.write_text("".join(f"{i},{i % 3 + 9}.0,{i % 7 + 5}.0\n" for i in range(120)), encoding="utf-8")
    labels = tmp_path / "l.csv"
    labels.write_text("".join(f"{i},{i % 3}\n" for i in range(120)), encoding="utf-8")
    out = tmp_path / "r.json"
    argv = ["linear-eval", "--embeddings", str(emb), "--labels", str(labels), "--out", str(out),
            "--lr", "1e308", *(["--epochs", epochs] if epochs else [])]
    src = str(Path(tgcl.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if warnings_flag:
        env["PYTHONWARNINGS"] = warnings_flag
    proc = subprocess.run([sys.executable, "-m", "tgcl.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ("numeric failure: non-finite validation scores from the linear probe "
                           "at epoch 1\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # the exit code and tgcl's message are the whole report
@pytest.mark.parametrize("tau", ["1e-310", "5e-324"])
def test_train_exits_3_on_a_subnormal_temperature_without_a_numpy_warning(tmp_path, capsys, tau):
    # scores / tau overflow to inf, and the max-subtracted logits are inf - inf
    edges, _ = _synth(tmp_path)
    out = tmp_path / "run"
    assert dispatch(["train", "--edges", str(edges), "--out", str(out), "--epochs", "2",
                     "--tau", tau, "--d-hidden", "8", "--d-out", "4"]) == 3
    assert "non-finite loss nan at epoch 1" in capsys.readouterr().err
    assert not (out / "params.ckpt").exists()


@pytest.mark.filterwarnings("error")
def test_probe_invariance_exits_3_when_its_logits_overflow(tmp_path, capsys):
    # one Adam step at lr 1e308 leaves weights that overflow the final forward;
    # the NaN logits all predicted class 0, which read as agreement 1.0
    edges, labels = _synth(tmp_path, n=60, events=500)
    out = tmp_path / "matrix.csv"
    assert dispatch(["probe-invariance", "--edges", str(edges), "--labels", str(labels),
                     "--s", "2", "--epochs", "1", "--lr", "1e308", "--out", str(out)]) == 3
    assert "non-finite logits from the probe of timespan 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_probe_invariance_names_the_timespan_whose_adam_update_overflows(tmp_path, capsys):
    # the first Adam step at lr 1e308 leaves weights whose second epoch's
    # squared gradient is not finite; the message named no probe or timespan
    edges, labels = _synth(tmp_path, n=60, events=500)
    out = tmp_path / "matrix.csv"
    assert dispatch(["probe-invariance", "--edges", str(edges), "--labels", str(labels),
                     "--s", "2", "--epochs", "2", "--lr", "1e308", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "squared grad[" in err and "in the probe of timespan 0" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_train_names_the_epoch_whose_adam_update_overflows(tmp_path, capsys):
    # weight decay 1e300 makes the first update's squared gradient overflow;
    # Adam ran outside the step's try, and the message named no epoch
    edges, _ = _synth(tmp_path)
    out = tmp_path / "run"
    assert dispatch(["train", "--edges", str(edges), "--out", str(out), "--epochs", "2",
                     "--weight-decay", "1e300", "--d-hidden", "8", "--d-out", "4"]) == 3
    err = capsys.readouterr().err
    assert "squared grad[" in err and " at epoch 1; windows [" in err
    assert not (out / "params.ckpt").exists()


@pytest.mark.filterwarnings("error")
def test_train_exits_3_when_a_projection_norm_overflows(tmp_path, capsys):
    # after one step at lr 1e50 the second step's projection rows have norms
    # that overflow; they were divided to zero rows, and the run exited 0.
    # At lr 1e100 the second step's products already overflow in a matmul,
    # and NumPy's warning printed ahead of tgcl's message
    edges, _ = _synth(tmp_path)
    for lr in ("1e50", "1e100"):
        out = tmp_path / f"run-{lr}"
        assert dispatch(["train", "--edges", str(edges), "--out", str(out), "--epochs", "1",
                         "--batches-per-epoch", "2", "--lr", lr, "--d-hidden", "3",
                         "--d-out", "1", "--feature-dim", "1"]) == 3
        assert "overflowing row norm(s)" in capsys.readouterr().err
        assert not (out / "params.ckpt").exists()


@pytest.mark.filterwarnings("error")
def test_embed_exits_3_when_the_checkpoint_overflows_the_encoder(tmp_path, capsys):
    # a checkpoint trained at lr 1e308 holds finite weights whose products overflow
    edges, _ = _synth(tmp_path)
    run = tmp_path / "run"
    assert dispatch(["train", "--edges", str(edges), "--out", str(run), "--epochs", "1",
                     "--lr", "1e308", "--d-hidden", "8", "--d-out", "4"]) == 0
    out = tmp_path / "emb.csv"
    assert dispatch(["embed", "--edges", str(edges), "--ckpt", str(run / "params.ckpt"),
                     "--out", str(out)]) == 3
    assert "non-finite embeddings from" in capsys.readouterr().err
    assert not out.exists()


def test_train_exits_3_rather_than_write_a_non_finite_checkpoint(tmp_path, capsys):
    # on the README's demo graph the one Adam update at lr 1e308 leaves
    # non-finite weights; the run exited 0 with a checkpoint embed rejects
    prefix = tmp_path / "demo"
    assert dispatch(["synth", "--k", "3", "--n", "120", "--T", "10.0", "--events", "800",
                     "--ratio-in-out", "10.0", "--seed", "1", "--out-prefix", str(prefix)]) == 0
    run = tmp_path / "run"
    assert dispatch(["train", "--edges", f"{prefix}.edges.csv", "--out", str(run), "--epochs", "1",
                     "--lr", "1e308", "--d-hidden", "8", "--d-out", "4",
                     "--feature-policy", "random", "--feature-dim", "32"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: non-finite values in ") and err.count("\n") == 1
    assert not (run / "params.ckpt").exists() and not (run / "params.ckpt.tmp").exists()


@pytest.mark.parametrize("ratios,classes", [("1:0:9", 2), ("2:1:7", 10)])
def test_linear_eval_rejects_an_empty_validation_split(tmp_path, capsys, ratios, classes):
    # 2:1:7 over classes of 4 gives each class round(0.4) = 0 validation nodes
    emb = tmp_path / "emb.csv"
    emb.write_text("".join(f"{i},{i % classes}.5,{i}.0\n" for i in range(40)), encoding="utf-8")
    labels = tmp_path / "l.csv"
    labels.write_text("".join(f"{i},{i % classes}\n" for i in range(40)), encoding="utf-8")
    out = tmp_path / "r.json"
    assert dispatch(["linear-eval", "--embeddings", str(emb), "--labels", str(labels),
                     "--ratios", ratios, "--out", str(out)]) == 2
    assert "empty validation split" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--lr", "inf"), ("--lr", "nan"), ("--weight-decay", "inf"), ("--weight-decay", "nan"),
])
def test_probe_invariance_rejects_non_finite_rates(tmp_path, capsys, flag, value):
    edges, labels = _synth(tmp_path)
    out = tmp_path / "m.csv"
    assert dispatch(["probe-invariance", "--edges", str(edges), "--labels", str(labels),
                     "--s", "2", "--epochs", "2", "--out", str(out), flag, value]) == 2
    assert "rates finite, lr > 0, weight decay >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,line", [
    ("0,1,1.0\n1_0,2,3.0\n", 2),
    ("0,1,1.0\n# c\n٣,2,3.0\n", 3),
    ("0,1,1.0\n1,2,1_0.5\n", 2),
])
def test_numerals_outside_ascii_digits_exit_2_naming_their_line(tmp_path, capsys, text, line):
    edges = tmp_path / "e.csv"
    edges.write_text(text, encoding="utf-8")
    assert dispatch(["sample-views", "--edges", str(edges)]) == 2
    assert f"{edges}:{line}: malformed row" in capsys.readouterr().err


def test_module_entrypoint_subprocess():
    # the child imports the same tgcl as this test, installed or not
    src = str(Path(tgcl.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "tgcl.cli", "--version"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


_FEATURE_DEFAULTS = {o: (load_temporal_graph, o.replace("-", "_"))
                     for o in ("feature-policy", "feature-dim", "feature-seed")}

# subcommand -> option -> (the library function or config class the option
# feeds, the parameter or field it sets)
_LIBRARY_DEFAULTS = {
    "sample-views": {o: (SamplerConfig, o) for o in ("strategy", "s", "v")},
    "train": {
        **{o: (SamplerConfig, o) for o in ("strategy", "s", "v")},
        "level": (LossConfig, "level"), "tau": (LossConfig, "tau"),
        **{o: (TrainConfig, o.replace("-", "_"))
           for o in ("epochs", "seed", "lr", "weight-decay", "batch-size", "d-hidden", "d-out",
                     "batches-per-epoch", "checkpoint-every")},
        "readout": (TrainConfig, "readout_stat"),
        **_FEATURE_DEFAULTS,
    },
    "probe-invariance": {
        **{o: (InvarianceConfig, o.replace("-", "_"))
           for o in ("seed", "epochs", "lr", "weight-decay", "encoder", "ratios")},
        **_FEATURE_DEFAULTS,
    },
    "linear-eval": {"ratios": (make_split, "ratios"), "seed": (make_split, "seed"),
                    **{o: (train_linear_probe, o.replace("-", "_"))
                       for o in ("epochs", "lr", "weight-decay")}},
    "grad-check": {"seed": (run_grad_check, "seed"), "h": (run_grad_check, "h")},
    "synth": {"seed": (generate_synthetic, "seed")},
}


def _library_default(owner, name):
    if dataclasses.is_dataclass(owner):
        return {f.name: f.default for f in dataclasses.fields(owner)}[name]
    return inspect.signature(owner).parameters[name].default


@pytest.mark.parametrize("command,option", [(c, o) for c, opts in _LIBRARY_DEFAULTS.items()
                                            for o in opts])
def test_a_cli_default_is_the_library_default_it_feeds(command, option):
    owner, name = _LIBRARY_DEFAULTS[command][option]
    cli_default, library_default = cli._SUBCOMMANDS[command][0][option][1], _library_default(owner, name)
    assert (cli_default, type(cli_default)) == (library_default, type(library_default))
