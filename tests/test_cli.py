import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tgcl
from tgcl import (
    DataError,
    LossConfig,
    SamplerConfig,
    TrainConfig,
    __version__,
    embed_all,
    load_params,
    load_temporal_graph,
    train,
)
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
    code = dispatch(["sample-views", "--edges", str(edges), "--strategy", "high",
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
    resolved = (out.parent / "config.resolved").read_text()
    assert "command=sample-views\n" in resolved
    assert f"version={__version__}\n" in resolved
    assert "strategy=sequential\n" in resolved


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


def test_synth_deterministic(tmp_path, capsys):
    e1, l1 = _synth(tmp_path / "a")
    e2, l2 = _synth(tmp_path / "b")
    capsys.readouterr()
    assert e1.read_bytes() == e2.read_bytes()
    assert l1.read_bytes() == l2.read_bytes()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    edges, _ = _synth(tmp_path)
    conf = tmp_path / "run.conf"
    conf.write_text(f"edges={edges}\ns=5\nv=3  # comment\n", encoding="utf-8")
    out = tmp_path / "w" / "windows.csv"
    code = dispatch(["sample-views", "--config", str(conf), "--v", "2",
                     "--strategy", "random", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    # v=2 from the flag wins over v=3 from the file; s=5 from the file holds
    assert len(out.read_text().strip().splitlines()) == 2
    resolved = (out.parent / "config.resolved").read_text()
    assert "s=5\n" in resolved and "v=2\n" in resolved


def test_config_file_unknown_key(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("wibble=1\n", encoding="utf-8")
    assert dispatch(["sample-views", "--config", str(conf)]) == 2
    assert "unknown option" in capsys.readouterr().err


def test_config_file_malformed_line(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("just words\n", encoding="utf-8")
    assert dispatch(["sample-views", "--config", str(conf)]) == 2
    assert "key=value" in capsys.readouterr().err


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


def test_linear_eval_duplicate_ids(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1.0\n0,2.0\n", encoding="utf-8")
    labels = tmp_path / "l.csv"
    labels.write_text("0,0\n", encoding="utf-8")
    code = dispatch(["linear-eval", "--embeddings", str(bad), "--labels", str(labels),
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "duplicate" in capsys.readouterr().err


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


def test_grad_check_cli(capsys):
    assert dispatch(["grad-check"]) == 0
    assert "max relative gradient error" in capsys.readouterr().out


def test_grad_check_tol_failure(capsys):
    assert dispatch(["grad-check", "--tol", "1e-12"]) == 3
    capsys.readouterr()


def test_module_entrypoint_subprocess():
    # the child imports the same tgcl as this test, installed or not
    src = str(Path(tgcl.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "tgcl.cli", "--version"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__
