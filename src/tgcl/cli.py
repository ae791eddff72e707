"""Command-line entry point.

Subcommands: sample-views, synth, train, embed, linear-eval,
probe-invariance, grad-check. Exit codes: 0 success, 1 usage error,
2 data error, 3 numeric failure.

Every option can also come from a flat key=value config file (--config);
precedence is flags > config file > built-in defaults, and the fully
resolved settings are written next to each subcommand's outputs as
`config.resolved` so any run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, gradcheck
from .errors import DataError, NumericError
from .evaluation import (
    InvarianceConfig,
    PROBE_ENCODERS,
    evaluate,
    generate_synthetic,
    make_split,
    probe_invariance,
    train_linear_probe,
)
from .graph import FEATURE_POLICIES, _parse_labels, load_temporal_graph
from .losses import LossConfig
from .model import READOUT_STATS, load_params
from .sampling import SamplerConfig, sample_windows
from .training import TrainConfig, embed_all, train

_REQUIRED = object()

_STRATEGY_ALIASES = {"high": "high_overlap", "low": "low_overlap"}
_STRATEGY_CHOICES = ["sequential", "high", "low", "random", "high_overlap", "low_overlap"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ratios(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"ratios must look like 1:1:8, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"ratios must be integers, got {text!r}")


# option tables: name -> (type, default, help); _REQUIRED means the value
# must arrive via flag or config file
_SAMPLE_OPTS = {
    "edges": (str, _REQUIRED, "edges csv (src,dst,timestamp) defining the timespan"),
    "strategy": (str, "sequential", "sampling strategy"),
    "s": (int, 4, "number of timespans the span is divided into"),
    "v": (int, 2, "number of views per epoch"),
    "seed": (int, 0, "sampling seed"),
    "epochs": (int, 1, "emit windows for epochs 1..E"),
    "out": (str, None, "write windows here instead of stdout"),
}

_SYNTH_OPTS = {
    "k": (int, _REQUIRED, "number of communities"),
    "n": (int, _REQUIRED, "number of nodes"),
    "T": (float, _REQUIRED, "timespan length"),
    "events": (int, _REQUIRED, "number of temporal edges"),
    "ratio-in-out": (float, _REQUIRED, "intra/inter community weight ratio"),
    "seed": (int, 0, "generator seed"),
    "out-prefix": (str, _REQUIRED, "output path prefix"),
}

_TRAIN_OPTS = {
    "edges": (str, _REQUIRED, "edges csv"),
    "features": (str, None, "optional node features csv"),
    "labels": (str, None, "optional labels csv (stored, not used in training)"),
    "strategy": (str, "sequential", "sampling strategy"),
    "s": (int, 4, "timespan count"),
    "v": (int, 2, "views per epoch"),
    "level": (str, "node", "contrastive level: node or graph"),
    "tau": (float, 0.5, "InfoNCE temperature"),
    "epochs": (int, 100, "training epochs"),
    "seed": (int, 0, "master seed"),
    "out": (str, _REQUIRED, "output directory"),
    "lr": (float, 4e-3, "Adam learning rate"),
    "weight-decay": (float, 5e-4, "L2 weight decay"),
    "batch-size": (int, 256, "minibatch size"),
    "d-hidden": (int, 128, "encoder hidden width"),
    "d-out": (int, 64, "embedding width"),
    "readout": (str, "mean", "neighborhood statistic: mean, max or sum"),
    "feature-policy": (str, "degree-buckets", "synthesized-feature policy when no features file"),
    "feature-dim": (int, 32, "synthesized feature dimension"),
    "feature-seed": (int, 0, "synthesized feature seed"),
    "batches-per-epoch": (int, 1, "optimizer steps per epoch"),
    "checkpoint-every": (int, 0, "also checkpoint every K epochs (0: only final)"),
}

_EMBED_OPTS = {
    "edges": (str, _REQUIRED, "edges csv"),
    "ckpt": (str, _REQUIRED, "checkpoint from train"),
    "out": (str, _REQUIRED, "output embeddings csv"),
    "features": (str, None, "node features csv; required if the checkpoint's were read from a file"),
}

_EVAL_OPTS = {
    "embeddings": (str, _REQUIRED, "embeddings csv from embed"),
    "labels": (str, _REQUIRED, "labels csv"),
    "ratios": (_ratios, (1, 1, 8), "train:val:test ratios"),
    "seed": (int, 0, "split seed"),
    "out": (str, _REQUIRED, "report json path"),
    "epochs": (int, 200, "probe epochs"),
    "lr": (float, 1e-2, "probe learning rate"),
    "weight-decay": (float, 1e-4, "probe weight decay"),
}

_PROBE_OPTS = {
    "edges": (str, _REQUIRED, "edges csv"),
    "labels": (str, _REQUIRED, "labels csv"),
    "s": (int, _REQUIRED, "number of sequential timespans"),
    "seed": (int, 0, "probe seed"),
    "out": (str, _REQUIRED, "agreement matrix csv path"),
    "epochs": (int, 150, "supervised epochs per timespan"),
    "lr": (float, 1e-2, "supervised learning rate"),
    "weight-decay": (float, 5e-4, "supervised weight decay"),
    "encoder": (str, "gcn", "probe encoder: gcn or mlp"),
    "ratios": (_ratios, (1, 1, 8), "split ratios"),
    "feature-policy": (str, "degree-buckets", "synthesized-feature policy"),
    "feature-dim": (int, 32, "synthesized feature dimension"),
    "feature-seed": (int, 0, "synthesized feature seed"),
}

_GRADCHECK_OPTS = {
    "seed": (int, 7, "fixture seed"),
    "h": (float, 1e-5, "finite-difference step"),
    "tol": (float, 1e-4, "pass threshold on max relative error"),
    "out": (str, None, "optional json report path"),
}


def _build_parser(name: str, opts: dict) -> _Parser:
    parser = _Parser(prog=f"tgcl {name}", add_help=True)
    for flag, (typ, _default, help_text) in opts.items():
        kwargs = {"type": typ, "default": argparse.SUPPRESS, "help": help_text}
        if flag == "strategy":
            kwargs["choices"] = _STRATEGY_CHOICES
        elif flag == "level":
            kwargs["choices"] = ["node", "graph"]
        elif flag == "readout":
            kwargs["choices"] = list(READOUT_STATS)
        elif flag == "encoder":
            kwargs["choices"] = list(PROBE_ENCODERS)
        elif flag == "feature-policy":
            kwargs["choices"] = list(FEATURE_POLICIES)
        parser.add_argument(f"--{flag}", **kwargs)
    parser.add_argument("--config", type=str, default=argparse.SUPPRESS,
                        help="key=value file; flags override its entries")
    return parser


def _read_config_file(path: str, opts: dict) -> dict:
    conf = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in opts:
            raise DataError(f"{path}:{lineno}: unknown option {key!r}")
        typ = opts[key][0]
        try:
            conf[key] = typ(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DataError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return conf


def _merge_config(parser: _Parser, ns: argparse.Namespace, opts: dict) -> dict:
    given = vars(ns)
    file_conf = {}
    if "config" in given:
        file_conf = _read_config_file(given.pop("config"), opts)
    conf = {}
    for flag, (_, default, _help) in opts.items():
        dest = flag.replace("-", "_")
        if dest in given:
            conf[dest] = given[dest]
        elif flag in file_conf:
            conf[dest] = file_conf[flag]
        elif default is _REQUIRED:
            parser.error(f"--{flag} is required (flag or config file)")
        else:
            conf[dest] = default
    return conf


def _fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ":".join(str(p) for p in value)
    return str(value)


def _write_resolved(directory: Path, command: str, conf: dict) -> None:
    lines = [f"command={command}\n", f"version={__version__}\n"]
    for key in sorted(conf):
        lines.append(f"{key.replace('_', '-')}={_fmt_value(conf[key])}\n")
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.resolved").write_text("".join(lines), encoding="utf-8")


def _canonical_strategy(name: str) -> str:
    return _STRATEGY_ALIASES.get(name, name)


def _run_sample_views(conf: dict) -> int:
    graph = load_temporal_graph(conf["edges"])
    cfg = SamplerConfig(strategy=_canonical_strategy(conf["strategy"]), s=conf["s"], v=conf["v"])
    lines = []
    for epoch in range(1, conf["epochs"] + 1):
        for index, w in enumerate(sample_windows(graph, cfg, epoch, conf["seed"])):
            lines.append(f"{epoch},{index},{float(w.lo)!r},{float(w.hi)!r}\n")
    if conf["out"]:
        out = Path(conf["out"])
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("".join(lines), encoding="utf-8")
        _write_resolved(out.parent, "sample-views", conf)
    else:
        sys.stdout.write("".join(lines))
    return 0


def _run_synth(conf: dict) -> int:
    graph = generate_synthetic(
        k=conf["k"], n=conf["n"], T=conf["T"],
        p_in=conf["ratio_in_out"], p_out=1.0,
        events=conf["events"], seed=conf["seed"],
    )
    prefix = Path(conf["out_prefix"])
    prefix.parent.mkdir(parents=True, exist_ok=True)
    edges_path = Path(f"{prefix}.edges.csv")
    labels_path = Path(f"{prefix}.labels.csv")
    ext_src = graph.node_ids[graph.src]
    ext_dst = graph.node_ids[graph.dst]
    edge_lines = [f"{u},{v},{float(t)!r}\n" for u, v, t in zip(ext_src, ext_dst, graph.timestamps)]
    edges_path.write_text("".join(edge_lines), encoding="utf-8")
    label_lines = [
        f"{nid},{lab}\n"
        for nid, lab in zip(graph.node_ids, graph.labels)
        if lab >= 0
    ]
    labels_path.write_text("".join(label_lines), encoding="utf-8")
    _write_resolved(prefix.parent, "synth", conf)
    print(f"wrote {len(edge_lines)} edges to {edges_path} and {len(label_lines)} labels to {labels_path}")
    return 0


def _load_graph_from_conf(conf: dict):
    return load_temporal_graph(
        conf["edges"],
        features_path=conf.get("features"),
        labels_path=conf.get("labels"),
        feature_policy=conf["feature_policy"],
        feature_dim=conf["feature_dim"],
        feature_seed=conf["feature_seed"],
    )


def _run_train(conf: dict) -> int:
    graph = _load_graph_from_conf(conf)
    out_dir = Path(conf["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = TrainConfig(
        sampler=SamplerConfig(strategy=_canonical_strategy(conf["strategy"]),
                              s=conf["s"], v=conf["v"]),
        loss=LossConfig(level=conf["level"], tau=conf["tau"]),
        d_hidden=conf["d_hidden"],
        d_out=conf["d_out"],
        lr=conf["lr"],
        weight_decay=conf["weight_decay"],
        batch_size=conf["batch_size"],
        epochs=conf["epochs"],
        seed=conf["seed"],
        readout_stat=conf["readout"],
        checkpoint_path=str(out_dir / "params.ckpt"),
        checkpoint_every=conf["checkpoint_every"],
        batches_per_epoch=conf["batches_per_epoch"],
    )
    params, log = train(graph, cfg)
    (out_dir / "train_log.csv").write_text("".join(log.csv_lines()), encoding="utf-8")
    _write_resolved(out_dir, "train", conf)
    final = log.records[-1]
    print(f"trained {cfg.epochs} epochs on {graph.num_nodes} nodes; "
          f"final loss {final.loss:.6f}; outputs in {out_dir}")
    return 0


def _checkpoint_feature_spec(ckpt: str, meta: dict) -> dict:
    """The synthesized-feature settings a checkpoint records, as
    load_temporal_graph arguments."""
    try:
        return {"feature_policy": str(meta["feature_policy"]),
                "feature_dim": int(meta["feature_dim"]),
                "feature_seed": int(meta["feature_seed"])}
    except (KeyError, TypeError, ValueError, OverflowError):
        raise DataError(f"{ckpt} does not record how its features were synthesized; pass the "
                        f"features file it was trained on with --features") from None


def _run_embed(conf: dict) -> int:
    params, meta = load_params(conf["ckpt"])
    spec = {} if conf["features"] else _checkpoint_feature_spec(conf["ckpt"], meta)
    graph = load_temporal_graph(conf["edges"], features_path=conf["features"], **spec)
    if graph.feature_dim != params.d_in:
        raise DataError(
            f"graph features have dim {graph.feature_dim} but checkpoint expects {params.d_in}")
    table = embed_all(graph, params)
    out = Path(conf["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{nid}," + ",".join(repr(float(x)) for x in row) + "\n"
        for nid, row in zip(graph.node_ids, table)
    ]
    out.write_text("".join(lines), encoding="utf-8")
    _write_resolved(out.parent, "embed", conf)
    print(f"wrote {len(lines)} embeddings of width {table.shape[1]} to {out}")
    return 0


def _parse_embeddings(path: str):
    ids, rows = [], []
    dim = None
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read embeddings file {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise DataError(f"{path}:{lineno}: expected node_id,e1,..., got {raw!r}")
        try:
            nid = int(parts[0])
            vec = [float(p) for p in parts[1:]]
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed embedding row {raw!r}")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise DataError(f"{path}:{lineno}: dimension {len(vec)} != first row's {dim}")
        if not np.all(np.isfinite(vec)):
            raise DataError(f"{path}:{lineno}: non-finite embedding value")
        ids.append(nid)
        rows.append(vec)
    if not ids:
        raise DataError(f"{path}: no embeddings found")
    ids = np.array(ids, dtype=np.int64)
    if np.unique(ids).size != ids.size:
        raise DataError(f"{path}: duplicate node ids")
    order = np.argsort(ids)
    return ids[order], np.array(rows, dtype=np.float64)[order]


def _run_linear_eval(conf: dict) -> int:
    ids, table = _parse_embeddings(conf["embeddings"])
    label_rows, _names = _parse_labels(Path(conf["labels"]))
    labels = np.full(ids.size, -1, dtype=np.int64)
    index = {int(nid): i for i, nid in enumerate(ids)}
    for nid, lab in label_rows.items():
        if int(nid) in index:
            labels[index[int(nid)]] = lab
    split = make_split(labels, ratios=conf["ratios"], seed=conf["seed"])
    probe = train_linear_probe(table, labels, split, lr=conf["lr"],
                               weight_decay=conf["weight_decay"], epochs=conf["epochs"])
    echo = {k.replace("_", "-"): _fmt_value(v) for k, v in sorted(conf.items())}
    report = evaluate(probe, table, labels, split, config=echo)
    out = Path(conf["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n",
                   encoding="utf-8")
    _write_resolved(out.parent, "linear-eval", conf)
    print(f"accuracy {report.accuracy:.4f}, weighted F1 {report.weighted_f1:.4f} "
          f"on {split.test.size} test nodes (report: {out})")
    return 0


def _run_probe_invariance(conf: dict) -> int:
    graph = _load_graph_from_conf(conf)
    if graph.labels is None:
        raise DataError("probe-invariance requires a labels file")
    cfg = InvarianceConfig(
        epochs=conf["epochs"], lr=conf["lr"], weight_decay=conf["weight_decay"],
        encoder=conf["encoder"], ratios=conf["ratios"], seed=conf["seed"],
    )
    result = probe_invariance(graph, graph.labels, conf["s"], cfg)
    out = Path(conf["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(repr(float(x)) for x in row) + "\n" for row in result.matrix]
    out.write_text("".join(lines), encoding="utf-8")
    _write_resolved(out.parent, "probe-invariance", conf)
    mean = result.mean_agreement()
    print(f"mean off-diagonal agreement {mean:.4f} over {result.eval_nodes.size} shared "
          f"test nodes (matrix: {out})")
    return 0


def _run_grad_check(conf: dict) -> int:
    report = gradcheck.run_grad_check(seed=conf["seed"], h=conf["h"])
    print(f"max relative gradient error {report['worst']:.3e} "
          f"(node {report['node']['max']:.3e}, graph {report['graph']['max']:.3e})")
    if conf["out"]:
        out = Path(conf["out"])
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        _write_resolved(out.parent, "grad-check", conf)
    return 0 if report["worst"] < conf["tol"] else 3


_SUBCOMMANDS = {
    "sample-views": (_SAMPLE_OPTS, _run_sample_views),
    "synth": (_SYNTH_OPTS, _run_synth),
    "train": (_TRAIN_OPTS, _run_train),
    "embed": (_EMBED_OPTS, _run_embed),
    "linear-eval": (_EVAL_OPTS, _run_linear_eval),
    "probe-invariance": (_PROBE_OPTS, _run_probe_invariance),
    "grad-check": (_GRADCHECK_OPTS, _run_grad_check),
}


def _usage() -> str:
    names = " | ".join(_SUBCOMMANDS)
    return (f"usage: tgcl {{{names}}} [options]\n"
            f"       tgcl <subcommand> --help for per-subcommand options\n")


def dispatch(argv) -> int:
    """Route argv to a subcommand runner; returns the process exit code."""
    argv = list(argv)
    if not argv:
        sys.stderr.write(_usage())
        return 1
    if argv[0] in ("-h", "--help"):
        sys.stdout.write(_usage())
        return 0
    if argv[0] == "--version":
        print(__version__)
        return 0
    name = argv[0]
    if name not in _SUBCOMMANDS:
        sys.stderr.write(f"unknown subcommand {name!r}\n{_usage()}")
        return 1
    opts, runner = _SUBCOMMANDS[name]
    parser = _build_parser(name, opts)
    try:
        ns = parser.parse_args(argv[1:])
        conf = _merge_config(parser, ns, opts)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DataError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        return runner(conf)
    except DataError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
