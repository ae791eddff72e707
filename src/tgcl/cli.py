"""Command-line entry point.

Subcommands: sample-views, synth, train, embed, linear-eval,
probe-invariance, grad-check. Exit codes: 0 success, 1 usage error,
2 data error, 3 numeric failure.

Every option can also come from a flat key=value config file (--config);
precedence is flags > config file > built-in defaults, and the fully
resolved settings are written next to each subcommand's outputs (train's
as `config.resolved`, the others' as `config.<subcommand>.resolved`) so
any run can be reproduced from its artifacts alone.

An option that sets a library value (a config class field or a function
parameter) is passed to it by that name, and defaults to the library's own
default, read when the option tables are built. Two are named otherwise:
train's --readout sets readout_stat, and synth's --ratio-in-out sets p_in
against a p_out of 1. train and probe-invariance share one table of graph
inputs: --edges, --features and the synthesized-feature settings
--feature-policy, --feature-dim and --feature-seed.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
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
from .gradcheck import run_grad_check
from .graph import FEATURE_POLICIES, csv_text, load_temporal_graph, read_table
from .losses import LOSS_LEVELS, LossConfig
from .model import READOUT_STATS, load_params
from .sampling import STRATEGIES, SamplerConfig, sample_windows
from .training import TrainConfig, embed_all, train

_REQUIRED = object()


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


def _defaults(fn) -> dict:
    """fn's parameter defaults by name."""
    return {name: param.default for name, param in inspect.signature(fn).parameters.items()}


def _named(fn, conf: dict) -> dict:
    """The resolved options named after fn's parameters (a config class's fields)."""
    names = inspect.signature(fn).parameters
    return {name: value for name, value in conf.items() if name in names}


# the library defaults the options feed: each option that sets a library
# value defaults to that value, read here once, so the CLI holds no copy
_SAMPLER, _TRAIN, _INVARIANCE = SamplerConfig(), TrainConfig(), InvarianceConfig()
_LOAD, _SPLIT, _LINEAR = (_defaults(load_temporal_graph), _defaults(make_split),
                          _defaults(train_linear_probe))
_GRAD = _defaults(run_grad_check)

# option tables: name -> (type, default, help[, choices]); _REQUIRED means
# the value must arrive via flag or config file, and a value outside the
# choices is rejected from either
_SAMPLE_OPTS = {
    "edges": (str, _REQUIRED, "edges csv (src,dst,timestamp) defining the timespan"),
    "strategy": (str, _SAMPLER.strategy, "sampling strategy", STRATEGIES),
    "s": (int, _SAMPLER.s, "number of timespans the span is divided into"),
    "v": (int, _SAMPLER.v, "number of views per epoch"),
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
    "seed": (int, _defaults(generate_synthetic)["seed"], "generator seed"),
    "out-prefix": (str, _REQUIRED, "output path prefix"),
}

# the graph inputs of train and probe-invariance, read by _load_graph_from_conf
# (embed's features follow its checkpoint instead)
_GRAPH_OPTS = {
    "edges": (str, _REQUIRED, "edges csv"),
    "features": (str, None, "optional node features csv"),
    "feature-policy": (str, _LOAD["feature_policy"],
                       "synthesized-feature policy when no features file", FEATURE_POLICIES),
    "feature-dim": (int, _LOAD["feature_dim"], "synthesized feature dimension"),
    "feature-seed": (int, _LOAD["feature_seed"], "synthesized feature seed"),
}

_TRAIN_OPTS = {
    **_GRAPH_OPTS,
    "labels": (str, None, "optional labels csv; training reads no label, its ids join the node table"),
    "strategy": (str, _TRAIN.sampler.strategy, "sampling strategy", STRATEGIES),
    "s": (int, _TRAIN.sampler.s, "timespan count"),
    "v": (int, _TRAIN.sampler.v, "views per epoch"),
    "level": (str, _TRAIN.loss.level, "contrastive level", LOSS_LEVELS),
    "tau": (float, _TRAIN.loss.tau, "InfoNCE temperature"),
    "epochs": (int, _TRAIN.epochs, "training epochs"),
    "seed": (int, _TRAIN.seed, "master seed"),
    "out": (str, _REQUIRED, "output directory"),
    "lr": (float, _TRAIN.lr, "Adam learning rate"),
    "weight-decay": (float, _TRAIN.weight_decay, "L2 weight decay"),
    "batch-size": (int, _TRAIN.batch_size, "minibatch size"),
    "d-hidden": (int, _TRAIN.d_hidden, "encoder hidden width"),
    "d-out": (int, _TRAIN.d_out, "embedding width"),
    "readout": (str, _TRAIN.readout_stat, "neighborhood statistic; read at graph level only",
                READOUT_STATS),
    "batches-per-epoch": (int, _TRAIN.batches_per_epoch, "optimizer steps per epoch"),
    "checkpoint-every": (int, _TRAIN.checkpoint_every,
                         "also checkpoint every K epochs (0: only final)"),
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
    "ratios": (_ratios, _SPLIT["ratios"], "train:val:test ratios"),
    "seed": (int, _SPLIT["seed"], "split seed"),
    "out": (str, _REQUIRED, "report json path"),
    "epochs": (int, _LINEAR["epochs"], "probe epochs, an upper bound: the probe stops once "
                                       "validation accuracy is 1.0, with the result a "
                                       "full-length run gives"),
    "lr": (float, _LINEAR["lr"], "probe learning rate"),
    "weight-decay": (float, _LINEAR["weight_decay"], "probe weight decay"),
}

_PROBE_OPTS = {
    **_GRAPH_OPTS,
    "labels": (str, _REQUIRED, "labels csv"),
    "s": (int, _REQUIRED, "number of sequential timespans"),
    "seed": (int, _INVARIANCE.seed, "probe seed"),
    "out": (str, _REQUIRED, "agreement matrix csv path"),
    "epochs": (int, _INVARIANCE.epochs, "supervised epochs per timespan"),
    "lr": (float, _INVARIANCE.lr, "supervised learning rate"),
    "weight-decay": (float, _INVARIANCE.weight_decay, "supervised weight decay"),
    "encoder": (str, _INVARIANCE.encoder, "probe encoder", PROBE_ENCODERS),
    "ratios": (_ratios, _INVARIANCE.ratios, "split ratios"),
}

_GRADCHECK_OPTS = {
    "seed": (int, _GRAD["seed"], "fixture seed"),
    "h": (float, _GRAD["h"], "finite-difference step"),
    "tol": (float, 1e-4, "pass threshold on max relative error"),
    "out": (str, None, "optional json report path"),
}


def _build_parser(name: str, opts: dict) -> _Parser:
    parser = _Parser(prog=f"tgcl {name}", add_help=True)
    for flag, (typ, _default, help_text, *choices) in opts.items():
        parser.add_argument(f"--{flag}", type=typ, default=argparse.SUPPRESS, help=help_text,
                            choices=choices[0] if choices else None)
    parser.add_argument("--config", type=str, default=argparse.SUPPRESS,
                        help="key=value file; flags override its entries")
    return parser


def _read_config_file(path: str, opts: dict) -> dict:
    conf = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(text.split("\n"), 1):  # the tables' line rule: \n alone
        line = raw.strip()
        if not line or line[0] == "#":  # the comment rule of every table
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in opts:
            raise DataError(f"{path}:{lineno}: unknown option {key!r}")
        if key in conf:
            raise DataError(f"{path}:{lineno}: option {key!r} is set twice")
        typ, _default, _help, *choices = opts[key]
        try:
            conf[key] = typ(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DataError(f"{path}:{lineno}: bad value for {key}: {exc}")
        if choices and conf[key] not in choices[0]:
            raise DataError(f"{path}:{lineno}: bad value for {key}: {value!r} is not one of "
                            f"{', '.join(choices[0])}")
    return conf


def _merge_config(parser: _Parser, ns: argparse.Namespace, opts: dict) -> dict:
    given = vars(ns)
    file_conf = {}
    if "config" in given:
        file_conf = _read_config_file(given.pop("config"), opts)
    conf = {}
    for flag, (_, default, *_rest) in opts.items():
        dest = flag.replace("-", "_")
        if dest in given:
            conf[dest] = given[dest]
        elif flag in file_conf:
            conf[dest] = file_conf[flag]
        elif default is _REQUIRED:
            parser.error(f"--{flag} is required (flag or config file)")
        else:
            conf[dest] = default
        value = conf[dest]  # the resolved config file must hold it: checked before any work
        if isinstance(value, str) and value.encode("utf-8", "replace").decode() != value:
            raise DataError(f"--{flag} {value!r} is not valid UTF-8")
    if conf.get("seed", 0) < 0:
        raise DataError(f"seed must be non-negative, got {conf['seed']}")
    return conf


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ":".join(str(p) for p in value)
    return str(value)


def _write(path, text: str) -> None:
    """Write text as UTF-8 to path, making its directory first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _resolved(conf: dict) -> dict:
    """The set options as a config file spells them: option name -> value
    text, in sorted order; unset options are left out."""
    return {key.replace("_", "-"): _fmt_value(value)
            for key, value in sorted(conf.items()) if value is not None}


def _write_resolved(directory: Path, command: str, conf: dict) -> None:
    """Write the settings as a config file that --config reads back, train's as
    config.resolved; the command and version are comments."""
    lines = [f"# command={command}\n", f"# version={__version__}\n"]
    lines += [f"{key}={value}\n" for key, value in _resolved(conf).items()]
    name = "config.resolved" if command == "train" else f"config.{command}.resolved"
    _write(directory / name, "".join(lines))


def _run_sample_views(conf: dict) -> int:
    if conf["epochs"] < 1:
        raise DataError(f"epochs must be at least 1, got {conf['epochs']}")
    graph = load_temporal_graph(conf["edges"])
    cfg = SamplerConfig(**_named(SamplerConfig, conf))
    text = csv_text((epoch, index, float(w.lo), float(w.hi))
                    for epoch in range(1, conf["epochs"] + 1)
                    for index, w in enumerate(sample_windows(graph, cfg, epoch, conf["seed"])))
    if conf["out"]:
        out = Path(conf["out"])
        _write(out, text)
        _write_resolved(out.parent, "sample-views", conf)
    else:
        sys.stdout.write(text)
    return 0


def _run_synth(conf: dict) -> int:
    graph = generate_synthetic(p_in=conf["ratio_in_out"], p_out=1.0,
                               **_named(generate_synthetic, conf))
    prefix = Path(conf["out_prefix"])
    edges_path, labels_path = Path(f"{prefix}.edges.csv"), Path(f"{prefix}.labels.csv")
    ids = graph.node_ids
    _write(edges_path, csv_text(zip(ids[graph.src].tolist(), ids[graph.dst].tolist(),
                                    graph.timestamps.tolist())))
    labelled = graph.labels >= 0
    _write(labels_path, csv_text(zip(ids[labelled].tolist(), graph.labels[labelled].tolist())))
    _write_resolved(prefix.parent, "synth", conf)
    print(f"wrote {graph.num_edges} edges to {edges_path} and {labelled.sum()} labels to {labels_path}")
    return 0


def _load_graph_from_conf(conf: dict):
    return load_temporal_graph(conf["edges"], features_path=conf["features"],
                               labels_path=conf["labels"], **_named(load_temporal_graph, conf))


def _run_train(conf: dict) -> int:
    graph = _load_graph_from_conf(conf)
    out_dir = Path(conf["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = TrainConfig(
        sampler=SamplerConfig(**_named(SamplerConfig, conf)),
        loss=LossConfig(**_named(LossConfig, conf)),
        readout_stat=conf["readout"],
        checkpoint_path=str(out_dir / "params.ckpt"),
        **_named(TrainConfig, conf),
    )
    params, log = train(graph, cfg)
    _write(out_dir / "train_log.csv", "".join(log.csv_lines()))
    _write_resolved(out_dir, "train", conf)
    final = log.records[-1]
    print(f"trained {cfg.epochs} epochs on {graph.num_nodes} nodes; "
          f"final loss {final.loss:.6f}; outputs in {out_dir}")
    return 0


def _checkpoint_feature_spec(ckpt: str, meta: dict) -> dict:
    """The synthesized-feature settings a checkpoint records, as
    load_temporal_graph arguments. Its counts must be JSON integers."""
    try:
        spec = {"feature_policy": str(meta["feature_policy"]),
                "feature_dim": meta["feature_dim"],
                "feature_seed": meta["feature_seed"]}
    except KeyError:
        raise DataError(f"{ckpt} does not record how its features were synthesized; pass the "
                        f"features file it was trained on with --features") from None
    for key in ("feature_dim", "feature_seed", "feature_nodes"):
        if key in meta and type(meta[key]) is not int:
            raise DataError(f"{ckpt}: checkpoint {key} must be an integer, got {meta[key]!r}")
    return spec


def _run_embed(conf: dict) -> int:
    params, meta = load_params(conf["ckpt"])
    spec = {} if conf["features"] else _checkpoint_feature_spec(conf["ckpt"], meta)
    graph = load_temporal_graph(conf["edges"], features_path=conf["features"], **spec)
    if spec and meta.get("feature_nodes", graph.num_nodes) != graph.num_nodes:
        raise DataError(
            f"{conf['ckpt']}: its random features were drawn for {meta['feature_nodes']} "
            f"nodes, but {conf['edges']} has {graph.num_nodes}, and every node's features "
            f"depend on that count (were some nodes only in the labels file given to train?)")
    if graph.feature_dim != params.d_in:
        raise DataError(
            f"graph features have dim {graph.feature_dim} but checkpoint expects {params.d_in}")
    try:
        table = embed_all(graph, params)
    except NumericError:
        raise NumericError(f"non-finite embeddings from {conf['ckpt']}: its weights overflow "
                           f"the encoder on this graph") from None
    out = Path(conf["out"])
    _write(out, csv_text([nid, *row] for nid, row in zip(graph.node_ids.tolist(), table.tolist())))
    _write_resolved(out.parent, "embed", conf)
    print(f"wrote {table.shape[0]} embeddings of width {table.shape[1]} to {out}")
    return 0


def _run_linear_eval(conf: dict) -> int:
    ids, table = read_table(conf["embeddings"], "embeddings")
    order = np.argsort(ids)
    ids, table = ids[order], table[order]
    label_ids, codes = read_table(conf["labels"], "labels")
    pos = np.minimum(np.searchsorted(ids, label_ids), ids.size - 1)
    known = ids[pos] == label_ids  # labels of nodes without an embedding are dropped
    labels = np.full(ids.size, -1, dtype=np.int64)
    labels[pos[known]] = codes[known]
    split = make_split(labels, ratios=conf["ratios"], seed=conf["seed"])
    probe = train_linear_probe(table, labels, split, lr=conf["lr"],
                               weight_decay=conf["weight_decay"], epochs=conf["epochs"])
    report = evaluate(probe, table, labels, split)
    out = Path(conf["out"])
    body = {**report.as_dict(), "config": _resolved(conf)}
    _write(out, json.dumps(body, sort_keys=True, indent=2) + "\n")
    _write_resolved(out.parent, "linear-eval", conf)
    print(f"accuracy {report.accuracy:.4f}, weighted F1 {report.weighted_f1:.4f} "
          f"on {split.test.size} test nodes (report: {out})")
    return 0


def _run_probe_invariance(conf: dict) -> int:
    graph = _load_graph_from_conf(conf)  # --labels is required, so graph.labels is set
    cfg = InvarianceConfig(**_named(InvarianceConfig, conf))
    result = probe_invariance(graph, graph.labels, conf["s"], cfg)
    out = Path(conf["out"])
    _write(out, csv_text(result.matrix.tolist()))
    _write_resolved(out.parent, "probe-invariance", conf)
    mean = result.mean_agreement()
    print(f"mean off-diagonal agreement {mean:.4f} over {result.eval_nodes.size} shared "
          f"test nodes (matrix: {out})")
    return 0


def _run_grad_check(conf: dict) -> int:
    if not 0 < conf["tol"] < np.inf:
        raise DataError(f"tolerance must be positive and finite, got {conf['tol']}")
    report = run_grad_check(**_named(run_grad_check, conf))
    per_stat = ", ".join(f"{stat} {err:.3e}" for stat, err in report["graph"]["per_stat"].items())
    print(f"max relative gradient error {report['worst']:.3e} "
          f"(node {report['node']['max']:.3e}, graph {report['graph']['max']:.3e}: {per_stat})")
    if conf["out"]:
        out = Path(conf["out"])
        _write(out, json.dumps(report, sort_keys=True, indent=2) + "\n")
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
        return runner(_merge_config(parser, parser.parse_args(argv[1:]), opts))
    except SystemExit as exc:  # argparse's usage errors and --help
        return int(exc.code or 0)
    except (DataError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
