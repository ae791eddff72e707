"""The CLI's exit-code contract as one property over `cli.dispatch`.

Each example draws a subcommand, option values by each option's type
(0, negatives, NaN, inf, 1e308 and subnormals among them) and input files
mutated from small valid ones, then runs the command in process. No
exception may escape; the exit code is 0-3, and a non-zero one comes with
a message on stderr; exit 0 comes only with finite outputs, and for
`probe-invariance` with at least one measured pair. No exit code comes with
a NumPy RuntimeWarning: on a successful run one means its outputs rest on
an overflow or a NaN, and on a failed run tgcl's own message is the whole
report. `grad-check` is left out: one valid run takes seconds, and its own
tests cover its options.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tgcl import cli
from tgcl.cli import dispatch
from tgcl.evaluation import PROBE_ENCODERS
from tgcl.graph import FEATURE_POLICIES, read_table
from tgcl.losses import LOSS_LEVELS
from tgcl.model import READOUT_STATS, load_params
from tgcl.sampling import STRATEGIES


def _run(argv):
    """(exit code, stdout, stderr, the RuntimeWarnings raised)"""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = dispatch(argv)
    runtime = [str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue(), err.getvalue(), runtime


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The valid inputs every example mutates, as bytes: a 16-node graph,
    its labels and features, two tiny checkpoints (synthesized features and
    a features file) and embeddings."""
    d = tmp_path_factory.mktemp("base")
    assert _run(["synth", "--k", "2", "--n", "16", "--T", "4.0", "--events", "120",
                 "--ratio-in-out", "8.0", "--seed", "3", "--out-prefix", str(d / "g")])[0] == 0
    rng = np.random.default_rng(0)
    (d / "features.csv").write_text("".join(
        f"{i}," + ",".join(map(repr, rng.standard_normal(3).tolist())) + "\n" for i in range(16)))
    small = ["--epochs", "2", "--s", "2", "--d-hidden", "4", "--d-out", "3"]
    assert _run(["train", "--edges", str(d / "g.edges.csv"), "--out", str(d / "a"),
                 "--feature-policy", "random", "--feature-dim", "4", *small])[0] == 0
    assert _run(["train", "--edges", str(d / "g.edges.csv"), "--out", str(d / "b"),
                 "--features", str(d / "features.csv"), *small])[0] == 0
    assert _run(["embed", "--edges", str(d / "g.edges.csv"), "--ckpt", str(d / "a" / "params.ckpt"),
                 "--out", str(d / "emb.csv")])[0] == 0
    files = {"edges": d / "g.edges.csv", "labels": d / "g.labels.csv",
             "features": d / "features.csv", "ckpt": d / "a" / "params.ckpt",
             "ckpt-features": d / "b" / "params.ckpt", "embeddings": d / "emb.csv"}
    return _Inputs({name: path.read_bytes() for name, path in files.items()}, d)


class _Inputs:
    """The base files' bytes by name, and the directory examples run in."""

    def __init__(self, files: dict, root: Path):
        self.files, self.root = files, root

    def __repr__(self) -> str:  # a failing example prints its command, not these bytes
        return "base"


_CELLS = st.sampled_from([b"nan", b"inf", b"-inf", b"1e308", b"-1e308", b"5e-324", b"2e-310",
                          b"-1", b"0", b"-0.0", b"", b"x", b"1.5", b"2e400", b"99999999999999999999",
                          b" 7 ", b"1_0"])
_META = st.tuples(st.sampled_from(["meta/feature_dim", "meta/feature_seed", "meta/feature_nodes",
                                   "meta/feature_policy", "dims/d_in", "dims/d_out"]),
                  st.sampled_from([4.5, "x", -1, 0, 1, 3, 4, 16, True, None, [], "random"]))
_MUTATIONS = st.one_of(
    st.just(("keep",)),
    st.tuples(st.just("truncate"), st.floats(0, 1)),
    st.tuples(st.just("line"), st.integers(0, 99),
              st.sampled_from(["drop", "dup", "blank", "comment", "swap"])),
    st.tuples(st.just("cell"), st.integers(0, 99), st.integers(0, 9), _CELLS),
    st.tuples(st.just("width"), st.integers(0, 99), st.sampled_from(["add", "drop"])),
    st.tuples(st.just("bytes"), st.floats(0, 1),
              st.sampled_from([b"\xff", b"\x00", b"\xc3", "٣".encode(), b"\r", b"\x1c"])),
    st.tuples(st.just("meta"), _META),
)


def _mutate(data: bytes, mutation) -> bytes:
    kind, *args = mutation
    lines = data.split(b"\n")
    if kind == "truncate":
        return data[:int(args[0] * len(data))]
    if kind == "bytes":
        at = int(args[0] * len(data))
        return data[:at] + args[1] + data[at:]
    if kind in ("line", "cell", "width"):
        i = args[0] % len(lines)
        if kind == "line":
            op = args[1]
            if op == "drop":
                del lines[i]
            elif op == "dup":
                lines.insert(i, lines[i])
            elif op == "blank":
                lines.insert(i, b"   ")
            elif op == "comment":
                lines.insert(i, b"# note, 1, 2")
            else:
                lines[i], lines[0] = lines[0], lines[i]
        elif kind == "cell":
            cells = lines[i].split(b",")
            cells[args[1] % len(cells)] = args[2]
            lines[i] = b",".join(cells)
        else:
            lines[i] = lines[i] + b",1.0" if args[1] == "add" else lines[i].rpartition(b",")[0]
        return b"\n".join(lines)
    if kind == "meta" and data.startswith(b"tgcl-checkpoint"):
        (key, value), = args
        header = json.loads(lines[1])
        part, name = key.split("/")
        header[part][name] = value
        magic, _, rest = data.partition(b"\n")
        body = rest.partition(b"\n")[2]
        return magic + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n" + body
    return data


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324,
                     1e-310, 1e-3, 0.5, 2.0]),
    st.floats(width=64),
)
_SEEDS = st.integers(-2, 3) | st.sampled_from([2 ** 32, 2 ** 63, 2 ** 64 + 7, 10 ** 30])
# widths and counts stay small so each example runs in milliseconds
_SIZES = st.integers(-2, 6)
_RATIOS = st.sampled_from(["1:1:8", "2:1:7", "0:0:1", "1:0:0", "0:1:1", "1:1:0", "0:0:0",
                           "-1:1:8", "1:1", "a:b:c", "10:1:1"])


def _choice(values):
    return st.sampled_from([*values, "bogus"])


def _file(*names):
    """A valid input file (the first name, unchanged), and any input file
    or none, mutated."""
    return (st.tuples(st.just(names[0]), st.just(("keep",))),
            st.tuples(st.sampled_from([*names, "missing", "directory"]), _MUTATIONS))


def _num(valid, odd):
    return st.sampled_from(valid), odd


_OUT = st.just("ok"), st.sampled_from(["ok", "under-a-file", "not-utf8"])
_S = _num([2, 3, 4], _SIZES | st.sampled_from([2 ** 62, 2 ** 63, 10 ** 20]))
_V = _num([2, 3], _SIZES)
_SEED = _num([0, 1, 3], _SEEDS)
_WIDTH = _num([1, 3, 6], _SIZES)
_RATE = _num([1e-3, 1e-2], _FLOATS)
_DECAY = _num([0.0, 5e-4], _FLOATS)

# subcommand -> option -> (valid draw, odd draw); each example gives up to
# three options an odd value. Widths and counts stay small, so each example
# runs in milliseconds, and the options whose defaults would not are always
# given (_ALWAYS).
_OPTIONS = {
    "sample-views": {
        "edges": _file("edges", "labels"), "strategy": _num(STRATEGIES, _choice(STRATEGIES)),
        "s": _S, "v": _V, "seed": _SEED, "epochs": _num([1, 3], st.integers(-1, 3)),
        "out": _OUT,
    },
    "synth": {
        "k": _num([2, 3], st.integers(-1, 4)), "n": _num([12, 24], st.integers(-1, 24)),
        "T": _num([1.0, 4.0], _FLOATS), "events": _num([40, 200], st.integers(-1, 200)),
        "ratio-in-out": _num([2.0, 8.0], _FLOATS), "seed": _SEED, "out-prefix": _OUT,
    },
    "train": {
        "edges": _file("edges", "features"), "features": _file("features"),
        "labels": _file("labels"), "strategy": _num(STRATEGIES, _choice(STRATEGIES)),
        "s": _S, "v": _V, "level": _num(LOSS_LEVELS, _choice(LOSS_LEVELS)),
        "tau": _num([0.1, 0.5], _FLOATS), "epochs": _num([1, 3], st.integers(-1, 3)),
        "seed": _SEED, "out": _OUT, "lr": _RATE, "weight-decay": _DECAY,
        "batch-size": _num([2, 8, 40], st.integers(-1, 40)), "d-hidden": _WIDTH,
        "d-out": _WIDTH, "readout": _num(READOUT_STATS, _choice(READOUT_STATS)),
        "feature-policy": _num(FEATURE_POLICIES, _choice(FEATURE_POLICIES)),
        "feature-dim": _WIDTH, "feature-seed": _SEED,
        "batches-per-epoch": _num([1, 2], st.integers(-1, 2)),
        "checkpoint-every": _num([0, 1], st.integers(-1, 3) | st.just(2 ** 70)),
    },
    "embed": {
        "edges": _file("edges"), "ckpt": _file("ckpt", "ckpt-features"), "out": _OUT,
        "features": _file("features"),
    },
    "linear-eval": {
        "embeddings": _file("embeddings", "features"), "labels": _file("labels"),
        "ratios": _num(["1:1:8", "2:1:7", "1:1:1"], _RATIOS), "seed": _SEED, "out": _OUT,
        "epochs": _num([0, 30], st.integers(-1, 30)), "lr": _RATE, "weight-decay": _DECAY,
    },
    "probe-invariance": {
        "edges": _file("edges"), "features": _file("features"), "labels": _file("labels"),
        "s": _num([2, 3, 4], st.integers(-1, 6) | st.sampled_from([40, 2 ** 62])),
        "seed": _SEED, "out": _OUT, "epochs": _num([1, 3], st.integers(-1, 3)), "lr": _RATE,
        "weight-decay": _DECAY,
        "encoder": _num(PROBE_ENCODERS, _choice(PROBE_ENCODERS)),
        "ratios": _num(["1:1:8", "2:1:7"], _RATIOS),
        "feature-policy": _num(FEATURE_POLICIES, _choice(FEATURE_POLICIES)),
        "feature-dim": _WIDTH, "feature-seed": _SEED,
    },
}
_ALWAYS = {"train": {"epochs", "d-hidden", "d-out", "feature-dim"},
           "probe-invariance": {"epochs", "feature-dim"}}

_OUT_NAMES = {"sample-views": "windows.csv", "synth": "toy", "train": "run", "embed": "emb.csv",
              "linear-eval": "report.json", "probe-invariance": "matrix.csv"}


@st.composite
def _commands(draw):
    """(subcommand, {option: (value, 'flag' or 'config')}). Up to three
    options draw an odd value, any of which may be left out; the others
    draw a valid one, and the optional ones among them may be left out,
    taking their defaults."""
    name = draw(st.sampled_from(sorted(_OPTIONS)))
    opts = cli._SUBCOMMANDS[name][0]
    odd = draw(st.sets(st.sampled_from(sorted(_OPTIONS[name])), max_size=3))
    chosen = {}
    for flag, (valid, weird) in _OPTIONS[name].items():
        required = opts[flag][1] is cli._REQUIRED or flag in _ALWAYS.get(name, ())
        if flag in odd:
            if draw(st.integers(0, 7)):  # left out 1 time in 8
                chosen[flag] = draw(weird)
        elif required or draw(st.booleans()):
            chosen[flag] = draw(valid)
    return name, {flag: (value, draw(st.sampled_from(["flag", "flag", "config"])))
                  for flag, value in chosen.items()}


def test_the_sweep_draws_every_option_of_every_subcommand_but_grad_check():
    assert set(_OPTIONS) == set(cli._SUBCOMMANDS) - {"grad-check"}
    for name, options in _OPTIONS.items():
        assert set(options) == set(cli._SUBCOMMANDS[name][0]), name


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _csv(path: Path, skip: int = 0) -> np.ndarray:
    rows = [line.split(",") for line in path.read_text().splitlines()[skip:]]
    return np.array(rows, dtype=np.float64)


def _finite_csv(path: Path, skip: int = 0) -> None:
    table = _csv(path, skip)
    assert table.size and np.isfinite(table).all(), path


def _check_outputs(name, out: Path, stdout: str) -> None:
    """Exit 0: the outputs exist and every value in them is finite."""
    if name == "sample-views":
        path = out if out.exists() else None
        text = path.read_text() if path else stdout
        table = np.array([line.split(",") for line in text.splitlines()], dtype=np.float64)
        assert table.shape[1] == 4 and np.isfinite(table).all() and (table[:, 2] <= table[:, 3]).all()
    elif name == "synth":
        read_table(Path(f"{out}.edges.csv"), "edges")  # a non-finite value is a DataError
        read_table(Path(f"{out}.labels.csv"), "labels")
    elif name == "train":
        load_params(out / "params.ckpt")  # rejects non-finite tensors
        _finite_csv(out / "train_log.csv", skip=1)
    elif name == "embed":
        read_table(out, "embeddings")
    elif name == "linear-eval":
        report = json.loads(out.read_text())
        values = [report["accuracy"], report["weighted_f1"]]
        values += [c[k] for c in report["per_class"] for k in ("precision", "recall", "f1")]
        assert all(math.isfinite(v) for v in values), report
    elif name == "probe-invariance":
        matrix = _csv(out)
        measured = ~np.isnan(np.diag(matrix))
        assert (np.diag(matrix)[measured] == 1.0).all()
        # a missing timespan's row and column are NaN, every other cell is a rate
        pair = measured[:, None] & measured[None, :]
        assert np.isnan(matrix[~pair]).all()
        assert ((matrix[pair] >= 0.0) & (matrix[pair] <= 1.0)).all()
        assert measured.sum() >= 2


@settings(deadline=None, derandomize=True, max_examples=400)
@given(command=_commands())
def test_dispatch_keeps_its_exit_code_contract(base, command):
    name, chosen = command
    with tempfile.TemporaryDirectory(dir=base.root) as tmp:
        tmp = Path(tmp)
        (tmp / "a-file").write_bytes(b"")
        out = tmp / "out" / _OUT_NAMES[name]
        argv, config = [name], []
        for flag, (value, route) in chosen.items():
            if isinstance(value, tuple):  # an input file and its mutation
                key, mutation = value
                path = tmp / f"{flag}.in"
                if key == "directory":
                    path.mkdir()
                elif key != "missing":
                    path.write_bytes(_mutate(base.files[key], mutation))
                value = path
            elif value == "not-utf8":  # the byte 0x85 in a path, as Python decodes argv
                value = tmp / "out\udc85" / _OUT_NAMES[name]
            elif value in ("ok", "under-a-file"):
                value = out if value == "ok" else tmp / "a-file" / _OUT_NAMES[name]
            if route == "flag":
                argv.append(f"--{flag}={_text(value)}")
            else:
                config.append(f"{flag}={_text(value)}\n")
        if config:
            (tmp / "conf.txt").write_text("".join(config), errors="surrogateescape")
            argv.append(f"--config={tmp / 'conf.txt'}")

        code, stdout, stderr, runtime = _run(argv)  # an escaping exception fails the property
        event(f"{name} exit {code}")

        assert code in (0, 1, 2, 3), (argv, code)
        assert not runtime, (argv, code, runtime)
        if code:
            assert stderr.strip(), (argv, code)
        else:
            _check_outputs(name, out, stdout)
