"""The row-split sparse product: its bytes, its threads, its pool (see also test_pool.py)."""

import functools
import importlib
import inspect
import multiprocessing
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tgcl
from tgcl import (
    LossConfig,
    SamplerConfig,
    TrainConfig,
    embed_all,
    generate_synthetic,
    init_params,
    train,
)
from tgcl import kernels

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("graph", "sampling", "model", "kernels", "losses", "training", "evaluation")
SPECIALS = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])


@st.composite
def _csr_products(draw):
    """A CSR array with empty rows and runs of them, int32 or int64
    indices, possibly fewer rows than blocks, and a dense operand of one or
    more columns holding signed zeros, NaN and infinities."""
    m = draw(st.integers(0, 12))
    n = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.sampled_from([0, 0, 1, 2, 5]), min_size=m, max_size=m))
    nnz = sum(lengths)
    indices = draw(hnp.arrays(np.int64, nnz, elements=st.integers(0, n - 1)))
    values = st.floats(-1e3, 1e3) | SPECIALS
    data = draw(hnp.arrays(np.float64, nnz, elements=values))
    adj = sp.csr_array((data, indices, np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))),
                       shape=(m, n))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    adj.indices, adj.indptr = adj.indices.astype(dtype), adj.indptr.astype(dtype)
    x = draw(hnp.arrays(np.float64, (n, draw(st.sampled_from([1, 2, 7]))),
                        elements=st.floats(allow_nan=True, allow_infinity=True) | SPECIALS))
    return adj, x


@settings(deadline=None, derandomize=True, max_examples=300)
@given(_csr_products(), st.integers(2, 4))
def test_a_split_product_is_adj_at_x_byte_for_byte(product, cpus):
    # SPLIT_WORK = 1 splits every product of two or more multiply-adds
    adj, x = product
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "SPLIT_WORK", 1)
        mp.setattr(kernels, "_cpu_count", lambda: cpus)
        out = kernels.spmm(adj, x)
    ref = adj @ x
    assert (out.dtype, out.shape) == (ref.dtype, ref.shape)
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("split", [False, True])
@settings(deadline=None, derandomize=True, max_examples=200)
@given(_csr_products(), st.data(), st.integers(2, 4))
def test_a_product_on_the_csr_transpose_is_a_t_at_g_byte_for_byte(split, product, data, cpus):
    # the encoder's and the readout's backward take aᵀ·g as spmm on the CSR
    # transpose. SciPy runs aᵀ·g as a scatter over a's rows; both sum each
    # output row from zero in increasing row order of a, duplicates in storage
    # order. Without the split the product is one block. One exception: where
    # a row of a one-column product meets two NaNs of different bits, SciPy's
    # CSR routine, and so spmm, keeps the first and its CSC routine the last.
    # No CSR kernel can equal both, and spmm stays adj @ x
    a, x = product
    g = data.draw(hnp.arrays(np.float64, (a.shape[0], x.shape[1]),
                             elements=st.floats(allow_nan=True, allow_infinity=True) | SPECIALS))
    with pytest.MonkeyPatch.context() as mp:
        if split:
            mp.setattr(kernels, "SPLIT_WORK", 1)
            mp.setattr(kernels, "_cpu_count", lambda: cpus)
        out = kernels.spmm(a.T.tocsr(), g)
    ref = a.T @ g
    assert (out.dtype, out.shape) == (ref.dtype, ref.shape)
    if g.shape[1] == 1:
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(out), nan)
        out, ref = out[~nan], ref[~nan]
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("split", [False, True])
def test_a_one_column_row_keeps_the_nan_adj_at_x_keeps(monkeypatch, split):
    # every row meets two NaNs of different bits. adj @ x runs one column
    # through csr_matvec, which keeps the first; csr_matvecs keeps the last,
    # so a split that ran one-column blocks through it would differ here
    adj = sp.csr_array(np.ones((4, 2)))
    x = np.array([[0x7FF8000000000001], [0x7FF8000000000002]], dtype=np.uint64).view(np.float64)
    if split:
        monkeypatch.setattr(kernels, "SPLIT_WORK", 1)
        monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    assert kernels.spmm(adj, x).tobytes() == (adj @ x).tobytes()


def test_a_split_product_refuses_an_operand_of_the_wrong_height(monkeypatch):
    # SciPy's routines read x without checking its size
    monkeypatch.setattr(kernels, "SPLIT_WORK", 1)
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    with pytest.raises(ValueError, match="spmm shape mismatch"):
        kernels.spmm(sp.csr_array(np.ones((4, 3))), np.ones((2, 5)))


def test_no_product_splits_below_the_constant(monkeypatch):
    # every product of graph-level training on a graph of graph-rand-400's
    # make-up, and of its embed_all, is below twice SPLIT_WORK: each runs as
    # one SciPy product, wherever it runs. (The step's views and loss pairs
    # run on the task pool, inside whose tasks a split product's blocks would
    # run one after another.)
    work, spmm = [], kernels.spmm

    def recording(adj, x):
        work.append(adj.nnz * x.shape[1])
        return spmm(adj, x)

    monkeypatch.setattr(kernels, "spmm", recording)
    graph = generate_synthetic(k=4, n=400, T=20.0, p_in=5.0, p_out=1.0, events=8000,
                               feature_dim=64)
    cfg = TrainConfig(sampler=SamplerConfig("random", 4, 3), loss=LossConfig("graph", 0.5),
                      epochs=2, seed=0)
    params, _ = train(graph, cfg)
    embed_all(graph, params)
    assert len(work) == 2 * 3 * 5 + 2  # per view: 3 forward products and 2 backward
    assert max(work) < 2 * kernels.SPLIT_WORK


def _small_graph():
    graph = generate_synthetic(k=3, n=90, T=10.0, p_in=10.0, p_out=1.0, events=900,
                               feature_dim=8)
    return graph, init_params(graph.feature_dim, 16, 8, seed=3)


def _recording(fn, record, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record.append((name, threading.get_ident()))
        return fn(*args, **kwargs)

    return wrapper


def test_public_functions_run_on_the_main_thread_while_blocks_run_on_others(monkeypatch):
    # embed_all runs every public function of the layer modules on the
    # calling thread, and only SciPy's routine on the pool's, so a span
    # tracer that keeps one stack, as bench/tracer.py does, sees it whole.
    # Each wrapper goes wherever tgcl looks the name up, as the tracer puts it
    monkeypatch.setattr(kernels, "SPLIT_WORK", 1)
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 3)
    graph, params = _small_graph()
    expected = embed_all(graph, params)
    calls, blocks = [], []
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"tgcl.{layer}")
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                wrappers[fn] = _recording(fn, calls, f"{layer}.{attr}")
    namespaces = [tgcl] + [mod for name, mod in sys.modules.items() if name.startswith("tgcl.")]
    for ns in namespaces:
        for attr, val in list(vars(ns).items()):
            if inspect.isfunction(val) and val in wrappers:
                monkeypatch.setattr(ns, attr, wrappers[val])
    routines = kernels._sparsetools
    monkeypatch.setattr(kernels, "_sparsetools", types.SimpleNamespace(
        csr_matvecs=_recording(routines.csr_matvecs, blocks, "csr_matvecs"),
        csr_matvec=_recording(routines.csr_matvec, blocks, "csr_matvec")))
    out = tgcl.embed_all(graph, params)
    assert out.tobytes() == expected.tobytes()
    main = threading.get_ident()
    assert {"training.embed_all", "model.adj_matmul", "kernels.spmm"} <= {name for name, _ in calls}
    assert {ident for _, ident in calls} == {main}
    assert main in {ident for _, ident in blocks} and len({ident for _, ident in blocks}) > 1


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="this platform cannot fork")
def test_a_forked_child_splits_on_threads_of_its_own(monkeypatch):
    # the child inherits the parent's pool object but none of its threads:
    # work queued there would wait for ever
    monkeypatch.setattr(kernels, "SPLIT_WORK", 1)
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    graph, params = _small_graph()
    expected = embed_all(graph, params)
    assert kernels._pool is not None
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send_bytes(embed_all(graph, params).tobytes()))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child's embed_all did not finish within 60 s"
        assert recv.recv_bytes() == expected.tobytes()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


_EMBED_SCRIPT = """
import hashlib, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from tgcl import embed_all, generate_synthetic, init_params, kernels
g = generate_synthetic(k=4, n=4000, T=10.0, p_in=10.0, p_out=1.0, events=80000, feature_dim=64)
h = embed_all(g, init_params(g.feature_dim, seed=0))
print(hashlib.sha256(h.tobytes()).hexdigest(), kernels._pool is not None)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs and sched_setaffinity: one CPU never splits a product")
def test_embeddings_do_not_depend_on_the_cpu_count():
    # P0 = Â·X here is 162,000 nonzeros × 64 columns, past twice SPLIT_WORK:
    # pinned to one CPU it runs serially, unpinned in blocks on two or more.
    # BLAS is held at one thread in both, so only tgcl's split differs
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs = {}
    for how in ("pinned", "unpinned"):
        proc = subprocess.run([sys.executable, "-c", _EMBED_SCRIPT, how], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        runs[how] = proc.stdout.split()
    assert runs["pinned"][1] == "False" and runs["unpinned"][1] == "True"
    assert runs["pinned"][0] == runs["unpinned"][0]
