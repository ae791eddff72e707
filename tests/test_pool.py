"""The task pool: map_tasks' order, failures, error state and nesting, and
the bytes of a training step whose views and loss pairs run on it."""

import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import tgcl.model
from tgcl import (
    LossConfig,
    SamplerConfig,
    TrainConfig,
    generate_synthetic,
    init_params,
    sample_windows,
    slice_interval,
    view_entry,
)
from tgcl import kernels
from tgcl.sampling import STRATEGIES
from tgcl.training import contrastive_step, make_minibatch, shared_nodes

SRC = Path(__file__).resolve().parents[1] / "src"
TWO_CPUS = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs and sched_setaffinity: on one CPU every task runs serially")


def test_results_come_in_task_order(monkeypatch):
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 3)
    assert kernels.map_tasks(lambda a, b: a * b, [(i, 10) for i in range(7)]) == [
        0, 10, 20, 30, 40, 50, 60]
    assert kernels.map_tasks(abs, []) == []


def test_the_first_failure_in_task_order_is_raised(monkeypatch):
    # two ways: the caller runs tasks 0 and 2, a pool thread 1 and 3. Task 2
    # fails first in time, task 1 first in task order, as the serial loop sees it
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    ran = []

    def task(i):
        ran.append(i)
        if i == 1:
            time.sleep(0.2)
            raise ValueError("task 1")
        if i == 2:
            raise ValueError("task 2")
        return i

    with pytest.raises(ValueError, match="^task 1$"):
        kernels.map_tasks(task, [(i,) for i in range(4)])
    assert sorted(ran) == [0, 1, 2]  # each share stops at its failure


def test_a_failure_is_raised_after_every_task_has_finished(monkeypatch):
    # the caller's own task fails at once; the pool's is still running and
    # writing, and must be done before map_tasks returns control
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    done = []

    def task(i):
        if i == 0:
            raise ValueError("task 0")
        time.sleep(0.2)
        done.append(i)

    with pytest.raises(ValueError, match="^task 0$"):
        kernels.map_tasks(task, [(0,), (1,)])
    assert done == [1]


@pytest.mark.filterwarnings("error")
def test_a_pool_task_keeps_the_callers_numpy_error_state(monkeypatch):
    # an overflow that the caller's errstate ignores must not warn on the
    # pool's thread either, where a warning would be raised as an error here
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)

    def overflow(x):
        return threading.get_ident(), x * 1e308

    with np.errstate(over="ignore"):
        out = kernels.map_tasks(overflow, [(np.array([10.0]),), (np.array([10.0]),)])
    assert out[0][0] == threading.get_ident() != out[1][0]
    assert all(np.isposinf(v).all() for _, v in out)


def test_a_pool_task_runs_a_large_product_without_waiting_on_its_own_pool(monkeypatch):
    # a pool of one thread: a task on it that queued spmm's row blocks on the
    # same pool would wait for ever. Inside a task every product is serial
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    monkeypatch.setattr(kernels, "_pool", None)
    adj = sp.csr_array(sp.random(600, 600, density=0.1, format="csr", random_state=0))
    x = np.random.default_rng(0).standard_normal((600, 256))
    assert adj.nnz * x.shape[1] >= 2 * kernels.SPLIT_WORK
    result = {}
    caller = threading.Thread(target=lambda: result.update(
        out=kernels.map_tasks(kernels.spmm, [(adj, x), (adj, x)])), daemon=True)
    caller.start()
    caller.join(60)
    assert not caller.is_alive(), "a task's product did not finish within 60 s"
    assert [out.tobytes() for out in result["out"]] == [(adj @ x).tobytes()] * 2


def test_first_calls_at_once_make_one_executor(monkeypatch):
    # eight threads, more than the two CPUs the pool is sized for, make their
    # first call together, with the interpreter switching threads as often as
    # it can
    made = []

    class SlowToMake(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            time.sleep(0.1)  # every caller is past the barrier by now
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    monkeypatch.setattr(kernels, "_pool", None)
    monkeypatch.setattr(kernels, "ThreadPoolExecutor", SlowToMake)
    barrier = threading.Barrier(8)
    results = []

    def first_call():
        barrier.wait()
        results.append(kernels.map_tasks(abs, [(-i,) for i in range(5)]))

    callers = [threading.Thread(target=first_call) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [[0, 1, 2, 3, 4]] * 8
    assert len(made) == 1
    made[0].shutdown()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("level, stat", [
    ("node", "mean"), ("graph", "mean"), ("graph", "sum"), ("graph", "max")])
def test_a_pooled_step_has_the_serial_steps_bytes(monkeypatch, strategy, level, stat):
    # one CPU runs the step serially; two run its views, its InfoNCE pairs
    # and its views' backwards on the pool. The caller sums in the same order
    graph = generate_synthetic(k=3, n=90, T=10.0, p_in=10.0, p_out=1.0, events=900,
                               feature_dim=8)
    cfg = TrainConfig(sampler=SamplerConfig(strategy, 4, 3), loss=LossConfig(level, 0.5),
                      d_hidden=16, d_out=8, readout_stat=stat)
    entries = [view_entry(slice_interval(graph, w.lo, w.hi), graph.features)
               for w in sample_windows(graph, cfg.sampler, 1, 0)]
    batch = make_minibatch(shared_nodes([e.view for e in entries]), 32, np.random.default_rng(0))
    params = init_params(graph.feature_dim, 16, 8, seed=3)
    threads, encode = set(), tgcl.model.encode

    def recording(field, p):
        threads.add(threading.get_ident())
        return encode(field, p)

    monkeypatch.setattr(tgcl.model, "encode", recording)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
        threads.clear()
        loss, grads = contrastive_step(entries, batch, params, cfg)
        runs[cpus] = (np.float64(loss).tobytes(), {k: g.tobytes() for k, g in grads.items()})
        assert len(threads) == cpus
    assert runs[1] == runs[2]


_TRAIN_SCRIPT = """
import os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from tgcl import kernels
from tgcl.cli import dispatch
print(dispatch(sys.argv[2:]), kernels._pool is not None)
"""


@TWO_CPUS
def test_training_does_not_depend_on_the_cpu_count(tmp_path):
    # graph-level training with three views, pinned to one CPU (every task
    # serial) and unpinned (views, pairs and backwards on the pool). BLAS is
    # held at one thread in both, so only tgcl's pool differs
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    prefix = tmp_path / "demo"
    synth = ["synth", "--k", "3", "--n", "120", "--T", "10.0", "--events", "800",
             "--ratio-in-out", "10.0", "--seed", "1", "--out-prefix", str(prefix)]
    subprocess.run([sys.executable, "-c", _TRAIN_SCRIPT, "unpinned", *synth], env=env,
                   capture_output=True, timeout=120, check=True)
    pools = {}
    for how in ("pinned", "unpinned"):
        args = ["train", "--edges", f"{prefix}.edges.csv", "--out", str(tmp_path / how),
                "--level", "graph", "--readout", "max", "--strategy", "random", "--s", "4",
                "--v", "3", "--epochs", "10", "--seed", "0", "--feature-policy", "random",
                "--feature-dim", "32"]
        proc = subprocess.run([sys.executable, "-c", _TRAIN_SCRIPT, how, *args], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        code, pools[how] = proc.stdout.split()[-2:]
        assert code == "0"
    assert pools == {"pinned": "False", "unpinned": "True"}
    for name in ("train_log.csv", "params.ckpt"):
        assert (tmp_path / "pinned" / name).read_bytes() == (tmp_path / "unpinned" / name).read_bytes()
