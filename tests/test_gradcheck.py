import json

import numpy as np

import tgcl.gradcheck
import tgcl.kernels
import tgcl.model
from tgcl import fixture_graph, fixture_views, model_grad_errors, run_grad_check
from tgcl.gradcheck import max_relative_error
from tgcl.model import PARAM_FIELDS, READOUT_STATS


def test_fixture_shape():
    g = fixture_graph(7)
    assert g.num_nodes == 12
    assert g.feature_dim == 8
    views = fixture_views(g)
    assert len(views) == 2
    # the ring keeps all 12 nodes alive in both halves
    for v in views:
        assert v.num_active == 12
    g2 = fixture_graph(7)
    assert np.array_equal(g.timestamps, g2.timestamps)
    assert np.array_equal(g.features, g2.features)


def test_max_relative_error():
    assert max_relative_error(np.array([1.0]), np.array([1.0])) == 0.0
    assert max_relative_error(np.array([2.0]), np.array([1.0])) == 0.5
    # tiny magnitudes fall back to the absolute floor
    assert max_relative_error(np.array([0.0]), np.array([1e-9])) == 1e-9 / 1e-6


def test_model_grad_errors_all_params_small():
    errors = model_grad_errors(level="node", seed=7, h=1e-5, stat="mean")
    assert set(errors) == set(PARAM_FIELDS)
    assert all(e < 1e-4 for e in errors.values())


def test_graph_level_grad_errors_every_readout_stat():
    for stat in READOUT_STATS:
        errors = model_grad_errors(level="graph", seed=7, h=1e-5, stat=stat)
        assert max(errors.values()) < 1e-4, (stat, errors)


def test_run_grad_check_structure():
    report = run_grad_check()
    assert set(report) == {"node", "graph", "worst"}
    for level in ("node", "graph"):
        assert set(report[level]["per_param"]) == set(PARAM_FIELDS)
        assert report[level]["max"] == max(report[level]["per_param"].values())
    assert report["worst"] == max(report["node"]["max"], report["graph"]["max"])
    assert set(report["graph"]["per_stat"]) == set(READOUT_STATS)
    assert report["graph"]["max"] == max(report["graph"]["per_stat"].values())


def test_run_grad_check_runs_the_graph_level_under_every_readout(monkeypatch):
    calls = []

    def errors(level, seed, h, stat):
        calls.append((level, stat))
        if level == "node":
            return {"w1": 1e-9, "w2": 2e-9}
        return {"w1": {"mean": 1e-7, "sum": 3e-7, "max": 2e-7}[stat],
                "w2": {"mean": 5e-8, "sum": 1e-8, "max": float("nan")}[stat]}

    monkeypatch.setattr(tgcl.gradcheck, "model_grad_errors", errors)
    report = run_grad_check()
    assert sorted(calls) == sorted([("node", "mean")] + [("graph", s) for s in READOUT_STATS])
    assert report["graph"]["per_param"]["w1"] == 3e-7
    assert np.isnan(report["graph"]["per_param"]["w2"])  # a NaN under one statistic stays
    assert report["graph"]["per_stat"]["mean"] == 1e-7 and report["graph"]["per_stat"]["sum"] == 3e-7
    assert np.isnan(report["graph"]["per_stat"]["max"]) and np.isnan(report["worst"])
    assert report["node"] == {"per_param": {"w1": 1e-9, "w2": 2e-9}, "max": 2e-9}


def test_a_nan_error_makes_every_maximum_above_it_nan(monkeypatch):
    # max(1e-7, nan) is 1e-7: the NaN of an uncomputed difference was dropped
    monkeypatch.setattr(tgcl.gradcheck, "model_grad_errors",
                        lambda level, seed, h, stat: {"w1": 1e-7, "w2": float("nan")})
    report = run_grad_check()
    assert np.isnan(report["node"]["max"]) and np.isnan(report["worst"])


def test_grad_check_takes_each_views_inputs_twice_per_setting(monkeypatch):
    # four settings (node level, graph level under three readouts) of two
    # views: each view's P0 rows are taken once for the finite differences'
    # forwards and once by the step, however small the difference step. The
    # settings may run on several threads, so each call appends to a list
    calls, adj_matmul = [], tgcl.model.adj_matmul

    def counted(*args):
        calls.append(args)
        return adj_matmul(*args)

    monkeypatch.setattr(tgcl.model, "adj_matmul", counted)
    for h in (1e-5, 1e-3):
        calls.clear()
        run_grad_check(h=h)
        assert len(calls) == 16


def test_each_grad_check_setting_is_one_pool_task(monkeypatch):
    # on two CPUs, every setting runs inside a task of the pool, its own step
    # and differences serially; the report is the one-CPU report, byte for byte
    monkeypatch.setattr(tgcl.kernels, "_cpu_count", lambda: 1)
    serial = json.dumps(run_grad_check())
    in_task, errors = [], tgcl.gradcheck.model_grad_errors

    def recorded(*args, **kwargs):
        in_task.append(tgcl.kernels._in_task.get())
        return errors(*args, **kwargs)

    monkeypatch.setattr(tgcl.gradcheck, "model_grad_errors", recorded)
    monkeypatch.setattr(tgcl.kernels, "_cpu_count", lambda: 2)
    assert json.dumps(run_grad_check()) == serial
    assert in_task == [True] * 4
