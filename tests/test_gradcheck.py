import numpy as np

import tgcl.gradcheck
from tgcl import fixture_graph, fixture_views, model_grad_errors, run_grad_check
from tgcl.gradcheck import max_relative_error
from tgcl.model import PARAM_FIELDS, READOUT_STATS


def test_fixture_shape():
    g = fixture_graph()
    assert g.num_nodes == 12
    assert g.feature_dim == 8
    views = fixture_views(g)
    assert len(views) == 2
    # the ring keeps all 12 nodes alive in both halves
    for v in views:
        assert v.num_active == 12
    g2 = fixture_graph()
    assert np.array_equal(g.timestamps, g2.timestamps)
    assert np.array_equal(g.features, g2.features)


def test_max_relative_error():
    assert max_relative_error(np.array([1.0]), np.array([1.0])) == 0.0
    assert max_relative_error(np.array([2.0]), np.array([1.0])) == 0.5
    # tiny magnitudes fall back to the absolute floor
    assert max_relative_error(np.array([0.0]), np.array([1e-9])) == 1e-9 / 1e-6


def test_model_grad_errors_all_params_small():
    errors = model_grad_errors(level="node")
    assert set(errors) == set(PARAM_FIELDS)
    assert all(e < 1e-4 for e in errors.values())


def test_graph_level_grad_errors_every_readout_stat():
    for stat in READOUT_STATS:
        errors = model_grad_errors(level="graph", stat=stat)
        assert max(errors.values()) < 1e-4, (stat, errors)


def test_run_grad_check_structure():
    report = run_grad_check()
    assert set(report) == {"node", "graph", "worst"}
    for level in ("node", "graph"):
        assert set(report[level]["per_param"]) == set(PARAM_FIELDS)
        assert report[level]["max"] == max(report[level]["per_param"].values())
    assert report["worst"] == max(report["node"]["max"], report["graph"]["max"])


def test_a_nan_error_makes_every_maximum_above_it_nan(monkeypatch):
    # max(1e-7, nan) is 1e-7: the NaN of an uncomputed difference was dropped
    monkeypatch.setattr(tgcl.gradcheck, "model_grad_errors",
                        lambda level, seed, h: {"w1": 1e-7, "w2": float("nan")})
    report = run_grad_check()
    assert np.isnan(report["node"]["max"]) and np.isnan(report["worst"])
