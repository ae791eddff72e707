"""Tests of the benchmark's own output checks, plus one smoke run.

Each check must accept a real round's outputs and reject them after one
targeted corruption. The round comes from the tiny ``smoke`` workload,
run through the same code path as the benchmark's workloads.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import BATCH_SIZE, SMOKE, TAU, planted_communities, write_inputs  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def smoke_round(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("smoke")
    inputs = planted_communities(SMOKE, SEED)
    write_inputs(inputs, workdir / "inputs")
    result = run.run_round(SMOKE, workdir, 0, False, workdir / "trace.json")
    assert result is not None and not result["errors"]
    return inputs, result


def test_real_outputs_pass_every_check(smoke_round):
    inputs, result = smoke_round
    found = run.check_round(SMOKE, inputs, result)
    assert set(found) == {"ingest", "train", "embed", "linear_eval"}
    assert not any(found.values()), found


def test_embedding_check_rejects_one_perturbed_entry(smoke_round):
    inputs, result = smoke_round
    arr = result["arrays"]
    tensors = checks.read_checkpoint(result["checkpoint"])
    emb = arr["emb"].copy()
    emb[7, 3] += 1e-6 * np.max(np.abs(emb))
    assert checks.check_embeddings(inputs, arr["features"], tensors, emb)


def test_shared_check_rejects_count_off_by_one(smoke_round):
    inputs, result = smoke_round
    shared = result["arrays"]["shared"].copy()
    shared[2] += 1
    assert checks.check_shared(inputs, result["arrays"]["windows"], shared)


def test_window_check_rejects_window_past_t_max(smoke_round):
    inputs, result = smoke_round
    windows = result["arrays"]["windows"].copy()
    t_max = inputs.timestamps.max()
    windows[1, 0] += (t_max - windows[1, 0, 1]) + 1e-3 * SMOKE.timespan
    assert checks.check_windows(inputs.timestamps, windows, SMOKE.s, SMOKE.strategy)


def test_probe_check_rejects_permuted_labels(smoke_round):
    inputs, result = smoke_round
    arr = result["arrays"]
    permuted = np.random.default_rng(0).permutation(inputs.labels)
    assert checks.check_probe(permuted, arr["test"], arr["preds"], result["accuracy"],
                              SMOKE.communities)


def test_loss_check_rejects_loss_outside_infonce_bounds(smoke_round):
    _, result = smoke_round
    arr = result["arrays"]
    losses = arr["losses"].copy()
    _, hi = checks.infonce_bounds(min(BATCH_SIZE, int(arr["shared"][0])), TAU)
    losses[0] = hi + 1e-3
    assert checks.check_losses(losses, arr["shared"], BATCH_SIZE, TAU, must_fall=False)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["attempted"] == 4 * run.MIN_ROUNDS and out["failed"] == 0
    expected = tracer.PER_LAYER if trace else (
        "setup_s", "train_epochs_per_s", "embed_s", "linear_eval_s", "peak_rss_mb",
        "probe_accuracy")
    assert list(out["metrics"]) == list(expected)
