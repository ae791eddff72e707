"""tgcl's benchmark: ingest -> train -> embed -> linear-eval, end to end.

    python3 bench/run.py --workload node-seq-10k --seed 1 --seconds 36 --trace 0

Generates the workload's inputs from --seed with the benchmark's own
generator, then runs rounds until --seconds have passed, and at least
two; a round is not started when the previous one says it would overrun.
Each round is a fresh process (pipeline.py) with BLAS capped at one
thread before NumPy loads. It runs the whole pipeline, and its outputs
are checked against computations made apart from tgcl (checks.py).

Each round attempts four operations, one per stage. A stage that raises,
or whose output fails a check, counts in ``failed``; a round whose process
dies counts all four. ``correct`` speaks of the stages that completed: it
is false only when a completed stage's output fails a check. A stage that
raises leaves ``correct`` true, so ``failed`` is the figure to read for
those, and the metrics then come from the rounds that completed.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (medians over every timed run of a stage) with --trace 0, the
per-layer metrics of the traced run (per pipeline pass, median over
rounds) with --trace 1. A summary of each round goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer
from workloads import (BATCH_SIZE, SMOKE, TAU, WORKLOADS, planted_communities, workload,
                       write_inputs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run ends within this many seconds, whatever its rounds do
DEADLINE_S = 170
# a run's medians always pool at least two processes, even when one round
# of a large workload takes more than half of --seconds
MIN_ROUNDS = 2


def _fail(msg: str) -> int:
    sys.stderr.write(f"bench: {msg}\n")
    return 2


def run_round(w, workdir: Path, rnd: int, trace: bool, trace_file: Path,
              timeout: float = DEADLINE_S) -> dict | None:
    """Run one round in a fresh process; None if it died without a result."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", w.name,
           "--workdir", str(workdir), "--round", str(rnd), "--trace", str(int(trace)),
           "--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the process
        sys.stderr.write(f"round {rnd}: pipeline ran past {timeout:.0f}s\n")
        return None
    result_path = workdir / f"round-{rnd}.json"
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(f"round {rnd}: pipeline exited {proc.returncode}\n{proc.stdout}\n")
        return None
    result = json.loads(result_path.read_text())
    with np.load(workdir / f"round-{rnd}.npz") as npz:
        result["arrays"] = {k: npz[k] for k in npz.files}
    return result


def check_round(w, inputs, result) -> dict:
    """Problems found per stage, from the benchmark's own computations."""
    arr = result["arrays"]
    found = {}
    if "ingest" not in result["errors"]:
        found["ingest"] = checks.check_ingest(
            inputs, arr["node_ids"], arr["labels"], arr["features"], result["num_edges"],
            result["t_min"], result["t_max"])
    if "train" not in result["errors"]:
        # a couple of epochs need not lower the loss; a training workload must
        found["train"] = (
            checks.check_windows(inputs.timestamps, arr["windows"], w.s, w.strategy)
            + checks.check_shared(inputs, arr["windows"], arr["shared"])
            + checks.check_losses(arr["losses"], arr["shared"], BATCH_SIZE, TAU,
                                  must_fall=w.epochs >= 4))
    if "embed" not in result["errors"]:
        try:
            tensors = checks.read_checkpoint(result["checkpoint"])
        except (OSError, ValueError, KeyError) as exc:
            found["embed"] = [f"checkpoint unreadable: {exc}"]
        else:
            found["embed"] = checks.check_embeddings(inputs, arr["features"], tensors, arr["emb"])
    if "linear_eval" not in result["errors"]:
        found["linear_eval"] = checks.check_probe(
            inputs.labels, arr["test"], arr["preds"], result["accuracy"], w.communities)
    return found


def end_to_end(w, rounds) -> dict:
    """Medians over every timed run of each stage in every round."""
    def med(stage):
        return statistics.median(t for r in rounds for t in r["times"][stage])

    return {
        "setup_s": (med("ingest"), "s"),
        "train_epochs_per_s": (w.epochs / med("train"), "epochs/s"),
        "embed_s": (med("embed"), "s"),
        "linear_eval_s": (med("linear_eval"), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MiB"),
        "probe_accuracy": (statistics.median(r["accuracy"] for r in rounds), "fraction"),
    }


def per_layer_metrics(rounds) -> dict:
    values = [tracer.per_layer(r["trace"], r["repeats"]) for r in rounds]
    return {
        name: (statistics.median(v[name] for v in values),
               "s" if name.endswith("_s") else "count")
        for name in tracer.PER_LAYER
    }


def trace_summary(rounds) -> dict:
    """Per stage: median traced wall time per pass, and the smallest share of
    it that the per-layer metrics cover in any round."""
    out = {}
    for stage in rounds[0]["trace"]:
        aggs = [(r["trace"][stage], r["repeats"][stage]) for r in rounds]
        out[stage] = {
            "wall_s": statistics.median(a["wall_s"] / k for a, k in aggs),
            "covered": min(sum(a.get(m, 0.0) for m in tracer.TIME_NAMES) / a["wall_s"]
                           for a, _ in aggs),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, SMOKE.name])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tgcl" / "__init__.py").is_file():
        return _fail(f"no tgcl sources under {ROOT / 'src'}; run from a checkout of the repository")
    deadline = time.perf_counter() + DEADLINE_S
    w = workload(args.workload)
    runs = ROOT / ".bench_runs"
    workdir = runs / f"{w.name}-seed{args.seed}-{os.getpid()}"
    trace_dir = runs / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = planted_communities(w, args.seed)
        write_inputs(inputs, workdir / "inputs")

        rounds, attempted, failed, correct = [], 0, 0, True
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rnd = attempted // 4
            trace_file = trace_dir / f"{w.name}-seed{args.seed}-round{rnd}.json"
            result = run_round(w, workdir, rnd, bool(args.trace), trace_file,
                               timeout=deadline - time.perf_counter())
            attempted += 4
            if result is None:
                failed += 4
            else:
                found = check_round(w, inputs, result)
                failed += len(result["errors"]) + sum(1 for p in found.values() if p)
                correct = correct and not any(found.values())
                for stage, err in result["errors"].items():
                    sys.stderr.write(f"round {rnd}: {stage} failed: {err}\n")
                for stage, problems in found.items():
                    for p in problems[:5]:
                        sys.stderr.write(f"round {rnd}: {stage} check failed: {p}\n")
                if not result["errors"]:
                    rounds.append(result)
                sys.stderr.write(
                    f"round {rnd}: " + ", ".join(
                        f"{s} {statistics.median(t):.4f}s" for s, t in result["times"].items() if t)
                    + f", peak rss {result['peak_rss_mb']:.1f} MiB, threads {result['threads']}\n")
            last = time.perf_counter() - t0
            now = time.perf_counter()
            if now + last > deadline or (
                    attempted >= 4 * MIN_ROUNDS and now - start + last > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not rounds:
        return _fail("no round completed every stage")
    if args.trace:
        sys.stderr.write(f"trace: {json.dumps(trace_summary(rounds))}\n")
        metrics = per_layer_metrics(rounds)
    else:
        metrics = end_to_end(w, rounds)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
