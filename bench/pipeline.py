"""One round of a workload: ingest -> train -> embed -> linear-eval.

run.py starts this file in a fresh process with the BLAS thread caps
already in its environment, so they hold before NumPy loads. The round
calls tgcl's documented Python API on the input files only, times each
stage, and writes what the checks need into the work directory:
``round-<r>.json`` (timings and scalars) and ``round-<r>.npz`` (arrays).
With ``--trace 1`` the public functions of tgcl's layers are wrapped
first, and the spans go to ``--trace-file``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import tgcl
    from tracer import Tracer
    from workloads import BATCH_SIZE, READOUT_STAT, TAU, TGCL_SEED, input_paths, workload

    if Path(tgcl.__file__).resolve().parent != ROOT / "src" / "tgcl":
        raise SystemExit(f"tgcl imported from {tgcl.__file__}, not from this checkout")
    w = workload(args.workload)
    paths = input_paths(args.workdir / "inputs")

    np.ones((256, 256)) @ np.ones((256, 256))  # first BLAS call: its pool exists from here on
    threads = len(os.listdir("/proc/self/task"))

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(tgcl)

    repeats = w.repeats()
    times = {stage: [] for stage in repeats}
    errors = {}

    def stage(name, fn):
        if errors:  # a failed stage leaves nothing for the later ones
            errors[name] = "skipped: an earlier stage failed"
            return None
        out = None
        try:
            for _ in range(repeats[name]):
                t0 = time.perf_counter()
                if tracer is None:
                    out = fn()
                else:
                    with tracer.span(name):
                        out = fn()
                times[name].append(time.perf_counter() - t0)
        except Exception as exc:  # the round reports the stage as failed
            errors[name] = f"{type(exc).__name__}: {exc}"
        return out

    graph = stage("ingest", lambda: tgcl.load_temporal_graph(
        paths["edges"], features_path=paths["features"], labels_path=paths["labels"]))
    ckpt = args.workdir / f"round-{args.round}.ckpt"
    cfg = tgcl.TrainConfig(
        sampler=tgcl.SamplerConfig(w.strategy, w.s, w.v),
        loss=tgcl.LossConfig(w.level, TAU),
        batch_size=BATCH_SIZE, epochs=w.epochs, seed=TGCL_SEED, readout_stat=READOUT_STAT,
        checkpoint_path=str(ckpt),
    )
    trained = stage("train", lambda: tgcl.train(graph, cfg))
    emb = stage("embed", lambda: tgcl.embed_all(graph, trained[0]))

    def linear_eval():
        split = tgcl.make_split(graph.labels, (1, 1, 8), seed=TGCL_SEED)
        probe = tgcl.train_linear_probe(emb, graph.labels, split)
        return split, probe, tgcl.evaluate(probe, emb, graph.labels, split)

    evaluated = stage("linear_eval", linear_eval)

    result = {
        "times": times, "errors": errors, "repeats": repeats, "threads": threads,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checkpoint": str(ckpt),
    }
    arrays = {}
    if graph is not None:
        result.update(num_edges=graph.num_edges, t_min=graph.t_min, t_max=graph.t_max)
        arrays.update(node_ids=graph.node_ids, labels=graph.labels, features=graph.features)
    if trained is not None:
        log = trained[1]
        arrays.update(
            losses=log.loss_values(),
            shared=np.array([r.shared for r in log.records]),
            windows=np.array([[(win.lo, win.hi) for win in r.windows] for r in log.records]),
        )
    if emb is not None:
        arrays["emb"] = emb
    if evaluated is not None:
        split, probe, report = evaluated
        result["accuracy"] = report.accuracy
        arrays.update(test=split.test, preds=probe.predict(emb[split.test]))
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        args.trace_file.write_text(json.dumps({"round": args.round, "spans": tracer.spans}))

    np.savez(args.workdir / f"round-{args.round}.npz", **arrays)
    (args.workdir / f"round-{args.round}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
