"""One training run of one workload, in a fresh process.

Usage: ``python3 perfbench/child.py '<json spec>'`` where the spec holds
``workload``, ``data_seed``, ``trace`` and optional ``epochs`` / ``scale``
overrides.  Prints one JSON object on its last stdout line.  Run by
``perfbench/run.py``; not meant to be called by hand.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from layers import Clock, LayerTracer, Patches  # noqa: E402
from workloads import PROGRAM_SEED, WORKLOADS  # noqa: E402


def _recipe(epochs: int):
    from repro.core.config import TrainRecipe

    base = TrainRecipe().scaled(epochs)
    return TrainRecipe(
        epochs=epochs,
        batch_size=64,
        lr=0.03,
        lr_milestones=base.lr_milestones,
        lr_gamma_div=base.lr_gamma_div,
        clip_grad_norm=5.0,
    )


def run(spec: dict) -> dict:
    from repro.core.config import NeSSAConfig
    from repro.core.trainer import FullTrainer, NeSSATrainer
    from repro.data.registry import get_dataset_info
    from repro.pipeline.experiment import make_data, run_method

    w = WORKLOADS[spec["workload"]]
    epochs = spec.get("epochs") or w.epochs
    recipe = _recipe(epochs)
    nessa_config = None
    if w.method == "nessa":
        nessa_config = NeSSAConfig(
            biasing_drop_period=max(3, epochs // 3), seed=PROGRAM_SEED, **w.nessa
        )

    tracer = LayerTracer() if spec["trace"] else None
    clock = Clock(on_train_start=tracer.instrument_model if tracer else None)
    patches = Patches()
    clock.install(patches, FullTrainer if w.method == "full" else NeSSATrainer)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        train_set, test_set = make_data(w.dataset, scale=spec.get("scale", 1.0),
                                        seed=spec["data_seed"])
        data_s = time.perf_counter() - t0
        t1 = time.perf_counter()
        result = run_method(
            w.dataset, w.method, train_set, test_set, recipe,
            subset_fraction=w.subset_fraction, nessa_config=nessa_config,
            seed=PROGRAM_SEED,
        )
    finally:
        patches.restore()
        if tracer is not None:
            tracer.finish()

    history = result.history
    records = history.records
    samples = [r.samples_trained for r in records]
    link_bytes = get_dataset_info(w.dataset).bytes_per_image * sum(samples)
    out = {
        "ok": True,
        "setup_s": data_s + (clock.train_start - t1),
        "run_s": clock.run_s,
        "epoch_s": [end - start for start, end in clock.epoch_bounds()],
        "epochs": [r.epoch for r in records],
        "accuracy": [r.test_accuracy for r in records],
        "samples_trained": samples,
        "subset_size": [r.subset_size for r in records],
        "dropped": [r.dropped_samples for r in records],
        "train_size": len(train_set),
        "ledger_bytes": history.data_movement_bytes,
        "data_moved_mb": (link_bytes + history.data_movement_bytes) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["trace"] = {
            "totals": tracer.totals(),
            "counts": dict(tracer.counts),
            "rounds": tracer.rounds,
            "pool_cpu_s": tracer.pool_cpu_s,
            "ledger": tracer.ledger(clock.epoch_bounds()),
        }
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        out = run(spec)
    except Exception as exc:  # reported to the parent, which counts the run failed
        traceback.print_exc()
        out = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
