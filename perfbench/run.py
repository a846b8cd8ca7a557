"""End-to-end training benchmark for the NeSSA reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nessa-int8-cifar10 --seed 1 --seconds 30 --trace 0

Every measured run is one training run of the workload through
``repro.pipeline.experiment.make_data`` / ``run_method``, in a fresh child
process under a wall-clock timeout.  ``--seed`` derives the input data
seeds of the invocation (``--subseeds``, by default the workload's
``datasets``); the runs cycle over
those datasets until ``--seconds`` are used, at least once each plus one
repeat, so every dataset's history can be checked against a rerun.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced runs of the first dataset and prints the per-layer
metrics.  Human-readable lines come first; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Results,
the host block and (traced) the per-epoch layer ledger are written under
``--out-dir``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# An invocation must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "epoch_s": "s",
    "run_s": "s",
    "time_to_target_s": "s",
    "final_accuracy": "fraction",
    "data_moved_mb": "MB",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_NN_GROUPS = ("stem", "stage1", "stage2", "stage3", "stage4", "head")
PER_LAYER = {
    "data.wait_s": "s",
    "nn.forward_s": "s",
    "nn.backward_s": "s",
    "nn.loss_s": "s",
    "nn.optimizer_s": "s",
    "nn.train_samples_per_s": "1/s",
    **{f"nn.fwd.{g}_s": "s" for g in _NN_GROUPS},
    **{f"nn.bwd.{g}_s": "s" for g in _NN_GROUPS},
    "selection.proxy_s": "s",
    "selection.proxy_samples_per_s": "1/s",
    "selection.quantize_s": "s",
    "selection.qscore_block_hit_ratio": "ratio",
    "selection.qscore_block_lookups": "count",
    "parallel.run_units_s": "s",
    "parallel.units": "count",
    "parallel.unit_busy_s": "s",
    "parallel.proxy_cache_hit_ratio": "ratio",
    "parallel.proxy_cache_lookups": "count",
    "core.select_s": "s",
    "core.eval_s": "s",
    "core.feedback_s": "s",
    "core.biasing_s": "s",
    "pipeline.join_wait_s": "s",
    "pipeline.hidden_share": "ratio",
    "obs.trace_overhead": "ratio",
    "obs.attributed_share": "ratio",
    "obs.unattributed_s": "s",
}


# -- host provenance -------------------------------------------------------------


def host_block() -> dict:
    """Where the numbers were measured; results from different hosts differ."""
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        pass
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "mp_start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
        "git_commit": _git_commit(),
    }


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def same_host(a: dict, b: dict) -> bool:
    """Equal host blocks, ignoring the commit measured."""
    drop = lambda h: {k: v for k, v in h.items() if k != "git_commit"}  # noqa: E731
    return drop(a) == drop(b)


# -- child runs ------------------------------------------------------------------


def run_child(spec: dict, timeout_s: float) -> dict:
    """One training run in a fresh process group; killed at the timeout."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        return {"ok": False, "error": f"timed out after {timeout_s:.0f} s",
                "wall_s": time.perf_counter() - t0}
    finally:
        _kill_group(proc.pid)
    wall = time.perf_counter() - t0
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        out = {"ok": False, "error": f"exit {proc.returncode}: {tail[0]}"}
    if not out.get("ok") and stderr:
        sys.stderr.write(stderr)
    out["wall_s"] = wall
    return out


def _kill_group(pgid: int) -> None:
    """Stop anything the run left behind (e.g. pool workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def plan_runs(args, data_seeds: list[int]):
    """Yield ``(data_seed, traced)`` until the time budget is used."""
    if args.trace:
        cycle = [(data_seeds[0], False), (data_seeds[0], True)]
    else:
        cycle = [(s, False) for s in data_seeds]
    minimum = len(cycle) if args.trace else len(cycle) + 1
    i = 0
    while True:
        yield cycle[i % len(cycle)], i < minimum
        i += 1


def execute(args, workload) -> list[dict]:
    count = args.subseeds or workload.datasets
    data_seeds = [args.seed * 1000 + i for i in range(count)]
    start = time.perf_counter()
    runs: list[dict] = []
    for (data_seed, traced), required in plan_runs(args, data_seeds):
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in runs) if runs else 0.0
        if not required and elapsed + typical > args.seconds:
            break
        remaining = HARD_LIMIT_S - elapsed
        if remaining < 2 * typical or remaining < 5:
            break
        spec = {"workload": workload.name, "data_seed": data_seed, "trace": int(traced),
                "epochs": args.epochs, "scale": args.scale}
        out = run_child(spec, timeout_s=remaining)
        out.update(data_seed=data_seed, traced=traced)
        runs.append(out)
    return runs


# -- correctness -----------------------------------------------------------------


def check_runs(runs: list[dict], epochs: int, target: float) -> None:
    """Mark each run ``failed`` with its reasons; failures are counted, not fatal.

    A run fails if it raised or timed out, misses the target accuracy,
    lacks an epoch, has a subset size outside (0, pool], or differs from
    the first run on the same data in accuracy curve, samples trained or
    data moved (training is deterministic for a given input).
    """
    first: dict[int, dict] = {}
    for run in runs:
        reasons = []
        if not run.get("ok"):
            reasons.append(run.get("error", "run failed"))
        else:
            if run["epochs"] != list(range(epochs)):
                reasons.append(f"history epochs {run['epochs']} != 0..{epochs - 1}")
            if not any(a >= target for a in run["accuracy"]):
                reasons.append(f"never reached accuracy {target}")
            pool = run["train_size"]
            for size, dropped in zip(run["subset_size"], run["dropped"]):
                if not 0 < size <= pool:
                    reasons.append(f"subset size {size} outside (0, {pool}]")
                    break
                pool -= dropped
            ref = first.setdefault(run["data_seed"], run)
            for key in ("accuracy", "samples_trained", "data_moved_mb"):
                if run[key] != ref[key]:
                    reasons.append(f"{key} differs from the first run on seed "
                                   f"{run['data_seed']}")
        run["failed"] = reasons


# -- metrics ---------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def time_to_target(run: dict, target: float) -> float | None:
    """Training time until test accuracy reaches ``target``.

    Accuracy is measured at epoch ends only; the crossing inside the
    epoch that first reaches the target is placed by linear
    interpolation between that epoch's accuracy and the previous one's
    (a target met by epoch 0 counts all of epoch 0).
    """
    elapsed, prev = 0.0, None
    for wall, acc in zip(run["epoch_s"], run["accuracy"]):
        if acc >= target:
            share = 1.0 if prev is None else (target - prev) / (acc - prev)
            return elapsed + share * wall
        elapsed, prev = elapsed + wall, acc
    return None


def end_to_end(runs: list[dict], target: float) -> tuple[dict, dict]:
    """Medians over the passing runs.

    The accuracy guards are per dataset (the median over its runs) and
    then the median over datasets; ``time_to_target_s`` takes the mean
    over datasets, since convergence varies from dataset to dataset by
    whole epochs and a mean of a few draws scatters less than a median.
    """
    by_seed: dict[int, list[dict]] = {}
    for r in runs:
        by_seed.setdefault(r["data_seed"], []).append(r)

    def per_seed(fn):
        return [statistics.median(fn(r) for r in rs) for rs in by_seed.values()]

    samples = {
        "epoch_s": [w for r in runs for w in r["epoch_s"]],
        "run_s": [r["run_s"] for r in runs],
        "time_to_target_s": per_seed(lambda r: time_to_target(r, target)),
        "final_accuracy": per_seed(lambda r: r["accuracy"][-1]),
        "data_moved_mb": per_seed(lambda r: r["data_moved_mb"]),
        "setup_s": [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["time_to_target_s"] = statistics.mean(samples["time_to_target_s"])
    return values, samples


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics of the traced runs (median over them)."""
    rows = [_layer_metrics(r) for r in traced]
    metrics = {k: statistics.median(row[k] for row in rows) for k in PER_LAYER
               if k != "obs.trace_overhead"}
    base = statistics.median(r["run_s"] for r in untraced)
    metrics["obs.trace_overhead"] = (
        statistics.median(r["run_s"] for r in traced) / base - 1.0
    )
    return metrics, traced[0]["trace"]["ledger"]


def _layer_metrics(run: dict) -> dict:
    tr = run["trace"]
    tot, cnt = tr["totals"], tr["counts"]
    t = lambda name: tot.get(name, 0.0)  # noqa: E731
    c = lambda name: cnt.get(name, 0.0)  # noqa: E731
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    train_step_s = t("nn.forward") + t("nn.backward") + t("nn.loss") + t("nn.optimizer")
    round_s = sum(r[0] for r in tr["rounds"])
    wall = sum(row["wall_s"] for row in tr["ledger"])
    unattributed = sum(row["unattributed_s"] for row in tr["ledger"])
    out = {
        "data.wait_s": t("data.wait"),
        "nn.forward_s": t("nn.forward"),
        "nn.backward_s": t("nn.backward"),
        "nn.loss_s": t("nn.loss"),
        "nn.optimizer_s": t("nn.optimizer"),
        "nn.train_samples_per_s": ratio(c("nn.train_samples"), train_step_s),
        "selection.proxy_s": t("selection.proxy"),
        "selection.proxy_samples_per_s": ratio(c("selection.proxy_samples"),
                                               t("selection.proxy")),
        "selection.quantize_s": t("selection.quantize"),
        "selection.qscore_block_hit_ratio": ratio(c("selection.qscore_block_hits"),
                                                  c("selection.qscore_block_lookups")),
        "selection.qscore_block_lookups": c("selection.qscore_block_lookups"),
        "parallel.run_units_s": t("parallel.run_units"),
        "parallel.units": c("parallel.units"),
        "parallel.unit_busy_s": t("parallel.unit") + tr["pool_cpu_s"],
        "parallel.proxy_cache_hit_ratio": ratio(c("parallel.proxy_cache_hits"),
                                                c("parallel.proxy_cache_lookups")),
        "parallel.proxy_cache_lookups": c("parallel.proxy_cache_lookups"),
        "core.select_s": t("core.select"),
        "core.eval_s": t("core.eval"),
        "core.feedback_s": t("core.feedback"),
        "core.biasing_s": t("core.biasing"),
        "pipeline.join_wait_s": t("pipeline.join_wait"),
        "pipeline.hidden_share": ratio(round_s - sum(r[1] for r in tr["rounds"]), round_s),
        "obs.attributed_share": ratio(wall - unattributed, wall),
        "obs.unattributed_s": unattributed,
    }
    for g in _NN_GROUPS:
        out[f"nn.fwd.{g}_s"] = t(f"nn.fwd.{g}")
        out[f"nn.bwd.{g}_s"] = t(f"nn.bwd.{g}")
    return out


# -- output ----------------------------------------------------------------------


def write_results(out_dir: str, stem: str, record: dict, ledger: list | None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    host_path = os.path.join(out_dir, "last-host.json")
    if os.path.exists(host_path):
        with open(host_path) as fh:
            previous = json.load(fh)
        if not same_host(previous, record["host"]):
            record["host_changed_from"] = previous
            print("WARNING: host differs from the previous results in "
                  f"{out_dir}; do not compare them directly")
    with open(host_path, "w") as fh:
        json.dump(record["host"], fh, indent=1)
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if ledger is not None:
        with open(os.path.join(out_dir, f"{stem}-ledger.jsonl"), "w") as fh:
            for row in ledger:
                fh.write(json.dumps(row) + "\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--subseeds", type=int, default=None,
                   help="input datasets per invocation (default: the workload's)")
    p.add_argument("--out-dir", default=os.path.join(HERE, "results"))
    # Sizing overrides for the smoke test; the benchmark never sets them.
    p.add_argument("--epochs", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    p.add_argument("--target", type=float, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to benchmark at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    epochs = args.epochs or workload.epochs
    target = workload.target if args.target is None else args.target
    host = host_block()

    runs = execute(args, workload)
    check_runs(runs, epochs, target)
    good = [r for r in runs if not r["failed"]]
    for r in runs:
        if r["failed"]:
            print(f"FAILED run (seed {r['data_seed']}, traced={r['traced']}): "
                  + "; ".join(r["failed"]))
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no run passed; nothing to report", file=sys.stderr)
        return 1

    print(f"{workload.name} seed {args.seed}: {len(runs)} runs, {len(runs) - len(good)} "
          f"failed; datasets {sorted({r['data_seed'] for r in runs})}; "
          f"{host['nproc']} cpus, {host['blas']}")
    ledger = None
    if args.trace:
        metrics, ledger = per_layer(traced, untraced)
        units, samples = PER_LAYER, {}
    else:
        metrics, samples = end_to_end(untraced, target)
        units = END_TO_END
    for name, value in metrics.items():
        line = f"  {name:34s} {value:12.6g} {units[name]}"
        if name in samples:
            n = len(samples[name])
            tail = tail_percentile(samples[name])
            how = "mean" if name == "time_to_target_s" else "median"
            line += f"  {how} of n={n}"
            if tail is not None:
                line += f", p{tail[0]} {tail[1]:.6g}"
        print(line)
    print(f"  {'failed_runs':34s} {len(runs) - len(good):12d} of {len(runs)} attempted")

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": host,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": len(runs), "failed": len(runs) - len(good),
        "runs": [{k: r.get(k) for k in ("data_seed", "traced", "ok", "failed", "wall_s",
                                        "run_s", "setup_s", "accuracy")} for r in runs],
    }
    stem = f"{workload.name}-seed{args.seed}" + ("-trace" if args.trace else "")
    write_results(args.out_dir, stem, record, ledger)
    print(json.dumps({
        "correct": len(good) == len(runs),
        "attempted": len(runs),
        "failed": len(runs) - len(good),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
