"""The benchmark's own correctness checks and statistics, on synthetic runs."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from run import check_runs, run_child, tail_percentile, time_to_target  # noqa: E402


def _run(seed=0, **overrides):
    run = {
        "ok": True, "data_seed": seed, "traced": False,
        "epochs": [0, 1, 2], "accuracy": [0.5, 0.8, 0.95], "epoch_s": [1.0, 1.0, 1.0],
        "samples_trained": [10, 10, 10], "subset_size": [10, 10, 10], "dropped": [0, 0, 0],
        "train_size": 40, "data_moved_mb": 1.5,
    }
    run.update(overrides)
    return run


def test_healthy_runs_pass():
    runs = [_run(0), _run(1, accuracy=[0.6, 0.9, 0.9]), _run(0)]
    check_runs(runs, epochs=3, target=0.9)
    assert [r["failed"] for r in runs] == [[], [], []]


@pytest.mark.parametrize("overrides, reason", [
    ({"ok": False, "error": "timed out after 5 s"}, "timed out"),
    ({"accuracy": [0.5, 0.8, 0.85]}, "never reached"),
    ({"epochs": [0, 2]}, "history epochs"),
    ({"subset_size": [10, 0, 10]}, "outside (0, 40]"),
    ({"subset_size": [10, 30, 30], "dropped": [20, 0, 0]}, "outside (0, 20]"),
])
def test_each_failure_is_counted(overrides, reason):
    runs = [_run(0, **overrides)]
    check_runs(runs, epochs=3, target=0.9)
    assert any(reason in r for r in runs[0]["failed"]), runs[0]["failed"]


@pytest.mark.parametrize("key, value", [
    ("accuracy", [0.5, 0.8, 0.96]),
    ("samples_trained", [10, 10, 11]),
    ("data_moved_mb", 1.6),
])
def test_rerun_must_reproduce_the_first_run(key, value):
    runs = [_run(0), _run(1), _run(0, **{key: value})]
    check_runs(runs, epochs=3, target=0.9)
    assert runs[0]["failed"] == [] and runs[1]["failed"] == []
    assert runs[2]["failed"] == [f"{key} differs from the first run on seed 0"]


def test_time_to_target_interpolates_inside_the_crossing_epoch():
    run = _run(epoch_s=[2.0, 4.0, 1.0], accuracy=[0.5, 0.7, 0.95])
    assert time_to_target(run, 0.9) == pytest.approx(2.0 + 4.0 + 0.8 * 1.0)
    assert time_to_target(run, 0.4) == 2.0  # met by epoch 0: all of it counts
    assert time_to_target(run, 0.99) is None


def test_tail_percentile_leaves_ten_samples_above():
    assert tail_percentile(list(range(10))) is None
    pct, value = tail_percentile(list(range(40)))
    assert (pct, value) == (75, 29)
    assert sum(v > value for v in range(40)) == 10


def test_hung_run_is_killed_and_reported():
    spec = {"workload": "full-cifar10", "data_seed": 0, "trace": 0, "epochs": None,
            "scale": 1.0}
    out = run_child(spec, timeout_s=0.5)
    assert out["ok"] is False and "timed out" in out["error"]
    assert out["wall_s"] < 10
