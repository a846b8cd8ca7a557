"""Tiny-size smoke runs of every benchmark workload.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Each workload is trained for two epochs on a fifth of its data, once
untraced and once traced; the result line must carry every metric that
``BENCHMARK.json`` names, each with its unit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _bench(cwd, out_dir, *args):
    cmd = [sys.executable, "perfbench/run.py", "--out-dir", str(out_dir), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(tmp_path, workload, trace):
    proc = _bench(ROOT, tmp_path, "--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--subseeds", "1", "--epochs", "2",
                  "--scale", "0.2", "--target", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    suffix = "-trace" if trace else ""
    assert (tmp_path / f"{workload}-seed0{suffix}.json").exists()
    if trace:
        ledger = (tmp_path / f"{workload}-seed0-trace-ledger.jsonl").read_text().splitlines()
        assert len(ledger) == 2
        assert all("unattributed_s" in json.loads(row) for row in ledger)


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench(tmp_path, tmp_path / "out", "--workload", "full-cifar10", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
