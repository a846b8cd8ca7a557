"""CLI surface: --trace flags produce traces repro.cli report can read."""

import json
import os
import subprocess
import sys

import pytest

from repro import cli
from repro.cli import main


class TestSystemTrace:
    def test_system_trace_then_report_with_chrome_export(self, tmp_path, capsys):
        trace_path = tmp_path / "system.jsonl"
        assert main(["system", "--dataset", "cifar10",
                     "--trace", str(trace_path)]) == 0
        assert trace_path.exists()
        capsys.readouterr()

        chrome_path = tmp_path / "system.chrome.json"
        assert main(["report", str(trace_path),
                     "--chrome", str(chrome_path)]) == 0
        out = capsys.readouterr().out
        assert "strategy_price" in out
        assert "run: system-cifar10" in out

        doc = json.loads(chrome_path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "strategy_price" in names
        ids = {
            e["args"]["id"]
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        assert {"strategy_price@full", "strategy_price@nessa"} <= ids

    def test_trace_flag_restores_globals_after_run(self, tmp_path):
        from repro import obs

        assert main(["system", "--trace", str(tmp_path / "t.jsonl")]) == 0
        assert obs.get_tracer() is None
        assert not obs.enabled()


class TestProfileAndExportFlags:
    def test_profile_mem_requires_trace(self, capsys):
        assert main(["system", "--profile-mem"]) == 2
        assert "--profile-mem requires --trace" in capsys.readouterr().out

    def test_profiled_system_trace_carries_mem_attrs(self, tmp_path, capsys):
        from repro import obs

        trace_path = tmp_path / "system.jsonl"
        assert main(["system", "--trace", str(trace_path),
                     "--profile-mem"]) == 0
        capsys.readouterr()
        trace = obs.read_trace(trace_path)
        assert trace["meta"]["profile_mem"] is True
        assert all("mem_net_bytes" in s["attrs"] for s in trace["spans"])
        import tracemalloc

        assert not tracemalloc.is_tracing()

    def test_metrics_out_writes_prometheus_text(self, tmp_path, capsys):
        prom_path = tmp_path / "metrics.prom"
        assert main(["system", "--metrics-out", str(prom_path)]) == 0
        assert "metrics snapshot written" in capsys.readouterr().out
        text = prom_path.read_text()
        # the system command prices strategies without touching the
        # instrumented training counters, so the snapshot may be empty;
        # what matters is the file exists and any content is well-formed
        for line in text.splitlines():
            assert line.startswith(("# HELP", "# TYPE", "repro_"))

    def test_report_flame_writes_folded_stacks(self, tmp_path, capsys):
        trace_path = tmp_path / "system.jsonl"
        flame_path = tmp_path / "system.folded"
        assert main(["system", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace_path),
                     "--flame", str(flame_path)]) == 0
        assert "folded stacks (wall)" in capsys.readouterr().out
        folded = flame_path.read_text()
        assert "strategy_price" in folded
        for line in folded.splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert stack and int(weight) > 0


class TestReportErrors:
    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "report:" in capsys.readouterr().out

    def test_non_trace_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "wat"}\n')
        assert main(["report", str(bad)]) == 2

    def test_empty_trace_reports_gracefully(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"kind": "meta", "schema": 1, "run": "idle"}\n')
        assert main(["report", str(empty)]) == 0
        assert "no spans" in capsys.readouterr().out

    def test_closed_stdout_exits_quietly(self, tmp_path, capsys):
        """``report TRACE | head``: a reader that hangs up early is no crash."""
        trace_path = tmp_path / "system.jsonl"
        assert main(["system", "--dataset", "cifar10", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "report", str(trace_path)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 141  # 128 + SIGPIPE, as for any Unix filter

    def test_other_broken_pipes_still_raise(self, monkeypatch):
        """Only a hung-up stdout is quiet; any other broken pipe is an error."""
        def broken(args):
            raise BrokenPipeError("worker pipe")

        monkeypatch.setattr(cli, "_cmd_info", broken)
        with pytest.raises(BrokenPipeError, match="worker pipe"):
            main(["info"])
