"""End-to-end tests of the ``python -m repro.obs`` CLI."""

import json

import pytest

from repro.obs.cli import main
from repro.obs.dump import RunDump
from repro.obs.export import validate_chrome_trace
from repro.obs.scenarios import SCENARIOS


class TestRecord:
    def test_record_to_file(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["record", "pipelined", "-o", str(out)]) == 0
        dump = RunDump.load(str(out))
        assert dump.meta["scenario"] == "pipelined"
        assert "recorded scenario" in capsys.readouterr().out

    def test_record_to_stdout(self, capsys):
        assert main(["record", "cluster"]) == 0
        dump = RunDump.loads(capsys.readouterr().out)
        assert [rd.rank for rd in dump.ranks] == [0, 1]


class TestExport:
    def test_export_scenario_to_file(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["export", "serialized", "-o", str(out)]) == 0
        validate_chrome_trace(json.loads(out.read_text()))

    def test_export_byte_identical_across_invocations(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["export", "pipelined", "-o", str(first)]) == 0
        assert main(["export", "pipelined", "-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_export_reads_saved_dump(self, tmp_path, capsys):
        dump_path = tmp_path / "run.json"
        assert main(["record", "faulty", "-o", str(dump_path)]) == 0
        capsys.readouterr()
        assert main(["export", str(dump_path)]) == 0
        trace = json.loads(capsys.readouterr().out)
        validate_chrome_trace(trace)
        assert trace["otherData"]["meta"]["scenario"] == "faulty"


class TestCriticalPath:
    def test_renders_stage_table(self, capsys):
        assert main(["critical-path", "serialized"]) == 0
        out = capsys.readouterr().out
        assert "Critical path — serialized" in out
        assert "cpu" in out and "gpu" in out

    def test_rank_selector(self, tmp_path, capsys):
        dump_path = tmp_path / "run.json"
        assert main(["record", "cluster", "-o", str(dump_path)]) == 0
        assert main(["critical-path", str(dump_path), "--rank", "1"]) == 0


class TestSummary:
    def test_serialized_summary_states_the_cpu_bound(self, capsys):
        # the CLI must state the ablation conclusion: the serialized
        # run's critical path is cpu-bound
        assert main(["summary", "serialized"]) == 0
        out = capsys.readouterr().out
        assert "run: serialized" in out
        assert "bound stage: cpu" in out
        assert "overlap estimate" in out
        assert "Run metrics" in out

    def test_pipelined_summary_states_the_gpu_bound(self, capsys):
        assert main(["summary", "pipelined"]) == 0
        assert "bound stage: gpu" in capsys.readouterr().out

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_scenario_summarizes(self, scenario, capsys):
        assert main(["summary", scenario]) == 0
        assert f"run: {scenario}" in capsys.readouterr().out

    def test_dump_without_intervals_has_no_critical_path(self, tmp_path, capsys):
        # the serving scenario records metrics but no interval events:
        # summary says so and prints the metrics; critical-path needs
        # the intervals and still refuses
        dump_path = tmp_path / "serving.json"
        assert main(["record", "serving", "-o", str(dump_path)]) == 0
        capsys.readouterr()
        assert main(["summary", str(dump_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:2] == [
            "run: serving",
            "critical path: none (the dump has no traced intervals)",
        ]
        assert "Run metrics" in out and "serve.arrivals" in out
        assert "makespan" not in out
        assert main(["critical-path", str(dump_path)]) == 2
        assert "no traced events" in capsys.readouterr().err


class TestErrors:
    def test_unknown_source_exits_2(self, tmp_path, capsys):
        assert main(["summary", "no-such-thing"]) == 2
        err = capsys.readouterr().err
        assert "neither a dump file nor a scenario" in err
        assert "serialized" in err  # lists the valid scenarios

    def test_corrupt_dump_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert main(["export", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
