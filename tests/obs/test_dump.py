"""Unit tests for canonical trace dumps."""

import dataclasses

import pytest

from repro.obs.dump import (
    _SUMMARY_FIELDS,
    DUMP_SCHEMA,
    DUMP_VERSION,
    DumpError,
    RankDump,
    RunDump,
    canonicalize_log,
    capture_rank,
    timeline_summary,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.scenarios import run_scenario
from repro.recovery.protocol import _SUMMED_FIELDS
from repro.runtime.node import NodeTimeline
from repro.runtime.trace import RuntimeLogRecord, TraceEvent, Tracer


def _rec(op, at, ids, batch=-1, kind="", attempt=0):
    return RuntimeLogRecord(
        op=op, at=at, kind=kind, ids=tuple(ids), attempt=attempt, batch=batch
    )


class TestCanonicalizeLog:
    def test_submit_order_names(self):
        # memory-address-like ids become w<n> in first-submission order
        log = [
            _rec("submit", 0.1, [140_001]),
            _rec("submit", 0.2, [140_077]),
            _rec("flush", 0.3, [140_077, 140_001], batch=0),
        ]
        out = canonicalize_log(log)
        assert out[0].ids == ("w0",)
        assert out[1].ids == ("w1",)
        assert out[2].ids == ("w1", "w0")

    def test_unknown_ints_and_non_ints(self):
        log = [
            _rec("submit", 0.1, [7]),
            _rec("block_transfer", 0.2, [((3, 1), 2), 99]),
        ]
        out = canonicalize_log(log)
        assert out[1].ids == ("((3, 1), 2)", "u0")

    def test_original_records_untouched(self):
        log = [_rec("submit", 0.1, [42])]
        canonicalize_log(log)
        assert log[0].ids == (42,)


class TestRankDump:
    def test_dict_round_trip(self):
        rd = RankDump(
            rank=3,
            events=[TraceEvent("cpu", "mtxm", 0.0, 0.5, batch=2)],
            log=[_rec("flush", 0.25, ["w0"], batch=2, kind="k", attempt=1)],
            summary={"total_seconds": 0.5, "n_tasks": 1},
        )
        rebuilt = RankDump.from_dict(rd.to_dict())
        assert rebuilt.to_dict() == rd.to_dict()
        assert rebuilt.events[0].batch == 2
        assert rebuilt.log[0].attempt == 1


class TestRunDump:
    def _dump(self):
        rd = RankDump(
            rank=0,
            events=[TraceEvent("gpu", "kernel", 0.0, 1.5)],
            summary={"total_seconds": 2.0},
        )
        return RunDump(meta={"scenario": "synthetic"}, ranks=[rd])

    def test_makespan_is_max_of_summary_and_events(self):
        dump = self._dump()
        assert dump.makespan == 2.0
        dump.ranks[0].events.append(TraceEvent("gpu", "late", 2.0, 3.0))
        assert dump.makespan == 3.0

    def test_rank_dump_lookup(self):
        dump = self._dump()
        assert dump.rank_dump(0).rank == 0
        with pytest.raises(DumpError, match="no rank 5"):
            dump.rank_dump(5)

    def test_schema_header(self):
        raw = self._dump().to_dict()
        assert raw["schema"] == DUMP_SCHEMA
        assert raw["version"] == DUMP_VERSION

    def test_bad_schema_rejected(self):
        raw = self._dump().to_dict()
        raw["schema"] = "something-else"
        with pytest.raises(DumpError, match="not a repro-obs-dump"):
            RunDump.from_dict(raw)

    def test_bad_version_rejected(self):
        raw = self._dump().to_dict()
        raw["version"] = DUMP_VERSION + 1
        with pytest.raises(DumpError, match="unsupported dump version"):
            RunDump.from_dict(raw)

    def test_invalid_json_rejected(self):
        with pytest.raises(DumpError, match="not valid JSON"):
            RunDump.loads("{nope")

    def test_save_load_round_trip(self, tmp_path):
        dump = self._dump()
        dump.registry = MetricsRegistry()
        dump.registry.counter("c").inc(0.5, 2.0)
        path = tmp_path / "run.json"
        dump.save(str(path))
        loaded = RunDump.load(str(path))
        assert loaded.to_dict() == dump.to_dict()
        # canonical text is stable through a round trip too
        assert loaded.dumps() == dump.dumps()

    def test_capture_rank_canonicalizes(self):
        tracer = Tracer()
        tracer.record("cpu", "work", 0.0, 1.0)
        tracer.log_submit("k", 123456, 0.0)
        rd = capture_rank(4, tracer, {"total_seconds": 1.0})
        assert rd.rank == 4
        assert rd.log[0].ids == ("w0",)
        assert rd.summary == {"total_seconds": 1.0}


class TestTimelineSummary:
    def test_scenario_summary_fields(self):
        run = run_scenario("pipelined")
        summary = run.dump.ranks[0].summary
        assert summary["n_tasks"] == 48
        assert summary["total_seconds"] == pytest.approx(run.makespan)
        assert summary["gpu_busy"] > 0

    def test_summary_fields_are_timeline_fields(self):
        # a field deleted from the timeline but left in either list
        # fails here, not first in a dump or a recovery run
        fields = {f.name for f in dataclasses.fields(NodeTimeline)}
        assert set(_SUMMARY_FIELDS) <= fields
        assert set(_SUMMED_FIELDS) <= fields
        assert list(timeline_summary(NodeTimeline())) == list(_SUMMARY_FIELDS)


class TestCheckpointSegments:
    def test_flush_batches_unique_across_segments(self):
        # the recovery path re-runs the runtime on a fresh segment
        # clock; the OffsetTracer batch offset must keep global batch
        # indices unique or the dump's flow arrows collapse
        run = run_scenario("checkpoint")
        assert run.extras["restarts"] >= 1
        flushes = [
            rec.batch
            for rec in run.dump.ranks[0].log
            if rec.op == "flush"
        ]
        assert len(flushes) == len(set(flushes))
        # rollback/restore records from the crash made it into the log
        ops = {rec.op for rec in run.dump.ranks[0].log}
        assert {"rollback", "restore", "checkpoint"} <= ops
