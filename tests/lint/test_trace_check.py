"""Unit tests for the dynamic happens-before checker."""

from __future__ import annotations

import pytest

from repro.lint.trace_check import (
    TraceCheckError,
    check_runtime_log,
    find_violations,
    verify_tracer,
)
from repro.runtime.trace import RuntimeLogRecord, Tracer


def rec(op, at, kind="k", ids=(), attempt=0):
    """Shorthand record constructor."""
    return RuntimeLogRecord(
        op=op, at=at, kind=kind, ids=tuple(ids), attempt=attempt
    )


def good_log():
    """A compliant run: two kinds, FIFO flushes, write-once transfers."""
    return [
        rec("submit", 0.0, "a", [1]),
        rec("submit", 0.1, "b", [10]),
        rec("submit", 0.2, "a", [2]),
        rec("flush", 0.5, "a", [1, 2]),
        rec("block_transfer", 0.6, "", ["h0", "h1"]),
        rec("submit", 0.7, "a", [3]),
        rec("flush", 0.8, "b", [10]),
        rec("flush", 1.0, "a", [3]),
        rec("block_transfer", 1.1, "", ["h2"]),
    ]


class TestCompliantLogs:
    def test_good_log_passes(self):
        assert find_violations(good_log()) == []
        check_runtime_log(good_log())  # must not raise

    def test_empty_log_passes(self):
        check_runtime_log([])

    def test_verify_tracer_on_fresh_tracer(self):
        verify_tracer(Tracer())


class TestViolations:
    def test_item_in_two_batches(self):
        log = good_log() + [rec("flush", 2.0, "a", [2])]
        violations = find_violations(log)
        assert any("2 flushed batches" in v for v in violations)
        with pytest.raises(TraceCheckError):
            check_runtime_log(log)

    def test_lost_item(self):
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("submit", 0.1, "a", [2]),
            rec("flush", 0.5, "a", [1]),
        ]
        assert any("never flushed" in v for v in find_violations(log))

    def test_flush_of_unsubmitted_item(self):
        log = [rec("flush", 0.5, "a", [99])]
        assert any("never submitted" in v for v in find_violations(log))

    def test_fifo_reorder_detected(self):
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("submit", 0.1, "a", [2]),
            rec("flush", 0.5, "a", [2, 1]),
        ]
        assert any("order" in v for v in find_violations(log))

    def test_flush_before_submit_time(self):
        log = [
            rec("submit", 1.0, "a", [1]),
            rec("flush", 0.5, "a", [1]),
        ]
        violations = find_violations(log)
        assert any("before its submission" in v for v in violations)
        # the log also went back in time
        assert any("back in time" in v for v in violations)

    def test_double_block_transfer(self):
        log = good_log() + [rec("block_transfer", 2.0, "", ["h0"])]
        assert any("write-once" in v for v in find_violations(log))

    def test_duplicate_submit(self):
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("submit", 0.1, "a", [1]),
            rec("flush", 0.5, "a", [1, 1]),
        ]
        assert any("submitted twice" in v for v in find_violations(log))

    def test_gpu_compute_on_block_that_never_arrived(self):
        log = good_log() + [rec("gpu_compute", 2.0, "a", ["ghost"])]
        assert any("never arrived" in v for v in find_violations(log))

    def test_gpu_compute_before_transfer_completes(self):
        """The TOCTOU race the two-phase cache prevents: a kernel reads a
        block whose transfer finishes only later."""
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("flush", 0.1, "a", [1]),
            rec("gpu_compute", 0.2, "a", ["h0"]),
            rec("block_transfer", 0.6, "", ["h0"]),
        ]
        assert any(
            "transfer completes later" in v for v in find_violations(log)
        )

    def test_gpu_compute_after_arrival_passes(self):
        log = good_log() + [
            rec("gpu_compute", 2.0, "a", ["h0", "h1", "h2"]),
        ]
        assert find_violations(log) == []

    def test_gpu_compute_at_arrival_instant_passes(self):
        """Completion and compute at the same instant is legal (the
        commit happens-before the kernel in scheduling order)."""
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("flush", 0.1, "a", [1]),
            rec("block_transfer", 0.5, "", ["h0"]),
            rec("gpu_compute", 0.5, "a", ["h0"]),
        ]
        assert find_violations(log) == []

    def test_error_message_caps_listing(self):
        log = [rec("flush", 0.0, "a", [i]) for i in range(10)]
        with pytest.raises(TraceCheckError) as err:
            check_runtime_log(log)
        assert "..." in str(err.value)
        assert len(err.value.violations) == 10


# -- effectively-exactly-once accumulation (fault injection) ------------------------


def fault_log():
    """A compliant faulted run: one retry, results accumulated once."""
    return [
        rec("submit", 0.0, "a", [1]),
        rec("submit", 0.1, "a", [2]),
        rec("flush", 0.2, "a", [1, 2]),
        rec("gpu_compute", 0.3, "a", ["h0"]),
        rec("gpu_fault", 0.4, "a"),
        rec("gpu_compute", 0.5, "a", ["h0"], attempt=1),
        rec("accumulate", 0.6, "a", [1, 2], attempt=1),
    ]


class TestExactlyOnceAccumulation:
    def test_faulted_retry_log_passes(self):
        log = fault_log()
        # the gpu_compute arrival check needs the block on device
        log.insert(3, rec("block_transfer", 0.25, "", ["h0"]))
        assert find_violations(log) == []

    def test_logs_without_accumulates_skip_the_check(self):
        assert find_violations(good_log()) == []

    def test_double_accumulate_detected(self):
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("flush", 0.2, "a", [1]),
            rec("accumulate", 0.3, "a", [1]),
            rec("accumulate", 0.4, "a", [1], attempt=1),
        ]
        violations = find_violations(log)
        assert any("accumulated 2 times" in v for v in violations)

    def test_dropped_item_detected(self):
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("submit", 0.1, "a", [2]),
            rec("flush", 0.2, "a", [1, 2]),
            rec("accumulate", 0.3, "a", [1]),  # item 2 vanished
        ]
        violations = find_violations(log)
        assert any("never accumulated" in v for v in violations)

    def test_accumulate_of_unflushed_item_detected(self):
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("flush", 0.2, "a", [1]),
            rec("accumulate", 0.3, "a", [1, 99]),
        ]
        violations = find_violations(log)
        assert any("never flushed" in v for v in violations)

    def test_accumulate_before_flush_detected(self):
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("accumulate", 0.1, "a", [1]),
            rec("flush", 0.2, "a", [1]),
        ]
        violations = find_violations(log)
        assert any("before its flush" in v for v in violations)

    def test_unjustified_retry_detected(self):
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("flush", 0.2, "a", [1]),
            rec("gpu_compute", 0.5, "a", [], attempt=1),  # no gpu_fault
            rec("accumulate", 0.6, "a", [1], attempt=1),
        ]
        violations = find_violations(log)
        assert any("justified by a fault" in v for v in violations)

    def test_negative_attempt_rejected(self):
        with pytest.raises(Exception):
            rec("gpu_compute", 0.0, "a", attempt=-1)

    def test_unknown_op_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            rec("teleport", 0.0)


def recovery_log():
    """A compliant crash-and-recover run: one checkpoint survives the
    crash, the un-checkpointed tail is rolled back and replayed."""
    return [
        # epoch 0 — cut short by a crash
        rec("submit", 0.0, "a", [1]),
        rec("submit", 0.1, "a", [2]),
        rec("submit", 0.2, "a", [3]),
        rec("flush", 0.3, "a", [1, 2]),
        rec("accumulate", 0.4, "a", [1, 2]),
        rec("checkpoint", 0.5, "0<--1", [1, 2]),
        rec("flush", 0.6, "a", [3]),
        rec("accumulate", 0.7, "a", [3]),
        # crash: 3 was accumulated after the snapshot — roll it back
        rec("rollback", 0.9, "0", [3]),
        rec("restore", 1.0, "0"),
        # epoch 1 — replay the lost window
        rec("submit", 1.1, "a", [3]),
        rec("flush", 1.2, "a", [3]),
        rec("accumulate", 1.3, "a", [3]),
    ]


class TestRecoveryLedger:
    def test_compliant_recovery_log_passes(self):
        assert find_violations(recovery_log()) == []

    def test_crashed_epoch_forgives_cut_off_work(self):
        # item 3's first life (flushed, accumulated, rolled back) and
        # item 4 (submitted, never flushed) are forgiven in the crashed
        # epoch — the global ledger still balances
        log = recovery_log()
        log.insert(3, rec("submit", 0.25, "a", [4]))
        log += [
            rec("submit", 1.4, "a", [4]),
            rec("flush", 1.5, "a", [4]),
            rec("accumulate", 1.6, "a", [4]),
        ]
        assert find_violations(log) == []

    def test_final_epoch_not_forgiven(self):
        # the same cut-off shape in the *final* epoch is real work loss
        log = recovery_log() + [rec("submit", 1.4, "a", [5])]
        violations = find_violations(log)
        assert any("never flushed" in v for v in violations)

    def test_malformed_lineage_edge(self):
        log = recovery_log()
        log[5] = rec("checkpoint", 0.5, "zero", [1, 2])
        violations = find_violations(log)
        assert any("malformed lineage" in v for v in violations)

    def test_sequence_numbers_must_increase(self):
        log = recovery_log() + [
            rec("checkpoint", 1.4, "0<-0", [3]),
        ]
        violations = find_violations(log)
        assert any("must increase" in v for v in violations)

    def test_checkpoint_must_parent_the_frontier(self):
        log = recovery_log() + [
            rec("checkpoint", 1.4, "2<--1", [3]),
        ]
        violations = find_violations(log)
        assert any("durable frontier is 0" in v for v in violations)

    def test_checkpoint_covering_unaccumulated_item(self):
        log = recovery_log() + [
            rec("checkpoint", 1.4, "1<-0", [3, 99]),
        ]
        violations = find_violations(log)
        assert any("never accumulated" in v for v in violations)

    def test_checkpoint_recovering_durable_item(self):
        log = recovery_log() + [
            rec("checkpoint", 1.4, "1<-0", [3, 1]),
        ]
        violations = find_violations(log)
        assert any("re-covers item" in v for v in violations)

    def test_rollback_of_unaccumulated_item(self):
        log = recovery_log()
        log[8] = rec("rollback", 0.9, "0", [3, 42])
        violations = find_violations(log)
        assert any("cancels item" in v for v in violations)

    def test_restore_requires_preceding_rollback(self):
        log = recovery_log()
        del log[8]  # drop the rollback
        violations = find_violations(log)
        assert any("without a preceding rollback" in v for v in violations)

    def test_restore_must_match_rollback_target(self):
        log = recovery_log()
        log[8] = rec("rollback", 0.9, "-1", [1, 2, 3])
        violations = find_violations(log)
        assert any("does not match the preceding rollback" in v
                   for v in violations)

    def test_restore_off_the_lineage(self):
        log = recovery_log()
        log[8] = rec("rollback", 0.9, "7", [3])
        log[9] = rec("restore", 1.0, "7")
        violations = find_violations(log)
        assert any("not on the durable lineage" in v for v in violations)

    def test_resubmit_of_durable_item(self):
        log = recovery_log() + [rec("submit", 1.4, "a", [1])]
        violations = find_violations(log)
        assert any("resubmitted after being covered" in v
                   for v in violations)

    def test_reaccumulate_of_durable_item(self):
        log = recovery_log() + [
            rec("flush", 1.5, "a", [1]),
            rec("accumulate", 1.6, "a", [1]),
        ]
        violations = find_violations(log)
        assert any("re-accumulated after being covered" in v
                   for v in violations)

    def test_rolled_back_item_never_replayed_is_work_lost(self):
        log = recovery_log()[:11]  # cut the replay after its submit
        violations = find_violations(log)
        assert any("work lost in recovery" in v for v in violations)

    def test_double_count_across_epochs(self):
        # item 3 replayed although its first accumulate was never
        # rolled back: effectively counted twice
        log = recovery_log()
        log[8] = rec("rollback", 0.9, "0", [])
        violations = find_violations(log)
        assert any("effectively accumulated 2 times" in v
                   for v in violations)

    def test_recovery_error_raised(self):
        log = recovery_log()
        log[8] = rec("rollback", 0.9, "0", [])
        with pytest.raises(TraceCheckError):
            check_runtime_log(log)


class TestRecoveryLedgerEdgeCases:
    """Invariant 7 at its boundaries: runs with no restore at all, an
    empty lineage, and a restore walk past corrupted snapshots."""

    def test_zero_restore_run_with_checkpoints_passes(self):
        # armed recovery, no crash: checkpoints commit, nothing restores
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("submit", 0.1, "a", [2]),
            rec("flush", 0.3, "a", [1, 2]),
            rec("accumulate", 0.4, "a", [1, 2]),
            rec("checkpoint", 0.5, "0<--1", [1, 2]),
            rec("submit", 0.6, "a", [3]),
            rec("flush", 0.7, "a", [3]),
            rec("accumulate", 0.8, "a", [3]),
            rec("checkpoint", 0.9, "1<-0", [3]),
        ]
        assert find_violations(log) == []

    def test_zero_restore_run_without_checkpoints_passes(self):
        # recovery never armed: the ledger must stay entirely silent
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("flush", 0.3, "a", [1]),
            rec("accumulate", 0.4, "a", [1]),
        ]
        assert find_violations(log) == []

    def test_from_scratch_restart_with_empty_lineage(self):
        # a crash before any checkpoint restores to seq -1: the empty
        # lineage is a legal restore target and covers nothing
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("flush", 0.3, "a", [1]),
            rec("accumulate", 0.4, "a", [1]),
            rec("rollback", 0.5, "-1", [1]),
            rec("restore", 0.6, "-1"),
            rec("submit", 0.7, "a", [1]),
            rec("flush", 0.8, "a", [1]),
            rec("accumulate", 0.9, "a", [1]),
        ]
        assert find_violations(log) == []

    def test_restore_to_missing_seq_on_empty_lineage_flagged(self):
        # restoring to a checkpoint that never committed cannot be on
        # the (empty) durable lineage
        log = [
            rec("submit", 0.0, "a", [1]),
            rec("flush", 0.3, "a", [1]),
            rec("accumulate", 0.4, "a", [1]),
            rec("rollback", 0.5, "3", [1]),
            rec("restore", 0.6, "3"),
        ]
        violations = find_violations(log)
        assert any("not on the durable lineage" in v for v in violations)

    def _corrupted_walk_log(self):
        """Two checkpoints; the newest (seq 1) is corrupted on disk, so
        the restore walk rejects it (``s1`` in ids) and lands on seq 0."""
        return [
            rec("submit", 0.0, "a", [1]),
            rec("submit", 0.1, "a", [2]),
            rec("flush", 0.2, "a", [1]),
            rec("accumulate", 0.3, "a", [1]),
            rec("checkpoint", 0.4, "0<--1", [1]),
            rec("flush", 0.5, "a", [2]),
            rec("accumulate", 0.6, "a", [2]),
            rec("checkpoint", 0.7, "1<-0", [2]),
            # crash: seq 1 is unreadable, the walk falls back to seq 0,
            # so item 2 (covered only by seq 1) must be rolled back
            rec("rollback", 0.8, "0", [2]),
            RuntimeLogRecord(
                op="restore", at=0.9, kind="0", ids=("s1", "s0")
            ),
            rec("submit", 1.0, "a", [2]),
            rec("flush", 1.1, "a", [2]),
            rec("accumulate", 1.2, "a", [2]),
        ]

    def test_corrupted_last_snapshot_walk_passes(self):
        assert find_violations(self._corrupted_walk_log()) == []

    def test_corrupted_walk_uncovers_the_newest_snapshot(self):
        # after falling back past the corrupted seq 1, item 2 is no
        # longer durable — re-covering it at seq 2 must be legal
        log = self._corrupted_walk_log() + [
            rec("checkpoint", 1.3, "2<-0", [2]),
        ]
        assert find_violations(log) == []

    def test_corrupted_walk_without_rollback_is_double_count(self):
        # dropping the rollback makes the replay of item 2 a real
        # double accumulation — the walk must not forgive that
        log = self._corrupted_walk_log()
        log[8] = rec("rollback", 0.8, "0", [])
        violations = find_violations(log)
        assert any("effectively accumulated 2 times" in v
                   for v in violations)


def mrec(op, at, kind="k", ids=(), batch=-1):
    """Record constructor with a batch/request id (migration tests)."""
    return RuntimeLogRecord(
        op=op, at=at, kind=kind, ids=tuple(ids), attempt=0, batch=batch
    )


class TestMigrationPerRank:
    """Invariant 8, per-rank half: grants leave, migrations register."""

    def test_grant_then_migrate_back_is_clean(self):
        # t1 is granted away, later migrates back and runs here
        log = [
            mrec("submit", 0.0, "a", ["t0"]),
            mrec("submit", 0.0, "a", ["t1"]),
            mrec("steal_grant", 0.5, "a", ["t1"], batch=0),
            mrec("flush", 1.0, "a", ["t0"], batch=0),
            mrec("accumulate", 1.5, "a", ["t0"], batch=0),
            mrec("migrate", 2.0, "a", ["t1"], batch=3),
            mrec("flush", 2.5, "a", ["t1"], batch=1),
            mrec("accumulate", 3.0, "a", ["t1"], batch=1),
        ]
        assert find_violations(log) == []

    def test_granted_item_is_not_expected_to_flush(self):
        log = [
            mrec("submit", 0.0, "a", ["t0"]),
            mrec("submit", 0.0, "a", ["t1"]),
            mrec("steal_grant", 0.5, "a", ["t1"], batch=0),
            mrec("flush", 1.0, "a", ["t0"], batch=0),
            mrec("accumulate", 1.5, "a", ["t0"], batch=0),
        ]
        assert find_violations(log) == []

    def test_flush_after_grant_is_flagged(self):
        log = [
            mrec("submit", 0.0, "a", ["t0"]),
            mrec("steal_grant", 0.5, "a", ["t0"], batch=0),
            mrec("flush", 1.0, "a", ["t0"], batch=0),
        ]
        assert any("never submitted" in v for v in find_violations(log))

    def test_migrate_of_pending_item_is_duplicate(self):
        log = [
            mrec("submit", 0.0, "a", ["t0"]),
            mrec("migrate", 0.5, "a", ["t0"], batch=0),
        ]
        assert any(
            "duplicate migration" in v for v in find_violations(log)
        )

    def test_migrate_after_local_execution_is_flagged(self):
        log = [
            mrec("submit", 0.0, "a", ["t0"]),
            mrec("flush", 0.5, "a", ["t0"], batch=0),
            mrec("accumulate", 0.7, "a", ["t0"], batch=0),
            mrec("migrate", 1.0, "a", ["t0"], batch=1),
        ]
        assert any(
            "already executed" in v for v in find_violations(log)
        )

    def test_grant_of_unknown_item_is_flagged(self):
        log = [
            mrec("submit", 0.0, "a", ["t0"]),
            mrec("steal_grant", 0.5, "a", ["t9"], batch=0),
        ]
        assert any("not pending" in v for v in find_violations(log))

    def test_grant_under_wrong_kind_is_flagged(self):
        log = [
            mrec("submit", 0.0, "a", ["t0"]),
            mrec("submit", 0.0, "a", ["t1"]),
            mrec("steal_grant", 0.5, "b", ["t1"], batch=0),
        ]
        assert any("another kind" in v for v in find_violations(log))


class TestMigrationAcrossRanks:
    """Invariant 8, cross-rank half: the exactly-once ledger."""

    def _clean_logs(self):
        victim = [
            mrec("submit", 0.0, "a", ["t0", "t1", "t2"]),
            mrec("steal_grant", 0.5, "a", ["t2"], batch=0),
            mrec("flush", 1.0, "a", ["t0", "t1"], batch=0),
            mrec("accumulate", 1.5, "a", ["t0", "t1"], batch=0),
        ]
        thief = [
            mrec("migrate", 0.6, "a", ["t2"], batch=0),
            mrec("flush", 0.7, "a", ["t2"], batch=0),
            mrec("accumulate", 0.9, "a", ["t2"], batch=0),
        ]
        return {0: victim, 1: thief}

    def test_clean_migration_passes(self):
        from repro.lint.trace_check import find_migration_violations

        assert find_migration_violations(self._clean_logs()) == []

    def test_no_steal_records_is_vacuously_clean(self):
        from repro.lint.trace_check import find_migration_violations

        # per-rank w<n> names are not globally comparable, so logs
        # without steal ops are out of scope by design
        logs = {
            0: [mrec("submit", 0.0, "a", ["w0"]),
                mrec("flush", 0.5, "a", ["w0"], batch=0),
                mrec("accumulate", 0.6, "a", ["w0"], batch=0)],
            1: [mrec("submit", 0.0, "a", ["w0"]),
                mrec("flush", 0.5, "a", ["w0"], batch=0),
                mrec("accumulate", 0.6, "a", ["w0"], batch=0)],
        }
        assert find_migration_violations(logs) == []

    def test_grant_without_migrate_is_lost_work(self):
        from repro.lint.trace_check import find_migration_violations

        logs = self._clean_logs()
        logs[1] = [r for r in logs[1] if r.op != "migrate"]
        assert any(
            "never migrated" in v
            for v in find_migration_violations(logs)
        )

    def test_migrate_without_grant_is_flagged(self):
        from repro.lint.trace_check import find_migration_violations

        logs = self._clean_logs()
        logs[0] = [r for r in logs[0] if r.op != "steal_grant"]
        assert any(
            "without a matching grant" in v
            for v in find_migration_violations(logs)
        )

    def test_double_migrate_is_flagged(self):
        from repro.lint.trace_check import find_migration_violations

        logs = self._clean_logs()
        logs[1] = logs[1] + [mrec("migrate", 0.8, "a", ["t2"], batch=0)]
        assert any(
            "migrated 2 times" in v
            for v in find_migration_violations(logs)
        )

    def test_migrate_onto_victim_is_flagged(self):
        from repro.lint.trace_check import find_migration_violations

        logs = self._clean_logs()
        logs[0] = logs[0] + [mrec("migrate", 0.6, "a", ["t2"], batch=0)]
        logs[1] = [r for r in logs[1] if r.op != "migrate"]
        assert any(
            "victim rank" in v for v in find_migration_violations(logs)
        )

    def test_migrate_before_grant_instant_is_flagged(self):
        from repro.lint.trace_check import find_migration_violations

        logs = self._clean_logs()
        logs[1][0] = mrec("migrate", 0.1, "a", ["t2"], batch=0)
        assert any(
            "precedes its grant" in v
            for v in find_migration_violations(logs)
        )

    def test_global_double_execution_is_flagged(self):
        from repro.lint.trace_check import find_migration_violations

        logs = self._clean_logs()
        # the victim also runs the task it granted away
        logs[0] = logs[0] + [
            mrec("flush", 2.0, "a", ["t2"], batch=1),
            mrec("accumulate", 2.5, "a", ["t2"], batch=1),
        ]
        violations = find_migration_violations(logs)
        assert any("flushed on ranks" in v for v in violations)
        assert any("accumulated 2 times" in v for v in violations)

    def test_mismatched_ids_are_flagged(self):
        from repro.lint.trace_check import find_migration_violations

        logs = self._clean_logs()
        logs[1][0] = mrec("migrate", 0.6, "a", ["t0"], batch=0)
        assert any(
            "differ from granted" in v
            for v in find_migration_violations(logs)
        )


def srec(op, at, kind="standard", ids=(), batch=0):
    """Serving-ledger record shorthand (batch carries the tenant)."""
    return RuntimeLogRecord(
        op=op, at=at, kind=kind, ids=tuple(ids), batch=batch
    )


def serve_log():
    """A compliant serving run: j0 admitted and completed, j1 shed."""
    return [
        srec("arrive", 0.0, ids=["j0"]),
        srec("admit", 0.0, ids=["j0"]),
        srec("submit", 0.0, "k", ["j0.s0.i0"]),
        srec("submit", 0.0, "k", ["j0.s0.i1"]),
        srec("arrive", 0.1, ids=["j1"], batch=1),
        srec("shed", 0.1, "token-bucket", ["j1"], batch=1),
        srec("flush", 0.2, "k", ["j0.s0.i0", "j0.s0.i1"]),
        srec("scale", 0.25, "up", ["n1"], batch=2),
        srec("accumulate", 0.3, "k", ["j0.s0.i0", "j0.s0.i1"]),
        srec("deadline_miss", 0.3, ids=["j0"]),
    ]


class TestServeLedger:
    """Invariant 9: every arrival admitted xor shed, exactly once."""

    def test_compliant_serving_log_passes(self):
        assert find_violations(serve_log()) == []

    def test_double_arrival_detected(self):
        log = serve_log() + [srec("arrive", 0.4, ids=["j0"])]
        assert any("arrived twice" in v for v in find_violations(log))

    def test_verdict_without_arrival_detected(self):
        log = serve_log() + [srec("admit", 0.4, ids=["j9"])]
        assert any(
            "verdict without an arrival" in v for v in find_violations(log)
        )

    def test_verdict_before_arrival_detected(self):
        # the verdict record carries an instant earlier than the
        # arrival it follows in the stream
        log = [
            srec("arrive", 0.1, ids=["j0"]),
            srec("admit", 0.05, ids=["j0"]),
            srec("submit", 0.2, "k", ["j0.s0.i0"]),
            srec("flush", 0.3, "k", ["j0.s0.i0"]),
            srec("accumulate", 0.4, "k", ["j0.s0.i0"]),
        ]
        violations = find_violations(log)
        assert any("precedes its arrival" in v for v in violations)
        # the emission-order regression is independently flagged
        assert any("back in time" in v for v in violations)

    def test_arrival_without_verdict_detected(self):
        log = serve_log() + [srec("arrive", 0.4, ids=["j2"], batch=2)]
        assert any(
            "neither admitted nor shed" in v for v in find_violations(log)
        )

    def test_double_admit_and_double_shed_detected(self):
        log = serve_log() + [srec("admit", 0.4, ids=["j0"])]
        assert any("admitted 2 times" in v for v in find_violations(log))
        log = serve_log() + [
            srec("shed", 0.4, "queue-depth", ["j1"], batch=1)
        ]
        assert any("shed 2 times" in v for v in find_violations(log))

    def test_admit_and_shed_are_exclusive(self):
        log = serve_log() + [
            srec("shed", 0.4, "queue-depth", ["j0"])
        ]
        assert any(
            "both admitted and shed" in v for v in find_violations(log)
        )

    def test_shed_job_charging_compute_detected(self):
        log = serve_log() + [
            srec("submit", 0.4, "k", ["j1.s0.i0"]),
        ]
        assert any(
            "shed job 'j1' charged compute" in v
            for v in find_violations(log)
        )

    def test_admitted_job_without_work_detected(self):
        log = [
            srec("arrive", 0.0, ids=["j0"]),
            srec("admit", 0.0, ids=["j0"]),
        ]
        assert any(
            "never submitted any work" in v for v in find_violations(log)
        )

    def test_lost_serve_item_detected(self):
        # j0's second item never accumulates: completion is not
        # exactly-once
        log = [r for r in serve_log()
               if not (r.op == "accumulate")] + [
            srec("accumulate", 0.3, "k", ["j0.s0.i0"]),
        ]
        assert any(
            "did not complete exactly once" in v
            for v in find_violations(log)
        )

    def test_duplicate_deadline_miss_detected(self):
        log = serve_log() + [srec("deadline_miss", 0.4, ids=["j0"])]
        assert any(
            "2 deadline misses" in v for v in find_violations(log)
        )

    def test_deadline_miss_without_admission_detected(self):
        log = serve_log() + [srec("deadline_miss", 0.4, ids=["j1"])]
        assert any(
            "missed a deadline but was never admitted" in v
            for v in find_violations(log)
        )

    def test_non_serving_logs_skip_the_ledger(self):
        # no serve ops -> invariant 9 never engages, good_log passes
        assert find_violations(good_log()) == []
