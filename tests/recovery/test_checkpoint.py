"""Snapshot cost model, lineage store, and the Checkpointer driver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecoveryConfigError
from repro.faults.injector import FaultInjector
from repro.faults.models import CheckpointCorruption
from repro.recovery import (
    Checkpoint,
    CheckpointCostModel,
    CheckpointStore,
    Checkpointer,
    EveryNBatches,
    FixedInterval,
    MigrationLedger,
)


def entry(item_id: str, n_bytes: int = 100) -> tuple[str, int]:
    """One accumulated ``(item_id, output_bytes)`` pair."""
    return (item_id, n_bytes)


def ck(seq, parent, *, ids=(), state_bytes=0, corrupted=False, at=0.0):
    return Checkpoint(
        rank=0,
        seq=seq,
        parent=parent,
        at=at,
        cursor=len(ids),
        item_ids=tuple(ids),
        state_bytes=state_bytes,
        corrupted=corrupted,
    )


class TestCostModel:
    def test_write_is_serialize_plus_drain(self):
        model = CheckpointCostModel(
            serialize_gbps=1.0,
            drain_gbps=0.5,
            write_latency_seconds=0.01,
        )
        n = 10**9
        assert model.serialize_seconds(n) == pytest.approx(1.0)
        assert model.drain_seconds(n) == pytest.approx(2.01)
        assert model.write_seconds(n) == pytest.approx(3.01)

    def test_read_pays_the_reverse_path(self):
        model = CheckpointCostModel(
            serialize_gbps=1.0,
            drain_gbps=0.5,
            read_latency_seconds=0.02,
        )
        assert model.read_seconds(10**9) == pytest.approx(3.02)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"serialize_gbps": 0.0},
            {"drain_gbps": -1.0},
            {"write_latency_seconds": -1e-3},
            {"restart_seconds": -1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(RecoveryConfigError):
            CheckpointCostModel(**kwargs)


class TestCheckpointValidation:
    def test_bad_lineage_edges_rejected(self):
        with pytest.raises(RecoveryConfigError):
            ck(-1, -1)
        with pytest.raises(RecoveryConfigError):
            ck(2, 2)  # self-parent
        with pytest.raises(RecoveryConfigError):
            ck(1, 3)  # parent newer than child


class TestCheckpointStore:
    def test_add_enforces_sequence_and_parent(self):
        store = CheckpointStore()
        store.add(ck(0, -1))
        with pytest.raises(RecoveryConfigError):
            store.add(ck(2, 0))  # skips seq 1
        with pytest.raises(RecoveryConfigError):
            store.add(ck(1, -1))  # not parented to the frontier
        store.add(ck(1, 0))
        assert store.frontier_seq == 1

    def test_lineage_oldest_first(self):
        store = CheckpointStore()
        for seq in range(3):
            store.add(ck(seq, seq - 1))
        assert [c.seq for c in store.lineage(2)] == [0, 1, 2]
        assert store.lineage(-1) == []

    def test_select_restore_walks_past_corruption(self):
        store = CheckpointStore()
        store.add(ck(0, -1))
        store.add(ck(1, 0, corrupted=True))
        store.add(ck(2, 1, corrupted=True))
        choice, tried = store.select_restore()
        assert choice.seq == 0
        # one read charged per snapshot tried, rejects included
        assert [c.seq for c in tried] == [2, 1, 0]

    def test_select_restore_fully_corrupted_chain(self):
        store = CheckpointStore()
        store.add(ck(0, -1, corrupted=True))
        choice, tried = store.select_restore()
        assert choice is None
        assert [c.seq for c in tried] == [0]

    def test_restore_leaves_dead_branch_in_store(self):
        store = CheckpointStore()
        store.add(ck(0, -1))
        store.add(ck(1, 0, corrupted=True))
        store.restore_to(0)
        assert store.frontier_seq == 0
        assert store.next_seq() == 2  # seq numbers stay monotonic
        store.add(ck(2, 0))  # new branch extends the restored frontier
        assert [c.seq for c in store.lineage(2)] == [0, 2]

    def test_covered_views(self):
        store = CheckpointStore()
        store.add(ck(0, -1, ids=("a", "b"), state_bytes=200))
        store.add(ck(1, 0, ids=("c",), state_bytes=300))
        assert store.covered_ids(1) == {"a", "b", "c"}
        assert store.covered_bytes(1) == 300
        assert store.covered_bytes(-1) == 0
        assert store.covered_count(-1) == 0

    def test_restore_to_unknown_seq_rejected(self):
        with pytest.raises(RecoveryConfigError):
            CheckpointStore().restore_to(5)


class TestCheckpointer:
    def make(self, policy=None, **kwargs):
        store = CheckpointStore()
        return store, Checkpointer(
            store, policy or EveryNBatches(1), CheckpointCostModel(), **kwargs
        )

    def test_not_due_without_pending_delta(self):
        _, cp = self.make()
        assert not cp.due(1.0)
        cp.note_accumulate([entry("a")])
        assert cp.due(1.0)

    def test_begin_freezes_delta_and_prices_full_state(self):
        store, cp = self.make()
        cp.note_accumulate([entry("a", 1000), entry("b", 1000)])
        charge = cp.begin()
        assert charge is not None
        model = cp.cost_model
        # one charge: the full state's serialize plus its drain
        assert charge == pytest.approx(
            model.serialize_seconds(2000) + model.drain_seconds(2000)
        )
        # racing accumulates stay pending for the *next* snapshot
        cp.note_accumulate([entry("late", 500)])
        assert cp.begin() is None  # one write in flight at a time
        checkpoint = cp.commit(0.3)
        assert checkpoint.seq == 0
        assert len(checkpoint.item_ids) == 2
        assert cp.uncheckpointed_ids() == ["late"]

    def test_full_state_cost_is_cumulative(self):
        store, cp = self.make()
        cp.note_accumulate([entry("a", 1000)])
        cp.begin()
        cp.commit(0.2)
        cp.note_accumulate([entry("b", 500)])
        # classic CPR: the second write re-serializes everything durable
        assert cp.begin() == pytest.approx(cp.cost_model.write_seconds(1500))

    def test_commit_without_begin_rejected(self):
        _, cp = self.make()
        with pytest.raises(RecoveryConfigError):
            cp.commit(0.0)

    def test_crash_mid_write_leaves_no_partial_snapshot(self):
        store, cp = self.make()
        cp.note_accumulate([entry("a"), entry("b")])
        cp.begin()
        # crash: begin never reaches commit
        assert store.checkpoints == []
        assert cp.uncheckpointed_ids() == ["a", "b"]

    def test_cursor_advances_along_lineage(self):
        store, cp = self.make()
        cp.note_accumulate([entry("a"), entry("b")])
        cp.begin()
        first = cp.commit(0.2)
        cp.note_accumulate([entry("c")])
        cp.begin()
        second = cp.commit(0.4)
        assert (first.cursor, second.cursor) == (2, 3)
        assert second.parent == first.seq

    def test_corruption_drawn_from_injector_at_write_time(self):
        injector = FaultInjector(3, [CheckpointCorruption(rate=1.0)])
        _, cp = self.make(injector=injector, rank=0)
        cp.note_accumulate([entry("a")])
        cp.begin()
        assert cp.commit(0.2).corrupted

    def test_snapshot_results_are_copies(self):
        source = {"a": [1.0, 2.0]}
        _, cp = self.make(result_source=source)
        cp.note_accumulate([entry("a")])
        cp.begin()
        checkpoint = cp.commit(0.2)
        source["a"].append(3.0)  # post-snapshot mutation
        ((_, stored),) = checkpoint.results
        assert stored == [1.0, 2.0]

    def test_reset_segment_drops_uncommitted_state(self):
        _, cp = self.make(policy=FixedInterval(0.5))
        cp.note_accumulate([entry("a")])
        cp.begin()
        cp.reset_segment(clock_offset=1.0)
        assert cp.uncheckpointed_ids() == []
        assert cp.clock_offset == 1.0
        assert not cp.due(0.4)  # policy clock restarted at segment zero

    def test_reset_segment_restarts_policy_clock_at_now(self):
        # the stealing engine keeps one global clock: the policy period
        # runs from the restore instant, not from zero
        _, cp = self.make(policy=FixedInterval(0.5))
        cp.reset_segment(now=2.0)
        cp.note_accumulate([entry("a")])
        assert not cp.due(2.4)
        assert cp.due(2.5)


class TestMigrationLedger:
    def test_grant_moves_ownership_and_records_the_edge(self):
        ledger = MigrationLedger()
        assert ledger.current_owner("t0", 3) == 3  # never migrated
        assert ledger.last_edge("t0") is None
        ledger.note_grant("t0", victim=3, thief=1, request=7)
        assert ledger.current_owner("t0", 3) == 1
        edge = ledger.last_edge("t0")
        assert (edge.victim, edge.thief, edge.request) == (3, 1, 7)

    def test_rehome_reverts_ownership_to_the_victim(self):
        ledger = MigrationLedger()
        ledger.note_grant("t0", victim=3, thief=1, request=7)
        ledger.note_rehome("t0", 3)
        assert ledger.current_owner("t0", 1) == 3

    def test_replay_spends_the_grant_and_keeps_the_owner(self):
        ledger = MigrationLedger()
        ledger.note_grant("t0", victim=3, thief=1, request=7)
        ledger.note_replay("t0")
        assert ledger.last_edge("t0") is None
        assert ledger.current_owner("t0", 3) == 1
        # a later grant is live again
        ledger.note_grant("t0", victim=1, thief=2, request=9)
        assert ledger.last_edge("t0").thief == 2


# -- the one restore step, against a lineage-walk reference ------------------------


def reference_restore(store, uncheckpointed):
    """What a restore must do, spelled out from ``select_restore`` and
    ``lineage`` alone: ``(target, tried seqs, rolled ids, covered)``."""
    choice, tried = store.select_restore()
    target = choice.seq if choice is not None else -1
    kept = {c.seq for c in store.lineage(target)}
    discarded = [
        item_id
        for c in store.lineage(store.frontier_seq)
        if c.seq not in kept
        for item_id in c.item_ids
    ]
    return (
        target,
        [c.seq for c in tried],
        (*discarded, *uncheckpointed),
        store.covered_ids(target),
    )


#: one crash cycle: the snapshots committed since the last restore (each
#: a corruption flag and a delta size), then the uncheckpointed tail
_CYCLES = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=3)),
            max_size=5,
        ),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(_CYCLES)
def test_restore_matches_the_lineage_walk_reference(cycles):
    store = CheckpointStore()
    for cycle, (snapshots, n_tail) in enumerate(cycles):
        for corrupted, n_ids in snapshots:
            seq = store.next_seq()
            store.add(
                ck(
                    seq,
                    store.frontier_seq,
                    ids=[f"s{seq}.{j}" for j in range(n_ids)],
                    state_bytes=1000 * (seq + 1),
                    corrupted=corrupted,
                )
            )
        chain = store.lineage(store.frontier_seq)
        tail = [f"u{cycle}.{j}" for j in range(n_tail)]
        target, tried, rolled, covered = reference_restore(store, tail)
        # the reference itself: the newest uncorrupted snapshot on the
        # frontier chain, reached by reading from the frontier down
        readable = [c.seq for c in chain if not c.corrupted]
        assert target == (readable[-1] if readable else -1)
        assert tried == [c.seq for c in reversed(chain) if c.seq >= target]

        restored = store.restore(tail)
        assert restored.target == target
        assert [c.seq for c in restored.tried] == tried
        assert restored.rolled_ids == rolled
        assert restored.covered == covered
        assert store.frontier_seq == target
        # the walk's read charge is one read per snapshot tried
        model = CheckpointCostModel()
        assert restored.read_seconds(model) == sum(
            model.read_seconds(store.get(seq).state_bytes) for seq in tried
        )
