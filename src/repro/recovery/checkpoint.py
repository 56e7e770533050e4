"""The checkpoint/restart core: snapshots, their cost, their lineage.

A checkpoint is a durable per-rank snapshot of everything accumulated so
far — the result blocks and the batch-queue cursor — taken on the
simulated clock.  Cost is charged by a :class:`CheckpointCostModel`
(serialize the state, then drain it to a peer / the parallel file
system); durability is modelled by a :class:`CheckpointStore` holding
the snapshot *lineage* — each checkpoint points at its parent, restores
move the frontier back along the chain, and snapshots corrupted by a
:class:`~repro.faults.models.CheckpointCorruption` fault are rejected at
read time, forcing the walk to an older ancestor.

Both users of checkpoint/restart — the node runtime under
:func:`~repro.recovery.protocol.run_with_recovery` and the
work-stealing engine (:mod:`repro.cluster.stealing`) — share this core:

- the :class:`Checkpointer` is the one checkpoint writer.  It watches
  accumulates as ``(item_id, output_bytes)`` pairs, asks the interval
  policy when a snapshot is due, freezes the delta at write start
  (accumulates racing the write stay pending for the next snapshot),
  prices the write and commits atomically at write completion — a crash
  mid-write leaves no partial snapshot;
- :meth:`CheckpointStore.restore` is the one restore step: it picks the
  newest readable snapshot, moves the frontier back to it and reports
  what the rollback cancels.

Snapshots deep-copy result payloads (``_copy_result``): a checkpoint
that *aliased* live accumulator state would silently pick up
post-snapshot mutations and break replay determinism (lint rule RES005
flags that shape statically).
"""

from __future__ import annotations

import copy
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field

from repro.errors import RecoveryConfigError


@dataclass(frozen=True)
class CheckpointCostModel:
    """What one snapshot costs on the simulated clock.

    A write serializes the rank's full accumulated state (charged on a
    data thread — it competes with pre/postprocess) and then drains it
    off-node to a checkpoint peer or the parallel file system (latency
    plus bandwidth, not overlapped).  A read at restore time pays the
    reverse path plus a fixed process-restart charge.

    Attributes:
        serialize_gbps: host-side serialize/memcpy bandwidth.
        drain_gbps: off-node drain bandwidth (the parallel-FS term —
            orders of magnitude below PCIe on a busy machine).
        write_latency_seconds: fixed per-write latency.
        read_latency_seconds: fixed per-read latency.
        restart_seconds: process relaunch charge before a restore read.
    """

    serialize_gbps: float = 8.0
    drain_gbps: float = 1.5
    write_latency_seconds: float = 2e-4
    read_latency_seconds: float = 2e-4
    restart_seconds: float = 2e-3

    def __post_init__(self) -> None:
        if self.serialize_gbps <= 0 or self.drain_gbps <= 0:
            raise RecoveryConfigError(
                f"checkpoint bandwidths must be positive: "
                f"serialize={self.serialize_gbps}, drain={self.drain_gbps}"
            )
        if (
            self.write_latency_seconds < 0
            or self.read_latency_seconds < 0
            or self.restart_seconds < 0
        ):
            raise RecoveryConfigError(
                "checkpoint latencies and restart charge must be >= 0"
            )

    def serialize_seconds(self, state_bytes: int) -> float:
        """Host-side serialize charge for a full-state snapshot."""
        return state_bytes / (self.serialize_gbps * 1e9)

    def drain_seconds(self, state_bytes: int) -> float:
        """Off-node drain charge (latency + bandwidth term)."""
        return self.write_latency_seconds + state_bytes / (
            self.drain_gbps * 1e9
        )

    def write_seconds(self, state_bytes: int) -> float:
        """Total write cost of one full-state snapshot."""
        return self.serialize_seconds(state_bytes) + self.drain_seconds(
            state_bytes
        )

    def read_seconds(self, state_bytes: int) -> float:
        """Restore-time read cost of one snapshot (reverse path)."""
        return (
            self.read_latency_seconds
            + state_bytes / (self.drain_gbps * 1e9)
            + state_bytes / (self.serialize_gbps * 1e9)
        )


def _copy_result(result: object) -> object:
    """Deep-copy one accumulated result into a snapshot.

    Snapshots must own their payloads: storing a live reference would
    alias accumulator state the replay epoch mutates (the defect RES005
    exists to flag).
    """
    return copy.deepcopy(result)


@dataclass(frozen=True)
class Checkpoint:
    """One committed, durable snapshot on a rank's lineage chain.

    Attributes:
        rank: owning rank.
        seq: store-wide monotonic sequence number.
        parent: ``seq`` of the snapshot this one extends (-1 = root).
        at: commit instant on the run's global clock.
        cursor: total items covered by the lineage up to and including
            this snapshot — the batch-queue cursor replay resumes from.
        item_ids: ids newly covered by this snapshot (the delta over
            ``parent``).
        state_bytes: cumulative full-state size at write time.
        results: copied ``(item_id, result)`` pairs for the delta items
            that produced numeric results.
        corrupted: whether the write was silently corrupted (decided at
            write time by the injector, discovered only at restore).
    """

    rank: int
    seq: int
    parent: int
    at: float
    cursor: int
    item_ids: tuple[Hashable, ...]
    state_bytes: int
    results: tuple[tuple[Hashable, object], ...] = ()
    corrupted: bool = False

    def __post_init__(self) -> None:
        if self.seq < 0 or self.parent < -1 or self.parent >= self.seq:
            raise RecoveryConfigError(
                f"invalid checkpoint lineage edge {self.seq}<-{self.parent}"
            )


@dataclass(frozen=True)
class MigrationRecord:
    """One edge of the migration ledger: a stolen task changing hands.

    Attributes:
        task_id: the run-stable task id (the stealing engine's
            ``"t<n>"`` names).
        victim: rank the task was stolen *from* (the grantor).
        thief: rank the task migrated *to*.
        request: the steal-protocol request id correlating this edge
            with the ``steal_grant``/``migrate`` trace records.
    """

    task_id: Hashable
    victim: int
    thief: int
    request: int


@dataclass
class MigrationLedger:
    """Where every stolen task currently lives, for crash recovery.

    Checkpoint lineage alone cannot recover a run with work stealing:
    a migrated task has no *static* home to replay on.  The ledger
    keeps the two maps recovery reads — each task's latest live grant
    edge and its current owner — so a crash can (a) re-home a crashed
    thief's granted-but-unflushed tasks to the victim of their latest
    grant and (b) replay a rolled-back task only on the rank that
    currently owns it.
    """

    #: task id -> rank currently holding the (stolen) task
    _owner: dict = field(default_factory=dict)
    #: task id -> the latest grant edge not yet spent by a replay (for
    #: crash-time rehoming)
    _last_edge: dict = field(default_factory=dict)

    def note_grant(
        self, task_id: Hashable, victim: int, thief: int, request: int
    ) -> None:
        """Record one task granted from ``victim`` to ``thief``."""
        self._owner[task_id] = thief
        self._last_edge[task_id] = MigrationRecord(
            task_id, victim, thief, request
        )

    def note_rehome(self, task_id: Hashable, back_to: int) -> None:
        """A crashed thief's unflushed task returned to ``back_to``
        (its victim); ownership reverts."""
        self._owner[task_id] = back_to

    def note_replay(self, task_id: Hashable) -> None:
        """A task its current owner had flushed was requeued there for
        replay (rolled back, or lost mid-chunk): the grant that brought
        it is spent, so a later crash of that owner replays it in place
        instead of re-homing it — a rank finishes what it flushed."""
        self._last_edge.pop(task_id, None)

    def current_owner(self, task_id: Hashable, default: int) -> int:
        """The rank a replay of ``task_id`` must run on — the latest
        migration destination, or ``default`` if it never migrated."""
        return self._owner.get(task_id, default)

    def last_edge(self, task_id: Hashable) -> MigrationRecord | None:
        """The most recent grant edge of ``task_id`` (None if the task
        never migrated or a replay spent its grant)."""
        return self._last_edge.get(task_id)


@dataclass(frozen=True)
class Restore:
    """What one :meth:`CheckpointStore.restore` step did.

    Attributes:
        target: ``seq`` of the restored snapshot (-1 = from scratch).
        tried: every snapshot read during the walk, from the old
            frontier back to the target, corrupted rejects included
            (one read is charged apiece).
        rolled_ids: the accumulates the rollback cancels — ids covered
            only by snapshots the walk discarded, in lineage order,
            followed by the uncheckpointed ids.
        covered: every id the restored lineage covers.
    """

    target: int
    tried: tuple[Checkpoint, ...]
    rolled_ids: tuple[Hashable, ...]
    covered: frozenset

    def read_seconds(self, cost_model: CheckpointCostModel) -> float:
        """The read charge of the walk: one snapshot read per try."""
        return sum(cost_model.read_seconds(ck.state_bytes) for ck in self.tried)


@dataclass
class CheckpointStore:
    """A rank's durable snapshots plus the current lineage frontier.

    The store keeps *every* committed checkpoint — including those on
    branches abandoned by a corruption fallback — so sequence numbers
    stay monotonic across restarts and the trace checker can audit the
    full lineage graph.  ``frontier_seq`` is the tip of the chain the
    next checkpoint extends (-1 = nothing durable yet).
    """

    rank: int = 0
    checkpoints: list[Checkpoint] = field(default_factory=list)
    frontier_seq: int = -1

    def next_seq(self) -> int:
        """The sequence number the next committed snapshot will carry."""
        return len(self.checkpoints)

    def add(self, checkpoint: Checkpoint) -> None:
        """Commit one snapshot and advance the frontier to it."""
        if checkpoint.seq != self.next_seq():
            raise RecoveryConfigError(
                f"checkpoint seq {checkpoint.seq} out of order "
                f"(expected {self.next_seq()})"
            )
        if checkpoint.parent != self.frontier_seq:
            raise RecoveryConfigError(
                f"checkpoint {checkpoint.seq} parented to "
                f"{checkpoint.parent} but the frontier is {self.frontier_seq}"
            )
        self.checkpoints.append(checkpoint)
        self.frontier_seq = checkpoint.seq

    def get(self, seq: int) -> Checkpoint:
        """The snapshot committed as ``seq``."""
        if not 0 <= seq < len(self.checkpoints):
            raise RecoveryConfigError(f"no checkpoint with seq {seq}")
        return self.checkpoints[seq]

    def lineage(self, seq: int) -> list[Checkpoint]:
        """The chain from the root to ``seq``, oldest first (empty for
        ``seq=-1``)."""
        chain: list[Checkpoint] = []
        while seq != -1:
            ck = self.get(seq)
            chain.append(ck)
            seq = ck.parent
        chain.reverse()
        return chain

    def select_restore(self) -> tuple[Checkpoint | None, list[Checkpoint]]:
        """Pick the restore point: walk back from the frontier past
        corrupted snapshots.

        Returns ``(choice, tried)`` — ``choice`` is the newest
        uncorrupted snapshot on the chain (None = every ancestor is
        corrupted: restart from scratch) and ``tried`` lists every
        snapshot read during the walk, corrupted rejects included, so
        the protocol can charge one read apiece.
        """
        tried: list[Checkpoint] = []
        seq = self.frontier_seq
        while seq != -1:
            ck = self.get(seq)
            tried.append(ck)
            if not ck.corrupted:
                return ck, tried
            seq = ck.parent
        return None, tried

    def restore_to(self, seq: int) -> None:
        """Move the frontier back to ``seq`` (-1 = from scratch); later
        snapshots stay in the store as a dead branch."""
        if seq != -1:
            self.get(seq)  # validates existence
        self.frontier_seq = seq

    def restore(self, uncheckpointed_ids: Iterable[Hashable]) -> Restore:
        """The restore step of a crashed rank, run at crash detection.

        Picks the newest readable snapshot (:meth:`select_restore`),
        moves the frontier back to it and reports what the rollback
        cancels: the ids only the discarded (corrupted) snapshots
        covered, then ``uncheckpointed_ids`` — the accumulates no
        committed snapshot covers.
        """
        choice, tried = self.select_restore()
        target = choice.seq if choice is not None else -1
        # the walk read the frontier chain newest first; everything it
        # read above the target is the discarded branch
        discarded = [
            item_id
            for ck in reversed(tried)
            if ck.seq != target
            for item_id in ck.item_ids
        ]
        self.restore_to(target)
        return Restore(
            target=target,
            tried=tuple(tried),
            rolled_ids=(*discarded, *uncheckpointed_ids),
            covered=frozenset(self.covered_ids(target)),
        )

    def covered_ids(self, seq: int) -> set:
        """Every item id covered by the lineage up to ``seq``."""
        covered: set = set()
        for ck in self.lineage(seq):
            covered.update(ck.item_ids)
        return covered

    def covered_bytes(self, seq: int) -> int:
        """Cumulative state size at snapshot ``seq`` (0 for -1)."""
        return self.get(seq).state_bytes if seq != -1 else 0

    def covered_count(self, seq: int) -> int:
        """The batch-queue cursor at snapshot ``seq`` (0 for -1)."""
        return self.get(seq).cursor if seq != -1 else 0


class Checkpointer:
    """The one checkpoint writer; the node runtime and the stealing
    engine both call into it.

    Owns the policy clock and the accumulated-but-not-yet-checkpointed
    delta of ``(item_id, output_bytes)`` pairs: the node runtime notes
    ``id(item)`` per accumulated work item, the stealing engine its
    run-stable ``"t<n>"`` task ids.  One instance spans a rank's whole
    run (it carries the store across restarts); the caller invokes
    :meth:`reset_segment` after each restore so the policy clock and
    pending delta restart with the relaunched rank.

    Writes are **atomic on the simulated clock**: :meth:`begin` freezes
    the delta and returns the write charge; the caller yields it and
    then calls :meth:`commit`.  A crash between the two simply abandons
    the frozen delta — no partial snapshot enters the store.

    Args:
        store: the rank's durable snapshot store.
        policy: interval policy deciding when snapshots are due.
        cost_model: write/read cost model.
        injector: optional fault injector consulted for
            :class:`~repro.faults.models.CheckpointCorruption` draws.
        rank: owning rank (keys the corruption draws).
        result_source: optional ``{item_id: result}`` mapping snapshots
            copy result payloads from (the recovery protocol's sink).
    """

    def __init__(
        self,
        store: CheckpointStore,
        policy,
        cost_model: CheckpointCostModel | None = None,
        *,
        injector=None,
        rank: int = 0,
        result_source: dict | None = None,
    ):
        self.store = store
        self.policy = policy
        self.cost_model = cost_model or CheckpointCostModel()
        self.injector = injector
        self.rank = rank
        self.result_source = result_source
        #: global-clock offset of the current segment (keys
        #: absolute-time corruption windows and snapshot instants)
        self.clock_offset = 0.0
        #: accumulated (item_id, output_bytes) pairs not yet covered by
        #: a committed snapshot
        self._pending: list[tuple[Hashable, int]] = []
        self._frozen: list[tuple[Hashable, int]] | None = None
        self.last_checkpoint_at = 0.0
        self.batches_since = 0

    # -- segment lifecycle -------------------------------------------------------

    def reset_segment(
        self, clock_offset: float = 0.0, *, now: float = 0.0
    ) -> None:
        """Start a fresh segment at instant ``now`` of its clock: drop
        un-committed state and restart the policy clock there.

        The recovery protocol runs each segment on a local clock
        (``clock_offset`` maps it onto the run's, ``now`` stays 0); the
        stealing engine keeps one global clock and restarts the policy
        at the restore instant.
        """
        self.clock_offset = clock_offset
        self._pending = []
        self._frozen = None
        self.last_checkpoint_at = now
        self.batches_since = 0

    # -- caller-facing hooks -----------------------------------------------------

    def note_accumulate(self, entries: Iterable[tuple[Hashable, int]]) -> None:
        """One batch accumulated; its ``(item_id, output_bytes)`` pairs
        join the pending delta."""
        self._pending.extend(entries)
        self.batches_since += 1

    def due(self, now: float) -> bool:
        """Whether the caller should write a snapshot now."""
        if self._frozen is not None or not self._pending:
            return False
        return self.policy.due(now, self.last_checkpoint_at, self.batches_since)

    def begin(self) -> float | None:
        """Freeze the pending delta and price the write.

        Returns the write charge (serialize plus drain) of the *full*
        cumulative state — classic CPR writes everything, so cost grows
        with progress — or None when there is nothing to snapshot or a
        write is already in flight.  Items accumulated while the write
        is in flight stay pending for the next snapshot.
        """
        if self._frozen is not None or not self._pending:
            return None
        self._frozen, self._pending = self._pending, []
        return self.cost_model.write_seconds(self._state_bytes(self._frozen))

    def commit(self, now: float) -> Checkpoint:
        """Durably commit the frozen delta as a new snapshot at ``now``."""
        if self._frozen is None:
            raise RecoveryConfigError("commit without a begun checkpoint")
        frozen, self._frozen = self._frozen, None
        seq = self.store.next_seq()
        parent = self.store.frontier_seq
        corrupted = False
        if self.injector is not None:
            corrupted = self.injector.checkpoint_corrupted(
                self.rank, seq, self.clock_offset + now
            )
        source = self.result_source or {}
        ids = [item_id for item_id, _n_bytes in frozen]
        checkpoint = Checkpoint(
            rank=self.rank,
            seq=seq,
            parent=parent,
            at=self.clock_offset + now,
            cursor=self.store.covered_count(parent) + len(frozen),
            item_ids=tuple(ids),
            state_bytes=self._state_bytes(frozen),
            results=tuple(
                (i, _copy_result(source[i])) for i in ids if i in source
            ),
            corrupted=corrupted,
        )
        self.store.add(checkpoint)
        self.last_checkpoint_at = now
        self.batches_since = 0
        return checkpoint

    # -- crash-time bookkeeping ---------------------------------------------------

    def uncheckpointed_ids(self) -> list[Hashable]:
        """Ids of the accumulates no committed snapshot covers (the
        frozen in-flight delta first: the crash aborted that write)."""
        in_flight = self._frozen or []
        return [item_id for item_id, _n_bytes in in_flight + self._pending]

    def _state_bytes(self, delta: list[tuple[Hashable, int]]) -> int:
        """Cumulative full-state size: covered bytes plus the delta."""
        covered = self.store.covered_bytes(self.store.frontier_seq)
        return covered + sum(int(n_bytes) for _item_id, n_bytes in delta)
