"""Execution tracing for the simulated node runtime.

A :class:`Tracer` records (category, label, start, end) intervals on the
simulated clock; :func:`render_text_gantt` draws them as an ASCII
timeline — the textual equivalent of the timeline figures used to study
CPU/GPU overlap.  Tracing is opt-in and has no effect on the
simulation.

Besides the interval lanes, a tracer keeps a *structured happens-before
log* (:class:`RuntimeLogRecord`): every work-item submission, every
batch flush (with the flushed item identities), and every write-once
block transfer.  :mod:`repro.lint.trace_check` replays that log after a
run and asserts the batching invariants the paper relies on — no item
lost, duplicated, or reordered within its kind, and no operator block
shipped twice.
"""

from __future__ import annotations

import json
from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass, field

from repro.errors import SimulationError

#: operations recorded in the structured runtime log
LOG_OPS = (
    "submit",
    "flush",
    "begin_transfer",
    "block_transfer",
    "gpu_compute",
    "gpu_fault",
    "accumulate",
    "checkpoint",
    "restore",
    "rollback",
    # work-stealing protocol (dump schema v3, see docs/SCHEDULING.md):
    # a thief's request, the victim's grant or deny, and the migrated
    # tasks arriving on the thief
    "steal_request",
    "steal_grant",
    "steal_deny",
    "migrate",
    # open-loop serving front door (dump schema v4, see docs/SERVING.md):
    # a job arriving from a tenant, the admission verdict (admit or
    # shed), a completed job missing its SLO deadline, and the
    # autoscaler resizing the rank pool
    "arrive",
    "admit",
    "shed",
    "deadline_miss",
    "scale",
    # chaos-hardened scheduling (dump schema v5, see docs/FAULTS.md):
    # a crashed serving worker's in-flight job re-entering (or being
    # dropped from) the dispatch queue, and a crashed thief's
    # granted-but-unflushed stolen tasks returning to their victim's
    # durable queue
    "requeue",
    "rehome",
)

#: categories rendered as separate Gantt lanes, in display order
LANES = ("preprocess", "cpu", "pcie", "gpu", "postprocess", "checkpoint")


@dataclass(frozen=True)
class TraceEvent:
    """One traced interval on the simulated clock.

    ``batch`` correlates the interval with the dispatched batch it
    belongs to (``-1`` for run-scoped work such as preprocess chunks and
    checkpoint writes) — the handle :mod:`repro.obs` uses to rebuild the
    per-batch dependency chain for critical-path analysis and to group
    exported Chrome-trace slices.
    """

    category: str
    label: str
    start: float
    end: float
    batch: int = -1

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SimulationError(
                f"trace interval ends before it starts: {self}"
            )

    @property
    def duration(self) -> float:
        """Length of the interval in simulated seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class RuntimeLogRecord:
    """One structured happens-before record of the batching runtime.

    Attributes:
        op: one of :data:`LOG_OPS` — ``submit`` (one work item entered
            the accumulator), ``flush`` (one batch left it),
            ``begin_transfer`` (one batch reserved its full block read
            set in the write-once cache — phase one of the two-phase
            transfer; ids are every key the batch will read),
            ``block_transfer`` (operator blocks finished crossing PCIe
            into the write-once cache — recorded at *arrival* time),
            ``gpu_compute`` (one batch's GPU kernel started, with the
            block keys it reads), ``gpu_fault`` (one GPU batch attempt
            faulted under injection), ``accumulate`` (one batch's
            results accumulated back into the tree at postprocess),
            ``checkpoint`` (one durable snapshot committed — kind is
            ``"seq<-parent"`` encoding the lineage edge, ids are the
            newly covered item ids), ``restore`` (recovery rolled the
            rank's state back to a checkpoint — kind is the restored
            sequence number, ``-1`` for a from-scratch restart), or
            ``rollback`` (un-checkpointed accumulates cancelled at
            crash detection — kind is the restore target, ids the
            rolled-back item ids).
        at: simulated instant of the operation.
        kind: the task kind (stringified) for submit/flush/gpu_compute/
            gpu_fault/accumulate; empty for block transfers.
        ids: the identities involved — a single work-item id for
            ``submit``, the flushed item ids in batch order for
            ``flush`` and ``accumulate``, the transferred block keys
            for ``block_transfer``, the block keys read for
            ``gpu_compute``; empty for ``gpu_fault``.
        attempt: execution attempt the record belongs to (0 = first
            try); nonzero only for retried GPU batches under fault
            injection, letting :mod:`repro.lint.trace_check` verify
            effectively-exactly-once accumulation despite replays.
        batch: dispatch index of the batch the record belongs to
            (``-1`` when the record is not batch-scoped: submits,
            block transfers, checkpoint/restore/rollback records).
            :mod:`repro.obs` uses it to draw flow arrows from flush
            through gpu_compute to accumulate.
    """

    op: str
    at: float
    kind: str
    ids: tuple[Hashable, ...]
    attempt: int = 0
    batch: int = -1

    def __post_init__(self) -> None:
        if self.op not in LOG_OPS:
            raise SimulationError(f"unknown runtime log op {self.op!r}")
        if self.attempt < 0:
            raise SimulationError(
                f"negative attempt {self.attempt} in runtime log record"
            )

    def to_json(self) -> str:
        """One JSON line (block keys stringified for portability)."""
        return json.dumps(
            {
                "op": self.op,
                "at": self.at,
                "kind": self.kind,
                "ids": [str(i) for i in self.ids],
                "attempt": self.attempt,
                "batch": self.batch,
            }
        )


def log_records_from_jsonl(lines: Iterable[str]) -> Iterator[RuntimeLogRecord]:
    """Parse records serialised by :meth:`RuntimeLogRecord.to_json`."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        raw = json.loads(line)
        yield RuntimeLogRecord(
            op=raw["op"],
            at=raw["at"],
            kind=raw["kind"],
            ids=tuple(raw["ids"]),
            attempt=raw.get("attempt", 0),
            batch=raw.get("batch", -1),
        )


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of possibly-overlapping intervals."""
    covered = 0.0
    cur_start: float | None = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        covered += cur_end - cur_start
    return covered


@dataclass
class Tracer:
    """Collects trace events during one runtime execution."""

    events: list[TraceEvent] = field(default_factory=list)
    #: structured happens-before log consumed by repro.lint.trace_check
    log: list[RuntimeLogRecord] = field(default_factory=list)

    def record(
        self, category: str, label: str, start: float, end: float,
        batch: int = -1,
    ) -> None:
        """Record one interval on a Gantt lane (``batch`` correlates it
        with a dispatched batch; ``-1`` = run-scoped)."""
        self.events.append(TraceEvent(category, label, start, end, batch))

    # -- structured happens-before log -----------------------------------------

    def _log(
        self,
        op: str,
        at: float,
        kind: str,
        ids: tuple[Hashable, ...],
        attempt: int = 0,
        batch: int = -1,
    ) -> None:
        """Append one structured record (the single funnel every
        ``log_*`` helper goes through, so :class:`OffsetTracer` can
        shift instants in one place)."""
        self.log.append(RuntimeLogRecord(op, at, kind, ids, attempt, batch))

    def log_submit(self, kind: str, item_id: Hashable, at: float) -> None:
        """Record one work item entering the batch accumulator."""
        self._log("submit", at, kind, (item_id,))

    def log_flush(
        self, kind: str, item_ids: Iterable[Hashable], at: float,
        batch: int = -1,
    ) -> None:
        """Record one batch leaving the accumulator, items in batch order."""
        self._log("flush", at, kind, tuple(item_ids), 0, batch)

    def log_begin_transfer(
        self,
        kind: str,
        block_keys: Iterable[Hashable],
        at: float,
        batch: int = -1,
    ) -> None:
        """Record one batch *reserving* its operator blocks in the
        write-once GPU cache (phase one of the two-phase protocol).

        ``block_keys`` is the batch's full read set — blocks it ships
        itself plus blocks it waits on or hits.  Together with the
        batch's ``block_transfer`` record (which lists only the shipped
        subset) this declares the cross-batch ordering edge
        ``commit_transfer(k) -> gpu_compute`` the race detector
        (:mod:`repro.lint.races`) verifies: a kernel read not covered by
        its batch's reservation has no sanctioned ordering edge.
        """
        keys = tuple(block_keys)
        if keys:
            self._log("begin_transfer", at, kind, keys, 0, batch)

    def log_block_transfer(
        self, block_keys: Iterable[Hashable], at: float, batch: int = -1
    ) -> None:
        """Record operator blocks *arriving* in the write-once GPU cache
        (the transfer-completion instant, not its start); ``batch``
        identifies the shipping batch so the race detector can tell a
        batch's own commits from blocks another batch published."""
        keys = tuple(block_keys)
        if keys:
            self._log("block_transfer", at, "", keys, 0, batch)

    def log_gpu_compute(
        self,
        kind: str,
        block_keys: Iterable[Hashable],
        at: float,
        attempt: int = 0,
        batch: int = -1,
    ) -> None:
        """Record one batch's GPU kernel starting on the given blocks."""
        self._log("gpu_compute", at, kind, tuple(block_keys), attempt, batch)

    def log_gpu_fault(
        self, kind: str, at: float, attempt: int, batch: int = -1
    ) -> None:
        """Record one GPU batch attempt faulting (injected fault)."""
        self._log("gpu_fault", at, kind, (), attempt, batch)

    def log_accumulate(
        self,
        kind: str,
        item_ids: Iterable[Hashable],
        at: float,
        attempt: int = 0,
        batch: int = -1,
    ) -> None:
        """Record one batch's results accumulating at postprocess time.

        ``attempt`` is the attempt whose results were accumulated — the
        effectively-exactly-once invariant says each item appears in
        exactly one accumulate record no matter how many attempts its
        batch took.
        """
        self._log("accumulate", at, kind, tuple(item_ids), attempt, batch)

    # -- work-stealing ops (consumed by trace_check invariant #8) -----------------

    def log_steal_request(
        self, victim: int, at: float, request: int
    ) -> None:
        """Record this rank (the thief) asking ``victim`` for work.

        ``request`` is the run-unique request id correlating the
        thief's request/``migrate`` records with the victim's
        grant/deny; it rides in ``batch``, and ``kind`` carries the
        victim rank as ``"v<rank>"``.
        """
        self._log("steal_request", at, f"v{victim}", (), 0, request)

    def log_steal_grant(
        self,
        kind: str,
        item_ids: Iterable[Hashable],
        at: float,
        request: int,
    ) -> None:
        """Record this rank (the victim) granting pending items of one
        task kind to a thief; one record per kind in queue order.  The
        granted ids leave this rank's queue — executing them here after
        the grant is the race the detector flags."""
        self._log("steal_grant", at, kind, tuple(item_ids), 0, request)

    def log_steal_deny(self, thief: int, at: float, request: int) -> None:
        """Record this rank (the victim) denying a steal request
        (queue too short to split); ``kind`` carries the thief rank as
        ``"t<rank>"``."""
        self._log("steal_deny", at, f"t{thief}", (), 0, request)

    def log_migrate(
        self,
        kind: str,
        item_ids: Iterable[Hashable],
        at: float,
        request: int,
    ) -> None:
        """Record granted items of one task kind arriving on this rank
        (the thief).  Mirrors the victim's ``steal_grant`` record:
        same request id, same kind, same ids in the same order —
        :mod:`repro.lint.trace_check` pairs them and asserts each grant
        migrates exactly once."""
        self._log("migrate", at, kind, tuple(item_ids), 0, request)

    def log_rehome(
        self,
        kind: str,
        item_ids: Iterable[Hashable],
        at: float,
        request: int,
        crashed: int,
    ) -> None:
        """Record stolen tasks returning to this rank (the victim)
        because the thief that held them crashed before flushing them.

        ``request`` is the id of the original grant the record pairs
        with (it rides in ``batch``, like the grant's); ``crashed`` is
        the thief rank that died and rides in ``attempt``.  The rehomed
        ids must be a subset of the paired grant's ids — the unflushed
        remainder of the chunk.  After a rehome the items are this
        rank's to execute or re-grant (trace_check invariant #10)."""
        self._log("rehome", at, kind, tuple(item_ids), crashed, request)

    # -- serving ops (consumed by trace_check invariant #9) -----------------------

    def log_arrive(
        self, job_id: Hashable, tenant: int, slo: str, at: float
    ) -> None:
        """Record one job arriving at the serving front door.

        ``kind`` carries the job's SLO class name, ``batch`` the tenant
        index — together with the matching ``admit``/``shed`` record
        they form the job ledger :mod:`repro.lint.trace_check` verifies
        (invariant #9: every arrival admitted xor shed, exactly once).
        """
        self._log("arrive", at, slo, (job_id,), 0, tenant)

    def log_admit(
        self, job_id: Hashable, tenant: int, slo: str, at: float
    ) -> None:
        """Record the admission controller accepting one arrived job."""
        self._log("admit", at, slo, (job_id,), 0, tenant)

    def log_shed(
        self, job_id: Hashable, tenant: int, reason: str, at: float
    ) -> None:
        """Record the admission controller shedding one arrived job;
        ``kind`` carries the reason (``"token-bucket"`` or
        ``"queue-depth"``).  A shed job must charge no compute — no
        submit/flush/accumulate record may reference its items."""
        self._log("shed", at, reason, (job_id,), 0, tenant)

    def log_deadline_miss(
        self, job_id: Hashable, slo: str, at: float
    ) -> None:
        """Record an admitted job completing *after* its SLO deadline
        (logged at completion time, at most once per job)."""
        self._log("deadline_miss", at, slo, (job_id,))

    def log_requeue(
        self,
        verdict: str,
        item_ids: Iterable[Hashable],
        at: float,
        attempt: int,
        rank: int,
    ) -> None:
        """Record a crashed (or faulted) serving worker's in-flight job
        items leaving the dead batch.

        ``verdict`` rides in ``kind``: ``"crash"``/``"gpu"`` mean the
        items re-enter the EDF queue with their original deadline;
        ``"queue-depth"`` (the shed-on-requeue gate tripped) and
        ``"retry-budget"`` (the tenant's retry budget is exhausted)
        mean the job is dropped.  ``attempt`` is the job's requeue
        count (1-based) and ``rank`` the dead worker (rides in
        ``batch``).  All ids belong to one job; trace_check invariant
        #10 pairs each record with the cancelled flush and asserts the
        requeued-xor-dropped ledger."""
        self._log("requeue", at, verdict, tuple(item_ids), attempt, rank)

    def log_scale(self, old_size: int, new_size: int, at: float) -> None:
        """Record the autoscaler resizing the rank pool; ``kind`` is the
        direction (``"up"``/``"down"``), ``ids`` the old size as
        ``"n<old>"``, ``batch`` the new size."""
        direction = "up" if new_size > old_size else "down"
        self._log("scale", at, direction, (f"n{old_size}",), 0, new_size)

    # -- recovery ops (consumed by trace_check invariant #7) ----------------------

    def log_checkpoint(
        self,
        seq: int,
        parent: int,
        item_ids: Iterable[Hashable],
        at: float,
    ) -> None:
        """Record one committed checkpoint: the lineage edge
        ``seq<-parent`` plus the item ids newly covered (the delta over
        the parent snapshot)."""
        self._log("checkpoint", at, f"{seq}<-{parent}", tuple(item_ids))

    def log_rollback(
        self, target_seq: int, item_ids: Iterable[Hashable], at: float
    ) -> None:
        """Record un-checkpointed accumulates being cancelled at crash
        detection; ``target_seq`` is the checkpoint recovery will
        restore (``-1`` = restart from scratch)."""
        self._log("rollback", at, str(target_seq), tuple(item_ids))

    def log_restore(
        self, seq: int, at: float, tried: Iterable[int] = ()
    ) -> None:
        """Record recovery completing a restore to checkpoint ``seq``
        (``-1`` = from-scratch restart); every record after this one
        belongs to the replay epoch.  ``tried`` lists the sequence
        numbers of every snapshot *read* during the restore walk
        (corrupted rejects included) — the lineage nodes the restore
        depends on, which the race detector orders against their
        ``checkpoint`` records."""
        self._log("restore", at, str(seq), tuple(f"s{t}" for t in tried))

    def by_category(self, category: str) -> list[TraceEvent]:
        """Events of one Gantt lane, in recording order."""
        return [e for e in self.events if e.category == category]

    def busy(self, category: str) -> float:
        """Total (possibly overlapping) busy time of one category."""
        return sum(e.duration for e in self.by_category(category))

    def span(self) -> tuple[float, float]:
        """(earliest start, latest end) over all recorded events."""
        if not self.events:
            return (0.0, 0.0)
        return (
            min(e.start for e in self.events),
            max(e.end for e in self.events),
        )

    def utilization(self, category: str) -> float:
        """Fraction of the traced span the category was busy (union of
        intervals, so overlapping events do not double count)."""
        start, end = self.span()
        total = end - start
        if total <= 0:
            return 0.0
        covered = union_length(
            [(e.start, e.end) for e in self.by_category(category)]
        )
        return covered / total


class OffsetTracer(Tracer):
    """A view of a base tracer that shifts every instant by an offset.

    The recovery protocol runs each post-restart segment on a *fresh*
    simulated clock (the node rebooted), but the run's happens-before
    log must stay on one global timeline; an ``OffsetTracer`` shares the
    base tracer's event and log lists and adds the segment's wall-clock
    offset to every recorded instant, so restarted segments append
    globally monotonic records.  ``batch_offset`` does the same for
    batch indices (each segment's runtime counts its batches from 0),
    keeping batch correlation unique across the whole recovered run.
    """

    def __init__(self, base: Tracer, offset: float, batch_offset: int = 0):
        if offset < 0:
            raise SimulationError(f"tracer offset must be >= 0, got {offset}")
        if batch_offset < 0:
            raise SimulationError(
                f"tracer batch offset must be >= 0, got {batch_offset}"
            )
        # share, not copy: appends land in the base tracer's lists
        self.events = base.events
        self.log = base.log
        self.offset = offset
        self.batch_offset = batch_offset

    def _shift_batch(self, batch: int) -> int:
        return batch + self.batch_offset if batch >= 0 else batch

    def record(
        self, category: str, label: str, start: float, end: float,
        batch: int = -1,
    ) -> None:
        """Record one Gantt interval, shifted onto the global clock."""
        self.events.append(
            TraceEvent(
                category, label, start + self.offset, end + self.offset,
                self._shift_batch(batch),
            )
        )

    def _log(
        self,
        op: str,
        at: float,
        kind: str,
        ids: tuple[Hashable, ...],
        attempt: int = 0,
        batch: int = -1,
    ) -> None:
        """Append one structured record, shifted onto the global clock."""
        self.log.append(
            RuntimeLogRecord(
                op, at + self.offset, kind, ids, attempt,
                self._shift_batch(batch),
            )
        )


def render_text_gantt(tracer: Tracer, width: int = 72) -> str:
    """ASCII timeline: one lane per category, '#' marks busy columns.

    The whole traced span is mapped to ``width`` columns; a column is
    marked when any event of the lane overlaps it.
    """
    if width < 10:
        raise SimulationError(f"gantt width must be >= 10, got {width}")
    start, end = tracer.span()
    total = end - start
    lines = [f"timeline: {total * 1e3:.2f} ms over {width} columns"]
    if total <= 0:
        return "\n".join(lines + ["  (no events)"])
    label_w = max(len(lane) for lane in LANES) + 2
    for lane in LANES:
        events = tracer.by_category(lane)
        if not events:
            continue
        cells = [" "] * width
        for e in events:
            lo = int((e.start - start) / total * width)
            hi = int((e.end - start) / total * width)
            hi = max(hi, lo + 1)
            for i in range(lo, min(hi, width)):
                cells[i] = "#"
        util = tracer.utilization(lane)
        lines.append(f"{lane:<{label_w}}|{''.join(cells)}| {util:5.1%}")
    return "\n".join(lines)
