"""Cross-job shape-bucketed batching with EDF-within-class dispatch.

The MoE static-batching idea applied across jobs: ready items are
bucketed by :class:`~repro.runtime.task.TaskKind` — uniformly shaped,
so one batch is one aggregated transfer + kernel launch — and a batch
may mix items of *different* jobs that share a kind.  Because job
templates fold the SLO class into the kind signature
(:mod:`repro.serve.jobs`), a bucket never mixes classes.

A bucket entry is a :class:`Run`: contiguous items of one job stage,
which all share one work item.  A stage enters the queue as one run
and a requeue as one run per contiguous stretch of a job's items.
Each queued item still has its own ``seq``: a run takes ``count``
consecutive numbers, and a run split at the batch cap leaves its
remainder at ``seq + taken``.  So a run is queued, ranked, aged and
dispatched exactly as its items one by one would be.

Dispatch policy, per ``next_batch`` call:

- **default** — among non-empty buckets, pick the one whose head item
  belongs to the highest-priority class, breaking ties by earliest
  job deadline (EDF within class), then by enqueue order; within a
  bucket items leave strictly FIFO, which is what keeps trace_check's
  per-kind FIFO invariant true under deadline-aware scheduling;
- **fifo=True** — the naive baseline: ignore class and deadline
  entirely and dispatch the bucket holding the globally oldest item.

The batcher also answers the two signals the rest of the service
polls: total backlog in items (``depth`` — the admission controller's
shedding input) and the age of the oldest queued item (``oldest_wait``
— the autoscaler's observed queue delay).

Cost: ``add``, ``next_batch`` and ``oldest_wait`` take amortized time
logarithmic in the number of buckets, whatever the backlog; ``add``
runs once per run, not per item, and ``next_batch`` once per run it
takes.  Two heaps hold bucket heads, one keyed by dispatch rank and
one by enqueue time.  A bucket that gets a new head pushes it onto
both; an entry whose head has since left its bucket is dropped when it
reaches the top (lazy invalidation, like the stealing engine's victim
board), and a heap that grows past twice the bucket count is rebuilt
from its live entries.  A head's keys never change while it waits:
``seq`` is unique, and a queued job's class and deadline are fixed at
admission.  ``purge_job`` scans the backlog; it runs only when a job
is dropped.  No item id is formatted here: :meth:`Run.ids` does that
for the trace records that name items.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from repro.errors import ReproError
from repro.runtime.task import WorkItem
from repro.serve.jobs import Job


class BatcherError(ReproError, ValueError):
    """The batcher was configured or fed inconsistently."""


@dataclass(eq=False, slots=True)
class Run:
    """Items ``first .. first+count-1`` of stage ``stage`` of ``job``,
    all of them the work item ``item``.

    ``seq`` and ``enqueued_at`` are the batcher's: ``add`` stamps them,
    and they are the first item's enqueue number and the run's enqueue
    instant.  A run in a batch is the batcher's no longer, and may be
    queued again.
    """

    job: Job
    stage: int
    first: int
    count: int
    item: WorkItem
    seq: int = 0
    enqueued_at: float = 0.0

    def ids(self) -> list[str]:
        """The run's item ids, in order, formatted on each call:
        ``"<job>.s<stage>.i<n>"``.  Strings, which the dump
        canonicalizer passes through verbatim, and whose ``"j<n>."``
        prefix is how trace_check invariant #9 attributes compute
        records back to jobs."""
        prefix = f"{self.job.job_id}.s{self.stage}.i"
        first = self.first
        return [f"{prefix}{n}" for n in range(first, first + self.count)]


class CrossJobBatcher:
    """Shape-bucketed ready queue over all admitted jobs."""

    def __init__(
        self,
        *,
        max_batch_size: int,
        fifo: bool = False,
    ):
        if max_batch_size < 1:
            raise BatcherError(
                f"max batch size must be >= 1, got {max_batch_size}"
            )
        self.max_batch_size = max_batch_size
        self.fifo = fifo
        #: kind key -> its queued runs, FIFO; never empty
        self._buckets: dict[str, deque[Run]] = {}
        #: bucket heads as ``(rank, seq, key)``, stale ones included
        self._by_rank: list[tuple] = []
        #: bucket heads as ``(enqueued_at, seq, key)``, stale ones included
        self._by_age: list[tuple] = []
        self._seq = 0
        self._depth = 0

    def add(self, run: Run, now: float) -> None:
        """Queue one run of ready items at instant ``now``."""
        run.seq = self._seq
        run.enqueued_at = now
        self._seq += run.count
        self._depth += run.count
        key = run.item.kind.label
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = deque((run,))
            self._new_head(key, run)
        else:
            bucket.append(run)

    def depth(self) -> int:
        """Total queued items across all buckets."""
        return self._depth

    def oldest_wait(self, now: float) -> float:
        """Age of the oldest queued item (0.0 when empty) — the
        observed queue delay the autoscaler reacts to."""
        top = self._top(self._by_age)
        return 0.0 if top is None else now - top[0]

    def _bucket_rank(self, key: str) -> tuple:
        """Dispatch-priority sort key of one non-empty bucket."""
        head = self._buckets[key][0]
        if self.fifo:
            return (head.seq,)
        job = head.job
        return (job.slo.priority, job.deadline, head.seq)

    def _new_head(self, key: str, head: Run) -> None:
        """Enter ``head``, now first in bucket ``key``, in both heaps.

        Each live bucket has exactly one current entry per heap, so a
        heap longer than twice the bucket count is mostly stale: it is
        rebuilt from its current entries, which keeps its length within
        that bound at amortized constant cost per push.
        """
        for heap, first in (
            (self._by_rank, self._bucket_rank(key)),
            (self._by_age, head.enqueued_at),
        ):
            heappush(heap, (first, head.seq, key))
            if len(heap) > 2 * len(self._buckets):
                heap[:] = [e for e in heap if self._is_head(e)]
                heapify(heap)

    def _is_head(self, entry: tuple) -> bool:
        """Whether heap ``entry`` still names its bucket's head."""
        bucket = self._buckets.get(entry[2])
        return bucket is not None and bucket[0].seq == entry[1]

    def _top(self, heap: list[tuple]) -> tuple | None:
        """The least current entry of ``heap``, after popping the stale
        entries above it."""
        while heap and not self._is_head(heap[0]):
            heappop(heap)
        return heap[0] if heap else None

    def purge_job(self, job: Job) -> list[Run]:
        """Remove every queued run of ``job``, returning them in queue
        order.

        A dropped job's backlog leaves the queue with it — keeping the
        items would waste pool time on work whose results can never
        complete the job.
        """
        removed: list[Run] = []
        for key in list(self._buckets):
            bucket = self._buckets[key]
            kept = deque(r for r in bucket if r.job is not job)
            if len(kept) == len(bucket):
                continue
            removed.extend(r for r in bucket if r.job is job)
            if not kept:
                del self._buckets[key]
                continue
            self._buckets[key] = kept
            if kept[0] is not bucket[0]:
                self._new_head(key, kept[0])
        self._depth -= sum(r.count for r in removed)
        return removed

    def next_batch(self) -> list[Run] | None:
        """Pop the next batch to dispatch, or ``None`` when idle.

        The chosen bucket yields up to ``max_batch_size`` items in
        FIFO order, as runs; a run longer than the room left is split,
        and its remainder stays at the bucket's head.  The batch never
        spans buckets (one kind = one uniformly-shaped transfer buffer).
        """
        if self._top(self._by_rank) is None:
            return None
        key = heappop(self._by_rank)[2]
        bucket = self._buckets[key]
        batch: list[Run] = []
        room = self.max_batch_size
        while bucket and room:
            run = bucket[0]
            if run.count <= room:
                batch.append(bucket.popleft())
                room -= run.count
            else:
                batch.append(
                    Run(run.job, run.stage, run.first, room, run.item)
                )
                run.first += room
                run.count -= room
                run.seq += room
                room = 0
        if bucket:
            self._new_head(key, bucket[0])
        else:
            del self._buckets[key]
        self._depth -= self.max_batch_size - room
        return batch
