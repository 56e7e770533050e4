"""Cross-job shape-bucketed batching with EDF-within-class dispatch.

The MoE static-batching idea applied across jobs: ready sub-tasks are
bucketed by :class:`~repro.runtime.task.TaskKind` — uniformly shaped,
so one batch is one aggregated transfer + kernel launch — and a batch
may mix items of *different* jobs that share a kind.  Because job
templates fold the SLO class into the kind signature
(:mod:`repro.serve.jobs`), a bucket never mixes classes.

Dispatch policy, per ``next_batch`` call:

- **default** — among non-empty buckets, pick the one whose head item
  belongs to the highest-priority class, breaking ties by earliest
  job deadline (EDF within class), then by enqueue order; within a
  bucket items leave strictly FIFO, which is what keeps trace_check's
  per-kind FIFO invariant true under deadline-aware scheduling;
- **fifo=True** — the naive baseline: ignore class and deadline
  entirely and dispatch the bucket holding the globally oldest item.

The batcher also answers the two signals the rest of the service
polls: total backlog (``depth`` — the admission controller's shedding
input) and the age of the oldest queued item (``oldest_wait`` — the
autoscaler's observed queue delay).

Cost: ``add``, ``next_batch`` and ``oldest_wait`` take amortized time
logarithmic in the number of buckets, whatever the backlog.  Two heaps
hold bucket heads, one keyed by dispatch rank and one by enqueue time.
A bucket that gets a new head pushes it onto both; an entry whose head
has since left its bucket is dropped when it reaches the top (lazy
invalidation, like the stealing engine's victim board), and a heap
that grows past twice the bucket count is rebuilt from its live
entries.  A head's keys never change while it waits: ``seq`` is
unique, and a queued job's class and deadline are fixed at admission.
``purge_job`` scans the backlog; it runs only when a job is dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from repro.errors import ReproError
from repro.serve.jobs import Job


class BatcherError(ReproError, ValueError):
    """The batcher was configured or fed inconsistently."""


@dataclass(eq=False, slots=True)
class SubTask:
    """One ready work item of one job, queued for dispatch.

    Not frozen: a frozen dataclass sets each field through
    ``object.__setattr__``, which tripled the cost of building the one
    sub-task per queued item; nothing assigns to a sub-task's fields.
    """

    job: Job
    item_id: str
    item: object  # WorkItem; typed loosely to avoid an import cycle

    @property
    def kind_key(self) -> str:
        """The shape bucket this sub-task lands in."""
        return self.item.kind.label


@dataclass(slots=True)
class _Entry:
    """One queued sub-task with its enqueue bookkeeping."""

    seq: int
    enqueued_at: float
    task: SubTask


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
        #: kind key -> its queued entries, FIFO; never empty
        self._buckets: dict[str, deque[_Entry]] = {}
        #: bucket heads as ``(rank, seq, key)``, stale ones included
        self._by_rank: list[tuple] = []
        #: bucket heads as ``(enqueued_at, seq, key)``, stale ones included
        self._by_age: list[tuple] = []
        self._seq = 0
        self._depth = 0

    def add(self, task: SubTask, now: float) -> None:
        """Queue one ready sub-task."""
        entry = _Entry(self._seq, now, task)
        self._seq += 1
        self._depth += 1
        key = task.kind_key
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = deque((entry,))
            self._new_head(key, entry)
        else:
            bucket.append(entry)

    def depth(self) -> int:
        """Total queued sub-tasks across all buckets."""
        return self._depth

    def oldest_wait(self, now: float) -> float:
        """Age of the oldest queued sub-task (0.0 when empty) — the
        observed queue delay the autoscaler reacts to."""
        top = self._top(self._by_age)
        return 0.0 if top is None else now - top[0]

    def _bucket_rank(self, key: str) -> tuple:
        """Dispatch-priority sort key of one non-empty bucket."""
        head = self._buckets[key][0]
        if self.fifo:
            return (head.seq,)
        job = head.task.job
        return (job.slo.priority, job.deadline, head.seq)

    def _new_head(self, key: str, head: _Entry) -> None:
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

    def purge_job(self, job: Job) -> list[SubTask]:
        """Remove every queued sub-task of ``job``, returning them in
        queue order.

        A dropped job's backlog leaves the queue with it — keeping the
        items would waste pool time on work whose results can never
        complete the job.
        """
        removed: list[SubTask] = []
        for key in list(self._buckets):
            bucket = self._buckets[key]
            kept = deque(e for e in bucket if e.task.job is not job)
            if len(kept) == len(bucket):
                continue
            removed.extend(e.task for e in bucket if e.task.job is job)
            if not kept:
                del self._buckets[key]
                continue
            self._buckets[key] = kept
            if kept[0] is not bucket[0]:
                self._new_head(key, kept[0])
        self._depth -= len(removed)
        return removed

    def next_batch(self) -> list[SubTask] | None:
        """Pop the next batch to dispatch, or ``None`` when idle.

        The chosen bucket yields up to ``max_batch_size`` items in
        FIFO order; the batch never spans buckets (one kind = one
        uniformly-shaped transfer buffer).
        """
        if self._top(self._by_rank) is None:
            return None
        key = heappop(self._by_rank)[2]
        bucket = self._buckets[key]
        batch: list[SubTask] = []
        while bucket and len(batch) < self.max_batch_size:
            batch.append(bucket.popleft().task)
        if bucket:
            self._new_head(key, bucket[0])
        else:
            del self._buckets[key]
        self._depth -= len(batch)
        return batch
