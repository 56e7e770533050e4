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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ReproError
from repro.serve.jobs import Job


class BatcherError(ReproError, ValueError):
    """The batcher was configured or fed inconsistently."""


@dataclass(frozen=True, eq=False)
class SubTask:
    """One ready work item of one job, queued for dispatch."""

    job: Job
    item_id: str
    item: object  # WorkItem; typed loosely to avoid an import cycle

    @property
    def kind_key(self) -> str:
        """The shape bucket this sub-task lands in."""
        return str(self.item.kind)


@dataclass(frozen=True, eq=False)
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
        self._buckets: dict[str, deque[_Entry]] = {}
        self._seq = 0
        self._depth = 0

    def add(self, task: SubTask, now: float) -> None:
        """Queue one ready sub-task."""
        entry = _Entry(self._seq, now, task)
        self._seq += 1
        self._depth += 1
        self._buckets.setdefault(task.kind_key, deque()).append(entry)

    def depth(self) -> int:
        """Total queued sub-tasks across all buckets."""
        return self._depth

    def oldest_wait(self, now: float) -> float:
        """Age of the oldest queued sub-task (0.0 when empty) — the
        observed queue delay the autoscaler reacts to."""
        oldest = None
        for bucket in self._buckets.values():
            if bucket:
                head = bucket[0].enqueued_at
                if oldest is None or head < oldest:
                    oldest = head
        return 0.0 if oldest is None else now - oldest

    def _bucket_rank(self, key: str) -> tuple:
        """Dispatch-priority sort key of one non-empty bucket."""
        head = self._buckets[key][0]
        if self.fifo:
            return (head.seq,)
        job = head.task.job
        return (job.slo.priority, job.deadline, head.seq)

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
            if kept:
                self._buckets[key] = kept
            else:
                del self._buckets[key]
        self._depth -= len(removed)
        return removed

    def next_batch(self) -> list[SubTask] | None:
        """Pop the next batch to dispatch, or ``None`` when idle.

        The chosen bucket yields up to ``max_batch_size`` items in
        FIFO order; the batch never spans buckets (one kind = one
        uniformly-shaped transfer buffer).
        """
        candidates = [k for k, b in self._buckets.items() if b]
        if not candidates:
            return None
        key = min(candidates, key=self._bucket_rank)
        bucket = self._buckets[key]
        batch: list[SubTask] = []
        while bucket and len(batch) < self.max_batch_size:
            batch.append(bucket.popleft().task)
        if not bucket:
            del self._buckets[key]
        self._depth -= len(batch)
        return batch
