"""The batcher's heaps against the per-call scans they replaced.

``ScanBatcher`` is the reference: it ranks every non-empty bucket on
each ``next_batch`` call and scans every bucket head for
``oldest_wait``.  A Hypothesis differential test runs random sequences
of add, requeue, next_batch, purge_job and oldest_wait on both, under
both dispatch policies, and requires identical answers; a counting
test pins the heaps' cost.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.batcher import CrossJobBatcher, SubTask
from repro.serve.jobs import JOB_TEMPLATES, JobTemplate, SloClass, build_job

#: two classes share a priority, so deadlines decide between them
CLASSES = (
    SloClass("interactive", 0, 1.0),
    SloClass("standard", 1, 4.0),
    SloClass("bulk", 1, 8.0),
)
ONE_ITEM = JobTemplate("one-item", ("apply",), 1, 4)


class ScanBatcher:
    """Test-only reference: the scans ``CrossJobBatcher`` replaced."""

    def __init__(self, *, max_batch_size: int, fifo: bool = False):
        self.max_batch_size = max_batch_size
        self.fifo = fifo
        #: kind key -> FIFO of ``(seq, enqueued_at, task)``
        self.buckets: dict[str, deque] = {}
        self.seq = 0

    def add(self, task: SubTask, now: float) -> None:
        self.buckets.setdefault(task.kind_key, deque()).append(
            (self.seq, now, task)
        )
        self.seq += 1

    def depth(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def oldest_wait(self, now: float) -> float:
        heads = [b[0][1] for b in self.buckets.values() if b]
        return now - min(heads) if heads else 0.0

    def rank(self, key: str) -> tuple:
        seq, _at, task = self.buckets[key][0]
        if self.fifo:
            return (seq,)
        return (task.job.slo.priority, task.job.deadline, seq)

    def purge_job(self, job) -> list[SubTask]:
        removed = []
        for key in list(self.buckets):
            bucket = self.buckets[key]
            kept = deque(e for e in bucket if e[2].job is not job)
            if len(kept) == len(bucket):
                continue
            removed.extend(e[2] for e in bucket if e[2].job is job)
            if kept:
                self.buckets[key] = kept
            else:
                del self.buckets[key]
        return removed

    def next_batch(self) -> list[SubTask] | None:
        candidates = [k for k, b in self.buckets.items() if b]
        if not candidates:
            return None
        key = min(candidates, key=self.rank)
        bucket = self.buckets[key]
        batch = []
        while bucket and len(batch) < self.max_batch_size:
            batch.append(bucket.popleft()[2])
        if not bucket:
            del self.buckets[key]
        return batch


@st.composite
def jobs(draw):
    """A few jobs of mixed classes, templates and kind salting, with
    deadlines drawn from a small set so that ties happen.  Few enough
    (template, class) pairs that jobs often share a kind, and so a
    bucket.  Each job's class and deadline are fixed before any of its
    items is queued."""
    out = []
    for i in range(draw(st.integers(1, 6))):
        job = build_job(
            f"j{i}",
            0,
            JOB_TEMPLATES[draw(st.sampled_from(sorted(JOB_TEMPLATES)))],
            draw(st.sampled_from(CLASSES)),
            shared_kinds=draw(st.sampled_from([True, True, False])),
        )
        job.deadline = draw(st.sampled_from([0.5, 1.0, 2.0]))
        out.append(job)
    return out


#: (operation, argument): add/requeue take a count, purge a job index
#: and advance a time step; the other operations ignore the argument
OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["add", "requeue", "next_batch", "purge", "oldest_wait", "advance"]
        ),
        st.integers(0, 12),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(
    jobs=jobs(),
    data=st.data(),
    ops=OPS,
    fifo=st.booleans(),
    max_batch_size=st.integers(1, 5),
)
def test_heaps_match_the_scans(jobs, data, ops, fifo, max_batch_size):
    """Every answer equals the scans': the same sub-task objects in the
    same order from next_batch and purge_job, the same oldest_wait and
    depth after each step.  Items of every stage of every job are fed
    in a drawn order, so one job may hold items in several buckets."""
    heaps = CrossJobBatcher(max_batch_size=max_batch_size, fifo=fifo)
    scans = ScanBatcher(max_batch_size=max_batch_size, fifo=fifo)
    fresh = data.draw(
        st.permutations(
            [
                SubTask(job, item_id, item)
                for job in jobs
                for stage in job.stages
                for item_id, item in stage
            ]
        )
    )
    #: sub-tasks that left the queue and may come back (requeue)
    out: list[SubTask] = []
    now = 0.0
    for op, arg in ops:
        if op == "add" or op == "requeue":
            source = fresh if op == "add" else out
            for _ in range(min(arg, len(source))):
                task = source.pop()
                heaps.add(task, now)
                scans.add(task, now)
        elif op == "next_batch":
            batch = heaps.next_batch()
            assert batch == scans.next_batch()
            out.extend(batch or ())
        elif op == "purge":
            job = jobs[arg % len(jobs)]
            removed = heaps.purge_job(job)
            assert removed == scans.purge_job(job)
            out.extend(removed)
        elif op == "oldest_wait":
            assert heaps.oldest_wait(now) == scans.oldest_wait(now)
        else:
            now += arg / 4
        assert heaps.depth() == scans.depth()
    while (batch := scans.next_batch()) is not None:
        assert heaps.next_batch() == batch
    assert heaps.next_batch() is None
    assert heaps.depth() == 0


def make_one_item_job(job_id: str, slo: SloClass, shared: bool = False):
    """The one sub-task of a one-stage, one-item job."""
    job = build_job(job_id, 0, ONE_ITEM, slo, shared_kinds=shared)
    ((item_id, item),) = job.stages[0]
    return SubTask(job, item_id, item)


def test_fifo_dispatch_ranks_each_bucket_head_once(monkeypatch):
    """Under ``fifo=True``, 2,000 one-item jobs with salted kinds fill
    2,000 buckets.  Queuing and draining them computes a bucket rank at
    most 3N times; ranking every bucket on every dispatch would take
    N(N+1)/2, about 2.0 M."""
    n = 2000
    calls = 0
    rank = CrossJobBatcher._bucket_rank

    def counted(self, key):
        nonlocal calls
        calls += 1
        return rank(self, key)

    monkeypatch.setattr(CrossJobBatcher, "_bucket_rank", counted)
    batcher = CrossJobBatcher(max_batch_size=8, fifo=True)
    order = []
    for i in range(n):
        task = make_one_item_job(f"j{i}", CLASSES[i % 3])
        batcher.add(task, i / 10)
        order.append(task.item_id)
    drained = []
    while (batch := batcher.next_batch()) is not None:
        batcher.oldest_wait(n / 10)
        drained.extend(t.item_id for t in batch)
    assert drained == order
    assert calls <= 3 * n


def test_a_starving_head_keeps_the_heaps_small():
    """A low-priority item waits while 2,000 interactive dispatches
    pass it.  Each dispatch leaves a stale age entry younger than the
    waiting head, which the top never reaches; the rebuild keeps both
    heaps within twice the bucket count (two buckets) all the same."""
    batcher = CrossJobBatcher(max_batch_size=1)
    batcher.add(make_one_item_job("j0", CLASSES[2]), 0.0)
    longest = 0
    for i in range(1, 2001):
        urgent = make_one_item_job(f"j{i}", CLASSES[0], shared=True)
        batcher.add(urgent, float(i))
        if i > 1:
            (dispatched,) = batcher.next_batch()
            assert dispatched.job.slo is CLASSES[0]
        assert batcher.oldest_wait(float(i)) == i
        longest = max(longest, len(batcher._by_rank), len(batcher._by_age))
    assert longest <= 4
