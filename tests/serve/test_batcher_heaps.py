"""The run batcher's heaps against the per-item scans they replaced.

``ScanBatcher`` is the reference: it queues one entry per item, ranks
every non-empty bucket on each ``next_batch`` call and scans every
bucket head for ``oldest_wait``.  A Hypothesis differential test feeds
the same runs to both — ``CrossJobBatcher`` a run at a time, the
reference one item at a time — through random sequences of add,
requeue, next_batch, purge_job and oldest_wait, under both dispatch
policies, and requires identical answers; two counting tests pin the
heaps' cost.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.batcher import CrossJobBatcher, Run
from repro.serve.jobs import JOB_TEMPLATES, JobTemplate, SloClass, build_job

#: two classes share a priority, so deadlines decide between them
CLASSES = (
    SloClass("interactive", 0, 1.0),
    SloClass("standard", 1, 4.0),
    SloClass("bulk", 1, 8.0),
)
ONE_ITEM = JobTemplate("one-item", ("apply",), 1, 4)


class ScanBatcher:
    """Test-only reference: one entry per item, and the scans
    ``CrossJobBatcher`` replaced.  An item is ``(job, item_id, key)``."""

    def __init__(self, *, max_batch_size: int, fifo: bool = False):
        self.max_batch_size = max_batch_size
        self.fifo = fifo
        #: kind key -> FIFO of ``(seq, enqueued_at, item)``
        self.buckets: dict[str, deque] = {}
        self.seq = 0

    def add(self, item: tuple, now: float) -> None:
        self.buckets.setdefault(item[2], deque()).append(
            (self.seq, now, item)
        )
        self.seq += 1

    def depth(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def oldest_wait(self, now: float) -> float:
        heads = [b[0][1] for b in self.buckets.values() if b]
        return now - min(heads) if heads else 0.0

    def rank(self, key: str) -> tuple:
        seq, _at, (job, _id, _key) = self.buckets[key][0]
        if self.fifo:
            return (seq,)
        return (job.slo.priority, job.deadline, seq)

    def purge_job(self, job) -> list[tuple]:
        removed = []
        for key in list(self.buckets):
            bucket = self.buckets[key]
            kept = deque(e for e in bucket if e[2][0] is not job)
            if len(kept) == len(bucket):
                continue
            removed.extend(e[2] for e in bucket if e[2][0] is job)
            if kept:
                self.buckets[key] = kept
            else:
                del self.buckets[key]
        return removed

    def next_batch(self) -> list[tuple] | None:
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


def add_both(heaps, scans, run: Run, now: float) -> None:
    """Queue ``run`` whole on the run batcher and item by item on the
    reference."""
    key = run.item.kind.label
    for item_id in run.ids():
        scans.add((run.job, item_id, key), now)
    heaps.add(run, now)


def run_ids(runs) -> list[str] | None:
    """The item ids of a list of runs, in order."""
    if runs is None:
        return None
    return [item_id for run in runs for item_id in run.ids()]


def item_ids(items) -> list[str] | None:
    """The item ids of a list of reference items, in order."""
    if items is None:
        return None
    return [item_id for _job, item_id, _key in items]


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


#: (operation, argument): add/requeue take a count of runs, purge a job
#: index and advance a time step; the other operations ignore it
OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["add", "requeue", "next_batch", "purge", "oldest_wait", "advance"]
        ),
        st.integers(0, 4),
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
    """Every answer equals the per-item scans': the same item ids in
    the same order from next_batch and purge_job, the same oldest_wait
    and depth after each step.  Every stage of every job is one fresh
    run, fed in a drawn order, so one job may hold runs in several
    buckets.  Batch runs (split ones included) and purged runs come
    back as requeues, several to a step, as a failed batch requeues a
    job's runs."""
    heaps = CrossJobBatcher(max_batch_size=max_batch_size, fifo=fifo)
    scans = ScanBatcher(max_batch_size=max_batch_size, fifo=fifo)
    fresh = data.draw(
        st.permutations(
            [
                Run(job, si, 0, job.template.items_per_stage, item)
                for job in jobs
                for si, item in enumerate(job.stages)
            ]
        )
    )
    #: runs that left the queue and may come back (requeue)
    out: list[Run] = []
    now = 0.0
    for op, arg in ops:
        if op == "add" or op == "requeue":
            source = fresh if op == "add" else out
            for _ in range(min(arg, len(source))):
                add_both(heaps, scans, source.pop(), now)
        elif op == "next_batch":
            batch = heaps.next_batch()
            assert run_ids(batch) == item_ids(scans.next_batch())
            if batch is not None:
                assert 1 <= sum(r.count for r in batch) <= max_batch_size
                assert len({r.item.kind.label for r in batch}) == 1
                out.extend(batch)
        elif op == "purge":
            job = jobs[arg % len(jobs)]
            removed = heaps.purge_job(job)
            assert run_ids(removed) == item_ids(scans.purge_job(job))
            out.extend(removed)
        elif op == "oldest_wait":
            assert heaps.oldest_wait(now) == scans.oldest_wait(now)
        else:
            now += arg / 4
        assert heaps.depth() == scans.depth()
    while (batch := scans.next_batch()) is not None:
        assert run_ids(heaps.next_batch()) == item_ids(batch)
    assert heaps.next_batch() is None
    assert heaps.depth() == 0


def one_item_run(job_id: str, slo: SloClass, shared: bool = False) -> Run:
    """The one-item run of a one-stage, one-item job."""
    job = build_job(job_id, 0, ONE_ITEM, slo, shared_kinds=shared)
    return Run(job, 0, 0, 1, job.stages[0])


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
        run = one_item_run(f"j{i}", CLASSES[i % 3])
        batcher.add(run, i / 10)
        order.extend(run.ids())
    drained = []
    while (batch := batcher.next_batch()) is not None:
        batcher.oldest_wait(n / 10)
        drained.extend(run_ids(batch))
    assert drained == order
    assert calls <= 3 * n


def test_a_starving_head_keeps_the_heaps_small():
    """A low-priority item waits while 2,000 interactive dispatches
    pass it.  Each dispatch leaves a stale age entry younger than the
    waiting head, which the top never reaches; the rebuild keeps both
    heaps within twice the bucket count (two buckets) all the same."""
    batcher = CrossJobBatcher(max_batch_size=1)
    batcher.add(one_item_run("j0", CLASSES[2]), 0.0)
    longest = 0
    for i in range(1, 2001):
        urgent = one_item_run(f"j{i}", CLASSES[0], shared=True)
        batcher.add(urgent, float(i))
        if i > 1:
            (dispatched,) = batcher.next_batch()
            assert dispatched.job.slo is CLASSES[0]
        assert batcher.oldest_wait(float(i)) == i
        longest = max(longest, len(batcher._by_rank), len(batcher._by_age))
    assert longest <= 4


def test_a_split_remainder_leaves_no_live_duplicate():
    """A 1,000-item run drained one item at a time is split 999 times.
    Each remainder takes the ``seq`` of its first item, so the heap
    entries of the remainder before it go stale, and both heaps stay
    within twice the bucket count (one bucket)."""
    long_stage = JobTemplate("long-stage", ("apply",), 1000, 4)
    job = build_job("j0", 0, long_stage, CLASSES[0])
    batcher = CrossJobBatcher(max_batch_size=1)
    batcher.add(Run(job, 0, 0, 1000, job.stages[0]), 0.0)
    longest = 0
    while batcher.next_batch() is not None:
        longest = max(longest, len(batcher._by_rank), len(batcher._by_age))
    assert longest <= 2
