"""Tests for the cross-job shape-bucketed batcher (repro.serve.batcher)."""

from __future__ import annotations

import pytest

from repro.serve.batcher import BatcherError, CrossJobBatcher, Run
from repro.serve.jobs import JOB_TEMPLATES, SloClass, build_job

INTERACTIVE = SloClass("interactive", 0, 1.0)
BATCH = SloClass("batch", 2, 16.0)


def run_of(job, first=0, count=None):
    """A run of a job's first stage: all of it unless ``count`` says."""
    if count is None:
        count = job.template.items_per_stage - first
    return Run(job, 0, first, count, job.stages[0])


def make_job(job_id, slo, template="coulomb-apply", shared=True):
    job = build_job(
        job_id, 0, JOB_TEMPLATES[template], slo, shared_kinds=shared
    )
    job.deadline = float(job_id.lstrip("j"))  # distinct EDF keys
    return job


def ids_of(batch):
    return [item_id for run in batch for item_id in run.ids()]


def test_rejects_bad_batch_size():
    with pytest.raises(BatcherError):
        CrossJobBatcher(max_batch_size=0)


def test_batches_merge_jobs_of_one_kind():
    batcher = CrossJobBatcher(max_batch_size=16)
    a, b = make_job("j0", BATCH), make_job("j1", BATCH)
    batcher.add(run_of(a), 0.0)
    batcher.add(run_of(b), 0.0)
    assert batcher.depth() == 16
    batch = batcher.next_batch()
    # both jobs share the kind, so one batch carries items of each
    assert {r.job.job_id for r in batch} == {"j0", "j1"}
    assert batcher.next_batch() is None
    assert batcher.depth() == 0


def test_batches_never_span_kinds():
    batcher = CrossJobBatcher(max_batch_size=16)
    a = make_job("j0", BATCH)
    b = make_job("j1", BATCH, shared=False)  # salted kind
    batcher.add(run_of(a), 0.0)
    batcher.add(run_of(b), 0.0)
    first = batcher.next_batch()
    second = batcher.next_batch()
    assert {r.job.job_id for r in first} == {"j0"}
    assert {r.job.job_id for r in second} == {"j1"}


def test_priority_beats_arrival_order():
    batcher = CrossJobBatcher(max_batch_size=8)
    late_but_urgent = make_job("j1", INTERACTIVE)
    early_batch = make_job("j0", BATCH)
    batcher.add(run_of(early_batch), 0.0)
    batcher.add(run_of(late_but_urgent), 1.0)
    assert batcher.next_batch()[0].job.job_id == "j1"


def test_edf_within_class():
    batcher = CrossJobBatcher(max_batch_size=8)
    a = make_job("j9", INTERACTIVE)  # deadline 9
    b = make_job("j2", INTERACTIVE, shared=False)  # deadline 2
    batcher.add(run_of(a), 0.0)
    batcher.add(run_of(b), 0.5)
    # same class: the earlier deadline dispatches first
    assert batcher.next_batch()[0].job.job_id == "j2"


def test_fifo_mode_ignores_class_and_deadline():
    batcher = CrossJobBatcher(max_batch_size=8, fifo=True)
    early_batch = make_job("j0", BATCH)
    late_but_urgent = make_job("j1", INTERACTIVE)
    batcher.add(run_of(early_batch), 0.0)
    batcher.add(run_of(late_but_urgent), 1.0)
    assert batcher.next_batch()[0].job.job_id == "j0"


def test_items_leave_a_bucket_fifo():
    """A stage of 8 items under a cap of 3 leaves in batches of 3, 3
    and 2: the run is split at the cap and its remainder keeps the
    bucket's head."""
    batcher = CrossJobBatcher(max_batch_size=3)
    batcher.add(run_of(make_job("j0", BATCH)), 0.0)
    seen, sizes = [], []
    while (batch := batcher.next_batch()) is not None:
        sizes.append(sum(r.count for r in batch))
        seen.extend(ids_of(batch))
        assert batcher.depth() == 8 - len(seen)
    assert sizes == [3, 3, 2]
    assert seen == [f"j0.s0.i{n}" for n in range(8)]


def test_oldest_wait_tracks_the_queue_head():
    batcher = CrossJobBatcher(max_batch_size=8)
    assert batcher.oldest_wait(5.0) == 0.0
    job = make_job("j0", BATCH)
    batcher.add(run_of(job, 0, 1), 1.0)
    batcher.add(run_of(job, 1, 1), 3.0)
    assert batcher.oldest_wait(4.0) == pytest.approx(3.0)
    batcher.next_batch()
    assert batcher.oldest_wait(4.0) == 0.0


def test_a_split_remainder_keeps_its_enqueue_instant():
    batcher = CrossJobBatcher(max_batch_size=3)
    batcher.add(run_of(make_job("j0", BATCH)), 1.0)
    batcher.next_batch()
    assert batcher.depth() == 5
    assert batcher.oldest_wait(4.0) == pytest.approx(3.0)
