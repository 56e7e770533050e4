"""Tests for task dataclasses and batch statistics."""

import pytest

from repro.runtime.task import BatchStats, HybridTask, TaskKind, WorkItem


def test_kind_identity_and_hash():
    a = TaskKind("f", (3, 20))
    b = TaskKind("f", (3, 20))
    c = TaskKind("f", (3, 40))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert "f" in str(a)


def test_hybrid_task_preprocess_produces_item():
    item = WorkItem(kind=TaskKind("f", 0), flops=5)
    task = HybridTask(preprocess=lambda: item)
    assert task.run_preprocess() is item
    assert task.work is item


def test_hybrid_task_prepared_item_passthrough():
    item = WorkItem(kind=TaskKind("f", 0))
    task = HybridTask(work=item)
    assert task.run_preprocess() is item


def test_hybrid_task_without_work_rejected():
    with pytest.raises(ValueError):
        HybridTask().run_preprocess()


def _item(kind, flops, blocks, block_bytes=800):
    return WorkItem(
        kind=kind,
        flops=flops,
        input_bytes=100,
        output_bytes=50,
        block_keys=blocks,
        block_bytes=block_bytes,
        steps=3,
        step_rows=16,
        step_q=4,
    )


def test_batch_stats_aggregation():
    kind = TaskKind("f", 0)
    items = [
        _item(kind, 10, ("a", "b")),
        _item(kind, 20, ("b", "c")),
    ]
    stats = BatchStats.of(items)
    assert stats.n_items == 2
    assert stats.flops == 30
    assert stats.input_bytes == 200
    assert stats.output_bytes == 100
    assert stats.steps == 6
    assert stats.block_keys == ("a", "b", "c")  # unique, in first-use order


def test_batch_stats_unique_block_bytes_dedups():
    kind = TaskKind("f", 0)
    # both items need the same two blocks of 400 bytes each
    items = [_item(kind, 1, ("x", "y")), _item(kind, 1, ("x", "y"))]
    stats = BatchStats.of(items)
    assert stats.unique_block_bytes == 800


def test_batch_stats_shapes_take_max():
    kind = TaskKind("f", 0)
    small = _item(kind, 1, ())
    big = WorkItem(kind=kind, flops=1, steps=1, step_rows=400, step_q=20)
    stats = BatchStats.of([small, big])
    assert stats.step_rows == 400
    assert stats.step_q == 20


def test_batch_stats_empty():
    stats = BatchStats.of([])
    assert stats.n_items == 0
    assert stats.flops == 0
