"""Property-based tests of the DES engine and the dispatcher split."""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.runtime.batching import Batch
from repro.runtime.dispatcher import HybridDispatcher, StaticSplitDispatcher
from repro.runtime.events import Environment, Resource
from repro.runtime.task import BatchStats, TaskKind, WorkItem
from tests.runtime.test_dispatcher import pcie_estimate


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_resource_conservation(durations, capacity):
    """Random jobs through a resource: all complete, makespan is bounded
    by the list-scheduling guarantees, and occupancy never exceeds
    capacity."""
    env = Environment()
    res = Resource(env, capacity)
    completed = []
    peak = [0]

    def job(d):
        req = res.request()
        yield req
        peak[0] = max(peak[0], res.in_use)
        yield env.timeout(d)
        res.release()
        completed.append(d)

    for d in durations:
        env.process(job(d))
    env.run()
    assert len(completed) == len(durations)
    assert peak[0] <= capacity
    total = sum(durations)
    longest = max(durations)
    # list scheduling bounds: work/capacity <= makespan <= work + longest
    assert env.now <= total + 1e-9
    assert env.now >= max(longest, total / capacity) - 1e-9


@given(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=15))
@settings(max_examples=50, deadline=None)
def test_parallel_timeouts_end_at_max(durations):
    env = Environment()

    def waiter(d):
        yield env.timeout(d)

    for d in durations:
        env.process(waiter(d))
    env.run()
    assert np.isclose(env.now, max(durations))


def _item(flops: int) -> WorkItem:
    return WorkItem(
        kind=TaskKind("t", 0),
        flops=flops,
        steps=30,
        step_rows=400,
        step_q=20,
        input_bytes=64_000,
        output_bytes=64_000,
    )


@given(
    st.lists(st.integers(1_000_000, 200_000_000), min_size=1, max_size=40),
    st.integers(1, 16),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_dispatcher_cut_is_optimal(flops_list, threads, streams):
    """The bisection cut matches brute-force minimisation of
    max(cpu(prefix), gpu(suffix)) over all cuts."""
    disp = HybridDispatcher(
        CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)),
        CustomGpuKernel(GpuModel(TITAN_NODE.gpu)),
        cpu_threads=threads,
        gpu_streams=streams,
        mode="hybrid",
    )
    items = [_item(f) for f in flops_list]
    batch = Batch(kind=items[0].kind, items=items, created_at=0.0, flushed_at=0.0)
    plan = disp.plan(batch)
    achieved = max(
        disp._cpu_seconds(plan.cpu_items), disp._gpu_seconds(plan.gpu_items)
    )
    best = min(
        max(disp._cpu_seconds(items[:cut]), disp._gpu_seconds(items[cut:]))
        for cut in range(len(items) + 1)
    )
    assert achieved <= best * (1.0 + 1e-9)


@given(st.integers(1, 200), st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_dispatcher_plan_partitions_items(n_items, _seed):
    disp = HybridDispatcher(
        CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)),
        CustomGpuKernel(GpuModel(TITAN_NODE.gpu)),
        cpu_threads=10,
        gpu_streams=5,
        mode="hybrid",
    )
    items = [_item(50_000_000) for _ in range(n_items)]
    batch = Batch(kind=items[0].kind, items=items, created_at=0.0, flushed_at=0.0)
    plan = disp.plan(batch)
    assert len(plan.cpu_items) + len(plan.gpu_items) == n_items
    assert 0.0 <= plan.cpu_fraction <= 1.0


@given(st.integers(1, 60))
@settings(max_examples=30, deadline=None)
def test_batch_stats_additive(n):
    items = [_item(1000 * (i + 1)) for i in range(n)]
    whole = BatchStats.of(items)
    first = BatchStats.of(items[: n // 2])
    second = BatchStats.of(items[n // 2 :])
    assert whole.flops == first.flops + second.flops
    assert whole.n_items == first.n_items + second.n_items
    assert whole.steps == first.steps + second.steps


#: BatchStats fields the kernel cost models read (all but the keys)
COST_FIELDS = [
    f.name for f in fields(BatchStats)
    if f.name not in ("block_keys", "block_parts")
]


def assert_parts_join_to_keys(stats: BatchStats) -> None:
    """``block_parts`` are pairwise disjoint and concatenate to
    ``block_keys``; a part's set, when it has one, holds its keys."""
    assert stats.block_parts.joined() == stats.block_keys
    assert len(set(stats.block_keys)) == len(stats.block_keys)
    for keys, key_set in stats.block_parts:
        assert keys
        assert key_set is None or key_set == set(keys)


def per_key_stats(items) -> BatchStats:
    """Test-only reference: the per-key scan that ``BatchStats.of`` and
    ``_running_stats`` replaced with a fold of whole block sets.  Each
    distinct key of an item is charged once, however often the item's
    tuple repeats it."""
    stats = BatchStats()
    seen: dict = {}
    for it in items:
        stats.n_items += 1
        stats.flops += it.flops
        stats.input_bytes += it.input_bytes
        stats.output_bytes += it.output_bytes
        stats.steps += it.steps
        stats.step_rows = max(stats.step_rows, it.step_rows)
        stats.step_q = max(stats.step_q, it.step_q)
        new = [k for k in dict.fromkeys(it.block_keys) if k not in seen]
        for k in new:
            seen[k] = None
        if it.block_keys:
            per_block = it.block_bytes / max(1, len(it.block_keys))
            stats.unique_block_bytes += int(per_block * len(new))
    stats.block_keys = tuple(seen)
    return stats


@st.composite
def _block_family_items(draw):
    """Items over a few block sets of a small key pool: sets overlap,
    repeat keys inside one tuple, or are empty, and an item either
    shares its set's tuple object or carries an equal but distinct
    copy.  Each item draws its own block_bytes, so the per-key size
    differs between items of one set."""
    families = draw(
        st.lists(
            st.lists(st.integers(0, 9), max_size=6).map(tuple),
            min_size=1,
            max_size=4,
        )
    )
    items = []
    for _ in range(draw(st.integers(1, 30))):
        keys = draw(st.sampled_from(families))
        if draw(st.booleans()):
            keys = tuple(list(keys))
        items.append(
            WorkItem(
                kind=TaskKind("t", 0),
                flops=draw(st.integers(1_000_000, 200_000_000)),
                input_bytes=draw(st.integers(0, 1 << 20)),
                output_bytes=draw(st.integers(0, 1 << 20)),
                block_keys=keys,
                block_bytes=draw(st.integers(0, 1 << 22)),
                steps=draw(st.integers(1, 300)),
                step_rows=draw(st.integers(1, 400)),
                step_q=draw(st.integers(1, 30)),
            )
        )
    return items


@given(_block_family_items(), st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_share_aggregates_match_their_reference(items, static_fraction):
    """The batch aggregates equal the per-key reference built from
    scratch: ``BatchStats.of`` on every field (``block_keys`` order
    included), the split search's running prefixes on every cost field
    (block-byte dedup included), forwards and backwards (its suffixes),
    and each plan's share stats field for field, though a plan's folds
    share one key set per block family.  Every aggregate's family parts
    join to its ``block_keys``."""
    assert BatchStats.of(items) == per_key_stats(items)
    shared: dict = {}  # one key set per block family, as a plan shares it
    whole = BatchStats.of(items, shared)
    assert whole == per_key_stats(items)
    assert_parts_join_to_keys(whole)
    for seq in (items, items[::-1]):
        for i, prefix in enumerate(HybridDispatcher._running_stats(seq, shared)):
            reference = per_key_stats(seq[:i])
            for name in COST_FIELDS:
                assert getattr(prefix, name) == getattr(reference, name), (i, name)

    cpu = CpuMtxmKernel(CpuModel(TITAN_NODE.cpu))
    gpu = CustomGpuKernel(GpuModel(TITAN_NODE.gpu))
    dispatchers = [
        HybridDispatcher(cpu, gpu, cpu_threads=10, gpu_streams=5, mode=mode)
        for mode in ("cpu", "gpu", "hybrid")
    ]
    dispatchers.append(
        StaticSplitDispatcher(
            cpu, gpu, cpu_fraction=static_fraction, cpu_threads=10, gpu_streams=5
        )
    )
    batch = Batch(kind=items[0].kind, items=items, created_at=0.0, flushed_at=0.0)
    for disp in dispatchers:
        plan = disp.plan(batch, transfer_estimator=pcie_estimate)
        assert plan.cpu_items + plan.gpu_items == items
        assert plan.cpu_stats == per_key_stats(plan.cpu_items)
        assert plan.gpu_stats == per_key_stats(plan.gpu_items)
        assert_parts_join_to_keys(plan.cpu_stats)
        assert_parts_join_to_keys(plan.gpu_stats)
