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


#: BatchStats fields the kernel cost models read (all but block_keys)
COST_FIELDS = [f.name for f in fields(BatchStats) if f.name != "block_keys"]

_shared_block_items = st.lists(
    st.builds(
        WorkItem,
        kind=st.just(TaskKind("t", 0)),
        flops=st.integers(1_000_000, 200_000_000),
        input_bytes=st.integers(0, 1 << 20),
        output_bytes=st.integers(0, 1 << 20),
        # a small key pool, so items share blocks; each item's block_bytes
        # is drawn on its own, so the per-key size differs between items
        block_keys=st.lists(st.integers(0, 7), max_size=5, unique=True).map(tuple),
        block_bytes=st.integers(0, 1 << 22),
        steps=st.integers(1, 300),
        step_rows=st.integers(1, 400),
        step_q=st.integers(1, 30),
    ),
    min_size=1,
    max_size=30,
)


@given(_shared_block_items, st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_share_aggregates_match_their_reference(items, static_fraction):
    """The dispatcher's aggregates equal ``BatchStats.of`` built from
    scratch: the split search's running prefixes on every cost field
    (block-byte dedup included), and each plan's share stats field for
    field."""
    for i, prefix in enumerate(HybridDispatcher._running_stats(items)):
        reference = BatchStats.of(items[:i])
        for name in COST_FIELDS:
            assert getattr(prefix, name) == getattr(reference, name), (i, name)

    first_use = list(dict.fromkeys(k for it in items for k in it.block_keys))
    assert BatchStats.of(items).block_keys == tuple(first_use)

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
        assert plan.cpu_stats == BatchStats.of(plan.cpu_items)
        assert plan.gpu_stats == BatchStats.of(plan.gpu_items)
