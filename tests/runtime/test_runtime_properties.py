"""Property-based tests of the DES engine and the dispatcher split."""

from dataclasses import fields, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.cublas_gpu import CublasKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.runtime.batching import Batch
from repro.runtime.dispatcher import HybridDispatcher
from repro.runtime.events import Environment, Resource
from repro.runtime.task import BatchStats, BlockFold, TaskKind, WorkItem
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
    """The plan's cut matches brute-force minimisation of
    max(cpu(prefix), gpu(suffix)) over all cuts, each side aggregated
    from scratch."""
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
def test_share_aggregates_match_their_reference(items, cut_fraction):
    """The batch aggregates equal the per-key reference built from
    scratch: ``BatchStats.of`` on every field (``block_keys`` order
    included), the split search's running prefixes on every cost field
    (block-byte dedup included), forwards and backwards (its suffixes),
    and each plan's share stats field for field, though a plan's folds
    share one key set per block family — the three modes' plans and a
    plan cut at an arbitrary drawn position.  Every aggregate's family
    parts join to its ``block_keys``."""
    assert BatchStats.of(items) == per_key_stats(items)
    shared: dict = {}  # one key set per block family, as a plan shares it
    whole = BatchStats.of(items, shared)
    assert whole == per_key_stats(items)
    assert_parts_join_to_keys(whole)
    for seq in (items, items[::-1]):
        blocks = BlockFold(shared)
        prefixes = HybridDispatcher._running_stats(seq, blocks)
        for i, prefix in enumerate(prefixes):
            reference = per_key_stats(seq[:i])
            for name in COST_FIELDS:
                assert getattr(prefix, name) == getattr(reference, name), (i, name)
        # the last prefix with its fold's parts is the whole aggregate
        last = prefixes[-1].with_blocks(blocks)
        assert last == per_key_stats(seq)
        assert last.block_parts == BatchStats.of(seq).block_parts

    cpu = CpuMtxmKernel(CpuModel(TITAN_NODE.cpu))
    gpu = CustomGpuKernel(GpuModel(TITAN_NODE.gpu))
    dispatchers = [
        HybridDispatcher(cpu, gpu, cpu_threads=10, gpu_streams=5, mode=mode)
        for mode in ("cpu", "gpu", "hybrid")
    ]
    batch = Batch(kind=items[0].kind, items=items, created_at=0.0, flushed_at=0.0)
    plans = [disp.plan(batch, transfer_estimator=pcie_estimate) for disp in dispatchers]
    cut = round(cut_fraction * len(items))
    key_sets: dict = {}
    stats = BatchStats.of(items, key_sets)
    plans.append(HybridDispatcher._cut_plan(items, cut, stats, 0.0, 0.0, 0.0, key_sets))
    for plan in plans:
        assert plan.cpu_items + plan.gpu_items == items
        assert plan.cpu_stats == per_key_stats(plan.cpu_items)
        assert plan.gpu_stats == per_key_stats(plan.gpu_items)
        assert_parts_join_to_keys(plan.cpu_stats)
        assert_parts_join_to_keys(plan.gpu_stats)


def _dispatcher(gpu_kernel, threads, streams, cpu_scale, gpu_scale) -> HybridDispatcher:
    """A hybrid dispatcher on ``gpu_kernel``, calibrated by the scales."""
    gpu_cls = CublasKernel if gpu_kernel == "cublas" else CustomGpuKernel
    disp = HybridDispatcher(
        CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)),
        gpu_cls(GpuModel(TITAN_NODE.gpu)),
        cpu_threads=threads,
        gpu_streams=streams,
        mode="hybrid",
    )
    disp.cpu_time_scale = cpu_scale
    disp.gpu_time_scale = gpu_scale
    return disp


def full_scan_cut(disp, prefixes, suffixes, transfer_estimator=None) -> int:
    """Test-only reference: the split search that prices both sides of
    every cut, which ``_best_cut`` replaced with one that skips the GPU
    side of a cut whose CPU side alone cannot win."""
    n = len(prefixes) - 1
    best_cut, best_time = 0, None
    for cut in range(n + 1):
        cpu_t = (
            disp.cpu_share_seconds(prefixes[cut]) * disp.cpu_time_scale
            if cut else 0.0
        )
        gpu_t = (
            disp.gpu_share_seconds(suffixes[n - cut], transfer_estimator)
            * disp.gpu_time_scale
            if cut < n else 0.0
        )
        t = max(cpu_t, gpu_t)
        if best_time is None or t < best_time:
            best_time, best_cut = t, cut
    return best_cut


_scales = st.sampled_from([0.05, 0.6, 1.0, 1.7, 25.0])


@given(
    _block_family_items(),
    st.sampled_from(["custom", "cublas"]),
    st.integers(1, 16),
    st.integers(1, 8),
    _scales,
    _scales,
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_pruned_split_search_matches_the_full_scan(
    items, gpu_kernel, threads, streams, cpu_scale, gpu_scale, with_pcie
):
    """The split search that skips cuts whose CPU side cannot win picks
    the full scan's cut, the first minimum, for items of mixed shapes
    over overlapping block families, with and without a transfer
    estimator, on either GPU kernel and at calibration scales other
    than 1; the hybrid plan cuts there too."""
    disp = _dispatcher(gpu_kernel, threads, streams, cpu_scale, gpu_scale)
    estimator = pcie_estimate if with_pcie else None
    prefixes = HybridDispatcher._running_stats(items, BlockFold())
    suffixes = HybridDispatcher._running_stats(items[::-1], BlockFold())
    want = full_scan_cut(disp, prefixes, suffixes, estimator)
    m, _ = disp.device_estimates(prefixes[-1], estimator)
    assert disp._best_cut(prefixes, suffixes, m, estimator) == want
    batch = Batch(kind=items[0].kind, items=items, created_at=0.0, flushed_at=0.0)
    assert len(disp.plan(batch, transfer_estimator=estimator).cpu_items) == want


def test_pruned_split_search_prices_fewer_gpu_sides():
    """On a batch of equal items the CPU side grows with the cut, so
    once a cut wins every later cut's GPU side is skipped.  The last
    cut's CPU side is the plan's ``m``, so a hybrid plan prices each
    prefix on the CPU once: n CPU timings for n items."""
    disp = _dispatcher("custom", 10, 5, 1.0, 1.0)
    cpu_priced, gpu_priced = [], []
    cpu_share_seconds = disp.cpu_share_seconds
    gpu_share_seconds = disp.gpu_share_seconds

    def counting_cpu(stats):
        cpu_priced.append(stats.n_items)
        return cpu_share_seconds(stats)

    def counting_gpu(stats, transfer_estimator=None):
        gpu_priced.append(stats.n_items)
        return gpu_share_seconds(stats, transfer_estimator)

    disp.cpu_share_seconds = counting_cpu
    disp.gpu_share_seconds = counting_gpu
    items = [_item(50_000_000) for _ in range(40)]
    prefixes = HybridDispatcher._running_stats(items, BlockFold())
    suffixes = HybridDispatcher._running_stats(items[::-1], BlockFold())
    m, _ = disp.device_estimates(prefixes[-1], pcie_estimate)
    cpu_priced.clear()
    gpu_priced.clear()
    cut = disp._best_cut(prefixes, suffixes, m, pcie_estimate)
    assert 0 < cut < len(items)
    assert len(gpu_priced) < len(items) + 1
    assert cpu_priced == list(range(1, len(items)))
    assert cut == full_scan_cut(disp, prefixes, suffixes, pcie_estimate)
    cpu_priced.clear()
    batch = Batch(kind=items[0].kind, items=items, created_at=0.0, flushed_at=0.0)
    assert len(disp.plan(batch, transfer_estimator=pcie_estimate).cpu_items) == cut
    assert sorted(cpu_priced) == list(range(1, len(items) + 1))


@given(
    _block_family_items(),
    st.sampled_from(["custom", "cublas"]),
    _scales,
    _scales,
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_hybrid_plan_prices_the_whole_batch_aggregate(
    items, gpu_kernel, cpu_scale, gpu_scale, with_pcie
):
    """A hybrid plan takes the whole-batch aggregate from its forward
    fold: its ``m`` and ``n`` are ``device_estimates`` of
    ``BatchStats.of(items)``, and a share that is the whole batch
    carries that aggregate, block parts included."""
    disp = _dispatcher(gpu_kernel, 10, 5, cpu_scale, gpu_scale)
    estimator = pcie_estimate if with_pcie else None
    batch = Batch(kind=items[0].kind, items=items, created_at=0.0, flushed_at=0.0)
    plan = disp.plan(batch, transfer_estimator=estimator)
    whole = BatchStats.of(items)
    assert (plan.est_cpu_seconds, plan.est_gpu_seconds) == disp.device_estimates(
        whole, estimator
    )
    for share, stats in ((plan.cpu_items, plan.cpu_stats),
                         (plan.gpu_items, plan.gpu_stats)):
        if len(share) == len(items):
            assert stats == whole
            assert stats.block_parts == whole.block_parts


def _with_block_sets(items, data) -> list[WorkItem]:
    """``items`` where a drawn subset carries its family's ``block_set``:
    one frozenset per tuple object, as a producer builds it."""
    sets: dict[int, frozenset] = {}
    out = []
    for it in items:
        if data.draw(st.booleans()):
            family = sets.setdefault(id(it.block_keys), frozenset(it.block_keys))
            it = replace(it, block_set=family)
        out.append(it)
    return out


@given(_block_family_items(), st.data())
@settings(max_examples=150, deadline=None)
def test_block_sets_leave_every_aggregate_unchanged(items, data):
    """Items that carry their family's ``block_set`` fold exactly as
    items that leave the set to the plan: the same aggregates, block
    parts included, the same running prefixes and the same plans."""
    given_sets = _with_block_sets(items, data)
    for seq, other in ((items, given_sets), (items[::-1], given_sets[::-1])):
        want, got = BatchStats.of(seq), BatchStats.of(other)
        assert got == want
        assert got.block_parts == want.block_parts
        mine, theirs = BlockFold(), BlockFold()
        assert HybridDispatcher._running_stats(other, mine) == (
            HybridDispatcher._running_stats(seq, theirs)
        )
        assert mine.parts == theirs.parts
    disp = _dispatcher("custom", 10, 5, 1.7, 0.6)
    plans = [
        disp.plan(Batch(kind=seq[0].kind, items=seq, created_at=0.0,
                        flushed_at=0.0), transfer_estimator=pcie_estimate)
        for seq in (items, given_sets)
    ]
    assert len(plans[0].cpu_items) == len(plans[1].cpu_items)
    assert plans[0].cpu_stats == plans[1].cpu_stats
    assert plans[0].gpu_stats == plans[1].gpu_stats
    assert plans[0].cpu_stats.block_parts == plans[1].cpu_stats.block_parts
    assert plans[0].gpu_stats.block_parts == plans[1].gpu_stats.block_parts
