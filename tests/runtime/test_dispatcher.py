"""Tests for the optimal-overlap dispatcher."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeConfigError
from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.runtime.batching import Batch
from repro.runtime.buffers import PinnedBufferPool
from repro.runtime.dispatcher import (
    AdaptiveDispatcher,
    HybridDispatcher,
    optimal_split,
    overlap_time,
)
from repro.runtime.task import BatchStats, TaskKind, WorkItem


def test_optimal_split_formula():
    assert optimal_split(2.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert optimal_split(1.0, 1.0) == pytest.approx(0.5)


def test_overlap_time_formula():
    """The paper: minimal runtime is m n / (m + n)."""
    assert overlap_time(2.0, 1.0) == pytest.approx(2.0 / 3.0)
    assert overlap_time(0.0, 5.0) == 0.0  # repro: noqa[FLT001] - exact zero branch


@given(st.floats(0.01, 1000), st.floats(0.01, 1000))
@settings(max_examples=100, deadline=None)
def test_split_minimizes_maximum(m, n):
    """k = n/(m+n) minimises max(m k, n (1 - k)) over a fine grid."""
    k = optimal_split(m, n)
    best = max(m * k, n * (1 - k))
    for i in range(101):
        kk = i / 100.0
        assert best <= max(m * kk, n * (1 - kk)) + 1e-9


@given(st.floats(0.01, 1000), st.floats(0.01, 1000))
@settings(max_examples=100, deadline=None)
def test_overlap_time_never_beats_either_device_alone_doubled(m, n):
    t = overlap_time(m, n)
    assert t <= min(m, n) + 1e-12
    assert t >= min(m, n) / 2.0 - 1e-12


def test_invalid_inputs():
    with pytest.raises(RuntimeConfigError):
        optimal_split(-1.0, 1.0)
    with pytest.raises(RuntimeConfigError):
        optimal_split(0.0, 0.0)
    with pytest.raises(RuntimeConfigError):
        overlap_time(-1.0, 2.0)


def _make_dispatcher(mode="hybrid"):
    return HybridDispatcher(
        CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)),
        CustomGpuKernel(GpuModel(TITAN_NODE.gpu)),
        cpu_threads=10,
        gpu_streams=5,
        mode=mode,
    )


def _batch(n_items=60, flops=10_000_000):
    kind = TaskKind("t", 0)
    items = [
        WorkItem(kind=kind, flops=flops, steps=300, step_rows=400, step_q=20,
                 input_bytes=64000, output_bytes=64000)
        for _ in range(n_items)
    ]
    return Batch(kind=kind, items=items, created_at=0.0, flushed_at=0.0)


def test_plan_hybrid_splits_both_ways():
    plan = _make_dispatcher("hybrid").plan(_batch())
    assert plan.cpu_items and plan.gpu_items
    assert len(plan.cpu_items) + len(plan.gpu_items) == 60
    assert 0.0 < plan.cpu_fraction < 1.0


def test_plan_cpu_mode_everything_on_cpu():
    plan = _make_dispatcher("cpu").plan(_batch())
    assert len(plan.cpu_items) == 60
    assert not plan.gpu_items
    assert plan.cpu_fraction == 1.0  # repro: noqa[FLT001] - pure mode sets it verbatim


def test_plan_gpu_mode_everything_on_gpu():
    plan = _make_dispatcher("gpu").plan(_batch())
    assert not plan.cpu_items
    assert len(plan.gpu_items) == 60
    assert plan.cpu_fraction == 0.0  # repro: noqa[FLT001] - pure mode sets it verbatim


def test_split_tracks_flops_fraction():
    plan = _make_dispatcher("hybrid").plan(_batch(n_items=100))
    total = sum(it.flops for it in plan.cpu_items + plan.gpu_items)
    cpu_share = sum(it.flops for it in plan.cpu_items) / total
    assert abs(cpu_share - plan.cpu_fraction) < 0.05


def pcie_estimate(stats: BatchStats) -> float:
    """The node runtime's per-plan transfer estimate over Titan's PCIe."""
    pool = PinnedBufferPool(TITAN_NODE.pcie)
    return pool.plan(stats.input_bytes + stats.unique_block_bytes).total_seconds


def test_faster_gpu_means_smaller_cpu_share():
    """If the GPU estimate improves, the CPU keeps less work: a plan
    charged no PCIe time sends less to the CPU than one charged the
    batch's transfer."""
    disp = _make_dispatcher("hybrid")
    plan_pcie = disp.plan(_batch(), transfer_estimator=pcie_estimate)
    plan_free = disp.plan(_batch())
    assert plan_pcie.est_gpu_seconds > plan_free.est_gpu_seconds
    assert plan_free.cpu_fraction < plan_pcie.cpu_fraction


def test_unknown_mode_rejected():
    with pytest.raises(RuntimeConfigError):
        _make_dispatcher("magic")


def test_invalid_parallelism_rejected():
    with pytest.raises(RuntimeConfigError):
        HybridDispatcher(
            CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)),
            CustomGpuKernel(GpuModel(TITAN_NODE.gpu)),
            cpu_threads=0,
            gpu_streams=5,
        )


def test_zero_flop_batch_reports_item_fraction():
    """Regression: an all-zero-FLOP batch with a non-empty CPU share used
    to report cpu_fraction = 0.0, hiding where the items actually went."""
    kind = TaskKind("data_only", 0)
    items = [
        WorkItem(kind=kind, flops=0, input_bytes=64000, output_bytes=64000)
        for _ in range(10)
    ]
    cpu_items, gpu_items = items[:4], items[4:]
    k = HybridDispatcher._fraction(cpu_items, items)
    assert k == pytest.approx(0.4)
    assert HybridDispatcher._fraction([], []) == 0.0  # repro: noqa[FLT001] - exact zero branch


def test_per_plan_transfer_estimator_does_not_stick():
    """plan() takes the transfer estimator per call and keeps none, so a
    shared dispatcher plans a batch the same before and after it."""
    disp = _make_dispatcher("hybrid")
    plan_before = disp.plan(_batch(flops=1_000_000))
    expensive = lambda stats: 10.0  # noqa: E731
    plan_slow = disp.plan(_batch(flops=1_000_000), transfer_estimator=expensive)
    plan_after = disp.plan(_batch(flops=1_000_000))
    assert plan_after == plan_before
    # a 10s transfer charge must push work off the GPU
    assert plan_slow.cpu_fraction >= plan_before.cpu_fraction


def _make_adaptive(**kwargs):
    return AdaptiveDispatcher(
        CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)),
        CustomGpuKernel(GpuModel(TITAN_NODE.gpu)),
        cpu_threads=10,
        gpu_streams=5,
        **kwargs,
    )


def test_adaptive_validates_parameters():
    with pytest.raises(RuntimeConfigError):
        _make_adaptive(cpu_scale=0.0)
    with pytest.raises(RuntimeConfigError):
        _make_adaptive(gpu_scale=-1.0)
    with pytest.raises(RuntimeConfigError):
        _make_adaptive(ewma_alpha=0.0)
    with pytest.raises(RuntimeConfigError):
        _make_adaptive(ewma_alpha=1.5)


def test_observe_moves_scales_toward_measured_ratio():
    disp = _make_adaptive(ewma_alpha=0.5)
    disp.observe(
        est_cpu_seconds=1.0,
        measured_cpu_seconds=2.0,
        est_gpu_seconds=1.0,
        measured_gpu_seconds=0.5,
    )
    assert disp.cpu_time_scale == pytest.approx(1.5)
    assert disp.gpu_time_scale == pytest.approx(0.75)
    assert disp.history == [(1.5, 0.75)]


def test_observe_ignores_absent_shares():
    disp = _make_adaptive()
    disp.observe(est_gpu_seconds=1.0, measured_gpu_seconds=1.0)
    assert disp.cpu_time_scale == 1.0  # repro: noqa[FLT001] - never updated, still the exact default


def test_adaptive_converges_within_ten_batches():
    """Acceptance: started 2x miscalibrated, the planned CPU fraction
    reaches within 10% of the well-calibrated dispatcher's within 10
    plan/observe rounds."""
    reference = _make_dispatcher("hybrid")
    optimal_k = reference.plan(_batch()).cpu_fraction
    disp = _make_adaptive(gpu_scale=2.0)
    k = None
    for _ in range(10):
        plan = disp.plan(_batch())
        k = plan.cpu_fraction
        # measured == the raw model (the simulated hardware *is* the
        # model): feed back unscaled estimates for the dispatched share
        gpu_raw = (
            disp.gpu_kernel.batch_timing(BatchStats.of(plan.gpu_items), 5).seconds
            if plan.gpu_items
            else 0.0
        )
        disp.observe(
            est_cpu_seconds=1.0,
            measured_cpu_seconds=1.0,
            est_gpu_seconds=gpu_raw,
            measured_gpu_seconds=gpu_raw,
        )
    assert k == pytest.approx(optimal_k, abs=0.1 * max(optimal_k, 1e-9))
