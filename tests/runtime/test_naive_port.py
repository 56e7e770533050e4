"""Tests for the naive CPU-GPU port baseline (paper Section I strawman)."""

import pytest

from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.lint.trace_check import find_violations
from repro.runtime.dispatcher import HybridDispatcher
from repro.runtime.node import NodeRuntime
from repro.runtime.trace import Tracer
from tests.runtime.test_node_runtime import make_tasks


def _runtime(naive: bool) -> NodeRuntime:
    dispatcher = HybridDispatcher(
        CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)),
        CustomGpuKernel(GpuModel(TITAN_NODE.gpu)),
        cpu_threads=12,
        gpu_streams=5,
        mode="gpu",
    )
    return NodeRuntime(
        TITAN_NODE, dispatcher, flush_interval=0.005, max_batch_size=60,
        naive_port=naive,
    )


def test_naive_port_forces_unit_batches():
    rt = _runtime(naive=True)
    tl = rt.execute(make_tasks(50))
    assert tl.n_batches == 50


def test_naive_port_reships_blocks_every_task():
    naive = _runtime(naive=True).execute(make_tasks(50))
    batched = _runtime(naive=False).execute(make_tasks(50))
    # only 5 distinct block families exist: the write-once cache ships
    # them once, the naive port ships them with every task
    assert naive.block_bytes_shipped > 5 * batched.block_bytes_shipped


def test_naive_port_is_much_slower():
    """The paper's premise: the naive port 'would result in low GPU
    occupancy and high CPU-GPU transfer latency'."""
    naive = _runtime(naive=True).execute(make_tasks(100)).total_seconds
    batched = _runtime(naive=False).execute(make_tasks(100)).total_seconds
    assert naive > 2.0 * batched


def test_naive_port_skips_pool_setup():
    tl = _runtime(naive=True).execute(make_tasks(10))
    assert tl.setup_seconds == 0.0  # repro: noqa[FLT001] - no pool, exact zero


def test_naive_port_same_task_accounting():
    tl = _runtime(naive=True).execute(make_tasks(30))
    assert tl.n_tasks == 30
    assert tl.n_gpu_items == 30


def test_naive_port_trace_records_each_gpu_kernel():
    """The naive port has no device cache, so each GPU kernel reads no
    cached blocks — but its launch is still on the happens-before log."""
    rt = _runtime(naive=True)
    rt.tracer = Tracer()
    tl = rt.execute(make_tasks(30))
    computes = [r for r in rt.tracer.log if r.op == "gpu_compute"]
    gpu_batches = sum(1 for b in tl.batches if b.n_gpu_items)
    assert gpu_batches == 30
    assert len(computes) == gpu_batches
    assert all(r.ids == () for r in computes)
    assert find_violations(rt.tracer.log) == []
