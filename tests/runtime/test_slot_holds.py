"""Slot holds without a DES process per slot, and operator blocks
reserved in the order the link carries them.

``NodeRuntime._occupy_slices`` holds a share's CPU-thread or GPU-stream
slots through grant and timeout callbacks.  :class:`PerSlotRuntime`
keeps the way it held them before — one process per slot-slice, joined
by an ``AllOf`` — as the reference: on random node configurations, with
and without faults, both runtimes give the same ``NodeTimeline``, the
same trace spans in the same order and the same structured log.

A GPU share reserves its blocks in the step it requests the FIFO
host-to-device link, so a block it finds in flight for another batch
is resident before its own transfer ends, and it computes on the block
without waiting.  :class:`WaitCheckingCache` records, at each commit,
whether that held.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeConfigError
from repro.faults.injector import FaultInjector
from repro.faults.models import GpuFailure, PcieDegradation, StragglerNode
from repro.faults.policies import DegradedModeController, RetryPolicy
from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.kernels.gpu_cache import GpuBlockCache
from repro.lint.trace_check import verify_tracer
from repro.runtime.dispatcher import AdaptiveDispatcher, HybridDispatcher
from repro.runtime.events import AllOf, Environment, scheduling_perturbation
from repro.runtime.node import NodeRuntime
from repro.runtime.task import HybridTask, TaskKind, WorkItem
from repro.runtime.trace import Tracer
from tests.runtime.test_node_runtime import make_tasks


class PerSlotRuntime(NodeRuntime):
    """Reference: each slot-slice is a DES process of its own."""

    def _occupy(self, env, resource, seconds, category, label, batch=-1):
        """One slot-slice: hold a slot of ``resource`` for ``seconds``."""
        req = resource.request()
        yield req
        t0 = env.now
        yield env.timeout(seconds)
        self._trace(category, label, t0, env.now, batch)
        resource.release()

    def _occupy_slices(self, env, resource, n_slices, seconds, category, label,
                       batch=-1):
        n = max(1, min(n_slices, resource.capacity))
        return AllOf(env, [
            env.process(
                self._occupy(env, resource, seconds, category,
                             f"{label} [{i + 1}/{n}]" if n > 1 else label,
                             batch)
            )
            for i in range(n)
        ])


class WaitCheckingCache(GpuBlockCache):
    """A device cache that records, at each commit, whether the
    ticket's wait keys are already resident."""

    def __init__(self, capacity_bytes):
        super().__init__(capacity_bytes)
        self.waits_resident: list[bool] = []

    def commit_transfer(self, ticket):
        self.waits_resident.append(all(k in self for k in ticket.wait_keys))
        super().commit_transfer(ticket)


def _tasks(sizes, families) -> list[HybridTask]:
    """Items of a few shapes over a few shared block-key tuples."""
    kind = TaskKind("integral_compute", (3, 20))
    tasks = []
    for i, (flops, rank) in enumerate(sizes):
        keys = families[i % len(families)]
        item = WorkItem(
            kind=kind,
            flops=flops,
            input_bytes=64_000,
            output_bytes=64_000,
            block_keys=keys,
            block_bytes=len(keys) * 3_200,
            steps=rank * 3,
            step_rows=400,
            step_q=20,
        )
        tasks.append(HybridTask(work=item, pre_bytes=item.input_bytes,
                                post_bytes=item.output_bytes))
    return tasks


@st.composite
def _configs(draw, waiting=False):
    """One node configuration, its task stream and its fault schedule.
    ``waiting`` draws pipelined GPU-side runs of small batches over a few
    larger families, whose batches often begin a transfer while another
    batch ships their blocks."""
    families = draw(st.lists(
        st.lists(st.integers(0, 30), min_size=int(waiting),
                 max_size=24 if waiting else 12).map(tuple),
        min_size=1, max_size=3 if waiting else 5,
    ))
    sizes = draw(st.lists(
        st.tuples(
            st.sampled_from([0, 1_000_000, 20_000_000, 80_000_000]),
            st.integers(1, 60),
        ),
        min_size=20 if waiting else 1, max_size=120,
    ))
    cfg = {
        "mode": draw(st.sampled_from(["cpu", "gpu", "hybrid"])),
        "threads": draw(st.integers(1, 16)),
        "streams": draw(st.integers(1, 8)),
        "batch": draw(st.integers(1, 12 if waiting else 60)),
        "flush": draw(st.sampled_from([1e-6, 1e-4, 1e-3, 5e-3, 0.02])),
        "pipelined": draw(st.booleans()),
        "adaptive": draw(st.booleans()),
        "naive": draw(st.integers(0, 9)) == 0,
        "faults": [],
        "retries": 3,
        "degraded": None,
    }
    if waiting:
        cfg["mode"] = draw(st.sampled_from(["gpu", "hybrid"]))
        cfg["pipelined"], cfg["naive"] = True, False
    if draw(st.booleans()):
        faults = [GpuFailure(rate=draw(st.sampled_from([0.1, 0.3, 0.6])))]
        if draw(st.booleans()):
            faults.append(PcieDegradation(
                bandwidth_factor=draw(st.sampled_from([0.25, 0.5])),
                start=draw(st.sampled_from([0.0, 0.001])),
                end=draw(st.sampled_from([0.005, 1.0])),
            ))
        if draw(st.booleans()):
            faults.append(StragglerNode(
                slowdown=draw(st.sampled_from([1.5, 3.0])),
                start=draw(st.sampled_from([0.0, 0.002])),
            ))
        cfg["faults"] = faults
        cfg["retries"] = draw(st.integers(1, 4))
        if draw(st.booleans()):
            cfg["degraded"] = (
                draw(st.integers(1, 3)),
                draw(st.sampled_from([None, 0.001, 0.01])),
            )
    return cfg, _tasks(sizes, families)


#: a pipelined GPU-only node whose batches of two items often find
#: their blocks in flight
_FIXED = {
    "mode": "gpu", "threads": 4, "streams": 4, "batch": 2,
    "flush": 1e-4, "pipelined": True, "adaptive": False,
    "naive": False, "faults": [], "retries": 3, "degraded": None,
}


def _runtime(cls, cfg) -> NodeRuntime:
    """A traced runtime of class ``cls`` for one drawn configuration."""
    cpu = CpuMtxmKernel(CpuModel(TITAN_NODE.cpu))
    gpu = CustomGpuKernel(GpuModel(TITAN_NODE.gpu))
    if cfg["adaptive"] and cfg["mode"] == "hybrid":
        dispatcher = AdaptiveDispatcher(
            cpu, gpu, cpu_threads=cfg["threads"], gpu_streams=cfg["streams"],
            cpu_scale=1.7, gpu_scale=0.6,
        )
    else:
        dispatcher = HybridDispatcher(
            cpu, gpu, cpu_threads=cfg["threads"], gpu_streams=cfg["streams"],
            mode=cfg["mode"],
        )
    degraded = None
    if cfg["degraded"] is not None:
        threshold, probe = cfg["degraded"]
        degraded = DegradedModeController(
            fault_threshold=threshold, probe_interval=probe
        )
    return cls(
        TITAN_NODE,
        dispatcher,
        flush_interval=cfg["flush"],
        max_batch_size=cfg["batch"],
        naive_port=cfg["naive"],
        pipelined=cfg["pipelined"],
        tracer=Tracer(),
        fault_injector=FaultInjector(seed=11, faults=cfg["faults"]),
        retry_policy=RetryPolicy(max_attempts=cfg["retries"]),
        degraded_mode=degraded,
    )


def _run(cls, cfg, tasks):
    runtime = _runtime(cls, cfg)
    timeline = runtime.execute(tasks)
    history = getattr(runtime.dispatcher, "history", None)
    return (dataclasses.asdict(timeline), runtime.tracer.events,
            runtime.tracer.log, history)


@given(_configs())
@settings(max_examples=150, deadline=None)
def test_slot_callbacks_match_the_per_slot_processes(config):
    """Same timeline, same spans in the same order, same structured log
    (and the same calibration history) as one process per slot."""
    cfg, tasks = config
    assert _run(NodeRuntime, cfg, tasks) == _run(PerSlotRuntime, cfg, tasks)


def _check_waits(cfg, tasks, perturb=None) -> WaitCheckingCache:
    """Run ``tasks`` on a :class:`WaitCheckingCache`, with same-instant
    ties drawn from the seed ``perturb`` when it is given; assert that
    every commit found the ticket's wait keys resident and that the
    run's log has no happens-before violation.  Returns the cache."""
    runtime = _runtime(NodeRuntime, cfg)
    runtime.gpu_cache = cache = WaitCheckingCache(TITAN_NODE.gpu.ram_bytes)
    if perturb is None:
        runtime.execute(tasks)
    else:
        with scheduling_perturbation(random.Random(perturb)):
            runtime.execute(tasks)
    assert all(cache.waits_resident)
    verify_tracer(runtime.tracer)
    return cache


@given(_configs(waiting=True), st.none() | st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_waited_blocks_are_resident_when_the_transfer_ends(config, perturb):
    """On runs whose batches begin transfers while another batch ships
    their blocks, faults included, every batch's wait keys are resident
    when its own transfer commits, and ``trace_check`` (invariant 5:
    no kernel reads a block before it arrived) finds nothing — also
    when same-instant ties are perturbed, as ``make races`` does."""
    cfg, tasks = config
    cache = _check_waits(cfg, tasks, perturb)
    event(f"waits: {bool(cache.stats.waits)}")


def test_batches_wait_on_blocks_in_flight():
    """The waiting draws reach the cache's wait path: here batches over
    two families of 24 keys begin transfers of blocks another batch
    ships, and each finds them resident when its own transfer ends."""
    families = [tuple(range(24)), tuple(range(24, 48))]
    tasks = _tasks([(20_000_000, 20)] * 40, families)
    cache = _check_waits(_FIXED, tasks)
    assert cache.stats.waits > 0


def test_a_halted_runtime_cannot_run_again():
    """A run halted mid-flight leaves its transfers in flight on the
    runtime's device cache, so a second ``execute`` raises instead of
    counting waits on blocks no transfer will bring.  A run that
    finished before its ``halt_at`` was not halted, and its runtime
    runs again."""
    families = [tuple(range(24 * i, 24 * (i + 1))) for i in range(6)]
    tasks = _tasks([(20_000_000, 20)] * 120, families)
    clean = _runtime(NodeRuntime, _FIXED).execute(tasks)
    runtime = _runtime(NodeRuntime, _FIXED)
    halted = runtime.execute(tasks, halt_at=clean.total_seconds * 150 / 4000)
    assert halted.halted_at is not None
    assert sum(runtime.gpu_cache.in_flight(k) for f in families for k in f) == 96
    with pytest.raises(RuntimeConfigError, match="halted"):
        runtime.execute(tasks)
    finished = _runtime(NodeRuntime, _FIXED)
    assert finished.execute(tasks, halt_at=clean.total_seconds * 2).halted_at is None
    assert finished.execute(tasks).halted_at is None


def _processes_started(cls, mode, threads, streams) -> int:
    """DES processes one ``execute`` of 240 tasks starts."""
    started = 0
    original = Environment.process

    def counting(env, gen):
        nonlocal started
        started += 1
        return original(env, gen)

    cpu = CpuMtxmKernel(CpuModel(TITAN_NODE.cpu))
    gpu = CustomGpuKernel(GpuModel(TITAN_NODE.gpu))
    dispatcher = HybridDispatcher(
        cpu, gpu, cpu_threads=threads, gpu_streams=streams, mode=mode
    )
    runtime = cls(TITAN_NODE, dispatcher, flush_interval=0.005)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Environment, "process", counting)
        timeline = runtime.execute(make_tasks(240))
    assert timeline.n_batches > 1
    return started


def test_processes_per_execute_do_not_grow_with_slots():
    """The DES processes one ``execute`` starts do not depend on how
    many CPU threads or GPU streams a share holds (one process per slot
    made them grow with both)."""
    for mode, slots in (("cpu", [(1, 1), (4, 1), (16, 1)]),
                        ("gpu", [(1, 1), (1, 3), (1, 8)])):
        counts = {_processes_started(NodeRuntime, mode, t, s) for t, s in slots}
        assert len(counts) == 1, (mode, counts)
        per_slot = [
            _processes_started(PerSlotRuntime, mode, t, s) for t, s in slots
        ]
        assert per_slot[0] < per_slot[1] < per_slot[2], (mode, per_slot)
