"""Slot holds without a DES process per slot.

``NodeRuntime._occupy_slices`` holds a share's CPU-thread or GPU-stream
slots through grant and timeout callbacks.  :class:`PerSlotRuntime`
keeps the way it held them before — one process per slot-slice, joined
by an ``AllOf`` — as the reference: on random node configurations, with
and without faults, both runtimes give the same ``NodeTimeline``, the
same trace spans in the same order and the same structured log.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.models import GpuFailure, PcieDegradation, StragglerNode
from repro.faults.policies import DegradedModeController, RetryPolicy
from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.runtime.dispatcher import AdaptiveDispatcher, HybridDispatcher
from repro.runtime.events import AllOf, Environment
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
def _configs(draw):
    """One node configuration, its task stream and its fault schedule."""
    families = draw(st.lists(
        st.lists(st.integers(0, 30), max_size=12).map(tuple),
        min_size=1, max_size=5,
    ))
    sizes = draw(st.lists(
        st.tuples(
            st.sampled_from([0, 1_000_000, 20_000_000, 80_000_000]),
            st.integers(1, 60),
        ),
        min_size=1, max_size=120,
    ))
    cfg = {
        "mode": draw(st.sampled_from(["cpu", "gpu", "hybrid"])),
        "threads": draw(st.integers(1, 16)),
        "streams": draw(st.integers(1, 8)),
        "batch": draw(st.integers(1, 60)),
        "flush": draw(st.sampled_from([1e-6, 1e-4, 1e-3, 5e-3, 0.02])),
        "pipelined": draw(st.booleans()),
        "adaptive": draw(st.booleans()),
        "naive": draw(st.integers(0, 9)) == 0,
        "faults": [],
        "retries": 3,
        "degraded": None,
    }
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


def _run(cls, cfg, tasks):
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
    tracer = Tracer()
    runtime = cls(
        TITAN_NODE,
        dispatcher,
        flush_interval=cfg["flush"],
        max_batch_size=cfg["batch"],
        naive_port=cfg["naive"],
        pipelined=cfg["pipelined"],
        tracer=tracer,
        fault_injector=FaultInjector(seed=11, faults=cfg["faults"]),
        retry_policy=RetryPolicy(max_attempts=cfg["retries"]),
        degraded_mode=degraded,
    )
    timeline = runtime.execute(tasks)
    history = getattr(dispatcher, "history", None)
    return dataclasses.asdict(timeline), tracer.events, tracer.log, history


@given(_configs())
@settings(max_examples=150, deadline=None)
def test_slot_callbacks_match_the_per_slot_processes(config):
    """Same timeline, same spans in the same order, same structured log
    (and the same calibration history) as one process per slot."""
    cfg, tasks = config
    got = _run(NodeRuntime, cfg, tasks)
    want = _run(PerSlotRuntime, cfg, tasks)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert got[3] == want[3]


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
