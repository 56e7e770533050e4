"""Slot holds without a DES process per slot, and block waits without
a per-key in-flight map.

``NodeRuntime._occupy_slices`` holds a share's CPU-thread or GPU-stream
slots through grant and timeout callbacks.  :class:`PerSlotRuntime`
keeps the way it held them before — one process per slot-slice, joined
by an ``AllOf`` — as the reference: on random node configurations, with
and without faults, both runtimes give the same ``NodeTimeline``, the
same trace spans in the same order and the same structured log.

``NodeRuntime._await_transfers`` keeps one arrival event per open
transfer ticket and waits on the tickets of ``waits_on``.
:class:`PerKeyInflightRuntime` keeps the per-key map it replaced — every
shipped key to its transfer's event, one event per wait key — as the
reference of the same comparison, on configurations whose batches wait
on blocks in flight.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.models import GpuFailure, PcieDegradation, StragglerNode
from repro.faults.policies import DegradedModeController, RetryPolicy
from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.kernels.gpu_cache import GpuBlockCache
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


class PerKeyInflightRuntime(NodeRuntime):
    """Reference: every shipped key maps to its transfer's arrival
    event, and a waiting share collects one event per wait key."""

    @staticmethod
    def _await_transfers(env, ticket, inflight):
        events = [inflight[k] for k in ticket.wait_keys if k in inflight]
        if ticket.ship_keys:
            arrived = env.event()
            for part in ticket.ship_parts:
                inflight.update(dict.fromkeys(part, arrived))
        return events

    @staticmethod
    def _transfer_arrived(ticket, inflight):
        inflight[ticket.ship_keys[0]].succeed()


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
    return (dataclasses.asdict(timeline), tracer.events, tracer.log, history,
            runtime.gpu_cache.stats)


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


@given(_configs(waiting=True))
@settings(max_examples=150, deadline=None)
def test_one_arrival_per_transfer_matches_the_per_key_map(config):
    """Same timeline, same spans in the same order, same structured log,
    calibration history and cache counters as the per-key in-flight map,
    on runs whose batches wait on blocks in flight."""
    cfg, tasks = config
    got = _run(NodeRuntime, cfg, tasks)
    want = _run(PerKeyInflightRuntime, cfg, tasks)
    event(f"waits: {bool(got[4].waits)}")
    assert got == want


def test_batches_wait_on_blocks_in_flight():
    """The waiting draws reach the cache's wait path: here batches over
    two families of 24 keys begin transfers of blocks another batch
    ships, and both runtimes agree.  (Transfers queue FIFO on the one
    host-to-device link, so the owner commits before the waiter's own
    transfer ends, and the wait takes no simulated time here;
    :func:`test_waits_end_where_the_per_key_map_ends_them` times waits
    that do.)"""
    families = [tuple(range(24)), tuple(range(24, 48))]
    cfg = {
        "mode": "gpu", "threads": 4, "streams": 4, "batch": 2,
        "flush": 1e-4, "pipelined": True, "adaptive": False,
        "naive": False, "faults": [], "retries": 3, "degraded": None,
    }
    tasks = _tasks([(20_000_000, 20)] * 40, families)
    got = _run(NodeRuntime, cfg, tasks)
    want = _run(PerKeyInflightRuntime, cfg, tasks)
    assert got == want
    assert got[4].waits > 0


def _wait_ends(cls, batches, delays):
    """Begin each batch's transfer on one cache, have every waiting
    batch wait on ``cls._await_transfers``'s events through an
    ``AllOf``, then commit each shipping ticket ``delays[i]`` after the
    start; returns each wait's (batch, end instant) in the order the
    waits end, and the events processed."""
    env = Environment()
    cache = GpuBlockCache(1 << 20)
    arrivals: dict = {}
    ends: list = []
    tickets = []
    for i, keys in enumerate(batches):
        ticket = cache.begin_transfer(keys, 1.0)
        done = AllOf(env, cls._await_transfers(env, ticket, arrivals))
        done.callbacks.append(lambda _value, i=i: ends.append((i, env.now)))
        tickets.append(ticket)

    def commit(ticket, delay):
        yield env.timeout(delay)
        cache.commit_transfer(ticket)
        cls._transfer_arrived(ticket, arrivals)

    for ticket, delay in zip(tickets, delays):
        if ticket.ship_keys:
            env.process(commit(ticket, delay))
    env.run()
    return ends, env.n_processed


@given(
    st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=8),
             min_size=1, max_size=8),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_waits_end_where_the_per_key_map_ends_them(batches, data):
    """Batches begin transfers over overlapping keys while earlier ones
    are in flight, and the transfers commit at drawn instants, ties
    included.  Each wait over one event per owning transfer ends at the
    instant, and in the order, that the per-key map's one event per wait
    key ends it, with as many events processed."""
    delays = [data.draw(st.sampled_from([0.0, 1.0, 2.0, 3.0])) for _ in batches]
    got = _wait_ends(NodeRuntime, batches, delays)
    assert got == _wait_ends(PerKeyInflightRuntime, batches, delays)


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
