"""Per-layer host-time spans, recorded from outside the program.

The benchmark attributes host seconds to the repository's layers without
editing them: :func:`install` replaces each layer's public callables
(class attributes or module functions) with thin wrappers that open a
span on entry and close it on exit, and :func:`uninstall` puts every
original object back.  A layer's *self time* is the time its spans cover
minus the part covered by spans nested inside them, so the layers'
self times plus the unattributed remainder add up to the traced window.

Only plain callables are wrapped.  A DES process body is a generator:
wrapping it would time the generator's creation, not its steps, so such
bodies are charged to whichever span is open when the event loop resumes
them — usually ``runtime.events`` (``Environment.run``).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass

import repro.operators.apply_batched as apply_batched
from repro.apps.workloads import SyntheticApplyWorkload
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.stealing import StealingEngine
from repro.dht.process_map import CostPartitionMap, ProcessMap
from repro.kernels.base import ComputeKernel
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.cublas_gpu import CublasKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.kernels.gpu_cache import GpuBlockCache
from repro.mra.function import FunctionFactory, MultiresolutionFunction
from repro.mra.node import FunctionNode
from repro.operators.apply_batched import BatchedApply
from repro.operators.convolution import GaussianConvolution
from repro.runtime.batching import BatchAccumulator
from repro.runtime.buffers import PinnedBufferPool
from repro.runtime.dispatcher import HybridDispatcher
from repro.runtime.events import Environment
from repro.runtime.node import NodeRuntime
from repro.runtime.task import HybridTask
from repro.serve.admission import AdmissionController
from repro.serve.arrivals import PoissonArrivals
from repro.serve.autoscaler import ReactiveAutoscaler
from repro.serve.batcher import CrossJobBatcher
from repro.serve.service import JobService

#: zero-argument timer in seconds (tests pass a scripted one)
Clock = Callable[[], float]


class SpanRecorder:
    """In-memory span accounting: self time and call count per layer.

    Spans nest strictly (every wrapped callable returns before its
    caller does), so a stack of open frames is enough: closing a frame
    adds its duration to the parent frame's child time, and the frame's
    own self time is its duration minus its child time.
    """

    def __init__(self, clock: Clock = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: named counters recorded at span boundaries (flops, events, ...)
        self.counters: dict[str, float] = defaultdict(float)
        #: objects a layer touched, for summaries read at the end
        self.seen: dict[str, dict[int, object]] = defaultdict(dict)
        self._stack: list[list] = []

    def enter(self, layer: str) -> list:
        """Open a span of ``layer``; returns the frame to close."""
        frame = [layer, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        """Close ``frame`` (the innermost open span)."""
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        layer, start, child = frame
        duration = end - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def covered_s(self) -> float:
        """Total self time over every layer (the traced share of the
        window)."""
        return sum(self.self_s.values())


@dataclass(frozen=True)
class Probe:
    """One wrapped attribute: ``owner.name`` is timed as ``layer``.

    ``hook(recorder, args)``, when given, runs inside the span before
    the call and may return a callable that receives the call's result.
    """

    owner: object
    name: str
    layer: str
    hook: Callable | None = None


def _flops_hook(rec: SpanRecorder, args) -> None:
    item = args[1]
    if item.payload is not None:
        rec.counters["kernels.numeric.flops"] += item.flops


def _remember_op(rec: SpanRecorder, args) -> None:
    rec.seen["operators.blocks"][id(args[0])] = args[0]


def _batches_hook(rec: SpanRecorder, args):
    def done(timeline) -> None:
        rec.counters["runtime.node.batches"] += timeline.n_batches

    return done


def _events_hook(rec: SpanRecorder, args):
    env = args[0]
    before = env.n_processed

    def done(_now) -> None:
        rec.counters["runtime.events.events"] += env.n_processed - before

    return done


def _repro_classes(base: type) -> list[type]:
    """``base`` and every subclass defined in the ``repro`` package."""
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("repro.") and cls not in out:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _defined(classes: list[type], names: tuple[str, ...], layer: str) -> list[Probe]:
    """Probes for every concrete definition of ``names`` in ``classes``
    (a subclass override is wrapped where it is defined)."""
    return [
        Probe(cls, name, layer)
        for cls in classes
        for name in names
        if name in cls.__dict__
        and not getattr(cls.__dict__[name], "__isabstractmethod__", False)
    ]


#: the benchmark's layers, named after the modules they live in
LAYERS = (
    "kernels.numeric",
    "operators.blocks",
    "operators.tasks",
    "mra",
    "runtime.node",
    "runtime.dispatcher",
    "kernels.gpu_cache",
    "kernels.cost_model",
    "runtime.events",
    "dht",
    "cluster",
    "serve",
    "apps",
)


def probes() -> list[Probe]:
    """Every attribute the traced run wraps, grouped by layer."""
    numeric = [
        Probe(cls, "run_item", "kernels.numeric", _flops_hook)
        for cls in (CpuMtxmKernel, CustomGpuKernel, CublasKernel)
    ]
    return [
        *numeric,
        Probe(GaussianConvolution, "ns_block", "operators.blocks", _remember_op),
        Probe(GaussianConvolution, "r_block", "operators.blocks", _remember_op),
        Probe(BatchedApply, "generate_tasks", "operators.tasks"),
        Probe(MultiresolutionFunction, "nonstandard", "mra"),
        # apply_batched binds sum_down_ns at import: patch that binding
        Probe(apply_batched, "sum_down_ns", "mra"),
        Probe(FunctionNode, "accumulate", "mra"),
        Probe(FunctionFactory, "from_callable", "mra"),
        Probe(NodeRuntime, "execute", "runtime.node", _batches_hook),
        Probe(HybridTask, "run_preprocess", "runtime.node"),
        Probe(BatchAccumulator, "submit", "runtime.node"),
        Probe(BatchAccumulator, "flush", "runtime.node"),
        Probe(PinnedBufferPool, "plan", "runtime.node"),
        *_defined(_repro_classes(HybridDispatcher), ("plan",),
                  "runtime.dispatcher"),
        *[
            Probe(GpuBlockCache, name, "kernels.gpu_cache")
            for name in ("begin_transfer", "commit_transfer", "abort_transfer")
        ],
        *_defined(_repro_classes(ComputeKernel), ("batch_timing",),
                  "kernels.cost_model"),
        Probe(Environment, "run", "runtime.events", _events_hook),
        *_defined(_repro_classes(ProcessMap), ("owner", "anchor_of"), "dht"),
        Probe(CostPartitionMap, "from_weights", "dht"),
        Probe(ClusterSimulation, "run", "cluster"),
        Probe(ClusterSimulation, "serve_batch_seconds", "cluster"),
        Probe(StealingEngine, "run", "cluster"),
        Probe(JobService, "run", "serve"),
        *[
            Probe(CrossJobBatcher, name, "serve")
            for name in ("add", "next_batch", "oldest_wait")
        ],
        Probe(AdmissionController, "decide", "serve"),
        Probe(ReactiveAutoscaler, "decide", "serve"),
        # input generators, so a workload's set-up step is attributed too
        Probe(SyntheticApplyWorkload, "__post_init__", "apps"),
        Probe(PoissonArrivals, "requests", "apps"),
    ]


def _wrap(func: Callable, rec: SpanRecorder, probe: Probe) -> Callable:
    layer, hook = probe.layer, probe.hook

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        frame = rec.enter(layer)
        try:
            done = hook(rec, args) if hook is not None else None
            result = func(*args, **kwargs)
            if done is not None:
                done(result)
            return result
        finally:
            rec.exit(frame)

    return wrapper


#: ``(owner, name, original)``; ``original`` is ``None`` when the attribute
#: was inherited rather than defined on ``owner``
Patch = tuple[object, str, object]


def install(rec: SpanRecorder, targets: list[Probe]) -> list[Patch]:
    """Wrap every target attribute so its calls record spans in ``rec``;
    returns what :func:`uninstall` needs to undo it."""
    patches: list[Patch] = []
    try:
        for probe in targets:
            raw = vars(probe.owner).get(probe.name)
            func = getattr(probe.owner, probe.name)
            if isinstance(raw, (staticmethod, classmethod)):
                func = raw.__func__
            if inspect.isgeneratorfunction(func):
                raise TypeError(
                    f"{probe.name} is a generator function: a span would "
                    "time its creation, not its body"
                )
            wrapped = _wrap(func, rec, probe)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(wrapped)
            patches.append((probe.owner, probe.name, raw))
            setattr(probe.owner, probe.name, wrapped)
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: list[Patch]) -> None:
    """Restore every attribute :func:`install` replaced, newest first."""
    for owner, name, original in reversed(patches):
        if original is None:
            delattr(owner, name)
        else:
            setattr(owner, name, original)
    patches.clear()


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of one traced window (every layer reported,
    zero where it never ran)."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = rec.self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = float(rec.calls.get(layer, 0))
    numeric_s = rec.self_s.get("kernels.numeric", 0.0)
    flops = rec.counters.get("kernels.numeric.flops", 0.0)
    out["kernels.numeric.flops"] = flops
    out["kernels.numeric.gflops"] = flops / numeric_s / 1e9 if numeric_s else 0.0
    hits = accesses = 0
    for op in rec.seen.get("operators.blocks", {}).values():
        for cache in (op.ns_cache, op.r_cache):
            hits += cache.stats.hits
            accesses += cache.stats.accesses
    out["operators.blocks.hit_rate"] = hits / accesses if accesses else 0.0
    out["runtime.node.batches"] = rec.counters.get("runtime.node.batches", 0.0)
    out["runtime.events.events"] = rec.counters.get("runtime.events.events", 0.0)
    return out
