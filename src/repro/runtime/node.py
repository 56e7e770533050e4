"""Single-node hybrid runtime: the control flow of paper Figure 3.

``NodeRuntime.execute`` drives a list of :class:`~repro.runtime.task.HybridTask`
through the full pipeline on simulated time:

1. a producer runs *preprocess* sub-tasks on the data threads and submits
   the resulting work items to the :class:`~repro.runtime.batching.BatchAccumulator`;
2. a flusher watches the batching timer and hands expired batches to the
   :class:`~repro.runtime.dispatcher.HybridDispatcher`;
3. each batch's CPU share occupies compute-thread slots; the GPU share
   is staged through a double-buffered pinned transfer slot, filtered by
   the write-once device block cache (two-phase: residency commits only
   when the transfer *completes* on the simulated clock), shipped over
   the duplex PCIe link, and executed on GPU stream slots;
4. *postprocess* sub-tasks run back on the data threads.

A GPU share reserves its blocks and requests the one-slot, FIFO
host-to-device link in one step, so blocks are reserved in the order
the link carries them: a block the share finds in flight for another
batch is resident by the time the share's own transfer ends, and the
share computes on it without waiting.

By default the runtime is **pipelined** (Section II-A's overlap made
real): the compute pool has one slot per CPU thread, the GPU one slot
per stream, and PCIe is full duplex — so batch *i+1* ships while batch
*i* computes and CPU shares of consecutive batches overlap.  With
``pipelined=False`` every pool is a single slot and batches serialise,
which is the pre-pipeline baseline the ablations compare against.

When the tasks carry numeric payloads the kernels actually compute, so
the same machinery that produces the paper's timings also produces real
results (used by :mod:`repro.operators.apply_batched`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.errors import RuntimeConfigError
from repro.faults.injector import FaultInjector
from repro.faults.policies import DegradedModeController, RetryPolicy
from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import NodeSpec
from repro.kernels.base import ComputeKernel
from repro.kernels.gpu_cache import GpuBlockCache
from repro.runtime.batching import Batch, BatchAccumulator
from repro.runtime.buffers import PinnedBufferPool, naive_transfer_plan
from repro.runtime.dispatcher import HybridDispatcher
from repro.runtime.events import AllOf, Environment, Event, Resource
from repro.runtime.task import BatchStats, HybridTask
from repro.runtime.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> runtime)
    from repro.obs.metrics import MetricsRegistry

#: tasks whose preprocess is charged as one lump to keep event counts low
_PRE_CHUNK = 32

#: data-access threads sharing each pre-/postprocess charge
_DATA_THREADS = 2

#: dispatched batches admitted to the pipeline at once; batches beyond
#: the window queue un-planned, so a calibrating dispatcher plans them
#: with feedback from completed ones
_ADMISSION_WINDOW = 4


def _after_one_event(env: Environment, fn) -> None:
    """Call ``fn()`` from a zero-delay event scheduled now: one event
    later in the order, where a process started now takes its first
    step, or where a process ending now triggers its own event."""
    env.timeout(0.0).callbacks.append(lambda _value: fn())


@dataclass(slots=True)
class BatchMetrics:
    """One completed batch: its planned split beside the measured
    simulated durations of each pipeline stage.

    The measured CPU and GPU-side times are the ``m`` and ``n`` a
    calibrating dispatcher is fed back after the batch completes.

    Attributes:
        n_cpu_items / n_gpu_items: the planned split sizes.
        cpu_fraction: work fraction the dispatcher sent to the CPU.
        gpu_scale: the dispatcher's GPU calibration multiplier when the
            batch was planned (1.0 for non-adaptive dispatchers).
        measured_cpu_seconds: simulated service time of the CPU share.
        transfer_in_seconds / transfer_out_seconds: PCIe charges.
        measured_gpu_seconds: simulated service time of the GPU kernel.
        dispatched_at / completed_at: simulated instants bracketing the
            batch's compute phases (postprocess excluded);
            ``dispatched_at`` is the instant the batch was planned.
        attempts: GPU attempts the batch took (1 = clean first try;
            only fault injection produces more).
        gpu_faults: injected GPU faults the batch absorbed.
        retry_wait_seconds: backoff time spent between attempts.
        fallback_items: GPU-planned items that ultimately ran on the
            CPU (retry budget exhausted, or the node degraded).
    """

    n_cpu_items: int = 0
    n_gpu_items: int = 0
    cpu_fraction: float = 0.0
    gpu_scale: float = 1.0
    measured_cpu_seconds: float = 0.0
    transfer_in_seconds: float = 0.0
    transfer_out_seconds: float = 0.0
    measured_gpu_seconds: float = 0.0
    dispatched_at: float = 0.0
    completed_at: float = 0.0
    attempts: int = 1
    gpu_faults: int = 0
    retry_wait_seconds: float = 0.0
    fallback_items: int = 0

    @property
    def measured_gpu_side_seconds(self) -> float:
        """Everything the GPU share cost: transfers and compute."""
        return (
            self.transfer_in_seconds
            + self.measured_gpu_seconds
            + self.transfer_out_seconds
        )


@dataclass
class NodeTimeline:
    """What happened on one node during an ``execute`` run.

    The plan-time totals (item split, estimates, bytes) are kept live
    as batches are planned and as fallbacks move items to the CPU, so
    they also count batches a crash cuts off.  The fault and retry
    totals are summed from :attr:`batches`, the records of the batches
    that completed, when the run ends.
    """

    total_seconds: float = 0.0
    setup_seconds: float = 0.0
    cpu_compute_busy: float = 0.0
    gpu_busy: float = 0.0
    #: raw slot-seconds (busy integrated over all pool slots); for
    #: single-slot pools these equal the *_busy fields
    cpu_slot_seconds: float = 0.0
    gpu_slot_seconds: float = 0.0
    pcie_busy: float = 0.0
    pcie_to_busy: float = 0.0
    pcie_from_busy: float = 0.0
    data_busy: float = 0.0
    n_tasks: int = 0
    n_batches: int = 0
    n_cpu_items: int = 0
    n_gpu_items: int = 0
    bytes_to_gpu: int = 0
    bytes_from_gpu: int = 0
    block_bytes_shipped: int = 0
    est_cpu_only: float = 0.0  # sum over batches of m
    est_gpu_only: float = 0.0  # sum over batches of n
    results: list = field(default_factory=list)
    #: one record per completed batch, in completion order
    batches: list[BatchMetrics] = field(default_factory=list)
    #: fault-injection outcome (all zero on a clean run)
    n_gpu_faults: int = 0
    n_retries: int = 0
    n_fallback_items: int = 0
    retry_wait_seconds: float = 0.0
    degraded_seconds: float = 0.0
    #: recovery outcome (zero / None without checkpoint-restart)
    halted_at: float | None = None
    n_checkpoints: int = 0
    checkpoint_seconds: float = 0.0
    n_restores: int = 0
    restore_seconds: float = 0.0
    n_rolled_back_items: int = 0
    n_replayed_items: int = 0


@dataclass
class _Pools:
    """The simulated resources of one ``execute`` run."""

    compute: Resource
    gpu: Resource
    pcie_to: Resource
    pcie_from: Resource
    data: Resource
    admit: Resource
    stage: Resource | None = None


class NodeRuntime:
    """One hybrid compute node executing a task stream on simulated time."""

    def __init__(
        self,
        spec: NodeSpec,
        dispatcher: HybridDispatcher,
        *,
        flush_interval: float = 0.01,
        max_batch_size: int = 60,
        charge_setup: bool = True,
        naive_port: bool = False,
        pipelined: bool = True,
        tracer: "Tracer | None" = None,
        fault_injector: "FaultInjector | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        degraded_mode: "DegradedModeController | None" = None,
        rank: int = 0,
        checkpointer=None,
        registry: "MetricsRegistry | None" = None,
    ):
        """``naive_port=True`` models the strawman the paper argues
        against (Section I): no batching (every task dispatched alone),
        no pre-allocated pinned buffers (each input is a separate
        pageable transfer), no write-once device cache (operator blocks
        re-shipped every time).  ``pipelined=False`` keeps the batching
        machinery but serialises batches through single-slot resource
        pools (the pre-pipeline baseline).

        ``fault_injector`` arms the chaos hooks (GPU batch faults, PCIe
        degradation, compute slowdowns); faulted GPU batches are retried
        per ``retry_policy`` (default :class:`RetryPolicy`), and
        repeated faults flip the node to CPU-only through
        ``degraded_mode``.  With no injector — or an injector with no
        faults registered — none of these paths run and the timeline is
        bit-identical to a fault-free runtime.  ``rank`` identifies the
        node to per-rank fault models.

        ``checkpointer`` (a :class:`~repro.recovery.checkpoint.
        Checkpointer`) arms checkpoint/restart: after each batch's
        accumulate the runtime offers the delta to the checkpointer and,
        when its policy says a snapshot is due, charges the write on the
        simulated clock.  An armed checkpointer whose policy never fires
        adds no events, so the timeline stays bit-identical.

        ``registry`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
        arms metrics publication: batch/item/cache/fault counters, the
        in-flight-batch gauge and stage-latency histograms are sampled
        on the simulated clock.  Publishing never changes the event
        schedule, so the timeline is identical with or without one."""
        self.spec = spec
        self.dispatcher = dispatcher
        self.cpu_model = CpuModel(spec.cpu)
        self.gpu_model = GpuModel(spec.gpu)
        self.naive_port = naive_port
        if naive_port:
            max_batch_size = 1
            flush_interval = min(flush_interval, 1e-6)
            pipelined = False  # the strawman predates the pipeline
        self.pipelined = pipelined
        self.flush_interval = flush_interval
        self.max_batch_size = max_batch_size
        self.buffer_pool = PinnedBufferPool(spec.pcie)
        self.gpu_cache = GpuBlockCache(spec.gpu.ram_bytes)
        self.charge_setup = charge_setup and not naive_port
        self.tracer = tracer
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy or RetryPolicy()
        self.degraded_mode = degraded_mode
        self.rank = rank
        self.checkpointer = checkpointer
        self.registry = registry
        #: set per execute(): True only when registered faults exist
        self._chaos = False
        #: set when an execute() halts: the device cache keeps that
        #: run's open transfers, so the runtime cannot run again
        self._halted = False

    def _trace(
        self, category: str, label: str, start: float, end: float,
        batch: int = -1,
    ) -> None:
        if self.tracer is not None:
            self.tracer.record(category, label, start, end, batch)

    # -- structured happens-before log (consumed by repro.lint.trace_check) --------

    def _log_submit(self, item, at: float) -> None:
        if self.tracer is not None:
            self.tracer.log_submit(str(item.kind), id(item), at)

    def _log_flush(self, batch: Batch, at: float, index: int) -> None:
        if self.tracer is not None:
            self.tracer.log_flush(
                str(batch.kind), [id(it) for it in batch.items], at, index
            )

    def _log_begin_transfer(self, kind, block_keys, at: float,
                            batch: int = -1) -> None:
        if self.tracer is not None:
            self.tracer.log_begin_transfer(str(kind), block_keys, at, batch)

    def _log_block_transfer(self, block_keys, at: float,
                            batch: int = -1) -> None:
        if self.tracer is not None:
            self.tracer.log_block_transfer(block_keys, at, batch)

    def _log_gpu_compute(
        self, kind, block_keys, at: float, attempt: int = 0, batch: int = -1
    ) -> None:
        if self.tracer is not None:
            self.tracer.log_gpu_compute(
                str(kind), block_keys, at, attempt, batch
            )

    def _log_gpu_fault(self, kind, at: float, attempt: int, batch: int = -1) -> None:
        if self.tracer is not None:
            self.tracer.log_gpu_fault(str(kind), at, attempt, batch)

    def _log_accumulate(self, batch: Batch, at: float, attempt: int,
                        index: int = -1) -> None:
        if self.tracer is not None:
            self.tracer.log_accumulate(
                str(batch.kind), [id(it) for it in batch.items], at, attempt,
                index,
            )

    # -- transfer estimate used by the dispatcher's split --------------------------

    def _transfer_estimate(self, stats: BatchStats) -> float:
        bytes_in = stats.input_bytes + stats.unique_block_bytes
        return self.buffer_pool.plan(bytes_in).total_seconds

    # -- execution -----------------------------------------------------------------

    def _make_pools(self, env: Environment) -> _Pools:
        """The run's resources: multi-slot when pipelined, single-slot
        (fully serialised batches, half-duplex PCIe) otherwise."""
        if self.pipelined:
            return _Pools(
                compute=Resource(env, self.dispatcher.cpu_threads),
                gpu=Resource(env, self.dispatcher.gpu_streams),
                pcie_to=Resource(env, 1),
                pcie_from=Resource(env, 1),
                data=Resource(env, 1),
                admit=Resource(env, _ADMISSION_WINDOW),
                stage=Resource(env, self.buffer_pool.stage_slots),
            )
        pcie = Resource(env, 1)
        return _Pools(
            compute=Resource(env, 1),
            gpu=Resource(env, 1),
            pcie_to=pcie,
            pcie_from=pcie,  # half duplex: one link resource both ways
            data=Resource(env, 1),
            admit=Resource(env, 1),  # one batch at a time: no pipelining
            stage=None,
        )

    def execute(
        self, tasks: list[HybridTask], *, halt_at: float | None = None
    ) -> NodeTimeline:
        """Run the full pipeline over ``tasks``; returns the timeline.

        ``halt_at`` models a node crash at that simulated instant: the
        run stops mid-flight (in-flight batches abandoned, pending
        accumulates allowed) and the timeline's ``halted_at`` records
        the cut.  A run that finishes *before* ``halt_at`` is not
        halted — the crash missed the node.  Only the recovery protocol
        passes this; ordinary callers always run to completion.

        A halted runtime cannot run again: its device cache still holds
        the halted run's transfers as in flight, which nothing would
        ever commit.  The recovery protocol builds a fresh runtime per
        segment.

        Raises:
            RuntimeConfigError: an earlier ``execute`` of this runtime
                halted.
        """
        if self._halted:
            raise RuntimeConfigError(
                "runtime halted in an earlier execute; build a fresh one"
            )
        env = Environment()
        # armed only when faults are actually registered: an injector
        # with an empty schedule leaves every code path — and thus the
        # timeline — bit-identical to a run without one
        self._chaos = (
            self.fault_injector is not None and self.fault_injector.active
        )
        timeline = NodeTimeline(n_tasks=len(tasks))
        acc = BatchAccumulator(
            flush_interval=self.flush_interval, max_batch_size=self.max_batch_size
        )
        pools = self._make_pools(env)
        batch_events: list[Event] = []
        producer_done = env.event()
        wake_flusher = [env.event()]

        if self.charge_setup:
            timeline.setup_seconds = self.buffer_pool.setup_cost_seconds

        def dispatch(batch: Batch) -> None:
            index = timeline.n_batches
            self._log_flush(batch, env.now, index)
            timeline.n_batches += 1
            if self.registry is not None:
                self.registry.counter("runtime.batches_flushed").inc(env.now)
                self.registry.counter("runtime.items_flushed").inc(
                    env.now, batch.size
                )
            done = env.process(
                self._run_batch(env, batch, index, timeline, pools)
            )
            batch_events.append(done)

        def producer():
            if self.charge_setup and self.buffer_pool.setup_cost_seconds > 0:
                yield env.timeout(self.buffer_pool.setup_cost_seconds)
            for start in range(0, len(tasks), _PRE_CHUNK):
                chunk = tasks[start : start + _PRE_CHUNK]
                pre_bytes = sum(t.pre_bytes for t in chunk)
                dt = self.cpu_model.data_seconds(pre_bytes, len(chunk))
                dt /= _DATA_THREADS
                req = pools.data.request()
                yield req
                timeline.data_busy += dt
                t0 = env.now
                yield env.timeout(dt)
                self._trace("preprocess", f"chunk@{start}", t0, env.now)
                pools.data.release()
                for task in chunk:
                    item = task.run_preprocess()
                    if item.on_complete is None and task.postprocess is not None:
                        item.on_complete = task.postprocess
                    self._log_submit(item, env.now)
                    full = acc.submit(item, env.now)
                    if full is not None:
                        dispatch(full)
                    if not wake_flusher[0].triggered:
                        wake_flusher[0].succeed()
            producer_done.succeed()

        def flusher():
            while True:
                deadline = acc.next_deadline()
                if deadline is None:
                    if producer_done.triggered:
                        return
                    wake_flusher[0] = env.event()
                    yield wake_flusher[0]
                    continue
                now = env.now
                if deadline > now:
                    yield env.timeout(deadline - now)
                # "At this point there are multiple batches of compute
                # waiting to be executed (one batch per kind)" — the timer
                # flushes everything pending, which also guarantees
                # progress against floating-point deadline rounding.
                for batch in acc.flush(env.now):
                    dispatch(batch)

        env.process(producer())
        flush_proc = env.process(flusher())

        def finisher():
            yield producer_done
            yield flush_proc
            # drain anything still pending (end of operator: final flush)
            for batch in acc.flush(env.now):
                dispatch(batch)
            if batch_events:
                yield AllOf(env, batch_events)

        final = env.process(finisher())
        env.run(until=halt_at)
        # a crash only lands if the run was still in flight at halt_at;
        # a queue that drained earlier means the node finished first
        halted = halt_at is not None and not final.triggered
        if halted:
            self._halted = True
            timeline.halted_at = env.now
        timeline.total_seconds = env.now
        timeline.cpu_compute_busy = pools.compute.normalized_busy()
        timeline.gpu_busy = pools.gpu.normalized_busy()
        timeline.cpu_slot_seconds = pools.compute.busy_time()
        timeline.gpu_slot_seconds = pools.gpu.busy_time()
        timeline.pcie_to_busy = pools.pcie_to.busy_time()
        timeline.pcie_from_busy = (
            pools.pcie_from.busy_time() if pools.pcie_from is not pools.pcie_to
            else 0.0
        )
        timeline.pcie_busy = timeline.pcie_to_busy + timeline.pcie_from_busy
        batches = timeline.batches
        timeline.n_gpu_faults = sum(b.gpu_faults for b in batches)
        timeline.n_retries = sum(b.attempts - 1 for b in batches)
        timeline.n_fallback_items = sum(b.fallback_items for b in batches)
        timeline.retry_wait_seconds = sum(b.retry_wait_seconds for b in batches)
        if self.degraded_mode is not None:
            self.degraded_mode.finish(env.now)
            timeline.degraded_seconds = self.degraded_mode.degraded_seconds
        if acc.pending and not halted:
            raise RuntimeConfigError(
                f"runtime finished with {acc.pending} unflushed items"
            )
        return timeline

    # -- per-batch pipeline -----------------------------------------------------------

    def _run_batch(self, env, batch, index, timeline, pools):
        # admission window: plan only once a pipeline slot frees, so a
        # calibrating dispatcher plans this batch with the feedback of
        # the batches that already completed
        req = pools.admit.request()
        yield req
        if self.registry is not None:
            self.registry.gauge("runtime.inflight_batches").set(
                env.now, pools.admit.in_use
            )
        plan = self.dispatcher.plan(
            batch, transfer_estimator=self._transfer_estimate
        )
        timeline.est_cpu_only += plan.est_cpu_seconds
        timeline.est_gpu_only += plan.est_gpu_seconds
        timeline.n_cpu_items += len(plan.cpu_items)
        timeline.n_gpu_items += len(plan.gpu_items)
        rec = BatchMetrics(
            n_cpu_items=len(plan.cpu_items),
            n_gpu_items=len(plan.gpu_items),
            cpu_fraction=plan.cpu_fraction,
            gpu_scale=self.dispatcher.gpu_time_scale,
            dispatched_at=env.now,
        )
        # graceful degradation: a degraded node keeps the GPU share on
        # the host unless this batch is due to probe the GPU
        ctl = self.degraded_mode if self._chaos else None
        gpu_on_host = (
            ctl is not None and ctl.degraded and not ctl.should_probe(env.now)
        )
        parts = []
        if plan.cpu_items:
            parts.append(
                env.process(
                    self._cpu_share(
                        env, plan.cpu_items, plan.cpu_stats, timeline, pools,
                        rec, index,
                    )
                )
            )
        if plan.gpu_items and gpu_on_host:
            parts.append(
                env.process(
                    self._cpu_share(
                        env, plan.gpu_items, plan.gpu_stats, timeline, pools,
                        rec, index, fallback=True,
                    )
                )
            )
        elif plan.gpu_items:
            parts.append(
                env.process(
                    self._gpu_part(
                        env, batch.kind, plan.gpu_items, plan.gpu_stats,
                        timeline, pools, rec, index,
                    )
                )
            )
        if parts:
            yield AllOf(env, parts)
        pools.admit.release()
        rec.completed_at = env.now
        timeline.batches.append(rec)
        if self.registry is not None:
            self.registry.gauge("runtime.inflight_batches").set(
                env.now, pools.admit.in_use
            )
            self.registry.histogram("runtime.batch_seconds").observe(
                env.now, rec.completed_at - rec.dispatched_at
            )
        self._feed_back(plan, rec)
        # postprocess: accumulate results back into the tree (data threads)
        post_bytes = sum(it.output_bytes for it in batch.items)
        dt = self.cpu_model.data_seconds(post_bytes, len(batch.items))
        dt /= _DATA_THREADS
        req = pools.data.request()
        yield req
        timeline.data_busy += dt
        t0 = env.now
        yield env.timeout(dt)
        self._trace("postprocess", str(batch.kind), t0, env.now, index)
        self._log_accumulate(batch, env.now, rec.attempts - 1, index)
        if self.registry is not None:
            self.registry.counter("runtime.items_accumulated").inc(
                env.now, batch.size
            )
        pools.data.release()
        if self.checkpointer is not None:
            self.checkpointer.note_accumulate(
                (id(it), it.output_bytes) for it in batch.items
            )
            if self.checkpointer.due(env.now):
                yield from self._checkpoint_write(env, pools, timeline)

    def _checkpoint_write(self, env, pools, timeline):
        """Write one durable snapshot on the simulated clock.

        Serialization *and* the off-node drain occupy a data-thread
        slot: the snapshot leaves the node over the same NIC that
        ships results, so checkpoint traffic contends with the
        pre/postprocess pipeline rather than hiding behind it.  The
        delta is frozen at ``begin`` and committed only when the drain
        completes — a crash in between leaves no partial snapshot.
        """
        write_seconds = self.checkpointer.begin()
        if write_seconds is None:
            return
        t0 = env.now
        req = pools.data.request()
        yield req
        yield env.timeout(write_seconds)
        pools.data.release()
        checkpoint = self.checkpointer.commit(env.now)
        self._trace("checkpoint", f"seq {checkpoint.seq}", t0, env.now)
        if self.tracer is not None:
            self.tracer.log_checkpoint(
                checkpoint.seq, checkpoint.parent, checkpoint.item_ids, env.now
            )
        timeline.n_checkpoints += 1
        timeline.checkpoint_seconds += env.now - t0
        if self.registry is not None:
            self.registry.counter("recovery.checkpoints").inc(env.now)
            self.registry.histogram("recovery.checkpoint_seconds").observe(
                env.now, env.now - t0
            )

    def _feed_back(self, plan, rec: BatchMetrics) -> None:
        """Report measured batch durations to a calibrating dispatcher.

        Estimates passed back are the *raw* (unscaled) cost-model
        predictions for the dispatched shares, so the EWMA tracks
        model-vs-reality rather than chasing its own calibration.
        """
        observe = getattr(self.dispatcher, "observe", None)
        if observe is None:
            return
        raw_gpu_est = 0.0
        if plan.gpu_items:
            raw_gpu_est = self.dispatcher.gpu_share_seconds(
                plan.gpu_stats, self._transfer_estimate
            )
        observe(
            est_cpu_seconds=rec.measured_cpu_seconds,  # raw model == charge
            measured_cpu_seconds=rec.measured_cpu_seconds,
            est_gpu_seconds=raw_gpu_est,
            measured_gpu_seconds=rec.measured_gpu_side_seconds,
        )

    # -- pipeline stages ---------------------------------------------------------

    def _occupy_slices(self, env, resource, n_slices, seconds, category, label,
                       batch=-1) -> Event:
        """Charge ``seconds`` on ``n_slices`` concurrent slots of
        ``resource``; the returned event triggers once every slice has
        run.

        No process holds a slot.  The slices' requests go out together
        one event after the call; each grant's callback starts that
        slice's timeout, and the timeout's callback records the slice's
        span (``label [i/n]``) and releases the slot.  The last slice to
        end triggers the returned event two events later.  Every request,
        timeout, span, release and the caller's resumption thus falls at
        the place in the event order where one process per slice, joined
        by an ``AllOf``, put it.
        """
        n = max(1, min(n_slices, resource.capacity))
        done = env.event()
        left = n

        def end(name, t0, _value):
            nonlocal left
            self._trace(category, name, t0, env.now, batch)
            resource.release()
            left -= 1
            if not left:
                _after_one_event(env, done.succeed)

        def grant(name, _value):
            timeout = env.timeout(seconds)
            timeout.callbacks.append(partial(end, name, env.now))

        def request_all():
            for i in range(n):
                name = f"{label} [{i + 1}/{n}]" if n > 1 else label
                resource.request().callbacks.append(partial(grant, name))

        _after_one_event(env, request_all)
        return done

    def _cpu_share(self, env, items, stats, timeline, pools, rec, batch=-1,
                   fallback=False):
        """Run a share on the CPU compute pool and keep its results.

        The share is either the batch's planned CPU share or, with
        ``fallback``, its GPU share replayed on the CPU — the
        re-execution path of the resilience layer: items whose GPU share
        exhausted its retry budget or arrived while the node was
        degraded run here exactly once, and the postprocess accumulate
        happens once per batch regardless of how the compute share was
        (re)placed.
        """
        seconds = self.dispatcher.cpu_share_seconds(stats)
        if self._chaos:
            seconds *= self.fault_injector.compute_slowdown(self.rank, env.now)
        label = f"{len(items)} items"
        if fallback:
            label = f"fallback {label}"
        # one CPU compute task is single-threaded, so the share occupies
        # min(threads, items) slots — the kernel model already clamps its
        # duration the same way
        yield self._occupy_slices(
            env, pools.compute, min(self.dispatcher.cpu_threads, len(items)),
            seconds, "cpu", label, batch,
        )
        if fallback:
            rec.fallback_items += len(items)
            timeline.n_gpu_items -= len(items)
            timeline.n_cpu_items += len(items)
            if self.registry is not None:
                self.registry.counter("faults.fallback_items").inc(
                    env.now, len(items)
                )
        else:
            rec.measured_cpu_seconds = seconds
        self._run_numeric(self.dispatcher.cpu_kernel, items, timeline)

    def _gpu_part(self, env, kind, items, stats, timeline, pools, rec,
                  batch_index=0):
        """Ship a share's inputs and missing blocks, compute it on the
        GPU streams and drain its results."""
        # double-buffered staging: hold one aggregation buffer from
        # transfer start until the kernel has consumed it.  Acquired
        # *before* the cache reservation, so that the reservation and
        # the link request below fall in one step: blocks are reserved
        # in the order the FIFO link carries them, and a block this
        # share waits on (in flight for an earlier batch) is resident
        # when this share's own transfer ends.
        if pools.stage is not None:
            req = pools.stage.request()
            yield req
        ticket = None
        if self.naive_port:
            # no device cache: every block travels with its task, and
            # every tensor is a separate pageable transfer
            block_bytes = sum(it.block_bytes for it in items)
            plan_in = naive_transfer_plan(
                self.spec.pcie,
                [it.input_bytes + it.block_bytes for it in items],
                pin_each=False,
            )
            bytes_in = stats.input_bytes + block_bytes
        else:
            per_block = stats.unique_block_bytes / max(1, len(stats.block_keys))
            # two-phase write-once cache: reserve now, resident only when
            # the transfer completes — a concurrent batch sees in-flight
            # blocks as *waits*, not hits (the TOCTOU fix), and does not
            # ship them again
            ticket = self.gpu_cache.begin_transfer(stats.block_parts, per_block)
            self._log_begin_transfer(kind, stats.block_keys, env.now, batch_index)
            block_bytes = ticket.bytes_to_ship
            bytes_in = stats.input_bytes + block_bytes
            plan_in = self.buffer_pool.plan(bytes_in)
        req = pools.pcie_to.request()
        yield req
        t0 = env.now
        t_in = plan_in.total_seconds
        if self._chaos:
            # degraded link: remaining-bandwidth fraction stretches the charge
            t_in /= self.fault_injector.pcie_factor(self.rank, env.now)
        yield env.timeout(t_in)
        self._trace("pcie", "to device", t0, env.now, batch_index)
        pools.pcie_to.release()
        rec.transfer_in_seconds = t_in
        if ticket is not None:
            self.gpu_cache.commit_transfer(ticket)
            if ticket.ship_keys:
                self._log_block_transfer(ticket.ship_keys, env.now, batch_index)
            if self.registry is not None:
                reg = self.registry
                if ticket.ship_keys:
                    reg.counter("cache.blocks_shipped").inc(
                        env.now, len(ticket.ship_keys)
                    )
                if ticket.wait_keys:
                    reg.counter("cache.blocks_waited").inc(
                        env.now, len(ticket.wait_keys)
                    )
                if ticket.hit_keys:
                    reg.counter("cache.blocks_hit").inc(
                        env.now, len(ticket.hit_keys)
                    )
        timeline.bytes_to_gpu += bytes_in
        timeline.block_bytes_shipped += block_bytes

        # the read set only a tracer's gpu_compute record reads
        block_keys_read = (
            ticket.ship_keys + ticket.wait_keys + ticket.hit_keys
            if ticket is not None and self.tracer is not None
            else ()
        )
        gpu_ok = yield from self._gpu_compute_attempts(
            env, kind, items, pools, rec,
            self.dispatcher.gpu_share_seconds(stats), block_keys_read,
            batch_index,
        )
        if pools.stage is not None:
            pools.stage.release()
        if not gpu_ok:
            # retry budget exhausted (or the node degraded mid-batch):
            # the share replays on the CPU; no device→host drain happens
            yield from self._cpu_share(
                env, items, stats, timeline, pools, rec, batch_index,
                fallback=True,
            )
            return

        if self.naive_port:
            plan_out = naive_transfer_plan(
                self.spec.pcie, [it.output_bytes for it in items], pin_each=False
            )
        else:
            plan_out = self.buffer_pool.plan(stats.output_bytes)
        req = pools.pcie_from.request()
        yield req
        t0 = env.now
        t_out = plan_out.total_seconds
        if self._chaos:
            t_out /= self.fault_injector.pcie_factor(self.rank, env.now)
        yield env.timeout(t_out)
        self._trace("pcie", "from device", t0, env.now, batch_index)
        pools.pcie_from.release()
        rec.transfer_out_seconds = t_out
        timeline.bytes_from_gpu += stats.output_bytes
        self._run_numeric(self.dispatcher.gpu_kernel, items, timeline)

    def _gpu_compute_attempts(
        self, env, kind, items, pools, rec, compute_seconds, block_keys,
        batch_index,
    ):
        """GPU compute: attempt → fault? → backoff → retry.

        Each attempt is an independent seeded trial; a faulted attempt
        occupies its stream slots for the full compute time, is logged
        as ``gpu_fault``, and backs off per the retry policy before
        requeueing.  Each outcome reaches the degraded-mode controller
        with the batch's plan instant, so only a batch planned while the
        node was degraded counts as a probe.  Returns True when an
        attempt completed, False when the caller must replay the share
        CPU-side.  Operator blocks were committed at transfer time, so
        retries hit the write-once cache instead of re-shipping.  With
        no faults registered the first attempt completes, and no
        injector, retry or degraded-mode code runs.
        """
        inj = self.fault_injector if self._chaos else None
        ctl = self.degraded_mode if self._chaos else None
        n_slices = min(self.dispatcher.gpu_streams, len(items))
        attempt = 0
        while True:
            seconds = compute_seconds
            faulted = False
            if inj is not None:
                seconds *= inj.compute_slowdown(self.rank, env.now)
                faulted = inj.gpu_batch_fault(
                    self.rank, batch_index, attempt, env.now
                )
            label = f"{len(items)} items"
            if attempt:
                label += f" [try {attempt + 1}]"
            self._log_gpu_compute(kind, block_keys, env.now, attempt,
                                  batch_index)
            yield self._occupy_slices(
                env, pools.gpu, n_slices, seconds, "gpu", label, batch_index
            )
            rec.attempts = attempt + 1
            if not faulted:
                rec.measured_gpu_seconds = seconds
                if ctl is not None:
                    ctl.record_success(env.now, rec.dispatched_at)
                return True
            rec.gpu_faults += 1
            self._log_gpu_fault(kind, env.now, attempt, batch_index)
            if self.registry is not None:
                self.registry.counter("faults.gpu_faults").inc(env.now)
            if ctl is not None:
                ctl.record_fault(env.now, rec.dispatched_at)
            attempt += 1
            if attempt >= self.retry_policy.max_attempts or (
                ctl is not None and ctl.degraded
            ):
                return False
            wait = self.retry_policy.backoff_seconds(attempt, key=batch_index)
            if wait > 0:
                yield env.timeout(wait)
                rec.retry_wait_seconds += wait
                if self.registry is not None:
                    self.registry.histogram(
                        "faults.retry_backoff_seconds"
                    ).observe(env.now, wait)

    def _run_numeric(self, kernel: ComputeKernel, items, timeline) -> None:
        for item in items:
            if item.payload is None:
                continue
            result = kernel.run_item(item)
            if item.on_complete is not None:
                item.on_complete(result)
            elif timeline is not None:
                timeline.results.append((item, result))
