"""The crash → detect → restore → replay protocol.

:func:`run_with_recovery` drives one rank's task list through a
checkpoint-armed :class:`~repro.runtime.node.NodeRuntime`, replaying the
injector's seeded crash schedule:

1. the runtime executes until the next scheduled crash (``halt_at``);
   a run that drains first simply finishes — the crash missed;
2. survivors notice the silence after ``failure_detection_timeout``;
   every accumulate not covered by a durable snapshot is *rolled back*
   (logged so the trace checker can audit exactly-once accounting);
3. the newest readable snapshot is restored — corrupted snapshots are
   rejected at read time and the lineage chain is walked to an older
   ancestor, charging one read per rejected attempt; no readable
   ancestor means a from-scratch restart;
4. a fresh runtime replays the uncovered window on a new segment clock,
   offset onto the run's global timeline by :class:`~repro.runtime.
   trace.OffsetTracer`.

Crashes during recovery cascade (the next schedule entry simply halts
the replay segment too) and are bounded by ``max_restarts``; past the
budget the rank raises :class:`~repro.errors.DataLossError`.

Determinism: the schedule, the corruption draws, and every replay are
pure functions of the seeds, and results are delivered to their
``on_complete`` consumers exactly once *after* the run commits — so a
crashed-and-recovered run accumulates bit-identical results to a
fault-free one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DataLossError, RecoveryConfigError
from repro.recovery.checkpoint import (
    Checkpointer,
    CheckpointCostModel,
    CheckpointStore,
    _copy_result,
)
from repro.recovery.policy import CheckpointPolicy
from repro.runtime.node import NodeTimeline
from repro.runtime.trace import OffsetTracer, Tracer


@dataclass(frozen=True)
class RecoveryConfig:
    """Checkpoint/restart configuration for one run.

    Attributes:
        policy: interval policy deciding when snapshots are written.
        cost_model: what writes, reads and restarts cost.
        failure_detection_timeout: simulated seconds between a crash and
            the survivors noticing it (recovery cannot start earlier).
        max_restarts: restart budget; one more crash raises
            :class:`~repro.errors.DataLossError`.
    """

    policy: CheckpointPolicy
    cost_model: CheckpointCostModel = field(default_factory=CheckpointCostModel)
    failure_detection_timeout: float = 0.01
    max_restarts: int = 3

    def __post_init__(self) -> None:
        if not isinstance(self.policy, CheckpointPolicy):
            raise RecoveryConfigError(
                f"policy must be a CheckpointPolicy, got {self.policy!r}"
            )
        if self.failure_detection_timeout < 0:
            raise RecoveryConfigError(
                f"failure detection timeout must be >= 0, "
                f"got {self.failure_detection_timeout}"
            )
        if self.max_restarts < 0:
            raise RecoveryConfigError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )


@dataclass
class RecoveredRun:
    """Outcome of one rank's run under checkpoint/restart.

    Attributes:
        timeline: the merged whole-run timeline (busy times and counters
            summed over segments, ``total_seconds`` on the global clock
            including detection, restore and replay).
        restarts: crashes survived (0 = the schedule missed the rank).
        store: the rank's snapshot store, lineage included.
        segments: per-segment timelines, in execution order (one per
            restart plus the finishing segment).
    """

    timeline: NodeTimeline
    restarts: int
    store: CheckpointStore
    segments: list[NodeTimeline]


#: NodeTimeline float/int fields summed across recovery segments
_SUMMED_FIELDS = (
    "setup_seconds",
    "cpu_compute_busy",
    "gpu_busy",
    "cpu_slot_seconds",
    "gpu_slot_seconds",
    "pcie_busy",
    "pcie_to_busy",
    "pcie_from_busy",
    "data_busy",
    "n_batches",
    "n_cpu_items",
    "n_gpu_items",
    "bytes_to_gpu",
    "bytes_from_gpu",
    "block_bytes_shipped",
    "est_cpu_only",
    "est_gpu_only",
    "n_gpu_faults",
    "n_retries",
    "n_fallback_items",
    "retry_wait_seconds",
    "degraded_seconds",
    "n_checkpoints",
    "checkpoint_seconds",
)


def _merge_timelines(segments: list[NodeTimeline], n_tasks: int,
                     total_seconds: float) -> NodeTimeline:
    """One whole-run timeline from the per-segment ones."""
    merged = NodeTimeline(n_tasks=n_tasks)
    for seg in segments:
        for name in _SUMMED_FIELDS:
            setattr(merged, name, getattr(merged, name) + getattr(seg, name))
        merged.batches.extend(seg.batches)
    merged.total_seconds = total_seconds
    return merged


def run_with_recovery(
    runtime_factory,
    tasks,
    *,
    config: RecoveryConfig,
    rank: int = 0,
    injector=None,
    tracer: Tracer | None = None,
    registry=None,
) -> RecoveredRun:
    """Execute ``tasks`` on one rank under checkpoint/restart.

    Args:
        runtime_factory: zero-argument callable returning a *fresh*
            :class:`~repro.runtime.node.NodeRuntime` per segment (the
            restarted process re-initialises everything; a factory that
            reuses mutable policy state across segments is a bug).
        tasks: the rank's :class:`~repro.runtime.task.HybridTask` list;
            every task must carry a pre-built ``work`` item — replay
            needs stable item identity across segments.
        config: the checkpoint/restart configuration.
        rank: the rank id (keys crash schedules and corruption draws).
        injector: optional :class:`~repro.faults.injector.FaultInjector`
            supplying the crash schedule and corruption draws; None
            runs the protocol armed but crash-free.
        tracer: optional tracer collecting the run's happens-before log
            on one global clock (segments are offset-shifted onto it).
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            each segment publishes through a
            :meth:`~repro.obs.metrics.MetricsRegistry.shifted` view so
            samples land on the global timeline, and the protocol itself
            publishes restart/rollback/restore metrics.

    Returns:
        A :class:`RecoveredRun`.

    Raises:
        DataLossError: a crash exceeded ``max_restarts``.
        RecoveryConfigError: a task without a pre-built work item.
    """
    for t in tasks:
        if t.work is None:
            raise RecoveryConfigError(
                "recovery requires pre-built work items "
                "(HybridTask.work must be set): replay needs stable "
                "item identity across restarts"
            )
    schedule = injector.crash_times(rank) if injector is not None else ()
    sink: dict = {}
    store = CheckpointStore(rank=rank)
    checkpointer = Checkpointer(
        store,
        config.policy,
        config.cost_model,
        injector=injector,
        rank=rank,
        result_source=sink,
    )
    # intercept result delivery: every segment's results land in the
    # sink keyed by item identity; the original consumers see each
    # result exactly once, after the run commits
    originals: dict = {}
    delivery: dict = {}
    for t in tasks:
        item = t.work
        originals[id(item)] = item.on_complete
        delivery[id(item)] = (
            item.on_complete if item.on_complete is not None else t.postprocess
        )

    def _make_hook(item_id):
        def _hook(result):
            sink[item_id] = result

        return _hook

    wall = 0.0
    restarts = 0
    remaining = list(tasks)
    segments: list[NodeTimeline] = []
    n_restores = 0
    restore_seconds = 0.0
    n_rolled_back = 0
    n_replayed = 0
    try:
        for t in tasks:
            t.work.on_complete = _make_hook(id(t.work))
        batches_done = 0
        while True:
            rt = runtime_factory()
            if tracer is not None:
                rt.tracer = OffsetTracer(tracer, wall,
                                         batch_offset=batches_done)
            if registry is not None:
                rt.registry = registry.shifted(wall)
            rt.checkpointer = checkpointer
            checkpointer.reset_segment(clock_offset=wall)
            crash_at = next((c for c in schedule if c > wall), None)
            timeline = rt.execute(
                remaining,
                halt_at=None if crash_at is None else crash_at - wall,
            )
            segments.append(timeline)
            batches_done += int(timeline.n_batches)
            if timeline.halted_at is None:
                wall += timeline.total_seconds
                break
            crashed_wall = wall + timeline.halted_at
            restarts += 1
            if restarts > config.max_restarts:
                covered = store.covered_ids(store.frontier_seq)
                lost = sum(1 for t in tasks if id(t.work) not in covered)
                raise DataLossError(rank, restarts - 1, crashed_wall, lost)
            # survivors detect the crash, then restore the newest
            # readable snapshot (corrupted ones charge a read and are
            # walked past), then relaunch the rank; the rollback cancels
            # every accumulate recovery cannot keep
            detect_at = crashed_wall + config.failure_detection_timeout
            restored = store.restore(checkpointer.uncheckpointed_ids())
            restore_done = (
                detect_at
                + config.cost_model.restart_seconds
                + restored.read_seconds(config.cost_model)
            )
            rolled_ids = restored.rolled_ids
            covered = restored.covered
            if tracer is not None:
                tracer.log_rollback(restored.target, rolled_ids, detect_at)
                tracer.log_restore(
                    restored.target, restore_done,
                    tried=[ck.seq for ck in restored.tried],
                )
            # the sink mirrors durable state: drop rolled-back results,
            # reload covered ones from the snapshot copies
            for item_id in list(sink):
                if item_id not in covered:
                    del sink[item_id]
            for ck in store.lineage(restored.target):
                for item_id, result in ck.results:
                    sink[item_id] = _copy_result(result)
            n_restores += 1
            restore_seconds += restore_done - detect_at
            n_rolled_back += len(rolled_ids)
            n_replayed += sum(1 for i in rolled_ids if i not in covered)
            if registry is not None:
                registry.counter("recovery.restarts").inc(restore_done)
                registry.counter("recovery.rolled_back_items").inc(
                    detect_at, len(rolled_ids)
                )
                registry.histogram("recovery.restore_seconds").observe(
                    restore_done, restore_done - detect_at
                )
            remaining = [t for t in tasks if id(t.work) not in covered]
            wall = restore_done
    finally:
        for t in tasks:
            t.work.on_complete = originals[id(t.work)]

    merged = _merge_timelines(segments, len(tasks), wall)
    merged.n_restores = n_restores
    merged.restore_seconds = restore_seconds
    merged.n_rolled_back_items = n_rolled_back
    merged.n_replayed_items = n_replayed
    # commit: deliver each item's result to its consumer exactly once,
    # in task order (items without numeric payloads produce none)
    for t in tasks:
        item_id = id(t.work)
        if item_id not in sink:
            continue
        consumer = delivery[item_id]
        if consumer is not None:
            consumer(sink[item_id])
        else:
            merged.results.append((t.work, sink[item_id]))
    return RecoveredRun(
        timeline=merged, restarts=restarts, store=store, segments=segments
    )
