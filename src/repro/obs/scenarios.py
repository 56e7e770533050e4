"""Canonical seeded scenarios for the golden-trace harness and the CLI.

Each scenario is a small, fully deterministic simulated run with
tracing and metrics armed, frozen into a :class:`~repro.obs.dump.
RunDump`.  They are the fixtures the golden-trace regression suite
compares against committed JSON, and the runnable inputs of
``python -m repro.obs`` (``record``/``export``/``critical-path``/
``summary`` accept a scenario name wherever they accept a dump path):

- ``serialized`` — the one-batch-at-a-time baseline runtime;
- ``pipelined``  — the same workload through the concurrent pipeline
  (the pair reproduces the paper's pipeline-ablation conclusion);
- ``faulty``     — transient GPU faults with retry/backoff;
- ``checkpoint`` — checkpoint/restart across an injected node crash;
- ``cluster``    — a two-rank cluster run with network drain lanes and
  cross-rank metric aggregation;
- ``stealing``   — a five-rank skewed-tree run under the work-stealing
  scheduler (steal request/grant/deny and migration records, dump
  schema v3);
- ``serving``    — an open-loop multi-tenant serving run under a bursty
  arrival trace (arrive/admit/shed/deadline_miss/scale records, dump
  schema v4) with admission control, cross-job batching and the
  reactive autoscaler all engaged;
- ``chaos-sched`` — the stealing run composed with crash/restart
  recovery: a thief rank dies holding stolen work, its unflushed
  grants re-home to the victim (``rehome`` records, dump schema v5),
  its uncovered tail rolls back, and the restored rank replays from
  its last durable snapshot.

Scenario workloads build **distinct** :class:`~repro.runtime.task.
WorkItem` objects per task (never a shared probe item) so the
happens-before log has one identity per item and canonicalizes to
stable ``w<n>`` names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.workloads import SyntheticApplyWorkload
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.stealing import StealingConfig
from repro.dht.process_map import HashProcessMap, SubtreePartitionMap
from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.models import GpuFailure, NodeCrash
from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.obs.dump import RunDump, capture_rank, timeline_summary
from repro.obs.metrics import MetricsRegistry
from repro.recovery.checkpoint import CheckpointCostModel
from repro.recovery.policy import EveryNBatches
from repro.recovery.protocol import RecoveryConfig, run_with_recovery
from repro.runtime.dispatcher import HybridDispatcher
from repro.runtime.node import NodeRuntime
from repro.runtime.task import HybridTask, TaskKind, WorkItem
from repro.runtime.trace import Tracer
from repro.serve.admission import AdmissionConfig
from repro.serve.arrivals import BurstyArrivals
from repro.serve.autoscaler import AutoscalerConfig
from repro.serve.jobs import SloClass
from repro.serve.service import ServeConfig


class ScenarioError(ReproError, ValueError):
    """An unknown scenario name."""


@dataclass
class ScenarioRun:
    """One executed scenario: its dump plus headline numbers."""

    name: str
    dump: RunDump
    makespan: float
    extras: dict = field(default_factory=dict)


def canonical_tasks(n: int) -> list[HybridTask]:
    """The scenarios' irregular workload: ``n`` distinct cost-only
    tasks interleaving two Coulomb-shaped kinds (k=12/rank=100 and
    k=20/rank=60, the pipeline ablation's mix) so consecutive batches
    carry very different weights and block keys are shared within a
    kind (the write-once cache path).  Serialized, the run is CPU-bound
    on the critical path; pipelined, the same workload is GPU-bound —
    the overlap story the paper's ablation tells."""
    tasks = []
    for i in range(n):
        if i % 2 == 0:
            k, rank = 12, 100
        else:
            k, rank = 20, 60
        q, dim = 2 * k, 3
        steps = rank * dim
        rows = q ** (dim - 1)
        item = WorkItem(
            kind=TaskKind("integral_compute", (dim, q)),
            flops=steps * 2 * rows * q * q,
            input_bytes=q**dim * 8,
            output_bytes=q**dim * 8,
            block_keys=tuple(((k, i % 4), mu) for mu in range(rank)),
            block_bytes=rank * q * q * 8,
            steps=steps,
            step_rows=rows,
            step_q=q,
        )
        tasks.append(
            HybridTask(
                work=item,
                pre_bytes=item.input_bytes,
                post_bytes=item.output_bytes,
            )
        )
    return tasks


def _node_runtime(**kwargs) -> NodeRuntime:
    """A hybrid Titan-node runtime with the scenarios' fixed knobs."""
    cpu = CpuMtxmKernel(CpuModel(TITAN_NODE.cpu))
    gpu = CustomGpuKernel(GpuModel(TITAN_NODE.gpu))
    dispatcher = HybridDispatcher(
        cpu, gpu, cpu_threads=10, gpu_streams=5, mode="hybrid"
    )
    return NodeRuntime(
        TITAN_NODE,
        dispatcher,
        flush_interval=0.01,
        max_batch_size=10,
        **kwargs,
    )


def _single_node(name: str, *, pipelined: bool,
                 injector: FaultInjector | None = None) -> ScenarioRun:
    tracer = Tracer()
    registry = MetricsRegistry()
    runtime = _node_runtime(
        pipelined=pipelined,
        tracer=tracer,
        registry=registry,
        fault_injector=injector,
    )
    timeline = runtime.execute(canonical_tasks(48))
    dump = RunDump(
        meta={"scenario": name, "n_tasks": timeline.n_tasks},
        ranks=[capture_rank(0, tracer, timeline_summary(timeline))],
        registry=registry,
    )
    return ScenarioRun(name=name, dump=dump, makespan=timeline.total_seconds)


def run_serialized() -> ScenarioRun:
    """The one-batch-at-a-time baseline on the canonical workload."""
    return _single_node("serialized", pipelined=False)


def run_pipelined() -> ScenarioRun:
    """The concurrent pipeline on the canonical workload."""
    return _single_node("pipelined", pipelined=True)


def run_faulty() -> ScenarioRun:
    """Transient GPU faults (35% per attempt) with retry/backoff."""
    injector = FaultInjector(seed=7, faults=[GpuFailure(rate=0.35)])
    return _single_node("faulty", pipelined=True, injector=injector)


def run_checkpoint() -> ScenarioRun:
    """Checkpoint/restart across one injected node crash.

    The rank snapshots every two batches and crashes mid-run; the
    dump's trace covers both segments on the global clock (rollback,
    restore and replay records included).
    """
    tracer = Tracer()
    registry = MetricsRegistry()
    tasks = canonical_tasks(48)
    injector = FaultInjector(seed=11, faults=[NodeCrash(rank=0, at=0.2)])
    config = RecoveryConfig(
        policy=EveryNBatches(2),
        failure_detection_timeout=0.005,
        max_restarts=3,
    )
    recovered = run_with_recovery(
        lambda: _node_runtime(pipelined=True),
        tasks,
        config=config,
        rank=0,
        injector=injector,
        tracer=tracer,
        registry=registry,
    )
    timeline = recovered.timeline
    dump = RunDump(
        meta={
            "scenario": "checkpoint",
            "n_tasks": timeline.n_tasks,
            "restarts": recovered.restarts,
        },
        ranks=[capture_rank(0, tracer, timeline_summary(timeline))],
        registry=registry,
    )
    return ScenarioRun(
        name="checkpoint",
        dump=dump,
        makespan=timeline.total_seconds,
        extras={"restarts": recovered.restarts},
    )


def run_cluster() -> ScenarioRun:
    """A two-rank cluster run: per-rank lanes, network drain events,
    and metrics aggregated across ranks."""
    workload = SyntheticApplyWorkload(
        dim=3, k=6, rank=30, n_tasks=48, n_tree_leaves=16, seed=5
    )
    tracers = {0: Tracer(), 1: Tracer()}
    registry = MetricsRegistry()
    sim = ClusterSimulation(
        2,
        HashProcessMap(2),
        mode="hybrid",
        flush_interval=0.005,
        max_batch_size=8,
        rank_tracers=tracers,
        registry=registry,
    )
    result = sim.run(workload.tasks)
    dump = RunDump(
        meta={"scenario": "cluster", "n_tasks": result.total_tasks},
        ranks=[
            capture_rank(
                rank,
                tracers[rank],
                timeline_summary(result.node_results[rank].timeline),
            )
            for rank in sorted(tracers)
        ],
        registry=registry,
    )
    return ScenarioRun(
        name="cluster", dump=dump, makespan=result.makespan_seconds
    )


def run_stealing() -> ScenarioRun:
    """A five-rank skewed-tree run under the work-stealing scheduler.

    The subtree partition concentrates the skewed tree's tasks on few
    ranks; the idle ranks steal, so the dump exercises the full v3
    protocol vocabulary: ``steal_request`` / ``steal_grant`` /
    ``steal_deny`` / ``migrate`` records, ``network``/``steal`` lanes,
    and the ``cluster.steal.*`` metrics.
    """
    workload = SyntheticApplyWorkload(
        dim=3, k=6, rank=30, n_tasks=48, n_tree_leaves=12, seed=9, skew=4.0
    )
    tracers = {rank: Tracer() for rank in range(5)}
    registry = MetricsRegistry()
    sim = ClusterSimulation(
        5,
        SubtreePartitionMap(5, anchor_level=1),
        mode="hybrid",
        flush_interval=0.005,
        max_batch_size=8,
        rank_tracers=tracers,
        registry=registry,
        stealing=StealingConfig(
            chunk_size=3, min_victim_queue=2, executor="runtime"
        ),
    )
    result = sim.run(workload.tasks)
    dump = RunDump(
        meta={"scenario": "stealing", "n_tasks": result.total_tasks},
        ranks=[
            capture_rank(
                rank,
                tracers[rank],
                timeline_summary(result.node_results[rank].timeline),
            )
            for rank in sorted(tracers)
        ],
        registry=registry,
    )
    return ScenarioRun(
        name="stealing", dump=dump, makespan=result.makespan_seconds
    )


def run_chaos_sched() -> ScenarioRun:
    """The stealing run composed with crash/restart recovery.

    Same skewed five-rank tree as ``stealing``, with checkpointing
    armed on every rank and a thief killed shortly after it wins a
    grant: the crash re-homes its unflushed stolen tasks to the
    victim's durable queue (``rehome`` records), rolls back the
    uncovered accumulate tail, and replays from the last snapshot — so
    the dump exercises the full v5 chaos vocabulary
    (steal/migrate/rehome/checkpoint/rollback/restore) on one
    deterministic trace.
    """
    workload = SyntheticApplyWorkload(
        dim=3, k=6, rank=30, n_tasks=48, n_tree_leaves=12, seed=9, skew=4.0
    )
    tracers = {rank: Tracer() for rank in range(5)}
    registry = MetricsRegistry()
    sim = ClusterSimulation(
        5,
        SubtreePartitionMap(5, anchor_level=1),
        mode="hybrid",
        flush_interval=0.005,
        max_batch_size=8,
        rank_tracers=tracers,
        registry=registry,
        stealing=StealingConfig(
            chunk_size=3, min_victim_queue=2, executor="runtime"
        ),
        fault_injector=FaultInjector(
            seed=17, faults=[NodeCrash(rank=4, at=0.007)]
        ),
        recovery=RecoveryConfig(
            policy=EveryNBatches(2),
            cost_model=CheckpointCostModel(
                drain_gbps=4.0, restart_seconds=1e-3
            ),
            failure_detection_timeout=1e-3,
            max_restarts=3,
        ),
    )
    result = sim.run(workload.tasks)
    rehomed = sum(
        1
        for rank in sorted(tracers)
        for rec in tracers[rank].log
        if rec.op == "rehome"
    )
    dump = RunDump(
        meta={
            "scenario": "chaos-sched",
            "n_tasks": result.total_tasks,
            "restarts": result.total_restarts,
        },
        ranks=[
            capture_rank(
                rank,
                tracers[rank],
                timeline_summary(result.node_results[rank].timeline),
            )
            for rank in sorted(tracers)
        ],
        registry=registry,
    )
    return ScenarioRun(
        name="chaos-sched",
        dump=dump,
        makespan=result.makespan_seconds,
        extras={
            "restarts": result.total_restarts,
            "rehome_records": rehomed,
        },
    )


def run_serving() -> ScenarioRun:
    """An open-loop multi-tenant serving run under a bursty trace.

    Two calibrated Titan ranks serve three tenants through the full
    front door: per-tenant token buckets shed part of each burst
    (``shed`` records), tight interactive deadlines miss under the
    burst backlog (``deadline_miss``), and the reactive autoscaler
    grows the pool mid-burst (``scale``) — so the dump exercises the
    complete v4 serving vocabulary on top of the per-batch
    submit/flush/accumulate ledger.
    """
    tracer = Tracer()
    registry = MetricsRegistry()
    sim = ClusterSimulation(
        2,
        HashProcessMap(2),
        mode="hybrid",
        rank_tracers={0: tracer},
        registry=registry,
    )
    arrivals = BurstyArrivals(
        rate=3.0,
        burst_rate=30.0,
        period=2.0,
        burst_fraction=0.3,
        horizon=4.0,
        n_tenants=3,
        seed=13,
    )
    config = ServeConfig(
        classes=(
            SloClass("interactive", 0, 0.02),
            SloClass("standard", 1, 0.5),
            SloClass("batch", 2, 2.0),
        ),
        admission=AdmissionConfig(
            tenant_rate=3.0, tenant_burst=3.0, max_queue_items=96
        ),
        autoscaler=AutoscalerConfig(
            min_ranks=1,
            max_ranks=4,
            interval=0.2,
            high_water=0.05,
            low_water=0.01,
            cooldown=0.3,
        ),
        max_batch_size=8,
    )
    result = sim.serve(arrivals.requests(), config)
    summary = {
        "n_jobs": result.n_arrived,
        "n_admitted": result.n_admitted,
        "n_shed": result.n_shed,
        "n_completed": result.n_completed,
        "n_on_time": result.n_on_time,
        "n_batches": result.n_batches,
        "final_pool": result.final_pool,
        "pool_peak": result.pool_peak,
        "total_seconds": result.makespan,
    }
    dump = RunDump(
        meta={"scenario": "serving", "n_jobs": result.n_arrived},
        ranks=[capture_rank(0, tracer, summary)],
        registry=registry,
    )
    return ScenarioRun(
        name="serving",
        dump=dump,
        makespan=result.makespan,
        extras={"goodput": result.goodput},
    )


#: every canonical scenario, by name (stable ordering)
SCENARIOS = {
    "serialized": run_serialized,
    "pipelined": run_pipelined,
    "faulty": run_faulty,
    "checkpoint": run_checkpoint,
    "cluster": run_cluster,
    "stealing": run_stealing,
    "serving": run_serving,
    "chaos-sched": run_chaos_sched,
}


def run_scenario(name: str) -> ScenarioRun:
    """Execute one canonical scenario by name."""
    runner = SCENARIOS.get(name)
    if runner is None:
        raise ScenarioError(
            f"unknown scenario {name!r}; pick one of {sorted(SCENARIOS)}"
        )
    return runner()
