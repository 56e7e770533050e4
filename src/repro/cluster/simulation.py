"""The cluster simulation driving the paper's scaling tables.

``ClusterSimulation.run`` takes a workload (a stream of
:class:`~repro.apps.workloads.ClusterTask`), assigns every task to its
owner rank through the process map, executes each rank's share on a full
:class:`~repro.runtime.node.NodeRuntime` (simulated time), accounts
inter-rank accumulate messages, and reports the makespan with
load-balance and communication diagnostics.

Nodes run independently — the paper's Apply has no cross-node compute
dependency inside one operator application; only the result
accumulations cross ranks, and those are asynchronous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.apps.workloads import ClusterTask
from repro.cluster.load_balance import LoadImbalance, imbalance_metrics
from repro.cluster.network import NetworkModel
from repro.cluster.stealing import StealingConfig, StealingEngine
from repro.dht.process_map import ProcessMap
from repro.errors import ClusterConfigError
from repro.faults.injector import FaultInjector
from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.cublas_gpu import CublasKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.recovery.protocol import RecoveryConfig, run_with_recovery
from repro.runtime.dispatcher import HybridDispatcher
from repro.runtime.node import NodeRuntime, NodeTimeline
from repro.runtime.task import HybridTask, WorkItem
from repro.runtime.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

GPU_KERNELS = ("custom", "cublas")

#: the paper's per-node GPU parallelism (one M2090, 5 CUDA streams)
_GPU_STREAMS = 5

#: compute threads of a GPU or hybrid node: the paper keeps 6 of
#: Titan's 16 cores back for data access and the dispatcher
_HYBRID_CPU_THREADS = 10


@dataclass
class NodeResult:
    """One rank's outcome."""

    rank: int
    n_tasks: int
    timeline: NodeTimeline
    comm_seconds: float
    n_messages: int
    message_bytes: int
    #: simulated instant the rank (first) crashed (None = survived);
    #: under checkpoint/restart the rank recovered in place
    crashed_at: float | None = None
    #: restarts the rank survived under checkpoint/restart recovery
    restarts: int = 0

    @property
    def total_seconds(self) -> float:
        """The rank's compute makespan plus its network drain."""
        return self.timeline.total_seconds + self.comm_seconds


@dataclass
class ClusterResult:
    """Outcome of one cluster run."""

    n_nodes: int
    mode: str
    makespan_seconds: float
    node_results: list[NodeResult] = field(repr=False)
    #: max/mean of per-rank busy seconds on both paths: a static rank's
    #: busy time is its timeline span, a stealing rank's the seconds it
    #: spent executing chunks (steal waits and checkpoints excluded)
    imbalance: LoadImbalance
    total_tasks: int = 0
    total_messages: int = 0
    total_message_bytes: int = 0
    #: accumulate messages the injector lost (each charged a retransmit)
    total_lost_messages: int = 0
    #: restarts summed over ranks (checkpoint/restart recovery only)
    total_restarts: int = 0
    #: DES events the scheduling run popped from the queue and fired
    #: (pinned by BENCH_cluster.json); 0 on the static path, whose
    #: ranks run on their own node-runtime clocks
    total_events: int = 0

    @property
    def comm_fraction(self) -> float:
        """Largest per-node share of un-hidden communication time."""
        if not self.node_results:
            return 0.0
        return max(
            (r.comm_seconds / r.total_seconds if r.total_seconds else 0.0)
            for r in self.node_results
        )


class _RankRow(NamedTuple):
    """One rank's execution, before its accumulate drain is charged."""

    timeline: NodeTimeline
    n_messages: int
    message_bytes: int
    restarts: int
    #: the rank's load for :attr:`ClusterResult.imbalance`
    busy_seconds: float


class ClusterSimulation:
    """N Titan nodes executing one ``Apply`` workload.

    Every rank is a :data:`~repro.hardware.specs.TITAN_NODE` on the
    default :class:`~repro.cluster.network.NetworkModel` with the
    paper's per-node parallelism: 5 GPU streams, and 16 compute threads
    in ``cpu`` mode or 10 otherwise (:attr:`cpu_threads`).

    Args:
        n_nodes: compute nodes in the partition.
        pmap: tree-node -> rank assignment (static load balancing).
        mode: "cpu", "gpu" or "hybrid" (per-batch optimal split).
        gpu_kernel: "custom" (the paper's fused kernel) or "cublas".
        rank_reduction: enable the CPU-side optimisation.
        flush_interval / max_batch_size: batching runtime knobs (the
            paper's measurements use 60-task computation batches).
        fault_injector: optional :class:`~repro.faults.injector.
            FaultInjector`.  A permanent
            :class:`~repro.faults.models.GpuFailure` makes its rank
            dispatch CPU-only; :class:`~repro.faults.models.NodeCrash`
            faults require ``recovery=``; message faults are charged
            onto each rank's network drain; a
            :class:`~repro.faults.models.StragglerNode` slows its rank.
            docs/FAULTS.md says which component charges which fault.
        recovery: optional :class:`~repro.recovery.protocol.
            RecoveryConfig` arming checkpoint/restart: every rank
            checkpoints per the config's policy and crashed ranks
            recover in place (detect → restore → replay).  On the
            static path an armed config with no crashes scheduled costs
            nothing; under ``stealing=`` the writes are always charged.
        stealing: optional :class:`~repro.cluster.stealing.
            StealingConfig` replacing the fixed per-rank share with the
            open work-stealing loop (:mod:`repro.cluster.stealing`); the
            process map still decides initial placement and accumulate
            destinations.
        rank_tracers: optional {rank: Tracer} recording each listed
            rank's interval lanes and happens-before log, plus its
            network drain as a ``network`` lane event.
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`
            every rank publishes into, plus the ``cluster.*`` metrics.
            Both observers perturb no timelines.
    """

    def __init__(
        self,
        n_nodes: int,
        pmap: ProcessMap,
        *,
        mode: str = "hybrid",
        gpu_kernel: str = "custom",
        rank_reduction: bool = False,
        flush_interval: float = 0.01,
        max_batch_size: int = 60,
        fault_injector: FaultInjector | None = None,
        recovery: RecoveryConfig | None = None,
        stealing: StealingConfig | None = None,
        rank_tracers: dict[int, Tracer] | None = None,
        registry: "MetricsRegistry | None" = None,
    ):
        if n_nodes < 1:
            raise ClusterConfigError(f"need at least one node, got {n_nodes}")
        if pmap.n_ranks != n_nodes:
            raise ClusterConfigError(
                f"process map covers {pmap.n_ranks} ranks but the cluster has "
                f"{n_nodes} nodes"
            )
        if gpu_kernel not in GPU_KERNELS:
            raise ClusterConfigError(f"unknown gpu kernel {gpu_kernel!r}")
        self.n_nodes = n_nodes
        self.pmap = pmap
        self.mode = mode
        self.gpu_kernel_name = gpu_kernel
        self.cpu_threads = (
            TITAN_NODE.cpu.cores if mode == "cpu" else _HYBRID_CPU_THREADS
        )
        self.rank_reduction = rank_reduction
        self.network = NetworkModel()
        self.flush_interval = flush_interval
        self.max_batch_size = max_batch_size
        self.fault_injector = fault_injector
        self.recovery = recovery
        self.stealing = stealing
        self.rank_tracers = dict(rank_tracers or {})
        self.registry = registry
        #: calibrated seconds/item per (gpu_failed, batch size, item cost
        #: fields); see :meth:`_calibrated_seconds`
        self._calibration: dict[tuple, float] = {}

    # -- runtime assembly --------------------------------------------------------

    def _gpu_failed(self, rank: int) -> bool:
        inj = self.fault_injector
        return inj is not None and inj.gpu_permanently_failed(rank, 0.0)

    def _make_runtime(self, rank: int = 0, *, pricing: bool = False) -> NodeRuntime:
        """Rank ``rank``'s node runtime.

        A ``pricing`` runtime prices stealing chunks and serving
        batches: no observers, no set-up charge (buffers were pinned
        when the node booted) and no fault injector, so a price depends
        on the item shape and the rank's GPU state only, never on which
        rank calibrated it first.  The stealing engine and the job
        service charge stragglers on top of the price when the work
        runs.
        """
        mode = self.mode
        threads = self.cpu_threads
        if mode != "cpu" and self._gpu_failed(rank):
            # the fallback node has its full CPU available for compute
            mode = "cpu"
            threads = TITAN_NODE.cpu.cores
        cpu_kernel = CpuMtxmKernel(
            CpuModel(TITAN_NODE.cpu), rank_reduction=self.rank_reduction
        )
        gpu_model = GpuModel(TITAN_NODE.gpu)
        if self.gpu_kernel_name == "custom":
            gpu_kernel = CustomGpuKernel(gpu_model)
        else:
            gpu_kernel = CublasKernel(gpu_model)
        dispatcher = HybridDispatcher(
            cpu_kernel,
            gpu_kernel,
            cpu_threads=threads,
            gpu_streams=_GPU_STREAMS,
            mode=mode,
        )
        return NodeRuntime(
            TITAN_NODE,
            dispatcher,
            flush_interval=self.flush_interval,
            max_batch_size=self.max_batch_size,
            charge_setup=not pricing,
            fault_injector=None if pricing else self.fault_injector,
            rank=rank,
            tracer=None if pricing else self.rank_tracers.get(rank),
            registry=None if pricing else self.registry,
        )

    # -- the run ---------------------------------------------------------------------

    @staticmethod
    def _hybrid_task(item: WorkItem) -> HybridTask:
        """One work item as runtime batch input.

        Preprocess copies the input tensor into the aggregation buffer;
        the operator blocks are cache *lookups* (the write-once CPU
        cache), charged as per-block bookkeeping.
        """
        return HybridTask(
            work=item,
            pre_bytes=item.input_bytes + 64 * len(item.block_keys),
            post_bytes=item.output_bytes,
        )

    def _hybrid_tasks(
        self, rank: int, rank_tasks: list[ClusterTask]
    ) -> tuple[list[HybridTask], int, int]:
        """Build a rank's runtime batch input and count its off-node
        accumulate messages; returns (tasks, n_messages, message_bytes)."""
        n_messages = 0
        message_bytes = 0
        hybrid_tasks: list[HybridTask] = []
        for t in rank_tasks:
            hybrid_tasks.append(self._hybrid_task(t.item))
            if self.pmap.owner(t.neighbor) != rank:
                n_messages += 1
                message_bytes += t.item.output_bytes
        return hybrid_tasks, n_messages, message_bytes

    # -- work stealing ---------------------------------------------------------------

    def _chunk_seconds_runtime(
        self, rank: int, chunk: list[ClusterTask]
    ) -> float:
        """Exact chunk cost: execute it on a fresh thief-side pricing
        runtime (the migrated tasks run on the *thief's* node)."""
        runtime = self._make_runtime(rank, pricing=True)
        return runtime.execute(
            [self._hybrid_task(t.item) for t in chunk]
        ).total_seconds

    # -- calibrated pricing ----------------------------------------------------------

    def _calibrated_seconds(
        self, rank: int, items: list[WorkItem], batch: int
    ) -> float:
        """Calibrated cost of ``items`` on ``rank``.

        Per (GPU state, batch size, item shape) the cost of one
        ``batch``-sized batch of the item is measured once on a fresh
        pricing runtime and cached as seconds/item; ``items`` then
        price as the sum of their calibrated costs.  The key is the
        item's cost fields, not its :class:`TaskKind`: one tree level
        mixes screened ranks (different ``steps``) under one kind, and
        the no-cross-job serving ablation gives equal shapes per-job
        kinds.  Deterministic: the calibration run is itself a seeded
        simulation.
        """
        gpu_failed = self._gpu_failed(rank)
        costs = self._calibration
        total = 0.0
        for item in items:
            key = (
                gpu_failed,
                batch,
                item.flops,
                item.input_bytes,
                item.output_bytes,
                len(item.block_keys),
                item.block_bytes,
                item.steps,
                item.step_rows,
                item.step_q,
            )
            per_item = costs.get(key)
            if per_item is None:
                runtime = self._make_runtime(rank, pricing=True)
                timeline = runtime.execute([self._hybrid_task(item)] * batch)
                per_item = costs[key] = timeline.total_seconds / batch
            total += per_item
        return total

    # -- open-loop serving -----------------------------------------------------------

    _SERVE_CALIBRATION_BATCH = 8

    def serve_batch_seconds(self, rank: int, items: list[WorkItem]) -> float:
        """Calibrated serving batch cost on one rank (see
        :meth:`_calibrated_seconds`)."""
        return self._calibrated_seconds(
            rank, items, self._SERVE_CALIBRATION_BATCH
        )

    def serve(self, requests, config=None):
        """Open-loop entry: run a job service against this cluster.

        ``requests`` is a list of :class:`repro.serve.arrivals.
        JobRequest`; ``config`` a :class:`repro.serve.service.
        ServeConfig`.  The service prices every dispatched batch through
        :meth:`serve_batch_seconds` (any rank id, so an autoscaler may
        grow the pool beyond ``n_nodes``) and charges this cluster's
        ``fault_injector`` per batch: crashes and GPU faults requeue the
        batch's jobs, stragglers stretch it (docs/SERVING.md).  Rank 0's
        tracer carries the serving ledger and ``self.registry`` the
        ``serve.*`` metrics.
        """
        from repro.serve.service import JobService

        service = JobService(
            n_ranks=self.n_nodes,
            batch_seconds=self.serve_batch_seconds,
            config=config,
            tracer=self.rank_tracers.get(0),
            registry=self.registry,
            fault_injector=self.fault_injector,
        )
        return service.run(requests)

    def _run_stealing(self, tasks: list[ClusterTask]) -> ClusterResult:
        """Execute the workload under the open work-stealing loop."""
        cfg = self.stealing
        if cfg.executor == "runtime":
            executor = self._chunk_seconds_runtime
        else:
            def executor(rank: int, chunk: list[ClusterTask]) -> float:
                return self._calibrated_seconds(
                    rank, [t.item for t in chunk], cfg.chunk_size
                )
        engine = StealingEngine(
            self.pmap,
            self.network,
            cfg,
            executor,
            rank_tracers=self.rank_tracers,
            registry=self.registry,
            injector=self.fault_injector,
            recovery=self.recovery,
        )
        outcome = engine.run(tasks)
        rows = [
            _RankRow(
                NodeTimeline(
                    total_seconds=outcome.finish_seconds[rank],
                    cpu_compute_busy=outcome.busy_seconds[rank],
                    n_tasks=outcome.n_executed[rank],
                    n_batches=outcome.n_chunks[rank],
                ),
                outcome.n_messages[rank],
                outcome.message_bytes[rank],
                outcome.restarts_per_rank[rank],
                outcome.busy_seconds[rank],
            )
            for rank in range(self.n_nodes)
        ]
        return self._finalize(rows, len(tasks), outcome.n_events)

    def run(self, tasks: list[ClusterTask]) -> ClusterResult:
        """Execute the workload; returns makespan and diagnostics."""
        if self.stealing is not None:
            return self._run_stealing(tasks)
        per_rank: list[list[ClusterTask]] = [[] for _ in range(self.n_nodes)]
        for task in tasks:
            per_rank[self.pmap.owner(task.key)].append(task)
        inj = self.fault_injector
        crashes = inj is not None and any(
            inj.crash_times(r) for r in range(self.n_nodes)
        )
        if crashes and self.recovery is None:
            raise ClusterConfigError(
                "NodeCrash faults require recovery=RecoveryConfig(...): "
                "the omniscient redistribution path (perfect foresight of "
                "the crash schedule) was removed; see docs/FAULTS.md"
            )
        rows: list[_RankRow] = []
        for rank, rank_tasks in enumerate(per_rank):
            hybrid_tasks, n_messages, message_bytes = self._hybrid_tasks(
                rank, rank_tasks
            )
            restarts = 0
            if hybrid_tasks and crashes:
                # every rank checkpoints once crashes are scheduled
                # anywhere; crashed ranks restore and replay in place,
                # each segment's runtime with offset-shifted observers
                recovered = run_with_recovery(
                    lambda r=rank: self._make_runtime(r),
                    hybrid_tasks,
                    config=self.recovery,
                    rank=rank,
                    injector=inj,
                    tracer=self.rank_tracers.get(rank),
                    registry=self.registry,
                )
                timeline = recovered.timeline
                restarts = recovered.restarts
            elif hybrid_tasks:
                timeline = self._make_runtime(rank).execute(hybrid_tasks)
            else:
                timeline = NodeTimeline(n_tasks=0)
            rows.append(
                _RankRow(
                    timeline, n_messages, message_bytes, restarts,
                    timeline.total_seconds,
                )
            )
        return self._finalize(rows, len(tasks))

    def _finalize(
        self, rows: list[_RankRow], total_tasks: int, total_events: int = 0
    ) -> ClusterResult:
        """Charge each rank's accumulate drain, record its ``network``
        lane and the ``cluster.*`` metrics, and assemble the result.

        Off-node accumulates drain asynchronously after the rank's local
        work.  On top of the clean drain a rank pays for items a restart
        replayed (they re-send their accumulates) and for injected
        message faults (each lost message is retransmitted once, delays
        stall the drain).
        """
        inj = self.fault_injector
        reg = self.registry
        node_results: list[NodeResult] = []
        total_lost = 0
        for rank, row in enumerate(rows):
            timeline = row.timeline
            n_messages, message_bytes = row.n_messages, row.message_bytes
            end = timeline.total_seconds
            comm = self.network.drain_seconds(n_messages, message_bytes)
            if timeline.n_replayed_items and n_messages:
                frac = timeline.n_replayed_items / timeline.n_tasks
                comm += self.network.drain_seconds(
                    int(n_messages * frac), int(message_bytes * frac)
                )
            if inj is not None and inj.active and n_messages:
                lost, delay = inj.message_faults(rank, n_messages)
                if lost:
                    avg_bytes = message_bytes / n_messages
                    comm += self.network.drain_seconds(
                        lost, int(lost * avg_bytes)
                    )
                    total_lost += lost
                    if reg is not None:
                        reg.counter("cluster.lost_messages").inc(end, lost)
                comm += delay
            tracer = self.rank_tracers.get(rank)
            if tracer is not None and comm > 0:
                # exposing the un-hidden drain as a lane lets
                # critical-path analysis attribute communication-bound
                # runs to the network stage
                tracer.record("network", "drain", end, end + comm)
            if reg is not None:
                if n_messages:
                    reg.counter("cluster.messages").inc(end, n_messages)
                if comm > 0:
                    reg.histogram("cluster.comm_seconds").observe(end, comm)
            node_results.append(
                NodeResult(
                    rank=rank,
                    n_tasks=timeline.n_tasks,
                    timeline=timeline,
                    comm_seconds=comm,
                    n_messages=n_messages,
                    message_bytes=message_bytes,
                    crashed_at=(
                        inj.crash_time(rank)
                        if row.restarts and inj is not None
                        else None
                    ),
                    restarts=row.restarts,
                )
            )
        makespan = max(r.total_seconds for r in node_results)
        if reg is not None:
            reg.gauge("cluster.makespan_seconds").set(makespan, makespan)
        return ClusterResult(
            n_nodes=self.n_nodes,
            mode=self.mode,
            makespan_seconds=makespan,
            node_results=node_results,
            imbalance=imbalance_metrics([row.busy_seconds for row in rows]),
            total_tasks=total_tasks,
            total_messages=sum(row.n_messages for row in rows),
            total_message_bytes=sum(row.message_bytes for row in rows),
            total_lost_messages=total_lost,
            total_restarts=sum(row.restarts for row in rows),
            total_events=total_events,
        )
