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

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.apps.workloads import ClusterTask
from repro.cluster.load_balance import LoadImbalance, imbalance_metrics
from repro.cluster.network import NetworkModel
from repro.cluster.stealing import StealingConfig, StealingEngine
from repro.dht.process_map import ProcessMap
from repro.errors import ClusterConfigError
from repro.faults.injector import FaultInjector
from repro.faults.policies import GpuBatchTimeout, RetryPolicy
from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import NodeSpec, TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.cublas_gpu import CublasKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.recovery.protocol import RecoveryConfig, run_with_recovery
from repro.runtime.dispatcher import AdaptiveDispatcher, HybridDispatcher
from repro.runtime.node import NodeRuntime, NodeTimeline
from repro.runtime.task import HybridTask
from repro.runtime.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

GPU_KERNELS = ("custom", "cublas")


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
    #: always set by :meth:`ClusterSimulation.run`; Optional only so the
    #: dataclass can be built field-by-field in tests
    imbalance: LoadImbalance | None = None
    total_tasks: int = 0
    total_messages: int = 0
    total_message_bytes: int = 0
    #: accumulate messages the injector lost (each charged a retransmit)
    total_lost_messages: int = 0
    #: restarts summed over ranks (checkpoint/restart recovery only)
    total_restarts: int = 0
    #: DES events the scheduling run popped from the queue and fired
    #: (stealing mode only; pinned by BENCH_cluster.json)
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


class ClusterSimulation:
    """N hybrid nodes executing one ``Apply`` workload.

    Args:
        n_nodes: compute nodes in the partition.
        pmap: tree-node -> rank assignment (static load balancing).
        mode: "cpu", "gpu" or "hybrid" (per-batch optimal split).
        gpu_kernel: "custom" (the paper's fused kernel) or "cublas".
        cpu_threads / gpu_streams: per-node compute parallelism.
        rank_reduction: enable the CPU-side optimisation.
        node_spec: hardware of every node (defaults to Titan's).
        network: interconnect model.
        flush_interval / max_batch_size: batching runtime knobs (the
            paper's measurements use 60-task computation batches).
        stragglers: optional {rank: slowdown_factor} — those nodes run
            their compute that many times slower (thermal throttling,
            shared-service jitter; real Titan partitions had them).
        fault_injector: optional :class:`~repro.faults.injector.
            FaultInjector` — its :class:`~repro.faults.models.GpuFailure`
            models decide which ranks fall back to CPU-only dispatch,
            :class:`~repro.faults.models.NodeCrash` models kill ranks
            mid-run (requires ``recovery=``; the omniscient
            redistribution path was removed), and message-loss/-delay
            models are charged onto each rank's network drain.  The
            injector also rides along into every rank's node runtime, so
            transient GPU faults, PCIe degradations and stragglers fire
            inside the batching pipeline.
        retry_policy / gpu_timeout: per-rank resilience policies handed
            to every node runtime (only meaningful with a fault
            injector).
        pipelined: run each node's batches through the concurrent
            pipeline (default); ``False`` serialises batches per node.
        adaptive: use the feedback-calibrated
            :class:`~repro.runtime.dispatcher.AdaptiveDispatcher` on
            every rank instead of the static cost model.
        recovery: optional :class:`~repro.recovery.protocol.
            RecoveryConfig` — arms checkpoint/restart: when the injector
            schedules :class:`~repro.faults.models.NodeCrash` faults,
            every rank checkpoints per the config's policy and crashed
            ranks recover in place (detect → restore → deterministic
            replay).  Scheduled crashes *without* a recovery config
            raise :class:`ClusterConfigError`.  On the static path an
            armed config with no crashes scheduled costs nothing and
            the run is bit-identical to an unarmed one; under
            ``stealing=`` the checkpoint writes are always charged.
        stealing: optional :class:`~repro.cluster.stealing.
            StealingConfig` — replaces the fixed per-rank share with the
            open work-stealing scheduling loop (:mod:`repro.cluster.
            stealing`): the process map still decides *initial*
            placement and accumulate destinations, but idle ranks steal
            pending tasks from loaded ones over the network model.
            ``StealingConfig(enabled=False)`` runs the same chunked
            loop with stealing off (the fair static baseline).
            Composes with ``fault_injector``/``recovery``: crashed
            thieves re-home granted-but-unflushed tasks to their
            victims through the migration ledger and replay rolled-back
            work in place (see :mod:`repro.cluster.stealing`).
        rank_tracers: optional {rank: Tracer} — each listed rank's node
            runtime records its interval lanes and happens-before log
            into the given tracer (recovery segments are offset-shifted
            onto it), and the rank's network drain is appended as a
            ``network`` lane event so critical-path analysis sees the
            communication stage.
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`
            every rank publishes into (a cluster-wide aggregate view);
            the simulation adds its own ``cluster.*`` metrics.  Both
            observers are zero-cost when absent and perturb no
            timelines when armed.
    """

    def __init__(
        self,
        n_nodes: int,
        pmap: ProcessMap,
        *,
        mode: str = "hybrid",
        gpu_kernel: str = "custom",
        cpu_threads: int | None = None,
        gpu_streams: int = 5,
        data_threads: int = 2,
        rank_reduction: bool = False,
        node_spec: NodeSpec = TITAN_NODE,
        network: NetworkModel | None = None,
        flush_interval: float = 0.01,
        max_batch_size: int = 60,
        stragglers: dict[int, float] | None = None,
        fault_injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        gpu_timeout: GpuBatchTimeout | None = None,
        pipelined: bool = True,
        adaptive: bool = False,
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
        # paper defaults: CPU-only runs use all 16 cores; hybrid/GPU runs
        # keep threads back for data access and the dispatcher
        if cpu_threads is None:
            cpu_threads = node_spec.cpu.cores if mode == "cpu" else 10
        self.cpu_threads = cpu_threads
        self.gpu_streams = gpu_streams
        self.data_threads = data_threads
        self.rank_reduction = rank_reduction
        self.node_spec = node_spec
        self.network = network or NetworkModel()
        self.flush_interval = flush_interval
        self.max_batch_size = max_batch_size
        self.stragglers = dict(stragglers or {})
        if any(f <= 0 for f in self.stragglers.values()):
            raise ClusterConfigError(
                f"straggler slowdowns must be positive: {self.stragglers}"
            )
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        self.gpu_timeout = gpu_timeout
        self.pipelined = pipelined
        self.adaptive = adaptive
        self.recovery = recovery
        self.stealing = stealing
        self.rank_tracers = dict(rank_tracers or {})
        self.registry = registry
        #: per-(slowdown, gpu_failed, kind) calibrated seconds/task for
        #: the analytic stealing executor
        self._analytic_costs: dict[tuple, float] = {}
        #: per-(slowdown, gpu_failed, item shape) calibrated seconds/item
        #: for the serving batch executor (shape-keyed, not kind-keyed,
        #: so per-job kinds in the no-cross-job ablation share entries)
        self._serve_costs: dict[tuple, float] = {}

    # -- runtime assembly --------------------------------------------------------

    def _spec_for_rank(self, rank: int) -> NodeSpec:
        slowdown = self.stragglers.get(rank)
        if not slowdown or slowdown == 1.0:
            return self.node_spec
        cpu = replace(
            self.node_spec.cpu,
            mtxm_gflops_core=self.node_spec.cpu.mtxm_gflops_core / slowdown,
        )
        gpu = replace(
            self.node_spec.gpu,
            peak_dp_gflops=self.node_spec.gpu.peak_dp_gflops / slowdown,
        )
        return replace(self.node_spec, cpu=cpu, gpu=gpu)

    def _gpu_failed(self, rank: int) -> bool:
        inj = self.fault_injector
        return inj is not None and inj.gpu_permanently_failed(rank, 0.0)

    def _make_runtime(
        self,
        rank: int = 0,
        *,
        attach_observers: bool = True,
        charge_setup: bool = True,
    ) -> NodeRuntime:
        spec = self._spec_for_rank(rank)
        mode = self.mode
        gpu_failed = self._gpu_failed(rank)
        if gpu_failed and mode in ("gpu", "hybrid"):
            mode = "cpu"
        cpu_model = CpuModel(spec.cpu)
        gpu_model = GpuModel(spec.gpu)
        cpu_kernel = CpuMtxmKernel(cpu_model, rank_reduction=self.rank_reduction)
        if self.gpu_kernel_name == "custom":
            gpu_kernel = CustomGpuKernel(gpu_model)
        else:
            gpu_kernel = CublasKernel(gpu_model)
        threads = self.cpu_threads
        if gpu_failed and self.mode != "cpu":
            # the fallback node has its full CPU available for compute
            threads = spec.cpu.cores
        if self.adaptive and mode == "hybrid":
            dispatcher = AdaptiveDispatcher(
                cpu_kernel,
                gpu_kernel,
                cpu_threads=threads,
                gpu_streams=self.gpu_streams,
            )
        else:
            dispatcher = HybridDispatcher(
                cpu_kernel,
                gpu_kernel,
                cpu_threads=threads,
                gpu_streams=self.gpu_streams,
                mode=mode,
            )
        return NodeRuntime(
            spec,
            dispatcher,
            data_threads=self.data_threads,
            flush_interval=self.flush_interval,
            max_batch_size=self.max_batch_size,
            charge_setup=charge_setup,
            pipelined=self.pipelined,
            fault_injector=self.fault_injector,
            retry_policy=self.retry_policy,
            gpu_timeout=self.gpu_timeout,
            rank=rank,
            # the recovery protocol attaches offset-shifted observers
            # itself, one per segment
            tracer=self.rank_tracers.get(rank) if attach_observers else None,
            registry=self.registry if attach_observers else None,
        )

    # -- the run ---------------------------------------------------------------------

    @staticmethod
    def _hybrid_task(t: ClusterTask) -> HybridTask:
        """One cluster task as runtime batch input.

        Preprocess copies the input tensor into the aggregation buffer;
        the operator blocks are cache *lookups* (the write-once CPU
        cache), charged as per-block bookkeeping.
        """
        return HybridTask(
            work=t.item,
            pre_bytes=t.item.input_bytes + 64 * len(t.item.block_keys),
            post_bytes=t.item.output_bytes,
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
            hybrid_tasks.append(self._hybrid_task(t))
            if self.pmap.owner(t.neighbor) != rank:
                n_messages += 1
                message_bytes += t.item.output_bytes
        return hybrid_tasks, n_messages, message_bytes

    # -- work stealing ---------------------------------------------------------------

    def _chunk_seconds_runtime(
        self, rank: int, chunk: list[ClusterTask]
    ) -> float:
        """Exact chunk cost: execute it on a fresh thief-side runtime.

        The migrated tasks run on the *thief's* node runtime (its spec,
        its dispatcher) — the tentpole contract; setup is not re-charged
        per chunk (buffers were pinned when the node booted).
        """
        runtime = self._make_runtime(
            rank, attach_observers=False, charge_setup=False
        )
        return runtime.execute(
            [self._hybrid_task(t) for t in chunk]
        ).total_seconds

    def _chunk_seconds_analytic(
        self, rank: int, chunk: list[ClusterTask]
    ) -> float:
        """Calibrated chunk cost for multi-thousand-rank sweeps.

        Per (node spec, task kind) the cost of one chunk-sized batch is
        measured once on a real runtime and cached as seconds/task; a
        chunk then prices as the sum of its tasks' calibrated costs.
        Deterministic: the calibration run is itself a seeded
        simulation.
        """
        total = 0.0
        size = self.stealing.chunk_size if self.stealing else len(chunk)
        # the rank-dependent key prefix is loop-invariant: hoist it so
        # the per-task cost is one dict probe on the multi-thousand-rank
        # sweeps (this is the stealing engine's innermost loop)
        slowdown = self.stragglers.get(rank, 1.0)
        gpu_failed = self._gpu_failed(rank)
        costs = self._analytic_costs
        for t in chunk:
            key = (slowdown, gpu_failed, str(t.item.kind))
            per_task = costs.get(key)
            if per_task is None:
                runtime = self._make_runtime(
                    rank, attach_observers=False, charge_setup=False
                )
                batch = [self._hybrid_task(t)] * max(1, size)
                per_task = runtime.execute(batch).total_seconds / max(1, size)
                costs[key] = per_task
            total += per_task
        return total

    # -- open-loop serving -----------------------------------------------------------

    _SERVE_CALIBRATION_BATCH = 8

    def serve_batch_seconds(self, rank: int, items: list) -> float:
        """Calibrated serving batch cost on one rank.

        Per (node spec, item shape) the cost of one calibration-sized
        batch is measured once on a real :class:`NodeRuntime` and
        cached as seconds/item; a serving batch then prices as the sum
        of its items' calibrated costs.  The cache keys on the item
        *shape* (compute name, Formula 1 quantities, tensor bytes)
        rather than the full :class:`TaskKind`, so the no-cross-job
        ablation's per-job kinds reuse one entry.  Deterministic: the
        calibration run is itself a seeded simulation.
        """
        size = self._SERVE_CALIBRATION_BATCH
        total = 0.0
        for item in items:
            key = (
                self.stragglers.get(rank, 1.0),
                self._gpu_failed(rank),
                item.kind.compute_name,
                item.steps,
                item.step_rows,
                item.step_q,
                item.input_bytes,
            )
            per_item = self._serve_costs.get(key)
            if per_item is None:
                runtime = self._make_runtime(
                    rank, attach_observers=False, charge_setup=False
                )
                batch = [
                    HybridTask(
                        work=item,
                        pre_bytes=item.input_bytes,
                        post_bytes=item.output_bytes,
                    )
                ] * size
                per_item = runtime.execute(batch).total_seconds / size
                self._serve_costs[key] = per_item
            total += per_item
        return total

    def serve(self, requests, config=None):
        """Open-loop entry: run a job service against this cluster.

        ``requests`` is a list of :class:`repro.serve.arrivals.
        JobRequest` (from any arrival process); ``config`` a
        :class:`repro.serve.service.ServeConfig`.  The service prices
        every dispatched batch through :meth:`serve_batch_seconds`
        (this cluster's node specs, stragglers and failed GPUs) and —
        when a :class:`~repro.serve.autoscaler.AutoscalerConfig` is
        set — resizes the simulated rank pool beyond ``n_nodes``
        (``_spec_for_rank`` prices any rank id).  This cluster's
        ``fault_injector`` is threaded through the worker pool: node
        crashes and GPU faults on serving ranks requeue the dead
        batch's jobs (original deadlines kept, per-job retry budgets)
        and the autoscaler replaces the lost capacity — see
        docs/SERVING.md ("Fault tolerance").  Observers ride the
        driver's slots: rank 0's tracer carries the serving ledger and
        ``self.registry`` the ``serve.*`` metrics.
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
        executor = (
            self._chunk_seconds_runtime
            if cfg.executor == "runtime"
            else self._chunk_seconds_analytic
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
        inj = self.fault_injector
        total_lost = 0
        node_results: list[NodeResult] = []
        for rank in range(self.n_nodes):
            timeline = NodeTimeline(
                total_seconds=outcome.finish_seconds[rank],
                cpu_compute_busy=outcome.busy_seconds[rank],
                n_tasks=outcome.n_executed[rank],
                n_batches=outcome.n_chunks[rank],
            )
            # off-node accumulates (accumulate-back included) drain
            # asynchronously, exactly like the static path
            comm = self.network.drain_seconds(
                outcome.n_messages[rank], outcome.message_bytes[rank]
            )
            n_msg = outcome.n_messages[rank]
            if inj is not None and inj.active and n_msg:
                # message loss/delay charge exactly like the static path
                lost, delay = inj.message_faults(rank, n_msg)
                if lost:
                    avg_bytes = outcome.message_bytes[rank] / n_msg
                    comm += self.network.drain_seconds(
                        lost, int(lost * avg_bytes)
                    )
                    total_lost += lost
                    if self.registry is not None:
                        self.registry.counter("cluster.lost_messages").inc(
                            timeline.total_seconds, lost
                        )
                comm += delay
            tracer = self.rank_tracers.get(rank)
            if tracer is not None and comm > 0:
                tracer.record(
                    "network", "drain",
                    timeline.total_seconds, timeline.total_seconds + comm,
                )
            if self.registry is not None and outcome.n_messages[rank]:
                self.registry.counter("cluster.messages").inc(
                    timeline.total_seconds, outcome.n_messages[rank]
                )
            rank_restarts = (
                outcome.restarts_per_rank[rank]
                if rank < len(outcome.restarts_per_rank)
                else 0
            )
            node_results.append(
                NodeResult(
                    rank=rank,
                    n_tasks=outcome.n_executed[rank],
                    timeline=timeline,
                    comm_seconds=comm,
                    n_messages=outcome.n_messages[rank],
                    message_bytes=outcome.message_bytes[rank],
                    crashed_at=(
                        self.fault_injector.crash_time(rank)
                        if rank_restarts and self.fault_injector is not None
                        else None
                    ),
                    restarts=rank_restarts,
                )
            )
        makespan = max(r.total_seconds for r in node_results)
        if self.registry is not None:
            self.registry.gauge("cluster.makespan_seconds").set(
                makespan, makespan
            )
        # stealing rebalances *time*, so imbalance is measured on busy
        # seconds (task counts no longer proxy load once tasks migrate)
        return ClusterResult(
            n_nodes=self.n_nodes,
            mode=self.mode,
            makespan_seconds=makespan,
            node_results=node_results,
            imbalance=imbalance_metrics(list(outcome.busy_seconds)),
            total_tasks=len(tasks),
            total_messages=sum(outcome.n_messages),
            total_message_bytes=sum(outcome.message_bytes),
            total_lost_messages=total_lost,
            total_restarts=sum(outcome.restarts_per_rank),
            total_events=outcome.n_events,
        )

    def run(self, tasks: list[ClusterTask]) -> ClusterResult:
        """Execute the workload; returns makespan and diagnostics."""
        if self.stealing is not None:
            return self._run_stealing(tasks)
        per_rank: list[list[ClusterTask]] = [[] for _ in range(self.n_nodes)]
        for task in tasks:
            per_rank[self.pmap.owner(task.key)].append(task)
        inj = self.fault_injector
        crash_schedule: dict[int, tuple[float, ...]] = {}
        if inj is not None and inj.active:
            crash_schedule = {
                r: times
                for r in range(self.n_nodes)
                if (times := inj.crash_times(r))
            }
        use_recovery = self.recovery is not None and bool(crash_schedule)
        if crash_schedule and not use_recovery:
            raise ClusterConfigError(
                "NodeCrash faults require recovery=RecoveryConfig(...): "
                "the omniscient redistribution path (perfect foresight of "
                "the crash schedule) was removed; see docs/FAULTS.md"
            )

        node_results: list[NodeResult] = []
        total_messages = 0
        total_message_bytes = 0
        total_lost = 0
        for rank, rank_tasks in enumerate(per_rank):
            hybrid_tasks, n_messages, message_bytes = self._hybrid_tasks(
                rank, rank_tasks
            )
            restarts = 0
            if hybrid_tasks and use_recovery:
                # every rank checkpoints once crashes are scheduled
                # anywhere; crashed ranks restore and replay in place
                recovered = run_with_recovery(
                    lambda r=rank: self._make_runtime(
                        r, attach_observers=False
                    ),
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
            comm = self.network.drain_seconds(n_messages, message_bytes)
            if restarts and n_messages and hybrid_tasks:
                # replayed items re-send their off-node accumulates
                frac = timeline.n_replayed_items / len(hybrid_tasks)
                comm += self.network.drain_seconds(
                    int(n_messages * frac), int(message_bytes * frac)
                )
            if inj is not None and inj.active and n_messages:
                lost, delay = inj.message_faults(rank, n_messages)
                if lost:
                    # each lost accumulate is retransmitted once
                    avg_bytes = message_bytes / n_messages
                    comm += self.network.drain_seconds(
                        lost, int(lost * avg_bytes)
                    )
                    total_lost += lost
                    if self.registry is not None:
                        self.registry.counter("cluster.lost_messages").inc(
                            timeline.total_seconds, lost
                        )
                comm += delay
            tracer = self.rank_tracers.get(rank)
            if tracer is not None and comm > 0:
                # the un-hidden accumulate drain trails the rank's local
                # work; exposing it as a lane lets critical-path analysis
                # attribute communication-bound runs to the network stage
                tracer.record(
                    "network", "drain",
                    timeline.total_seconds, timeline.total_seconds + comm,
                )
            if self.registry is not None:
                reg = self.registry
                if n_messages:
                    reg.counter("cluster.messages").inc(
                        timeline.total_seconds, n_messages
                    )
                if comm > 0:
                    reg.histogram("cluster.comm_seconds").observe(
                        timeline.total_seconds, comm
                    )
                if restarts:
                    reg.counter("cluster.restarts").inc(
                        timeline.total_seconds, restarts
                    )
            node_results.append(
                NodeResult(
                    rank=rank,
                    n_tasks=len(rank_tasks),
                    timeline=timeline,
                    comm_seconds=comm,
                    n_messages=n_messages,
                    message_bytes=message_bytes,
                    crashed_at=(
                        crash_schedule[rank][0] if restarts else None
                    ),
                    restarts=restarts,
                )
            )
            total_messages += n_messages
            total_message_bytes += message_bytes

        makespan = max(r.total_seconds for r in node_results)
        if self.registry is not None:
            self.registry.gauge("cluster.makespan_seconds").set(
                makespan, makespan
            )
        imbalance = imbalance_metrics([float(r.n_tasks) for r in node_results])
        return ClusterResult(
            n_nodes=self.n_nodes,
            mode=self.mode,
            makespan_seconds=makespan,
            node_results=node_results,
            imbalance=imbalance,
            total_tasks=len(tasks),
            total_messages=total_messages,
            total_message_bytes=total_message_bytes,
            total_lost_messages=total_lost,
            total_restarts=sum(r.restarts for r in node_results),
        )
