"""The complete paper system end to end: a distributed hybrid ``Apply``.

This composes every layer of the reproduction the way the real MADNESS
deployment does:

1. the input function's tree is sharded over the ranks by a process map
   (static load balancing);
2. each rank generates its *local* preprocess/compute/postprocess tasks
   (paper Algorithms 3-6) for the source nodes it owns;
3. each rank's tasks run through its own hybrid
   :class:`~repro.runtime.node.NodeRuntime` (batching, pinned buffers,
   write-once device cache, optimal-overlap dispatch) on simulated time;
4. result contributions whose destination box lives on another rank
   become accumulate *messages* (counted and costed by the network
   model), exactly the communication pattern of the distributed tree;
5. the result tree is assembled and summed down.

The numerics are real: the output equals the single-node reference
``Apply`` to screening tolerance, while the timing side reports per-rank
timelines, makespan and communication diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.load_balance import LoadImbalance, imbalance_metrics
from repro.cluster.network import NetworkModel
from repro.dht.distributed_tree import DistributedTree
from repro.dht.process_map import ProcessMap
from repro.errors import ClusterConfigError, OperatorError
from repro.mra.function import MultiresolutionFunction
from repro.operators.apply_batched import BatchedApply
from repro.operators.convolution import ApplyStats, GaussianConvolution, sum_down_ns
from repro.runtime.node import NodeTimeline


@dataclass
class DistributedApplyResult:
    """Outcome of one distributed hybrid Apply."""

    function: MultiresolutionFunction
    stats: ApplyStats
    makespan_seconds: float
    node_timelines: list[NodeTimeline] = field(repr=False)
    comm_seconds: list[float] = field(repr=False)
    #: max/mean of per-rank busy seconds (each rank's timeline span), as
    #: in :attr:`~repro.cluster.simulation.ClusterResult.imbalance`
    imbalance: LoadImbalance
    n_messages: int = 0
    message_bytes: int = 0

    @property
    def n_ranks(self) -> int:
        """Number of ranks that participated in the run."""
        return len(self.node_timelines)


class DistributedApply:
    """Hybrid ``Apply`` over a simulated multi-node partition.

    Args:
        op: the separated convolution operator.
        pmap: tree-node -> rank map for the *source* nodes (result
            accumulations are routed to the destination box's owner).
        runtime_factory: callable(rank) -> NodeRuntime, one per rank
            (fresh runtimes keep per-rank device caches separate).
        network: interconnect model for the accumulate messages.
    """

    def __init__(
        self,
        op: GaussianConvolution,
        pmap: ProcessMap,
        runtime_factory,
        *,
        network: NetworkModel | None = None,
    ):
        if pmap.n_ranks < 1:
            raise ClusterConfigError("need at least one rank")
        self.op = op
        self.pmap = pmap
        self.runtime_factory = runtime_factory
        self.network = network or NetworkModel()

    def apply(self, f: MultiresolutionFunction) -> DistributedApplyResult:
        """Run the distributed hybrid Apply on ``f`` end to end."""
        if (f.dim, f.k) != (self.op.dim, self.op.k):
            raise OperatorError(
                f"operator (dim={self.op.dim}, k={self.op.k}) cannot act on "
                f"function (dim={f.dim}, k={f.k})"
            )
        n_ranks = self.pmap.n_ranks
        stats = ApplyStats()
        src = f.copy()
        src.nonstandard()

        # The result lives in a distributed tree; postprocess closures
        # accumulate into it and the message log records remote writes.
        result_dist = DistributedTree(self.op.dim, self.pmap)

        # Generate every rank's local tasks.  BatchedApply's generator is
        # reused with a destination tree whose ensure_path/accumulate is
        # redirected through the distributed container.
        per_rank_tasks: list[list] = [[] for _ in range(n_ranks)]
        generator = BatchedApply(self.op, runtime=None)
        shim = _DistributedResultShim(result_dist)
        task_sources: list = []
        all_tasks = generator.generate_tasks(
            src, shim, stats, source_log=task_sources
        )
        if len(task_sources) != len(all_tasks):
            raise ClusterConfigError(
                "task/source bookkeeping mismatch: "
                f"{len(task_sources)} vs {len(all_tasks)}"
            )
        for key, task in zip(task_sources, all_tasks):
            per_rank_tasks[self.pmap.owner(key)].append((key, task))

        timelines: list[NodeTimeline] = []
        comm_seconds: list[float] = []
        for rank in range(n_ranks):
            shim.current_rank = rank
            tasks = [task for _key, task in per_rank_tasks[rank]]
            runtime = self.runtime_factory(rank)
            if tasks:
                timeline = runtime.execute(tasks)
            else:
                timeline = NodeTimeline(n_tasks=0)
            timelines.append(timeline)

        # communication drain per sender rank
        sent_bytes = [0] * n_ranks
        sent_msgs = [0] * n_ranks
        for (src_rank, _dst), count in result_dist.messages.by_pair.items():
            sent_msgs[src_rank] += count
        # bytes are tracked in aggregate; attribute proportionally
        total_msgs = max(1, result_dist.messages.n_messages)
        for rank in range(n_ranks):
            share = result_dist.messages.bytes_total * sent_msgs[rank] // total_msgs
            sent_bytes[rank] = share
            comm_seconds.append(
                self.network.drain_seconds(sent_msgs[rank], share)
            )

        makespan = max(
            t.total_seconds + c for t, c in zip(timelines, comm_seconds)
        )
        function = sum_down_ns(
            result_dist.gather(),
            dim=self.op.dim,
            k=self.op.k,
            filter_=self.op.filter,
            thresh=f.thresh,
            truncate_mode=f.truncate_mode,
        )
        return DistributedApplyResult(
            function=function,
            stats=stats,
            makespan_seconds=makespan,
            node_timelines=timelines,
            comm_seconds=comm_seconds,
            n_messages=result_dist.messages.n_messages,
            message_bytes=result_dist.messages.bytes_total,
            imbalance=imbalance_metrics([t.total_seconds for t in timelines]),
        )


class _DistributedResultShim:
    """Duck-typed FunctionTree façade routing accumulates through a
    :class:`DistributedTree` with message accounting.

    The batched-apply postprocess closures call
    ``tree.ensure_path(key).accumulate(tensor)``; this shim returns a
    proxy whose ``accumulate`` forwards to
    ``DistributedTree.accumulate(key, tensor, from_rank)``.
    """

    def __init__(self, dist: DistributedTree):
        self.dist = dist
        self.current_rank = 0

    def ensure_path(self, key):
        return _AccumulateProxy(self, key)


class _AccumulateProxy:
    __slots__ = ("shim", "key")

    def __init__(self, shim: _DistributedResultShim, key):
        self.shim = shim
        self.key = key

    def accumulate(self, tensor: np.ndarray) -> None:
        self.shim.dist.accumulate(self.key, tensor, self.shim.current_rank)
