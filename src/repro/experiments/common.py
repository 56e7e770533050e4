"""Shared builders for the experiment runners."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.reporting import ReportTable
from repro.apps.coulomb import probe_item
from repro.apps.workloads import SyntheticApplyWorkload
from repro.cluster.simulation import ClusterSimulation
from repro.dht.process_map import CostPartitionMap, HashProcessMap
from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.cublas_gpu import CublasKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.runtime.dispatcher import AdaptiveDispatcher, HybridDispatcher
from repro.runtime.node import NodeRuntime
from repro.runtime.task import HybridTask


@dataclass
class ExperimentResult:
    """One regenerated table/figure: the report plus its raw data."""

    name: str
    table: ReportTable
    data: dict = field(default_factory=dict)
    #: supporting tables rendered after the headline one (e.g. the
    #: per-configuration critical paths of a profiling run)
    extra_tables: list[ReportTable] = field(default_factory=list)

    def print(self) -> None:  # noqa: A003
        """Render the result table(s) to stdout."""
        self.table.print()
        for extra in self.extra_tables:
            extra.print()


def scaled(n_tasks: int, scale: float) -> int:
    """Scale a workload size, keeping a sane floor."""
    return max(100, int(n_tasks * scale))


def make_runtime(
    mode: str,
    *,
    cpu_threads: int = 10,
    gpu_streams: int = 5,
    gpu_kernel: str = "custom",
    flush_interval: float = 0.01,
    max_batch_size: int = 60,
    naive_port: bool = False,
    pipelined: bool = True,
    adaptive: bool = False,
    gpu_scale: float = 1.0,
    fault_injector=None,
    retry_policy=None,
    degraded_mode=None,
    tracer=None,
    registry=None,
) -> NodeRuntime:
    """A Titan-node runtime with the given dispatch configuration.

    ``adaptive=True`` swaps in the feedback-calibrated
    :class:`~repro.runtime.dispatcher.AdaptiveDispatcher` (only
    meaningful with ``mode="hybrid"``); ``gpu_scale`` sets its initial —
    possibly deliberately miscalibrated — GPU cost-model multiplier.
    The ``fault_injector``/``retry_policy``/``degraded_mode`` knobs arm
    the :mod:`repro.faults` resilience layer (chaos experiments); ``tracer``/``registry`` arm
    the :mod:`repro.obs` observers (profiling experiments).
    """
    cpu = CpuMtxmKernel(CpuModel(TITAN_NODE.cpu))
    gm = GpuModel(TITAN_NODE.gpu)
    gpu = CustomGpuKernel(gm) if gpu_kernel == "custom" else CublasKernel(gm)
    if adaptive:
        dispatcher = AdaptiveDispatcher(
            cpu,
            gpu,
            cpu_threads=cpu_threads,
            gpu_streams=gpu_streams,
            gpu_scale=gpu_scale,
        )
    else:
        dispatcher = HybridDispatcher(
            cpu, gpu, cpu_threads=cpu_threads, gpu_streams=gpu_streams, mode=mode
        )
    return NodeRuntime(
        TITAN_NODE,
        dispatcher,
        flush_interval=flush_interval,
        max_batch_size=max_batch_size,
        naive_port=naive_port,
        pipelined=pipelined,
        fault_injector=fault_injector,
        retry_policy=retry_policy,
        degraded_mode=degraded_mode,
        tracer=tracer,
        registry=registry,
    )


def single_node_tasks(n: int, *, dim: int = 3, k: int = 10, rank: int = 100):
    """Cost-only Coulomb-shaped tasks for single-node experiments."""
    item = probe_item(dim, k, rank)
    return [
        HybridTask(
            work=item, pre_bytes=item.input_bytes, post_bytes=item.output_bytes
        )
        for _ in range(n)
    ]


def cost_pmap(workload: SyntheticApplyWorkload, nodes: int, target_chunks: int):
    """The MADNESS-style cost-partition map for a workload."""
    weights = {
        key: float(count)
        for key, count in Counter(t.key for t in workload.tasks).items()
    }
    return CostPartitionMap.from_weights(nodes, weights, target_chunks=target_chunks)


def run_cluster(
    workload: SyntheticApplyWorkload,
    nodes: int,
    *,
    mode: str,
    gpu_kernel: str = "custom",
    rank_reduction: bool = False,
    pmap=None,
    flush_interval: float = 0.01,
):
    """One cluster run of a workload (even hash map by default)."""
    pmap = pmap if pmap is not None else HashProcessMap(nodes)
    sim = ClusterSimulation(
        nodes,
        pmap,
        mode=mode,
        gpu_kernel=gpu_kernel,
        rank_reduction=rank_reduction,
        flush_interval=flush_interval,
    )
    return sim.run(workload.tasks)
