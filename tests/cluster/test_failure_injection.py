"""Failure/heterogeneity injection: stragglers and failed GPUs."""

import pytest

from repro.apps.workloads import SyntheticApplyWorkload
from repro.cluster.simulation import ClusterSimulation
from repro.dht.process_map import HashProcessMap
from repro.errors import ClusterConfigError
from repro.faults.injector import FaultInjector
from repro.faults.models import GpuFailure


@pytest.fixture(scope="module")
def workload():
    return SyntheticApplyWorkload(
        dim=3, k=10, rank=60, n_tasks=2000, n_tree_leaves=256, seed=5
    )


def run(workload, nodes=4, **kwargs):
    return ClusterSimulation(nodes, HashProcessMap(nodes), **kwargs).run(
        workload.tasks
    )


def failed_gpu(rank):
    """An injector whose one fault is a permanent GPU loss on ``rank``."""
    return FaultInjector(faults=[GpuFailure(rank=rank, permanent=True)])


def test_straggler_slows_makespan(workload):
    clean = run(workload, mode="gpu").makespan_seconds
    slowed = run(workload, mode="gpu", stragglers={0: 3.0}).makespan_seconds
    # with an even map the straggler holds ~1/4 of the work at 1/3 speed
    assert 2.0 < slowed / clean < 3.4


def test_straggler_only_affects_its_rank(workload):
    res = run(workload, mode="gpu", stragglers={0: 3.0})
    slow = res.node_results[0].timeline.total_seconds
    fast = res.node_results[1].timeline.total_seconds
    assert slow > 2.0 * fast


def test_unit_slowdown_is_identity(workload):
    clean = run(workload, mode="gpu").makespan_seconds
    unit = run(workload, mode="gpu", stragglers={0: 1.0}).makespan_seconds
    assert clean == pytest.approx(unit)


def test_invalid_straggler_rejected(workload):
    with pytest.raises(ClusterConfigError):
        run(workload, stragglers={0: -2.0})


def test_failed_gpu_falls_back_to_cpu(workload):
    res = run(workload, mode="hybrid", fault_injector=failed_gpu(1))
    victim = res.node_results[1].timeline
    other = res.node_results[2].timeline
    assert victim.n_gpu_items == 0
    assert victim.gpu_busy == 0.0
    assert other.n_gpu_items > 0


def test_failed_gpu_degrades_but_completes(workload):
    clean = run(workload, mode="hybrid")
    degraded = run(workload, mode="hybrid", fault_injector=failed_gpu(1))
    assert degraded.total_tasks == clean.total_tasks
    assert degraded.makespan_seconds > clean.makespan_seconds
    # the fallback node uses its whole CPU: slowdown is bounded
    assert degraded.makespan_seconds < 12 * clean.makespan_seconds


def test_failed_gpu_irrelevant_in_cpu_mode(workload):
    clean = run(workload, mode="cpu").makespan_seconds
    failed = run(workload, mode="cpu", fault_injector=failed_gpu(0)).makespan_seconds
    assert clean == pytest.approx(failed)
