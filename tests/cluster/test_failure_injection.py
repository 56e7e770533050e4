"""Failure/heterogeneity injection: stragglers and failed GPUs."""

import pytest

from repro.apps.workloads import SyntheticApplyWorkload
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.stealing import StealingConfig
from repro.dht.process_map import HashProcessMap
from repro.faults.injector import FaultInjector
from repro.faults.models import GpuFailure, StragglerNode


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


def straggler(rank, slowdown):
    """An injector whose one fault slows ``rank`` for the whole run."""
    return FaultInjector(faults=[StragglerNode(rank=rank, slowdown=slowdown)])


def test_straggler_slows_makespan(workload):
    clean = run(workload, mode="gpu").makespan_seconds
    slowed = run(
        workload, mode="gpu", fault_injector=straggler(0, 3.0)
    ).makespan_seconds
    # with an even map the straggler holds ~1/4 of the work at 1/3 speed
    assert 2.0 < slowed / clean < 3.4


def test_straggler_only_affects_its_rank(workload):
    res = run(workload, mode="gpu", fault_injector=straggler(0, 3.0))
    slow = res.node_results[0].timeline.total_seconds
    fast = res.node_results[1].timeline.total_seconds
    assert slow > 2.0 * fast


def test_unit_slowdown_is_identity(workload):
    clean = run(workload, mode="gpu").makespan_seconds
    unit = run(
        workload, mode="gpu", fault_injector=straggler(0, 1.0)
    ).makespan_seconds
    assert clean == pytest.approx(unit)


@pytest.mark.parametrize("first", [0, 1])
def test_calibrated_price_ignores_calibration_order(workload, first):
    """A calibrated price is a property of the shape, not of the rank
    that happened to calibrate it: the straggler is charged when its
    batch runs, never baked into the shared cache."""
    items = [t.item for t in workload.tasks[:8]]
    armed = ClusterSimulation(
        2, HashProcessMap(2), fault_injector=straggler(1, 4.0)
    )
    clean = ClusterSimulation(2, HashProcessMap(2))
    armed.serve_batch_seconds(first, items)
    for rank in (0, 1):
        assert armed.serve_batch_seconds(rank, items) == (
            clean.serve_batch_seconds(rank, items)
        )


@pytest.mark.parametrize("executor", ["analytic", "runtime"])
def test_straggler_slows_each_of_its_chunks(workload, executor):
    """With stealing off both runs execute the same chunks: the
    straggler stretches every chunk of its own rank by its slowdown and
    leaves every other rank's chunks alone."""
    tasks = workload.tasks[:600]
    cfg = StealingConfig(enabled=False, chunk_size=4, executor=executor)

    def busy(**kwargs):
        res = ClusterSimulation(
            4, HashProcessMap(4), mode="gpu", stealing=cfg, **kwargs
        ).run(tasks)
        return [r.timeline.cpu_compute_busy for r in res.node_results]

    clean = busy()
    slowed = busy(fault_injector=straggler(2, 3.0))
    assert slowed[2] == pytest.approx(3.0 * clean[2])
    for rank in (0, 1, 3):
        assert slowed[rank] == clean[rank]


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
