"""Cluster simulation edge cases."""

import pytest

from repro.apps.workloads import SyntheticApplyWorkload
from repro.cluster.simulation import ClusterSimulation
from repro.dht.process_map import HashProcessMap, SubtreePartitionMap


@pytest.fixture(scope="module")
def tiny_workload():
    return SyntheticApplyWorkload(
        dim=2, k=6, rank=20, n_tasks=400, n_tree_leaves=64, seed=9
    )


def test_idle_ranks_report_zero_time(tiny_workload):
    """With a locality map and many ranks, some ranks get nothing; they
    must report empty timelines rather than fail."""
    nodes = 32
    sim = ClusterSimulation(
        nodes, SubtreePartitionMap(nodes, anchor_level=1), mode="cpu"
    )
    res = sim.run(tiny_workload.tasks)
    idle = [r for r in res.node_results if r.n_tasks == 0]
    assert idle, "expected at least one idle rank at 32 nodes"
    for r in idle:
        assert r.timeline.total_seconds == 0.0
        assert r.comm_seconds == 0.0
    assert res.imbalance.idle_ranks == len(idle)


def test_makespan_is_max_node_total(tiny_workload):
    sim = ClusterSimulation(4, HashProcessMap(4), mode="gpu")
    res = sim.run(tiny_workload.tasks)
    assert res.makespan_seconds == pytest.approx(
        max(r.total_seconds for r in res.node_results)
    )


def test_comm_fraction_bounded(tiny_workload):
    res = ClusterSimulation(4, HashProcessMap(4)).run(tiny_workload.tasks)
    assert 0.0 <= res.comm_fraction < 1.0


def test_empty_task_list():
    sim = ClusterSimulation(2, HashProcessMap(2))
    res = sim.run([])
    assert res.total_tasks == 0
    assert res.makespan_seconds == 0.0
