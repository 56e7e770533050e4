"""Cluster-level fault injection: permanent GPU failures, node crashes,
and message faults.

Node crashes have exactly one handling mode: checkpoint/restart
recovery (``recovery=RecoveryConfig(...)`` — the crashed rank restores
its last snapshot and replays in place).  The old omniscient
redistribution path (which knew the crash schedule before the run) was
removed; scheduling a crash without a recovery config is a
configuration error."""

from __future__ import annotations

import warnings

import pytest

from repro.apps.workloads import SyntheticApplyWorkload
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.stealing import StealingConfig
from repro.dht.process_map import HashProcessMap
from repro.errors import ClusterConfigError
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    MessageDelay,
    MessageLoss,
    NodeCrash,
)
from repro.recovery import CheckpointCostModel, EveryNBatches, RecoveryConfig

NODES = 4

#: both cluster paths share one result finalizer; message faults must
#: charge the same way on each
PATHS = {
    "static": {},
    "stealing": {
        "stealing": StealingConfig(chunk_size=8, executor="analytic")
    },
}


@pytest.fixture(scope="module")
def workload():
    return SyntheticApplyWorkload(
        dim=3, k=10, rank=60, n_tasks=800, n_tree_leaves=128, seed=5
    )


def run(workload, **kwargs):
    sim = ClusterSimulation(NODES, HashProcessMap(NODES), mode="hybrid",
                            **kwargs)
    return sim.run(workload.tasks)


class TestNodeCrash:
    """Scheduled crashes demand an honest recovery config — the
    omniscient redistribution path (perfect foresight of the crash
    schedule) was removed."""

    def test_crash_without_recovery_rejected(self, workload):
        inj = FaultInjector(faults=[NodeCrash(rank=2, at=0.001)])
        with pytest.raises(ClusterConfigError, match="recovery="):
            run(workload, fault_injector=inj)

    def test_crash_without_recovery_rejected_under_stealing(self, workload):
        inj = FaultInjector(faults=[NodeCrash(rank=2, at=0.001)])
        with pytest.raises(ClusterConfigError, match="recovery="):
            run(workload, fault_injector=inj, **PATHS["stealing"])

    def test_crash_after_completion_recovers_nothing(self, workload):
        clean = run(workload)
        inj = FaultInjector(
            faults=[NodeCrash(rank=2, at=clean.makespan_seconds * 10)]
        )
        res = run(
            workload,
            fault_injector=inj,
            recovery=TestCheckpointRecovery.recovery_config(),
        )
        # the schedule missed: no restarts, nothing teleports
        assert res.total_restarts == 0
        assert [r.n_tasks for r in res.node_results] == [
            r.n_tasks for r in clean.node_results
        ]

    def test_all_ranks_crashing_still_recovers(self, workload):
        # no "survivors" precondition anymore: every rank restores from
        # its own durable lineage, so even a full-partition outage
        # completes (each rank pays its own detect+restore+replay)
        inj = FaultInjector(
            faults=[NodeCrash(rank=r, at=1e-4) for r in range(NODES)]
        )
        res = run(
            workload,
            fault_injector=inj,
            recovery=TestCheckpointRecovery.recovery_config(),
        )
        assert res.total_restarts == NODES
        assert sum(r.n_tasks for r in res.node_results) == len(workload.tasks)


class TestCheckpointRecovery:
    """Crashes with ``recovery=RecoveryConfig(...)``: the crashed rank
    restores its last checkpoint and replays in place — no omniscient
    redistribution, no deprecation warning."""

    @staticmethod
    def recovery_config():
        # node makespans here are a few ms; keep the detection and
        # restart charges proportionate
        return RecoveryConfig(
            policy=EveryNBatches(2),
            cost_model=CheckpointCostModel(
                drain_gbps=4.0, restart_seconds=1e-4
            ),
            failure_detection_timeout=1e-4,
        )

    def test_recovery_path_emits_no_deprecation(self, workload):
        clean = run(workload)
        inj = FaultInjector(
            faults=[NodeCrash(rank=2, at=clean.makespan_seconds * 0.4)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run(workload, fault_injector=inj,
                recovery=self.recovery_config())

    def test_crashed_rank_keeps_its_tasks(self, workload):
        clean = run(workload)
        at = clean.node_results[2].total_seconds * 0.4
        inj = FaultInjector(faults=[NodeCrash(rank=2, at=at)])
        res = run(workload, fault_injector=inj,
                  recovery=self.recovery_config())
        # nothing teleports: every rank runs exactly its own share
        assert [r.n_tasks for r in res.node_results] == [
            r.n_tasks for r in clean.node_results
        ]
        assert sum(r.n_tasks for r in res.node_results) == len(workload.tasks)
        assert res.total_restarts >= 1
        assert res.node_results[2].crashed_at == at
        assert res.node_results[2].restarts >= 1
        assert all(
            r.restarts == 0 for r in res.node_results if r.rank != 2
        )
        # the victim pays detection + restore + replay
        assert res.makespan_seconds > clean.makespan_seconds

    def test_crash_under_stealing_reports_the_crashed_rank(self, workload):
        clean = run(workload, **PATHS["stealing"])
        at = clean.makespan_seconds * 0.4
        inj = FaultInjector(faults=[NodeCrash(rank=2, at=at)])
        res = run(workload, fault_injector=inj,
                  recovery=self.recovery_config(), **PATHS["stealing"])
        assert res.node_results[2].crashed_at == at
        assert res.node_results[2].restarts >= 1
        assert all(
            r.restarts == 0 and r.crashed_at is None
            for r in res.node_results
            if r.rank != 2
        )
        assert res.total_restarts == sum(r.restarts for r in res.node_results)

    def test_recovery_without_crashes_stays_dormant(self, workload):
        clean = run(workload)
        res = run(
            workload,
            fault_injector=FaultInjector(seed=9),
            recovery=self.recovery_config(),
        )
        assert res.total_restarts == 0
        assert res.makespan_seconds == clean.makespan_seconds


@pytest.mark.parametrize("path", sorted(PATHS))
class TestMessageFaults:
    def test_loss_charges_retransmits(self, workload, path):
        clean = run(workload, **PATHS[path])
        inj = FaultInjector(seed=3, faults=[MessageLoss(rate=0.5)])
        lossy = run(workload, fault_injector=inj, **PATHS[path])
        assert lossy.total_lost_messages > 0
        assert lossy.makespan_seconds >= clean.makespan_seconds
        # compute is untouched: only the network drain grows
        for a, b in zip(lossy.node_results, clean.node_results):
            assert a.timeline.total_seconds == b.timeline.total_seconds
            assert a.comm_seconds >= b.comm_seconds

    def test_delay_stalls_drains(self, workload, path):
        clean = run(workload, **PATHS[path])
        inj = FaultInjector(
            faults=[MessageDelay(rate=1.0, delay_seconds=1e-4)]
        )
        delayed = run(workload, fault_injector=inj, **PATHS[path])
        assert delayed.total_lost_messages == 0
        slower = [
            r
            for r, c in zip(delayed.node_results, clean.node_results)
            if r.n_messages and r.comm_seconds > c.comm_seconds
        ]
        assert slower, "delays charged nowhere despite off-node messages"


@pytest.mark.parametrize("path", sorted(PATHS))
def test_zero_fault_injector_is_identity(workload, path):
    clean = run(workload, **PATHS[path])
    armed = run(workload, fault_injector=FaultInjector(seed=9), **PATHS[path])
    assert armed.makespan_seconds == clean.makespan_seconds
    assert armed.total_lost_messages == 0
