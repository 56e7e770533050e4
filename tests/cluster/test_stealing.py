"""Tests for the work-stealing scheduler (repro.cluster.stealing)."""

import heapq
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workloads import ClusterTask, SyntheticApplyWorkload
from repro.cluster.network import NetworkModel
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.stealing import (
    StealingConfig,
    StealingEngine,
    _board_victim,
    locality_preferences,
)
from repro.dht.process_map import (
    CostPartitionMap,
    HashProcessMap,
    LevelStripeMap,
    ProcessMap,
    SubtreePartitionMap,
    _unit_displacements,
)
from repro.errors import ClusterConfigError
from repro.faults.injector import FaultInjector
from repro.faults.models import CheckpointCorruption, GpuFailure, NodeCrash
from repro.lint.trace_check import find_migration_violations, find_violations
from repro.mra.key import Key
from repro.obs.dump import merge_order_log
from repro.obs.metrics import MetricsRegistry
from repro.recovery.checkpoint import CheckpointCostModel
from repro.recovery.policy import EveryNBatches, FixedInterval
from repro.recovery.protocol import RecoveryConfig
from repro.runtime.task import TaskKind, WorkItem
from repro.runtime.trace import Tracer

KIND_A = TaskKind("apply", (3, 12))
KIND_B = TaskKind("apply", (3, 20))


class SlotMap(ProcessMap):
    """Test-only map: first translation component modulo ranks."""

    def _place(self, key):
        return key.translation[0] % self.n_ranks


def make_tasks(slots, kind=KIND_A):
    """One task per entry of ``slots``; entry s lands on rank s (SlotMap)."""
    tasks = []
    for i, slot in enumerate(slots):
        key = Key(3, (slot % 8, i % 8, 0))
        item = WorkItem(kind=kind, output_bytes=64)
        tasks.append(ClusterTask(key=key, neighbor=key, item=item))
    return tasks


def flat_cost(rank, tasks):
    del rank
    return 0.01 * len(tasks)


def run_engine(tasks, n_ranks, config, *, tracers=None, registry=None,
               injector=None, recovery=None):
    engine = StealingEngine(
        SlotMap(n_ranks),
        NetworkModel(),
        config,
        flat_cost,
        rank_tracers=tracers,
        registry=registry,
        injector=injector,
        recovery=recovery,
    )
    return engine.run(tasks)


# -- configuration -----------------------------------------------------------------


def test_config_rejects_bad_knobs():
    with pytest.raises(ClusterConfigError):
        StealingConfig(chunk_size=0)
    with pytest.raises(ClusterConfigError):
        StealingConfig(min_victim_queue=0)
    with pytest.raises(ClusterConfigError):
        StealingConfig(steal_fraction=0.0)
    with pytest.raises(ClusterConfigError):
        StealingConfig(steal_fraction=1.5)
    with pytest.raises(ClusterConfigError):
        StealingConfig(request_bytes=-1)
    with pytest.raises(ClusterConfigError):
        StealingConfig(executor="magic")


def test_stealing_composes_with_fault_injection():
    # GPU failures reprice chunks on the affected rank; no rejection
    injector = FaultInjector(
        seed=3, faults=[GpuFailure(rank=1, permanent=True)]
    )
    workload = SyntheticApplyWorkload(
        dim=3, k=8, rank=40, n_tasks=24, n_tree_leaves=16, seed=7
    )
    sim = ClusterSimulation(
        2,
        SlotMap(2),
        stealing=StealingConfig(chunk_size=4, executor="analytic"),
        fault_injector=injector,
    )
    res = sim.run(workload.tasks)
    assert res.total_tasks == 24


def test_stealing_composes_with_recovery():
    # recovery armed without crashes: checkpoint writes are charged,
    # everything still completes exactly once
    workload = SyntheticApplyWorkload(
        dim=3, k=8, rank=40, n_tasks=24, n_tree_leaves=16, seed=7
    )
    sim = ClusterSimulation(
        2,
        SlotMap(2),
        stealing=StealingConfig(chunk_size=4, executor="analytic"),
        recovery=RecoveryConfig(policy=EveryNBatches(2)),
    )
    res = sim.run(workload.tasks)
    assert sum(r.n_tasks for r in res.node_results) == 24
    assert res.total_restarts == 0


def test_engine_rejects_crashes_without_recovery():
    from repro.faults.models import NodeCrash

    injector = FaultInjector(faults=[NodeCrash(rank=0, at=0.01)])
    engine = StealingEngine(
        SlotMap(2),
        NetworkModel(),
        StealingConfig(),
        flat_cost,
        injector=injector,
    )
    with pytest.raises(ClusterConfigError, match="recovery="):
        engine.run(make_tasks([0] * 8))


# -- the protocol ------------------------------------------------------------------


def test_idle_ranks_steal_from_the_loaded_rank():
    tasks = make_tasks([0] * 16)
    config = StealingConfig(chunk_size=2, min_victim_queue=2)
    static = run_engine(tasks, 4, StealingConfig(
        enabled=False, chunk_size=2, min_victim_queue=2))
    stolen = run_engine(tasks, 4, config)
    assert static.total_executed == 16
    assert stolen.total_executed == 16
    assert stolen.steals_granted > 0
    assert stolen.tasks_migrated > 0
    # the whole point: idle ranks pick up migrated work
    assert sum(1 for n in stolen.n_executed if n > 0) > 1
    assert stolen.makespan_seconds < static.makespan_seconds


def test_static_baseline_never_migrates():
    tasks = make_tasks([0, 0, 0, 0, 1, 1, 2, 2])
    outcome = run_engine(tasks, 4, StealingConfig(enabled=False))
    assert outcome.tasks_migrated == 0
    assert outcome.steals_attempted == 0
    assert outcome.n_executed == [4, 2, 2, 0]


def test_victim_denies_below_min_queue():
    # three thieves hit one victim at the same instant: the grants
    # shrink the queue below min_victim_queue, so the last is denied
    tasks = make_tasks([0] * 10)
    config = StealingConfig(chunk_size=1, min_victim_queue=5)
    outcome = run_engine(tasks, 4, config)
    assert outcome.steals_denied >= 1
    assert outcome.total_executed == 10


def test_outcome_accounting_is_consistent():
    tasks = make_tasks([0] * 12 + [1] * 2)
    config = StealingConfig(chunk_size=2, min_victim_queue=2)
    outcome = run_engine(tasks, 3, config)
    assert outcome.total_executed == sum(outcome.n_executed) == 14
    assert sum(outcome.n_chunks) >= outcome.total_executed // config.chunk_size
    assert outcome.max_queue_depth >= 12
    for busy, finish in zip(outcome.busy_seconds, outcome.finish_seconds):
        assert busy <= finish + 1e-12


def test_engine_is_deterministic():
    tasks = make_tasks([0] * 9 + [1] * 3)
    config = StealingConfig(chunk_size=2, min_victim_queue=2)
    tracers_a = {r: Tracer() for r in range(3)}
    tracers_b = {r: Tracer() for r in range(3)}
    a = run_engine(tasks, 3, config, tracers=tracers_a)
    b = run_engine(make_tasks([0] * 9 + [1] * 3), 3, config, tracers=tracers_b)
    assert a.n_executed == b.n_executed
    assert a.makespan_seconds == pytest.approx(b.makespan_seconds, abs=0.0)
    for rank in range(3):
        assert tracers_a[rank].log == tracers_b[rank].log


def test_trace_protocol_is_exactly_once():
    tasks = make_tasks([0] * 14 + [1] * 2, kind=KIND_A) + make_tasks(
        [0] * 4, kind=KIND_B
    )
    tracers = {r: Tracer() for r in range(4)}
    config = StealingConfig(chunk_size=2, min_victim_queue=2)
    outcome = run_engine(tasks, 4, config, tracers=tracers)
    assert outcome.total_executed == len(tasks)
    logs = {r: merge_order_log(t.log) for r, t in tracers.items()}
    for rank, log in logs.items():
        assert find_violations(log) == [], f"rank {rank}"
    assert find_migration_violations(logs) == []
    accumulated = [
        item
        for log in logs.values()
        for rec in log
        if rec.op == "accumulate"
        for item in rec.ids
    ]
    assert sorted(accumulated) == sorted(f"t{i}" for i in range(len(tasks)))


_BOARD_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("depth"), st.integers(0, 7), st.integers(0, 5)),
        st.tuples(st.just("pick"), st.integers(0, 7)),
    ),
    max_size=40,
)


@given(_BOARD_OPS)
def test_board_victim_matches_a_full_scan(ops):
    """The lazy-heap board picks what a scan of the whole board picks:
    the deepest queue other than the thief's, ties to the lowest rank.
    Depth updates follow the engine's rule — a rank with at least two
    queued tasks is on the board and pushes a fresh entry."""
    queues = [[] for _ in range(8)]
    board: set[int] = set()
    board_heap: list[tuple[int, int]] = []
    for op in ops:
        if op[0] == "depth":
            _kind, rank, depth = op
            queues[rank] = [None] * depth
            if depth >= 2:
                board.add(rank)
                heapq.heappush(board_heap, (-depth, rank))
            else:
                board.discard(rank)
            continue
        thief = op[1]
        candidates = [r for r in board if r != thief]
        scan = max(
            candidates, key=lambda r: (len(queues[r]), -r), default=None
        )
        assert _board_victim(board_heap, board, queues, thief) == scan


def test_parked_ranks_wake_without_a_full_scan(monkeypatch):
    # regression for the parked-rank index: thieves that find an empty
    # board park on a fresh event (the engine's only direct env.event()
    # call) and a later board gain must wake them.  A lost wakeup would
    # leave the run stuck with tasks remaining; a wake-order change
    # would break determinism against the pinned goldens.
    import repro.cluster.stealing as stealing_mod

    parks = {"n": 0}

    class CountingEnvironment(stealing_mod.Environment):
        def event(self):
            parks["n"] += 1
            return super().event()

    monkeypatch.setattr(stealing_mod, "Environment", CountingEnvironment)
    tasks = make_tasks([0] * 32)
    config = StealingConfig(
        chunk_size=1, min_victim_queue=4, steal_fraction=0.5
    )
    tracers = {r: Tracer() for r in range(8)}
    outcome = run_engine(tasks, 8, config, tracers=tracers)
    assert parks["n"] > 0, "scenario never exercised the parked index"
    assert outcome.total_executed == 32
    assert sum(1 for n in outcome.n_executed if n > 0) > 1
    for rank, tracer in tracers.items():
        assert find_violations(merge_order_log(tracer.log)) == [], (
            f"rank {rank}"
        )
    # waking from the index must stay deterministic run-to-run
    tracers_b = {r: Tracer() for r in range(8)}
    again = run_engine(make_tasks([0] * 32), 8, config, tracers=tracers_b)
    assert again.n_executed == outcome.n_executed
    for rank in range(8):
        assert tracers[rank].log == tracers_b[rank].log


def test_metrics_are_published():
    tasks = make_tasks([0] * 12)
    registry = MetricsRegistry()
    config = StealingConfig(chunk_size=2, min_victim_queue=2)
    outcome = run_engine(tasks, 3, config, registry=registry)
    assert registry.counter("cluster.steal.requests").total >= 1
    grants = registry.counter("cluster.steal.grants").total
    assert grants == pytest.approx(float(outcome.steals_granted))
    migrated = registry.counter("cluster.steal.tasks_migrated").total
    assert migrated == pytest.approx(float(outcome.tasks_migrated))
    assert registry.histogram("cluster.steal.victim_queue_depth").count >= 1


def test_locality_preferences_point_at_adjacent_owners():
    # two adjacent level-1 boxes owned by different ranks prefer each
    # other; an isolated far rank has no locality preference
    tasks = [
        ClusterTask(key=Key(1, (0,)), neighbor=Key(1, (0,)),
                    item=WorkItem(kind=KIND_A)),
        ClusterTask(key=Key(1, (1,)), neighbor=Key(1, (1,)),
                    item=WorkItem(kind=KIND_A)),
    ]
    prefs = locality_preferences(SlotMap(2), tasks)
    assert prefs == {0: (1,), 1: (0,)}


def test_locality_preferences_leave_isolated_ranks_out():
    keys = [Key(2, (0, 0)), Key(2, (1, 0)), Key(2, (3, 3))]
    tasks = [
        ClusterTask(key=key, neighbor=key, item=WorkItem(kind=KIND_A))
        for key in keys
    ]
    prefs = locality_preferences(SlotMap(4), tasks)
    assert prefs == {0: (1,), 1: (0,)}
    # rank 3's box at (3,3) has no neighbour in the key set
    assert 3 not in prefs


def reference_locality_preferences(pmap, tasks):
    """``locality_preferences`` walking every task's key to its anchor,
    as it did before walking each distinct key once."""
    anchors = {pmap.anchor_of(t.key) for t in tasks}
    owner_of = {a: pmap.owner(a) for a in anchors}
    prefs = {}
    for anchor, rank in owner_of.items():
        for displacement in _unit_displacements(anchor.dim):
            neighbour = anchor.neighbor(displacement)
            if neighbour is None:
                continue
            other = owner_of.get(neighbour)
            if other is not None and other != rank:
                prefs.setdefault(rank, set()).add(other)
    return {rank: tuple(sorted(s)) for rank, s in prefs.items()}


@st.composite
def locality_cases(draw):
    """A small synthetic workload and a fresh-map factory over it."""
    workload = SyntheticApplyWorkload(
        dim=draw(st.integers(1, 3)),
        k=4,
        rank=2,
        n_tasks=draw(st.integers(1, 400)),
        n_tree_leaves=draw(st.integers(1, 80)),
        seed=draw(st.integers(0, 2**16)),
        skew=draw(st.sampled_from([1.0, 2.0, 3.0, 4.0])),
    )
    n_ranks = draw(st.integers(1, 40))
    policy = draw(st.sampled_from(["subtree", "cost", "hash", "stripe", "slot"]))
    if policy == "subtree":
        level = draw(st.integers(0, 3))
        make = partial(SubtreePartitionMap, n_ranks, anchor_level=level)
    elif policy == "cost":
        weights = Counter(t.key for t in workload.tasks)
        chunks = draw(st.integers(1, 60))
        make = partial(
            CostPartitionMap.from_weights, n_ranks, weights, target_chunks=chunks
        )
    else:
        cls = {"hash": HashProcessMap, "stripe": LevelStripeMap, "slot": SlotMap}
        make = partial(cls[policy], n_ranks)
    return workload.tasks, make


@given(locality_cases())
@settings(max_examples=60, deadline=None)
def test_locality_preferences_match_per_task_reference(case):
    tasks, make = case
    pmap, ref_pmap = make(), make()
    prefs = locality_preferences(pmap, tasks)
    expected = reference_locality_preferences(ref_pmap, tasks)
    assert list(prefs.items()) == list(expected.items())
    # the same owner() calls, in the same order
    assert list(pmap._placed.items()) == list(ref_pmap._placed.items())


# -- simulation integration --------------------------------------------------------


def test_cluster_simulation_stealing_end_to_end():
    workload = SyntheticApplyWorkload(
        dim=3, k=6, rank=30, n_tasks=48, n_tree_leaves=12, seed=9, skew=4.0
    )
    pmap = SubtreePartitionMap(4, anchor_level=1)

    def run(enabled):
        sim = ClusterSimulation(
            4,
            pmap,
            mode="hybrid",
            stealing=StealingConfig(
                enabled=enabled, chunk_size=3, executor="analytic"
            ),
        )
        return sim.run(workload.tasks)

    static = run(False)
    stolen = run(True)
    assert static.total_tasks == stolen.total_tasks == 48
    assert stolen.makespan_seconds < static.makespan_seconds
    assert stolen.imbalance.imbalance < static.imbalance.imbalance
    assert sum(r.n_tasks for r in stolen.node_results) == 48


def test_runtime_and_analytic_executors_agree_roughly():
    workload = SyntheticApplyWorkload(
        dim=3, k=6, rank=30, n_tasks=24, n_tree_leaves=8, seed=9, skew=3.0
    )
    pmap = SubtreePartitionMap(3, anchor_level=1)
    results = {}
    for executor in ("runtime", "analytic"):
        sim = ClusterSimulation(
            3,
            pmap,
            mode="hybrid",
            stealing=StealingConfig(chunk_size=3, executor=executor),
        )
        results[executor] = sim.run(workload.tasks).makespan_seconds
    ratio = results["analytic"] / results["runtime"]
    assert 0.3 < ratio < 3.0


def _screened_item(kept: int) -> WorkItem:
    """A dim-3, k=6 integral task whose operator screening kept ``kept``
    separated terms.  As in ``BatchedApply``'s task generation, all tasks
    of one tree level share one kind, whatever their screened rank."""
    q, dim = 12, 3
    steps = kept * dim
    return WorkItem(
        kind=TaskKind("integral_compute", (2, dim, q)),
        flops=steps * 2 * q ** (dim - 1) * q * q,
        input_bytes=8 * q**dim,
        output_bytes=8 * q**dim,
        block_keys=tuple((2, (1, 0, 0), mu) for mu in range(kept)),
        block_bytes=kept * q * q * 8,
        steps=steps,
        step_rows=q ** (dim - 1),
        step_q=q,
    )


def test_analytic_executor_prices_each_item_shape():
    small, large = _screened_item(5), _screened_item(40)
    assert small.kind == large.kind

    def makespan(items):
        # one rank: nothing to steal, so the makespan is the sum of the
        # calibrated chunk costs
        key = Key(3, (0, 0, 0))
        sim = ClusterSimulation(
            1,
            SlotMap(1),
            mode="hybrid",
            stealing=StealingConfig(chunk_size=8, executor="analytic"),
        )
        tasks = [ClusterTask(key=key, neighbor=key, item=it) for it in items]
        return sim.run(tasks).makespan_seconds

    alone_small, alone_large = makespan([small]), makespan([large])
    assert alone_small < alone_large
    both = pytest.approx(alone_small + alone_large, rel=1e-12)
    assert makespan([small, large]) == both
    assert makespan([large, small]) == both


# -- exactly-once as a property ----------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    slots=st.lists(st.integers(min_value=0, max_value=4), min_size=1,
                   max_size=24),
    n_ranks=st.integers(min_value=2, max_value=5),
    chunk_size=st.integers(min_value=1, max_value=4),
    min_victim_queue=st.integers(min_value=1, max_value=4),
    steal_fraction=st.floats(min_value=0.25, max_value=1.0),
)
def test_migration_preserves_exactly_once(
    slots, n_ranks, chunk_size, min_victim_queue, steal_fraction
):
    """Whatever the placement and knobs: every task executes exactly
    once, on some rank, and the cross-rank migration ledger is clean."""
    tasks = make_tasks(slots)
    config = StealingConfig(
        chunk_size=chunk_size,
        min_victim_queue=min_victim_queue,
        steal_fraction=steal_fraction,
    )
    tracers = {r: Tracer() for r in range(n_ranks)}
    outcome = run_engine(tasks, n_ranks, config, tracers=tracers)
    assert outcome.total_executed == len(tasks)
    logs = {r: merge_order_log(t.log) for r, t in tracers.items()}
    for rank, log in logs.items():
        assert find_violations(log) == [], f"rank {rank}"
    assert find_migration_violations(logs) == []
    accumulated = [
        item
        for log in logs.values()
        for rec in log
        if rec.op == "accumulate"
        for item in rec.ids
    ]
    assert sorted(accumulated) == sorted(f"t{i}" for i in range(len(tasks)))


# -- crash recovery ----------------------------------------------------------------


def chaos_logs_are_clean(tracers):
    """The chaos checkers over a stealing run: cross-rank migration
    ledger plus every rank's own recovery ledger."""
    logs = {r: merge_order_log(t.log) for r, t in tracers.items()}
    assert find_migration_violations(logs) == []
    for rank, log in logs.items():
        assert find_violations(log) == [], f"rank {rank}"


def test_crash_on_an_exited_rank_relaunches_its_loop():
    # rank 4's outage lets ``remaining`` touch 0, so idle ranks exit
    # their loops; rank 0 crashes afterwards and its rolled-back work
    # must replay on a relaunched loop instead of being lost
    workload = SyntheticApplyWorkload(
        dim=3, k=6, rank=30, n_tasks=60, n_tree_leaves=12, seed=34, skew=4.0
    )
    tracers = {r: Tracer() for r in range(5)}
    sim = ClusterSimulation(
        5,
        SubtreePartitionMap(5, anchor_level=1),
        mode="hybrid",
        flush_interval=0.005,
        max_batch_size=8,
        stealing=StealingConfig(
            chunk_size=3, min_victim_queue=2, executor="analytic"
        ),
        fault_injector=FaultInjector(
            faults=[NodeCrash(rank=4, at=0.0258), NodeCrash(rank=0, at=0.0288)]
        ),
        recovery=RecoveryConfig(
            FixedInterval(0.004),
            CheckpointCostModel(drain_gbps=4.0, restart_seconds=1e-3),
            failure_detection_timeout=1e-3,
            max_restarts=4,
        ),
        rank_tracers=tracers,
    )
    res = sim.run(workload.tasks)
    assert [r.restarts for r in res.node_results] == [1, 0, 0, 0, 1]
    chaos_logs_are_clean(tracers)


@pytest.mark.parametrize(
    "n_tasks, min_victim_queue, crash_at, outage, corruption",
    [
        # rank 1's stolen t8 is rolled back at the first crash, still
        # queued at the second
        pytest.param(10, 1, (0.046875, 0.0625), 1e-3, 1.0, id="rolled-back"),
        # rank 1's stolen t12 is lost mid-chunk at the first crash,
        # still queued at the second
        pytest.param(14, 2, (0.046875, 0.09375), 0.03, 0.3,
                     id="lost-mid-chunk"),
    ],
)
def test_a_thief_finishes_the_stolen_work_it_flushed(
    n_tasks, min_victim_queue, crash_at, outage, corruption
):
    """A thief that crashes twice re-homes only stolen tasks it never
    flushed: work it flushed and requeued at the first restore stays
    its own, so its per-rank ledger still nets to exactly once."""
    tracers = {r: Tracer() for r in range(2)}
    outcome = run_engine(
        make_tasks([0] * n_tasks),
        2,
        StealingConfig(chunk_size=1, min_victim_queue=min_victim_queue),
        tracers=tracers,
        injector=FaultInjector(
            seed=n_tasks,
            faults=[NodeCrash(rank=1, at=at) for at in crash_at]
            + [CheckpointCorruption(rate=corruption)],
        ),
        recovery=RecoveryConfig(
            EveryNBatches(1),
            CheckpointCostModel(restart_seconds=outage / 3),
            failure_detection_timeout=outage,
            max_restarts=2,
        ),
    )
    assert outcome.restarts_per_rank == [0, 2]
    chaos_logs_are_clean(tracers)


@settings(max_examples=300, deadline=None)
@given(
    slots=st.lists(st.integers(min_value=0, max_value=4), min_size=1,
                   max_size=24),
    n_ranks=st.integers(min_value=2, max_value=5),
    chunk_size=st.integers(min_value=1, max_value=4),
    min_victim_queue=st.integers(min_value=1, max_value=3),
    crashes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=0.0, max_value=0.12),
        ),
        min_size=1,
        max_size=4,
    ),
    policy=st.sampled_from(
        [EveryNBatches(1), EveryNBatches(3), FixedInterval(0.02),
         FixedInterval(0.05)]
    ),
    outage=st.tuples(
        st.sampled_from([1e-3, 0.01, 0.03]), st.sampled_from([1e-3, 0.01])
    ),
    corruption=st.sampled_from([None, 0.3, 1.0]),
)
def test_stealing_recovery_completes_every_task(
    slots, n_ranks, chunk_size, min_victim_queue, crashes, policy, outage,
    corruption,
):
    """Whatever the crash schedule: every task completes (the engine
    raises on lost work) and the chaos checkers stay clean."""
    faults = [NodeCrash(rank=r % n_ranks, at=at) for r, at in crashes]
    if corruption is not None:
        faults.append(CheckpointCorruption(rate=corruption))
    detection_timeout, restart_seconds = outage
    tracers = {r: Tracer() for r in range(n_ranks)}
    outcome = run_engine(
        make_tasks(slots),
        n_ranks,
        StealingConfig(
            chunk_size=chunk_size, min_victim_queue=min_victim_queue
        ),
        tracers=tracers,
        injector=FaultInjector(seed=len(slots), faults=faults),
        recovery=RecoveryConfig(
            policy,
            CheckpointCostModel(restart_seconds=restart_seconds),
            failure_detection_timeout=detection_timeout,
            max_restarts=len(crashes),
        ),
    )
    assert outcome.n_crashes <= len(crashes)
    chaos_logs_are_clean(tracers)
