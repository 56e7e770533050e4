"""Work-stealing scheduler with cross-rank task migration (DES clock).

The paper's process maps are *static*: "work is not distributed evenly
to all compute nodes", and the skew of the refinement tree caps scaling
(Tables V/VI).  This module adds the dynamic half of the trade-off: an
open per-rank scheduling loop where idle ranks issue **steal requests**
(steal-half of the victim's pending queue), victims grant or deny at
message-arrival time, and granted tasks **migrate** to the thief over
the interconnect.  The protocol runs on the shared DES clock
(:mod:`repro.runtime.events`), so the adversarial tie-breaking of the
schedule-perturbation harness applies to it like to every other
simulated component.

Protocol (one request):

1. a rank whose queue drained picks a victim — **locality first**
   (ranks owning anchor subtrees spatially adjacent to its own, via the
   DHT owner map), falling back to the **max-load** rank on the
   stealable board — and sends a steal request
   (:class:`~repro.cluster.network.NetworkModel` request cost, no
   overlap discount: the thief is idle until the reply lands);
2. at arrival the victim either **grants** the tail half of its pending
   queue (per-kind FIFO of the residual head is preserved) or
   **denies** (queue below ``min_victim_queue``);
3. granted tasks ride back as a migration payload; at arrival they
   append to the thief's queue in original order and execute there;
   each task's result accumulates to the owner of its destination box
   **exactly once**, counted as an off-node message when the executing
   rank is not that owner (accumulate-back).

Every hop is recorded in the happens-before log (``steal_request`` /
``steal_grant`` / ``steal_deny`` / ``migrate``, dump schema v3) so
:mod:`repro.lint.trace_check` can pair grants with migrations and
:mod:`repro.lint.races` can order the thief's execution after the
grant.  Determinism: no RNG anywhere — victim selection ties break by
lowest rank, and all same-instant concurrency is resolved by the DES
queue (seeded tie-breaking under the perturbation harness only).

Victim decisions are modelled at request-arrival instants inside the
thief's process: the DES is single-threaded, so the decision is atomic
— the simulated analogue of MADNESS's active-message handler thread
answering steals while the worker computes.

**Chaos recovery** (dump schema v5): the engine composes with the
checkpoint/restart protocol.  When ``recovery=`` is armed, every rank
keeps a :class:`~repro.recovery.checkpoint.CheckpointStore` lineage
(snapshots written per the interval policy, write/read costs charged on
the DES clock) and all ranks share one
:class:`~repro.recovery.checkpoint.MigrationLedger` recording every
grant edge.  A scheduled :class:`~repro.faults.models.NodeCrash` then
plays out honestly:

- the in-flight chunk and every accumulate not covered by a durable
  snapshot roll back (``rollback`` record at detection time, replayed
  on this rank after restore);
- granted-but-unflushed stolen tasks **re-home** to the victims that
  granted them (``rehome`` record on each victim at detection time,
  ledger ownership reverting) — including a grant still in flight on
  the wire to the crashed thief;
- the rank restores its newest readable snapshot (corrupted ones walk
  the lineage chain, charging a read apiece), re-registers its rebuilt
  queue (``submit`` records opening the replay epoch) and resumes;
  survivors neither grant to nor steal from a down rank.

Crashes without ``recovery=`` raise
:class:`~repro.errors.ClusterConfigError`: the omniscient
redistribution path that rebuilt static shares with perfect foresight
was removed.  See ``docs/FAULTS.md`` for the composed model.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Sequence, Sized
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.apps.workloads import ClusterTask
from repro.cluster.network import NetworkModel
from repro.dht.process_map import ProcessMap, _unit_displacements
from repro.errors import ClusterConfigError, DataLossError
from repro.recovery.checkpoint import (
    Checkpoint,
    CheckpointStore,
    MigrationLedger,
)
from repro.runtime.events import Environment, Event
from repro.runtime.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

#: metric names the engine publishes (all under the driver-owned
#: ``cluster.`` prefix; see docs/SCHEDULING.md)
STEAL_METRICS = (
    "cluster.steal.requests",
    "cluster.steal.grants",
    "cluster.steal.denies",
    "cluster.steal.tasks_migrated",
    "cluster.steal.tasks_rehomed",
    "cluster.steal.victim_queue_depth",
)


@dataclass(frozen=True)
class StealingConfig:
    """Knobs of the work-stealing protocol.

    Attributes:
        enabled: ``False`` runs the same chunked scheduling loop with
            stealing off — the fair static baseline for ablations.
        chunk_size: tasks a rank pops per scheduling quantum; smaller
            chunks steal better but pay more scheduling overhead.
        min_victim_queue: a victim grants only while its pending queue
            is at least this long (never strips a nearly-done rank).
        steal_fraction: fraction of the victim's pending queue granted
            (taken from the tail; 0.5 = the classic steal-half).
        request_bytes: payload of one request/grant/deny control
            message.
        task_bytes: migrated-task descriptor size (the task's inputs
            live in the DHT; only the descriptor and block references
            ship).
        executor: how :class:`~repro.cluster.simulation.
            ClusterSimulation` prices a chunk — ``"runtime"`` executes
            each chunk on a fresh thief-side
            :class:`~repro.runtime.node.NodeRuntime` (exact, slow);
            ``"analytic"`` uses per-kind costs calibrated once per node
            spec (fast enough for 500-5000 simulated ranks).
    """

    enabled: bool = True
    chunk_size: int = 4
    min_victim_queue: int = 2
    steal_fraction: float = 0.5
    request_bytes: int = 64
    task_bytes: int = 2048
    executor: str = "runtime"

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ClusterConfigError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.min_victim_queue < 1:
            raise ClusterConfigError(
                f"min_victim_queue must be >= 1, got {self.min_victim_queue}"
            )
        if not 0.0 < self.steal_fraction <= 1.0:
            raise ClusterConfigError(
                f"steal_fraction must be in (0, 1], got {self.steal_fraction}"
            )
        if self.request_bytes < 0 or self.task_bytes < 0:
            raise ClusterConfigError(
                f"negative message sizes: {self.request_bytes}, "
                f"{self.task_bytes}"
            )
        if self.executor not in ("runtime", "analytic"):
            raise ClusterConfigError(
                f"unknown chunk executor {self.executor!r}"
            )


@dataclass
class _RankStats:
    """Mutable per-rank accounting (owned by one engine run)."""

    busy: float = 0.0
    finish: float = 0.0
    executed: int = 0
    chunks: int = 0
    messages: int = 0
    message_bytes: int = 0
    steal_wait: float = 0.0


@dataclass
class _RankChaos:
    """Per-rank crash-recovery state (owned by the rank's processes;
    single-writer per field, so attribute updates never race)."""

    last_ckpt: float = 0.0
    batches_since: int = 0
    down: bool = False
    #: bumped at each crash; a process that slept across the bump
    #: learns its work died with the old incarnation
    epoch: int = 0
    restarts: int = 0
    #: the chunk currently executing (taken for crash rollback)
    in_flight: list | None = None
    #: accumulates not yet covered by a durable snapshot
    acc_pending: list = field(default_factory=list)


@dataclass
class _Totals:
    """Run-global accounting (owned by one engine run)."""

    remaining: int = 0
    requests: int = 0
    attempted: int = 0
    granted: int = 0
    denied: int = 0
    migrated: int = 0
    max_depth: int = 0
    crashes: int = 0
    rehomed: int = 0
    rolled_back: int = 0

    def next_request(self) -> int:
        """Allocate the next run-unique steal-request id."""
        req = self.requests
        self.requests += 1
        return req


@dataclass
class StealingOutcome:
    """What one :class:`StealingEngine` run produced."""

    n_ranks: int
    makespan_seconds: float
    #: per-rank seconds spent executing chunks
    busy_seconds: list[float] = field(repr=False)
    #: per-rank instant of the last completed chunk
    finish_seconds: list[float] = field(repr=False)
    #: per-rank tasks executed (initial share plus stolen minus lost)
    n_executed: list[int] = field(repr=False)
    n_chunks: list[int] = field(repr=False)
    #: per-rank off-node accumulate messages (accumulate-back included)
    n_messages: list[int] = field(repr=False)
    message_bytes: list[int] = field(repr=False)
    #: per-rank seconds spent idle inside the steal protocol
    steal_wait_seconds: list[float] = field(repr=False)
    steals_attempted: int = 0
    steals_granted: int = 0
    steals_denied: int = 0
    tasks_migrated: int = 0
    max_queue_depth: int = 0
    #: crashes survived across ranks (0 on a fault-free run)
    n_crashes: int = 0
    #: granted-but-unflushed tasks returned to their victims at crashes
    tasks_rehomed: int = 0
    #: accumulates cancelled by rollbacks (each replays exactly once)
    n_rolled_back: int = 0
    #: per-rank restarts survived (empty on recovery-less runs)
    restarts_per_rank: list[int] = field(default_factory=list)
    #: DES events the run popped from the queue and fired
    #: (:attr:`~repro.runtime.events.Environment.n_processed`)
    n_events: int = 0

    @property
    def total_executed(self) -> int:
        """Tasks executed across all ranks (initial share plus stolen,
        plus crash-replayed re-executions; work conservation holds on
        *completions*, not executions, under chaos)."""
        return sum(self.n_executed)


def locality_preferences(
    pmap: ProcessMap, tasks: list[ClusterTask]
) -> dict[int, tuple[int, ...]]:
    """Per-rank locality victim preferences, computed in one pass.

    The bulk form of :meth:`~repro.dht.process_map.ProcessMap.
    adjacent_ranks`: the anchor->owner map is built once over all task
    keys, then each anchor's same-level Chebyshev-1 neighbours vote for
    their owners.  Rank ``r``'s preference tuple is sorted ascending
    and excludes ``r`` itself.
    """
    anchors = {pmap.anchor_of(t.key) for t in tasks}
    owner_of = {a: pmap.owner(a) for a in anchors}
    prefs: dict[int, set[int]] = {}
    for anchor, rank in owner_of.items():
        for displacement in _unit_displacements(anchor.dim):
            neighbour = anchor.neighbor(displacement)
            if neighbour is None:
                continue
            other = owner_of.get(neighbour)
            if other is not None and other != rank:
                prefs.setdefault(rank, set()).add(other)
    return {rank: tuple(sorted(s)) for rank, s in prefs.items()}


def _board_victim(
    board_heap: list[tuple[int, int]],
    board: set[int],
    queues: Sequence[Sized],
    thief: int,
) -> int | None:
    """The deepest queue on ``board`` other than ``thief``'s, ties to
    the lowest rank; ``None`` when no other rank is on the board.

    ``board_heap`` is a lazy max-heap of ``(-depth, rank)`` entries:
    heap-min order over it is max order over ``(depth, -rank)``, and a
    steal attempt costs O(log n) amortized instead of a scan over the
    whole board.  The caller pushes a fresh entry on every depth change
    of a rank on the board; an entry is live iff its rank is still on
    the board at the recorded depth, and stale entries are popped here.
    A live entry of the thief itself is set aside and re-pushed, so the
    thief never picks itself and never loses its slot.
    """
    victim: int | None = None
    stash: tuple[int, int] | None = None
    while board_heap:
        neg_depth, rank = board_heap[0]
        if rank not in board or len(queues[rank]) != -neg_depth:
            heapq.heappop(board_heap)
            continue
        if rank == thief:
            stash = heapq.heappop(board_heap)
            continue
        victim = rank
        break
    if stash is not None:
        heapq.heappush(board_heap, stash)
    return victim


def _group_by_kind(
    entries: list[tuple[str, ClusterTask]],
) -> list[tuple[str, list[str]]]:
    """Group (tid, task) entries by task kind, preserving queue order."""
    groups: dict[str, list[str]] = {}
    for tid, task in entries:
        groups.setdefault(str(task.item.kind), []).append(tid)
    return list(groups.items())


class StealingEngine:
    """Open per-rank scheduling loop with work stealing on the DES.

    Args:
        pmap: the owner map — decides initial placement, locality-aware
            victim preferences, and accumulate-back destinations.
        network: interconnect model pricing the steal traffic.
        config: protocol knobs (:class:`StealingConfig`).
        chunk_seconds: callable ``(rank, tasks) -> float`` pricing one
            chunk's execution on ``rank`` (the simulation wires either
            the runtime or the calibrated analytic executor here).
        rank_tracers: optional {rank: Tracer} — listed ranks record the
            scheduler-level happens-before log (submit / flush /
            accumulate plus the four steal ops) and ``cpu``/``network``
            interval lanes.
        registry: optional metrics registry (``cluster.steal.*``).
        injector: optional :class:`~repro.faults.injector.FaultInjector`
            — its :class:`~repro.faults.models.NodeCrash` schedules kill
            ranks mid-run (requires ``recovery``); corruption draws key
            the checkpoint lineage walk.
        recovery: optional :class:`~repro.recovery.protocol.
            RecoveryConfig` arming checkpoint/restart: per-rank snapshot
            lineages, crash detection, restore and ledger-aware replay.
            Armed-but-crash-free runs still pay the checkpoint writes —
            recovery is never free.
    """

    def __init__(
        self,
        pmap: ProcessMap,
        network: NetworkModel,
        config: StealingConfig,
        chunk_seconds: Callable[[int, list[ClusterTask]], float],
        *,
        rank_tracers: dict[int, Tracer] | None = None,
        registry: "MetricsRegistry | None" = None,
        injector=None,
        recovery=None,
    ):
        self.pmap = pmap
        self.n_ranks = pmap.n_ranks
        self.network = network
        self.config = config
        self.chunk_seconds = chunk_seconds
        self.rank_tracers = dict(rank_tracers or {})
        self.registry = registry
        self.injector = injector
        self.recovery = recovery

    # -- the run -----------------------------------------------------------------

    def run(self, tasks: list[ClusterTask]) -> StealingOutcome:
        """Simulate the workload under the configured protocol.

        Raises:
            ClusterConfigError: scheduled crashes without ``recovery``,
                a negative chunk cost, or lost work at drain time.
            DataLossError: a rank crashed past ``recovery.max_restarts``.
        """
        n = self.n_ranks
        cfg = self.config
        recovery = self.recovery
        env = Environment()
        stats = [_RankStats() for _ in range(n)]
        totals = _Totals(remaining=len(tasks))
        queues: list[deque[tuple[str, ClusterTask]]] = [
            deque() for _ in range(n)
        ]
        task_of: dict[str, ClusterTask] = {}
        for index, task in enumerate(tasks):
            tid = f"t{index}"
            task_of[tid] = task
            queues[self.pmap.owner(task.key)].append((tid, task))
        for rank in range(n):
            tracer = self.rank_tracers.get(rank)
            if tracer is not None:
                for tid, task in queues[rank]:
                    tracer.log_submit(str(task.item.kind), tid, 0.0)
        totals.max_depth = max((len(q) for q in queues), default=0)
        locality = (
            locality_preferences(self.pmap, tasks) if cfg.enabled else {}
        )
        # -- chaos-recovery state (inert on fault-free runs) -----------
        crash_schedules: dict[int, tuple[float, ...]] = {}
        if self.injector is not None:
            for rank in range(n):
                schedule = self.injector.crash_times(rank)
                if schedule:
                    crash_schedules[rank] = schedule
        if crash_schedules and recovery is None:
            raise ClusterConfigError(
                "NodeCrash faults on a scheduling run require recovery=: "
                "the omniscient redistribution path was removed "
                "(see docs/FAULTS.md)"
            )
        ledger = MigrationLedger() if recovery is not None else None
        stores = {
            rank: CheckpointStore(rank=rank, ledger=ledger)
            for rank in range(n)
        }
        #: per-rank crash-recovery state (inert unless chaos is armed)
        chaos = [_RankChaos() for _ in range(n)]
        #: thief -> (victim, entries, request) for a grant on the wire
        migrating: dict[int, tuple[int, list[tuple[str, ClusterTask]], int]] = {}
        down_events: dict[int, Event] = {}
        #: ranks currently worth asking (pending >= min_victim_queue)
        board = {
            rank
            for rank in range(n)
            if len(queues[rank]) >= cfg.min_victim_queue
        }
        #: lazy max-heap over the board (see :func:`_board_victim`); every
        #: depth change of a rank on the board pushes a fresh entry
        board_heap = [(-len(queues[rank]), rank) for rank in board]
        heapq.heapify(board_heap)
        #: only ranks that are actually parked appear here, so a board
        #: gain wakes O(parked) sleepers instead of scanning all n slots
        parked: dict[int, Event] = {}

        def board_update(rank: int) -> None:
            if not chaos[rank].down and (
                len(queues[rank]) >= cfg.min_victim_queue
            ):
                heapq.heappush(board_heap, (-len(queues[rank]), rank))
                if rank not in board:
                    board.add(rank)
                    wake_parked()
            else:
                board.discard(rank)

        def wake_parked() -> None:
            # sorted for the rank-order wakes the golden traces pin
            for rank in sorted(parked):
                ev = parked[rank]
                if not ev.triggered:
                    ev.succeed()

        def pick_victim(rank: int) -> int | None:
            # locality preferences first, then max load off the board;
            # ties break deterministically to the lowest rank
            preferred = [
                r for r in locality.get(rank, ()) if r in board and r != rank
            ]
            if preferred:
                return max(preferred, key=lambda r: (len(queues[r]), -r))
            return _board_victim(board_heap, board, queues, rank)

        def pop_chunk(rank: int) -> list[tuple[str, ClusterTask]]:
            queue = queues[rank]
            chunk = [
                queue.popleft()
                for _ in range(min(cfg.chunk_size, len(queue)))
            ]
            board_update(rank)
            return chunk

        def note_completed(size: int) -> None:
            totals.remaining -= size
            if totals.remaining == 0:
                wake_parked()

        def answer_request(
            victim: int, thief: int, req: int
        ) -> list[tuple[str, ClusterTask]]:
            queue = queues[victim]
            now = env.now
            tracer = self.rank_tracers.get(victim)
            if chaos[victim].down:
                # the victim died while the request was on the wire: no
                # reply ever comes; the thief charges a deny round-trip
                totals.denied += 1
                if self.registry is not None:
                    self.registry.counter("cluster.steal.denies").inc(now, 1)
                return []
            if self.registry is not None:
                self.registry.histogram(
                    "cluster.steal.victim_queue_depth"
                ).observe(now, float(len(queue)))
            if len(queue) < cfg.min_victim_queue:
                totals.denied += 1
                if tracer is not None:
                    tracer.log_steal_deny(thief, now, req)
                if self.registry is not None:
                    self.registry.counter("cluster.steal.denies").inc(now, 1)
                return []
            n_steal = max(1, int(len(queue) * cfg.steal_fraction))
            stolen = [queue.pop() for _ in range(n_steal)]
            stolen.reverse()  # keep the victim's queue order
            board_update(victim)
            totals.granted += 1
            totals.migrated += n_steal
            if ledger is not None:
                for tid, task in stolen:
                    ledger.note_grant(
                        tid, victim, thief, req,
                        self.pmap.owner(task.neighbor),
                    )
            if tracer is not None:
                for kind, ids in _group_by_kind(stolen):
                    tracer.log_steal_grant(kind, ids, now, req)
            if self.registry is not None:
                self.registry.counter("cluster.steal.grants").inc(now, 1)
                self.registry.counter("cluster.steal.tasks_migrated").inc(
                    now, n_steal
                )
            return stolen

        def receive_migration(
            thief: int, stolen: list[tuple[str, ClusterTask]], req: int
        ) -> None:
            queue = queues[thief]
            for entry in stolen:
                queue.append(entry)
            totals.max_depth = max(totals.max_depth, len(queue))
            tracer = self.rank_tracers.get(thief)
            if tracer is not None:
                for kind, ids in _group_by_kind(stolen):
                    tracer.log_migrate(kind, ids, env.now, req)
            board_update(thief)

        def write_checkpoint(rank: int):
            # charge the full-state write on the DES clock; a crash
            # mid-write aborts the commit and the delta stays pending
            # (the killer rolls it back) — no partial snapshot
            store = stores[rank]
            ch = chaos[rank]
            delta = ch.acc_pending
            state_bytes = store.covered_bytes(store.frontier_seq) + sum(
                int(task.item.output_bytes) for _tid, task in delta
            )
            epoch = ch.epoch
            w0 = env.now
            yield env.timeout(recovery.cost_model.write_seconds(state_bytes))
            if ch.epoch != epoch:
                return
            ch.acc_pending = []
            seq = store.next_seq()
            parent = store.frontier_seq
            corrupted = (
                self.injector.checkpoint_corrupted(rank, seq, env.now)
                if self.injector is not None
                else False
            )
            store.add(
                Checkpoint(
                    rank=rank,
                    seq=seq,
                    parent=parent,
                    at=env.now,
                    cursor=store.covered_count(parent) + len(delta),
                    item_ids=tuple(tid for tid, _task in delta),
                    state_bytes=state_bytes,
                    corrupted=corrupted,
                )
            )
            ch.last_ckpt = env.now
            ch.batches_since = 0
            tracer = self.rank_tracers.get(rank)
            if tracer is not None:
                tracer.log_checkpoint(
                    seq, parent, [tid for tid, _task in delta], env.now
                )
                tracer.record("checkpoint", "write", w0, env.now)

        def rank_process(rank: int):
            tracer = self.rank_tracers.get(rank)
            st = stats[rank]
            ch = chaos[rank]
            queue = queues[rank]
            while True:
                if ch.down:
                    yield down_events[rank]
                    continue
                if queue:
                    chunk = pop_chunk(rank)
                    batch = st.chunks
                    st.chunks += 1
                    epoch = ch.epoch
                    ch.in_flight = chunk
                    start = env.now
                    groups = _group_by_kind(chunk)
                    if tracer is not None:
                        for kind, ids in groups:
                            tracer.log_flush(kind, ids, start, batch=batch)
                    if ledger is not None:
                        for tid, _task in chunk:
                            ledger.note_settled(tid)
                    seconds = self.chunk_seconds(
                        rank, [task for _tid, task in chunk]
                    )
                    if seconds < 0:
                        raise ClusterConfigError(
                            f"negative chunk cost {seconds} on rank {rank}"
                        )
                    yield env.timeout(seconds)
                    if ch.epoch != epoch:
                        # the rank died mid-chunk: the killer took the
                        # entries for post-restore replay
                        continue
                    ch.in_flight = None
                    end = env.now
                    st.busy += end - start
                    st.finish = end
                    st.executed += len(chunk)
                    for _tid, task in chunk:
                        if self.pmap.owner(task.neighbor) != rank:
                            # off-node accumulate — for stolen tasks
                            # this is the accumulate-back to the owner
                            st.messages += 1
                            st.message_bytes += task.item.output_bytes
                    if tracer is not None:
                        tracer.record("cpu", "chunk", start, end, batch=batch)
                        for kind, ids in groups:
                            tracer.log_accumulate(kind, ids, end, batch=batch)
                    note_completed(len(chunk))
                    if recovery is not None:
                        ch.acc_pending.extend(chunk)
                        ch.batches_since += 1
                        if recovery.policy.due(
                            env.now, ch.last_ckpt, ch.batches_since
                        ) and ch.acc_pending:
                            yield from write_checkpoint(rank)
                    continue
                if totals.remaining == 0:
                    return
                if not cfg.enabled:
                    if recovery is None:
                        # static baseline: an empty queue means this
                        # rank's share is done
                        return
                    # under chaos a crash may re-home or replay work
                    # onto this queue later — park instead of exiting
                    ev = env.event()
                    parked[rank] = ev
                    yield ev
                    parked.pop(rank, None)
                    continue
                victim = pick_victim(rank)
                if victim is None:
                    ev = env.event()
                    parked[rank] = ev
                    yield ev
                    parked.pop(rank, None)
                    continue
                req = totals.next_request()
                t0 = env.now
                epoch = ch.epoch
                totals.attempted += 1
                if tracer is not None:
                    tracer.log_steal_request(victim, t0, req)
                if self.registry is not None:
                    self.registry.counter("cluster.steal.requests").inc(t0, 1)
                yield env.timeout(
                    self.network.request_seconds(cfg.request_bytes)
                )
                if ch.epoch != epoch:
                    # this thief died while its request was in flight;
                    # the victim's crash detection voids the exchange
                    continue
                stolen = answer_request(victim, rank, req)
                if stolen:
                    migrating[rank] = (victim, stolen, req)
                    yield env.timeout(
                        self.network.migration_seconds(
                            len(stolen), cfg.task_bytes * len(stolen)
                        )
                    )
                    if ch.epoch != epoch:
                        # died with the payload on the wire — the
                        # killer re-homed it to the victim already
                        continue
                    migrating.pop(rank, None)
                    receive_migration(rank, stolen, req)
                else:
                    # the deny rides back as one control message
                    yield env.timeout(
                        self.network.request_seconds(cfg.request_bytes)
                    )
                    if ch.epoch != epoch:
                        continue
                end = env.now
                st.steal_wait += end - t0
                if tracer is not None:
                    tracer.record("network", "steal", t0, end)

        def crash_and_restore(rank: int, crashed_at: float):
            store = stores[rank]
            tracer = self.rank_tracers.get(rank)
            ch = chaos[rank]
            queue = queues[rank]
            ch.restarts += 1
            totals.crashes += 1
            ch.epoch += 1
            ch.down = True
            down_events[rank] = env.event()
            # partition the dead queue: granted-in entries re-home to
            # the victims that granted them (grouped per original
            # grant); everything else stays on this rank's durable
            # queue and replays after restore
            native: list[tuple[str, ClusterTask]] = []
            rehomes: dict[tuple[int, int], list[tuple[str, ClusterTask]]] = {}
            for tid, task in queue:
                edge = ledger.last_edge(tid)
                if edge is not None and edge.thief == rank:
                    rehomes.setdefault(
                        (edge.victim, edge.request), []
                    ).append((tid, task))
                else:
                    native.append((tid, task))
            queue.clear()
            board_update(rank)
            # a grant still on the wire to this rank dies with it: the
            # payload never arrives and re-homes to the victim too
            wired = migrating.pop(rank, None)
            if wired is not None:
                victim, entries, req = wired
                rehomes.setdefault((victim, req), []).extend(entries)
            lost_chunk = ch.in_flight or []
            ch.in_flight = None
            rolled = list(ch.acc_pending)
            ch.acc_pending = []
            ch.batches_since = 0
            if ch.restarts > recovery.max_restarts:
                lost = (
                    len(rolled) + len(lost_chunk) + len(native)
                    + sum(len(v) for v in rehomes.values())
                )
                raise DataLossError(
                    rank, ch.restarts - 1, crashed_at, lost
                )
            # survivors notice after the detection timeout; re-homing
            # and the rollback both land at the detection instant
            yield env.timeout(recovery.failure_detection_timeout)
            detect_at = env.now
            for victim, req in sorted(rehomes):
                entries = rehomes[(victim, req)]
                for tid, _task in entries:
                    ledger.note_rehome(tid, victim)
                queues[victim].extend(entries)
                totals.rehomed += len(entries)
                totals.max_depth = max(
                    totals.max_depth, len(queues[victim])
                )
                victim_tracer = self.rank_tracers.get(victim)
                if victim_tracer is not None:
                    for kind, ids in _group_by_kind(entries):
                        victim_tracer.log_rehome(
                            kind, ids, detect_at, req, rank
                        )
                if self.registry is not None:
                    self.registry.counter(
                        "cluster.steal.tasks_rehomed"
                    ).inc(detect_at, len(entries))
                board_update(victim)
            # roll back every accumulate no durable snapshot covers —
            # the un-checkpointed tail plus anything only a discarded
            # (corrupted) lineage branch covered
            choice, tried = store.select_restore()
            target = choice.seq if choice is not None else -1
            kept = {ck.seq for ck in store.lineage(target)}
            discarded = [
                tid
                for ck in store.lineage(store.frontier_seq)
                if ck.seq not in kept
                for tid in ck.item_ids
            ]
            rolled_ids = discarded + [tid for tid, _task in rolled]
            totals.rolled_back += len(rolled_ids)
            if tracer is not None:
                tracer.log_rollback(target, rolled_ids, detect_at)
            read_cost = sum(
                recovery.cost_model.read_seconds(ck.state_bytes)
                for ck in tried
            )
            restore_wait = recovery.cost_model.restart_seconds + read_cost
            if self.registry is not None:
                self.registry.counter("recovery.restarts").inc(
                    detect_at + restore_wait
                )
                self.registry.counter("recovery.rolled_back_items").inc(
                    detect_at, len(rolled_ids)
                )
                self.registry.histogram(
                    "recovery.restore_seconds"
                ).observe(detect_at + restore_wait, restore_wait)
            yield env.timeout(restore_wait)
            # restore commits: the frontier moves back, the rank
            # relaunches, and the rebuilt queue re-registers (the
            # submit records opening the replay epoch).  Replay runs
            # here only for ids the ledger still homes on this rank.
            store.restore_to(target)
            covered = store.covered_ids(target)
            replay = [
                (tid, task_of[tid])
                for tid in rolled_ids
                if tid not in covered
                and ledger.current_owner(tid, rank) == rank
            ]
            if tracer is not None:
                tracer.log_restore(
                    target, env.now, tried=[ck.seq for ck in tried]
                )
            totals.remaining += len(replay)
            rehomed_in = list(queue)  # arrived while this rank was down
            queue.clear()
            queue.extend(replay + lost_chunk + native + rehomed_in)
            totals.max_depth = max(totals.max_depth, len(queue))
            if tracer is not None:
                for tid, task in queue:
                    tracer.log_submit(str(task.item.kind), tid, env.now)
            ch.last_ckpt = env.now
            ch.down = False
            board_update(rank)
            down_events[rank].succeed()
            wake_parked()

        def killer_process(rank: int, schedule: tuple[float, ...]):
            for crash_at in schedule:
                if crash_at <= env.now:
                    # the rank was down (or restoring) through this
                    # instant: the outage absorbs the crash
                    continue
                yield env.timeout(crash_at - env.now)
                if totals.remaining == 0:
                    return
                if chaos[rank].down:
                    continue
                yield from crash_and_restore(rank, env.now)

        for rank in range(n):
            env.process(rank_process(rank))
        for rank in sorted(crash_schedules):
            env.process(killer_process(rank, crash_schedules[rank]))
        env.run()
        if totals.remaining != 0:
            raise ClusterConfigError(
                f"scheduler lost {totals.remaining} task(s) — "
                "work conservation violated"
            )
        makespan = max((st.finish for st in stats), default=0.0)
        return StealingOutcome(
            n_ranks=n,
            makespan_seconds=makespan,
            busy_seconds=[st.busy for st in stats],
            finish_seconds=[st.finish for st in stats],
            n_executed=[st.executed for st in stats],
            n_chunks=[st.chunks for st in stats],
            n_messages=[st.messages for st in stats],
            message_bytes=[st.message_bytes for st in stats],
            steal_wait_seconds=[st.steal_wait for st in stats],
            steals_attempted=totals.attempted,
            steals_granted=totals.granted,
            steals_denied=totals.denied,
            tasks_migrated=totals.migrated,
            max_queue_depth=totals.max_depth,
            n_crashes=totals.crashes,
            tasks_rehomed=totals.rehomed,
            n_rolled_back=totals.rolled_back,
            restarts_per_rank=[ch.restarts for ch in chaos],
            n_events=env.n_processed,
        )
