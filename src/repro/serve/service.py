"""The open-loop job service: arrivals → admission → dispatch → pool.

:class:`JobService` ties the serving pieces together on one
:class:`~repro.runtime.events.Environment`:

- an **arrival process** replays the request list, logs every
  ``arrive`` and asks the admission controller for the verdict
  (``admit``/``shed`` records; shed jobs never touch the queue);
- **worker processes**, one per active rank, pull shape-bucketed
  batches from the :class:`~repro.serve.batcher.CrossJobBatcher`,
  charge the caller-supplied batch cost model on the DES clock
  (``flush``/``accumulate`` records per batch) and drive job stage
  progression; idle workers park on per-rank events and are woken
  exactly when new work or shutdown arrives;
- an **autoscaler process** samples the observed queue delay on a
  fixed interval and resizes the active rank set (``scale`` records),
  spawning workers on growth and letting excess workers retire on
  shrink.

Determinism: the only randomness is the seeded arrival list; every
instant, record and metric sample is a pure function of the inputs, so
two runs of one configuration produce byte-identical trace dumps (the
golden-trace + perturbation gates hold the layer to that).

Fault tolerance: when a :class:`~repro.faults.injector.FaultInjector`
is attached, serving workers are exposed to its schedule — a
:class:`~repro.faults.models.NodeCrash` kills the worker at its crash
instant (mid-batch work dies with it), a GPU batch fault discards the
batch's results, and stragglers stretch batch time.  A dead batch's
job items *re-enter* the EDF queue with their original deadlines
(``requeue`` records, verdicts ``crash``/``gpu``), bounded by the
per-job ``retry_budget`` and the admission queue-depth gate: past
either limit the job is dropped (verdicts ``retry-budget``/
``queue-depth``), its backlog purged, and its in-flight work
cancelled — graceful degradation, never silent loss (trace_check
invariant #10 audits the ledger).  Crashed ranks leave the pool for
good; the autoscaler sees them as lost capacity and replaces them.
With no injector (or an empty one) every chaos path is skipped and
runs are bit-identical to the pre-fault service.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, percentile
from repro.runtime.events import Environment, Event
from repro.runtime.trace import Tracer
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.arrivals import JobRequest
from repro.serve.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.serve.batcher import CrossJobBatcher, Run
from repro.serve.jobs import (
    DEFAULT_CLASSES,
    JOB_TEMPLATES,
    Job,
    JobTemplate,
    SloClass,
    build_job,
)


class ServeConfigError(ReproError, ValueError):
    """The service was configured with invalid parameters."""


def _ids(runs: list[Run]) -> list[str]:
    """The item ids of ``runs``, in order — formatted only for the
    trace records that name items."""
    return [item_id for run in runs for item_id in run.ids()]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one service instance.

    ``admission=None`` admits everything; ``autoscaler=None`` pins the
    pool at its initial size.  ``fifo=True`` is the naive baseline the
    ablation compares against: class priority and deadlines are
    ignored at dispatch.  ``cross_job_batching=False`` salts every
    job's task kinds with its job id, so batches never span jobs.
    ``batch_overhead_seconds`` is the fixed per-dispatch cost
    (scheduling + transfer setup) that cross-job batching amortizes.
    ``retry_budget`` caps how many times a job's items may re-enter
    the queue after worker crashes or GPU faults before the job is
    dropped with verdict ``"retry-budget"``.
    """

    classes: tuple[SloClass, ...] = DEFAULT_CLASSES
    templates: dict[str, JobTemplate] = field(
        default_factory=lambda: dict(JOB_TEMPLATES)
    )
    admission: AdmissionConfig | None = field(
        default_factory=AdmissionConfig
    )
    autoscaler: AutoscalerConfig | None = None
    cross_job_batching: bool = True
    fifo: bool = False
    max_batch_size: int = 16
    batch_overhead_seconds: float = 0.002
    retry_budget: int = 2

    def __post_init__(self) -> None:
        if not self.classes:
            raise ServeConfigError("need at least one SLO class")
        if self.max_batch_size < 1:
            raise ServeConfigError(
                f"max batch size must be >= 1, got {self.max_batch_size}"
            )
        if self.batch_overhead_seconds < 0:
            raise ServeConfigError(
                "batch overhead must be >= 0, got "
                f"{self.batch_overhead_seconds}"
            )
        if self.retry_budget < 0:
            raise ServeConfigError(
                f"retry budget must be >= 0, got {self.retry_budget}"
            )


@dataclass
class JobOutcome:
    """The ledger entry of one arrived job."""

    job_id: str
    tenant: int
    template: str
    slo: str
    arrived_at: float
    shed_reason: str | None = None
    completed_at: float | None = None
    deadline: float | None = None
    requeues: int = 0
    dropped_reason: str | None = None

    @property
    def admitted(self) -> bool:
        """Whether the job was admitted (vs shed at arrival)."""
        return self.shed_reason is None

    @property
    def dropped(self) -> bool:
        """Whether the job was admitted but later dropped (its retry
        budget ran out, or the queue-depth gate tripped on requeue)."""
        return self.dropped_reason is not None

    @property
    def completed(self) -> bool:
        """Whether the job ran to completion."""
        return self.completed_at is not None

    @property
    def latency(self) -> float | None:
        """Arrival-to-completion latency (None for shed jobs)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrived_at

    @property
    def on_time(self) -> bool:
        """Whether the job completed within its SLO deadline."""
        return (
            self.completed_at is not None
            and self.deadline is not None
            and self.completed_at <= self.deadline
        )


@dataclass
class ServeResult:
    """Aggregate outcome of one service run.

    ``n_events`` counts the run's ledger steps, not DES events: job
    arrivals, finished batches, job completions, failed batches and
    autoscaler scale decisions.  A run with no shedding, faults or
    autoscaler takes one step per arrival, per batch and per completed
    job.  The DES event counter is
    :attr:`repro.runtime.events.Environment.n_processed`.
    """

    outcomes: list[JobOutcome]
    makespan: float
    n_batches: int
    n_events: int
    final_pool: int
    pool_peak: int
    dead_ranks: int = 0

    @property
    def n_arrived(self) -> int:
        """Jobs that reached the front door."""
        return len(self.outcomes)

    @property
    def n_dropped(self) -> int:
        """Admitted jobs dropped mid-flight (budget/queue-depth)."""
        return sum(1 for o in self.outcomes if o.dropped)

    @property
    def n_requeues(self) -> int:
        """Total requeue events across all jobs (crash + GPU fault)."""
        return sum(o.requeues for o in self.outcomes)

    @property
    def n_admitted(self) -> int:
        """Jobs the admission controller accepted."""
        return sum(1 for o in self.outcomes if o.admitted)

    @property
    def n_shed(self) -> int:
        """Jobs shed at arrival."""
        return sum(1 for o in self.outcomes if not o.admitted)

    @property
    def n_completed(self) -> int:
        """Admitted jobs that ran to completion."""
        return sum(1 for o in self.outcomes if o.completed)

    @property
    def n_on_time(self) -> int:
        """Completed jobs that met their SLO deadline."""
        return sum(1 for o in self.outcomes if o.on_time)

    @property
    def goodput(self) -> float:
        """On-time completions per simulated second."""
        if self.makespan <= 0:
            return 0.0
        return self.n_on_time / self.makespan

    def latencies(self, slo: str | None = None) -> list[float]:
        """Completion latencies, optionally of one SLO class."""
        return [
            o.latency
            for o in self.outcomes
            if o.completed and (slo is None or o.slo == slo)
        ]

    def latency_percentile(self, q: float, slo: str | None = None) -> float:
        """The ``q``-th latency percentile (0.0 with no completions)."""
        return percentile(self.latencies(slo), q)

    def per_tenant_counts(self) -> dict[int, dict[str, int]]:
        """Per-tenant arrived/admitted/completed/shed counts."""
        out: dict[int, dict[str, int]] = {}
        for o in self.outcomes:
            row = out.setdefault(
                o.tenant,
                {"arrived": 0, "admitted": 0, "completed": 0, "shed": 0},
            )
            row["arrived"] += 1
            if o.admitted:
                row["admitted"] += 1
            else:
                row["shed"] += 1
            if o.completed:
                row["completed"] += 1
        return out


class _State:
    """Mutable run state shared by the service's DES processes."""

    __slots__ = (
        "arrivals_done",
        "outstanding",
        "done",
        "active_limit",
        "next_batch",
        "next_job",
        "last_instant",
        "pool_peak",
        "n_events",
    )

    def __init__(self, pool: int):
        self.arrivals_done = False
        self.outstanding = 0
        self.done = False
        self.active_limit = pool
        self.next_batch = 0
        self.next_job = 0
        self.last_instant = 0.0
        self.pool_peak = pool
        self.n_events = 0


class JobService:
    """One open-loop serving run over a caller-priced rank pool.

    Args:
        n_ranks: initial rank-pool size (the autoscaler's starting
            point when one is configured, clamped into its bounds).
        batch_seconds: ``(rank, [WorkItem, ...]) -> float`` — the
            compute cost of one dispatched batch on one rank,
            *excluding* the fixed ``batch_overhead_seconds`` the
            service charges per dispatch.  The cluster entry point
            (:meth:`repro.cluster.simulation.ClusterSimulation.serve`)
            supplies a calibrated analytic model.
        config: the service knobs.
        tracer: optional happens-before tracer; when armed, the run
            logs the full serving ledger (``arrive``/``admit``/
            ``shed``/``deadline_miss``/``scale`` plus per-batch
            ``submit``/``flush``/``accumulate``).
        registry: optional metrics registry (``serve.*`` counters,
            gauges, and the p50/p95/p99-bearing latency histograms).
        fault_injector: optional
            :class:`~repro.faults.injector.FaultInjector`; when armed,
            its node crashes, GPU faults and stragglers hit the
            serving workers (see the module docstring).  ``None`` or
            an empty injector leaves every happy path untouched.
    """

    def __init__(
        self,
        *,
        n_ranks: int,
        batch_seconds,
        config: ServeConfig | None = None,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        fault_injector=None,
    ):
        if n_ranks < 1:
            raise ServeConfigError(f"need at least one rank, got {n_ranks}")
        self.config = config or ServeConfig()
        asc = self.config.autoscaler
        if asc is not None:
            n_ranks = min(max(n_ranks, asc.min_ranks), asc.max_ranks)
        self.n_ranks = n_ranks
        self.batch_seconds = batch_seconds
        self.tracer = tracer
        self.registry = registry
        self.fault_injector = fault_injector
        self._classes = {c.name: c for c in self.config.classes}

    # -- observation helpers ---------------------------------------------------

    def _count(self, name: str, at: float) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc(at)

    def _gauge(self, name: str, at: float, value: float) -> None:
        if self.registry is not None:
            self.registry.gauge(name).set(at, value)

    def _observe(self, name: str, at: float, value: float) -> None:
        if self.registry is not None:
            self.registry.histogram(name).observe(at, value)

    # -- the run ---------------------------------------------------------------

    def run(self, requests: list[JobRequest]) -> ServeResult:
        """Serve one request list to completion; returns the ledger."""
        cfg = self.config
        env = Environment()
        state = _State(self.n_ranks)
        batcher = CrossJobBatcher(
            max_batch_size=cfg.max_batch_size,
            fifo=cfg.fifo,
        )
        admission = (
            AdmissionController(cfg.admission)
            if cfg.admission is not None
            else None
        )
        injector = self.fault_injector
        if injector is not None and not injector.active:
            injector = None
        outcomes: list[JobOutcome] = []
        parked: dict[int, Event] = {}
        alive: set[int] = set()
        #: ranks that crashed or bricked their GPU — gone for good
        dead: set[int] = set()
        #: rank -> the batch it is currently executing (chaos only;
        #: lets a drop cancel a failed job's mid-flight items)
        in_flight: dict[int, list[Run]] = {}
        #: (template, SLO class) -> the stage items its jobs share;
        #: stays empty without cross-job batching (salted kinds)
        shared_stages: dict[tuple[str, str], tuple] = {}
        armed_killers: set[int] = set()

        def wake_all() -> None:
            # deterministic wake order: ascending rank
            for rank in sorted(parked):
                ev = parked[rank]
                if not ev.triggered:
                    ev.succeed()

        def touch(at: float) -> None:
            state.last_instant = max(state.last_instant, at)
            state.n_events += 1

        def maybe_finish(at: float) -> None:
            if state.arrivals_done and state.outstanding == 0:
                state.done = True
                wake_all()

        def submit_stage(job: Job, at: float) -> None:
            si = job.stage_index
            item = job.stages[si]
            run = Run(job, si, 0, job.template.items_per_stage, item)
            job.remaining = run.count
            if self.tracer is not None:
                kind = item.kind.label
                for item_id in run.ids():
                    self.tracer.log_submit(kind, item_id, at)
            batcher.add(run, at)
            self._gauge("serve.queue_depth", at, batcher.depth())

        def complete_job(job: Job, at: float) -> None:
            job.completed_at = at
            job_outcomes[job.job_id].completed_at = at
            state.outstanding -= 1
            latency = at - job.arrived_at
            self._count("serve.completed", at)
            self._observe("serve.latency_seconds", at, latency)
            self._observe(f"serve.latency_seconds.{job.slo.name}", at, latency)
            if at <= job.deadline:
                self._count("serve.goodput", at)
            else:
                self._count("serve.deadline_miss", at)
                if self.tracer is not None:
                    self.tracer.log_deadline_miss(job.job_id, job.slo.name, at)
            touch(at)
            maybe_finish(at)

        def drop_job(
            job: Job, dead_runs: list[Run], at: float,
            reason: str, rank: int,
        ) -> None:
            """Fail ``job`` for good: the drop record retires every
            not-yet-accumulated item — the dead batch's, the queued
            backlog's (purged here) and any mid-flight on other ranks
            (their accumulate will skip them)."""
            job.failed_reason = reason
            runs = dead_runs + batcher.purge_job(job)
            outcome = job_outcomes[job.job_id]
            outcome.dropped_reason = reason
            if self.tracer is not None:
                for r in sorted(in_flight):
                    if r != rank:
                        runs.extend(
                            run for run in in_flight[r] if run.job is job
                        )
                self.tracer.log_requeue(
                    reason, _ids(runs), at, attempt=job.requeues, rank=rank
                )
                # a dropped job can never meet its deadline
                self.tracer.log_deadline_miss(job.job_id, job.slo.name, at)
            self._count("serve.dropped", at)
            self._count(f"serve.dropped.{reason}", at)
            self._count("serve.deadline_miss", at)
            state.outstanding -= 1
            maybe_finish(at)

        def fail_batch(
            rank: int, batch: list[Run], verdict: str, at: float
        ) -> None:
            """A dispatched batch died (worker crash / GPU fault):
            requeue its runs per job in batch order, or drop jobs past
            their limits."""
            groups: dict[str, list[Run]] = {}
            order: list[Job] = []
            for run in batch:
                if run.job.failed_reason is not None:
                    # already dropped — its flush died with the drop
                    continue
                if run.job.job_id not in groups:
                    groups[run.job.job_id] = []
                    order.append(run.job)
                groups[run.job.job_id].append(run)
            requeued = False
            for job in order:
                runs = groups[job.job_id]
                job.requeues += 1
                job_outcomes[job.job_id].requeues = job.requeues
                if job.requeues > cfg.retry_budget:
                    drop_job(job, runs, at, "retry-budget", rank)
                    continue
                if (
                    admission is not None
                    and batcher.depth() + sum(r.count for r in runs)
                    > admission.config.max_queue_items
                ):
                    # shed-on-requeue: re-entering would overflow the
                    # same gate the front door sheds against
                    drop_job(job, runs, at, "queue-depth", rank)
                    continue
                if self.tracer is not None:
                    self.tracer.log_requeue(
                        verdict,
                        _ids(runs),
                        at,
                        attempt=job.requeues,
                        rank=rank,
                    )
                self._count("serve.requeues", at)
                for run in runs:
                    batcher.add(run, at)
                requeued = True
            self._gauge("serve.queue_depth", at, batcher.depth())
            touch(at)
            if requeued:
                wake_all()

        def killer(rank: int, at: float):
            """Marks ``rank`` dead at its crash instant, so the
            autoscaler sees the capacity loss immediately and a parked
            victim wakes to find out it died."""
            if at > env.now:
                yield env.timeout(at - env.now)
            if not state.done:
                dead.add(rank)
                self._count("serve.worker_crashes", env.now)
                wake_all()

        def spawn_worker(rank: int) -> None:
            env.process(worker(rank))
            if injector is not None and rank not in armed_killers:
                armed_killers.add(rank)
                crash_at = injector.crash_time(rank)
                if crash_at is not None:
                    env.process(killer(rank, crash_at))

        def worker(rank: int):
            alive.add(rank)
            crash_at = (
                injector.crash_time(rank) if injector is not None else None
            )
            while True:
                if state.done or rank >= state.active_limit:
                    break
                if rank in dead or (
                    crash_at is not None and env.now >= crash_at
                ):
                    # died while parked/idle: leaves without taking work
                    dead.add(rank)
                    break
                batch = batcher.next_batch()
                if batch is None:
                    if state.arrivals_done and state.outstanding == 0:
                        break
                    ev = env.event()
                    parked[rank] = ev
                    yield ev
                    parked.pop(rank, None)
                    continue
                index = state.next_batch
                state.next_batch += 1
                now = env.now
                kind = batch[0].item.kind.label
                if self.tracer is not None:
                    self.tracer.log_flush(kind, _ids(batch), now, batch=index)
                self._count("serve.batches", now)
                # one entry per item, in batch order: the price model
                # sums a price per item
                items: list = []
                for run in batch:
                    items += [run.item] * run.count
                if self.registry is not None:
                    # oldest_wait only feeds the histogram: skip it unobserved
                    self._observe("serve.batch_size", now, len(items))
                    self._observe(
                        "serve.queue_delay_seconds",
                        now,
                        batcher.oldest_wait(now),
                    )
                seconds = cfg.batch_overhead_seconds + self.batch_seconds(
                    rank, items
                )
                gpu_fault = False
                if injector is not None:
                    seconds *= injector.compute_slowdown(rank, now)
                    gpu_fault = injector.gpu_batch_fault(rank, index, 0, now)
                    in_flight[rank] = batch
                if crash_at is not None and now + seconds > crash_at:
                    # the batch dies with the worker at the crash instant
                    yield env.timeout(crash_at - now)
                    in_flight.pop(rank, None)
                    fail_batch(rank, batch, "crash", env.now)
                    dead.add(rank)
                    break
                yield env.timeout(seconds)
                now = env.now
                if injector is not None:
                    in_flight.pop(rank, None)
                if gpu_fault:
                    fail_batch(rank, batch, "gpu", now)
                    if injector.gpu_permanently_failed(rank, now):
                        # bricked accelerator: the rank leaves the pool
                        dead.add(rank)
                        break
                    continue
                if injector is None:
                    live = batch
                else:
                    # a job dropped while this batch was in flight had
                    # these items cancelled by its drop record
                    live = [
                        r for r in batch if r.job.failed_reason is None
                    ]
                if live and self.tracer is not None:
                    self.tracer.log_accumulate(
                        kind, _ids(live), now, batch=index
                    )
                touch(now)
                # stage progression, grouped per job in batch order: all
                # of a job's queued items belong to its current stage
                advanced: list[Job] = []
                for run in live:
                    job = run.job
                    job.remaining -= run.count
                    if job.remaining == 0:
                        job.stage_index += 1
                        advanced.append(job)
                woke = False
                for job in advanced:
                    if job.done:
                        complete_job(job, now)
                    else:
                        submit_stage(job, now)
                        woke = True
                if woke:
                    wake_all()
            alive.discard(rank)

        def arrivals():
            for req in requests:
                if req.at > env.now:
                    yield env.timeout(req.at - env.now)
                now = env.now
                job_id = f"j{state.next_job}"
                state.next_job += 1
                slo = self._classes.get(req.slo)
                if slo is None:
                    raise ServeConfigError(
                        f"request names unknown SLO class {req.slo!r}"
                    )
                template = cfg.templates.get(req.template)
                if template is None:
                    raise ServeConfigError(
                        f"request names unknown template {req.template!r}"
                    )
                if self.tracer is not None:
                    self.tracer.log_arrive(job_id, req.tenant, slo.name, now)
                self._count("serve.arrivals", now)
                touch(now)
                reason = (
                    admission.decide(now, req.tenant, batcher.depth())
                    if admission is not None
                    else None
                )
                if reason is not None:
                    if self.tracer is not None:
                        self.tracer.log_shed(job_id, req.tenant, reason, now)
                    self._count("serve.shed", now)
                    self._count(f"serve.shed.{reason}", now)
                    outcomes.append(
                        JobOutcome(
                            job_id=job_id,
                            tenant=req.tenant,
                            template=template.name,
                            slo=slo.name,
                            arrived_at=now,
                            shed_reason=reason,
                        )
                    )
                    continue
                key = (req.template, req.slo)
                job = build_job(
                    job_id,
                    req.tenant,
                    template,
                    slo,
                    shared_kinds=cfg.cross_job_batching,
                    stages=shared_stages.get(key),
                )
                if cfg.cross_job_batching:
                    shared_stages.setdefault(key, job.stages)
                job.arrived_at = now
                job.admitted_at = now
                job.deadline = now + slo.deadline_seconds
                if self.tracer is not None:
                    self.tracer.log_admit(job_id, req.tenant, slo.name, now)
                self._count("serve.admitted", now)
                outcome = JobOutcome(
                    job_id=job_id,
                    tenant=req.tenant,
                    template=template.name,
                    slo=slo.name,
                    arrived_at=now,
                    deadline=job.deadline,
                )
                outcomes.append(outcome)
                job_outcomes[job.job_id] = outcome
                state.outstanding += 1
                submit_stage(job, now)
                wake_all()
            state.arrivals_done = True
            maybe_finish(env.now)

        def autoscaler_proc(policy: ReactiveAutoscaler):
            interval = cfg.autoscaler.interval
            while not state.done:
                yield env.timeout(interval)
                if state.done:
                    break
                now = env.now
                new = policy.decide(
                    now,
                    state.active_limit,
                    batcher.oldest_wait(now),
                    batcher.depth(),
                    dead_ranks=sum(
                        1 for r in dead if r < state.active_limit
                    ),
                )
                if new is None:
                    continue
                old = state.active_limit
                state.active_limit = new
                state.pool_peak = max(state.pool_peak, new)
                if self.tracer is not None:
                    self.tracer.log_scale(old, new, now)
                self._gauge("serve.pool_size", now, new)
                self._count(
                    "serve.scale_ups" if new > old else "serve.scale_downs",
                    now,
                )
                touch(now)
                if new > old:
                    for rank in range(old, new):
                        if rank not in alive and rank not in dead:
                            spawn_worker(rank)
                else:
                    # excess parked workers notice the new limit and exit
                    wake_all()

        job_outcomes: dict[str, JobOutcome] = {}
        self._gauge("serve.pool_size", 0.0, state.active_limit)
        for rank in range(state.active_limit):
            spawn_worker(rank)
        env.process(arrivals())
        if cfg.autoscaler is not None:
            env.process(autoscaler_proc(ReactiveAutoscaler(cfg.autoscaler)))
        env.run()

        # completion instants land on the shared outcome objects
        for outcome in outcomes:
            if (
                outcome.admitted
                and not outcome.dropped
                and outcome.completed_at is None
            ):
                # every admitted job must have completed (or been
                # dropped with a requeue verdict) once the DES queue
                # drained; anything else is a scheduler bug — or a
                # fault schedule that killed the whole pool with no
                # autoscaler headroom to replace it
                raise ServeConfigError(
                    f"job {outcome.job_id} admitted but never completed "
                    f"({len(dead)} dead rank(s), no verdict logged)"
                )
        return ServeResult(
            outcomes=outcomes,
            makespan=state.last_instant,
            n_batches=state.next_batch,
            n_events=state.n_events,
            final_pool=state.active_limit,
            pool_peak=state.pool_peak,
            dead_ranks=len(dead),
        )
