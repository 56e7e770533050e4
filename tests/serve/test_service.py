"""End-to-end tests of the job service (repro.serve.service)."""

from __future__ import annotations

import pytest

from repro.lint.races import analyze_log
from repro.lint.trace_check import find_violations
from repro.obs.dump import RankDump, dumps_canonical, merge_order_log
from repro.obs.metrics import MetricsRegistry
from repro.runtime.trace import Tracer
from repro.serve.admission import AdmissionConfig
from repro.serve.arrivals import BurstyArrivals, JobRequest, TraceArrivals
from repro.serve.autoscaler import AutoscalerConfig
from repro.serve.batcher import CrossJobBatcher
from repro.serve.jobs import SloClass
from repro.serve.service import JobService, ServeConfig, ServeConfigError


def flat_cost(rank, items):
    del rank
    return 0.001 * len(items)


def small_trace():
    """Nine jobs, three tenants, all three templates and classes."""
    reqs = []
    for i in range(9):
        reqs.append(
            JobRequest(
                0.05 * i,
                i % 3,
                ("coulomb-apply", "compress-chain", "pipeline")[i % 3],
                ("interactive", "standard", "batch")[i % 3],
            )
        )
    return TraceArrivals(reqs).requests()


def run_service(requests, config=None, *, n_ranks=2, tracer=None,
                registry=None):
    service = JobService(
        n_ranks=n_ranks,
        batch_seconds=flat_cost,
        config=config,
        tracer=tracer,
        registry=registry,
    )
    return service.run(requests)


def test_rejects_bad_config():
    with pytest.raises(ServeConfigError):
        JobService(n_ranks=0, batch_seconds=flat_cost)
    with pytest.raises(ServeConfigError):
        ServeConfig(classes=())
    with pytest.raises(ServeConfigError):
        ServeConfig(max_batch_size=0)
    with pytest.raises(ServeConfigError):
        ServeConfig(batch_overhead_seconds=-0.1)


def test_unknown_slo_and_template_are_rejected():
    with pytest.raises(ServeConfigError):
        run_service([JobRequest(0.0, 0, "coulomb-apply", "platinum")])
    with pytest.raises(ServeConfigError):
        run_service([JobRequest(0.0, 0, "no-such-template", "standard")])


def test_every_admitted_job_completes():
    result = run_service(small_trace())
    assert result.n_arrived == 9
    assert result.n_shed == 0
    assert result.n_completed == result.n_admitted == 9
    assert result.makespan > 0
    assert result.n_batches > 0
    for outcome in result.outcomes:
        assert outcome.completed
        assert outcome.latency is not None and outcome.latency >= 0
    counts = result.per_tenant_counts()
    assert sorted(counts) == [0, 1, 2]
    for row in counts.values():
        assert row["completed"] == row["admitted"] == row["arrived"]


def test_trace_obeys_the_batching_and_serving_contracts():
    tracer = Tracer()
    run_service(small_trace(), tracer=tracer)
    log = merge_order_log(tracer.log)
    ops = {rec.op for rec in log}
    assert {"arrive", "admit", "submit", "flush", "accumulate"} <= ops
    assert find_violations(log) == []
    assert analyze_log(log).clean


def test_runs_are_byte_identical():
    def capture():
        tracer = Tracer()
        run_service(small_trace(), tracer=tracer)
        dump = RankDump(rank=0, log=merge_order_log(tracer.log))
        return dumps_canonical(dump.to_dict())

    assert capture() == capture()


def test_shed_jobs_charge_no_compute():
    tracer = Tracer()
    config = ServeConfig(
        admission=AdmissionConfig(
            tenant_rate=1.0, tenant_burst=1.0, max_queue_items=512
        )
    )
    # tenant 0 fires three requests back to back: one token available
    reqs = [
        JobRequest(0.0, 0, "coulomb-apply", "standard"),
        JobRequest(0.001, 0, "coulomb-apply", "standard"),
        JobRequest(0.002, 0, "coulomb-apply", "standard"),
    ]
    result = run_service(reqs, config, tracer=tracer)
    assert result.n_admitted == 1
    assert result.n_shed == 2
    shed_ids = {o.job_id for o in result.outcomes if not o.admitted}
    assert shed_ids == {"j1", "j2"}
    for rec in tracer.log:
        if rec.op in ("submit", "flush", "accumulate"):
            for item in rec.ids:
                assert str(item).split(".")[0] not in shed_ids
    assert find_violations(merge_order_log(tracer.log)) == []
    for o in result.outcomes:
        if not o.admitted:
            assert o.shed_reason == "token-bucket"
            assert o.latency is None and not o.on_time


def test_queue_depth_shedding_kicks_in():
    config = ServeConfig(
        admission=AdmissionConfig(
            tenant_rate=1000.0, tenant_burst=1000.0, max_queue_items=8
        )
    )
    reqs = [
        JobRequest(0.0, i % 2, "coulomb-apply", "batch") for i in range(6)
    ]
    result = run_service(reqs, config, n_ranks=1)
    reasons = {o.shed_reason for o in result.outcomes if not o.admitted}
    assert reasons == {"queue-depth"}
    assert result.n_shed > 0


def test_deadline_misses_are_logged_and_counted():
    tracer = Tracer()
    registry = MetricsRegistry()
    config = ServeConfig(
        classes=(SloClass("tight", 0, 1e-6),),
        admission=None,
    )
    reqs = [JobRequest(0.0, 0, "coulomb-apply", "tight")]
    result = run_service(reqs, config, tracer=tracer, registry=registry)
    assert result.n_completed == 1
    assert result.n_on_time == 0
    assert result.goodput == 0.0
    assert any(rec.op == "deadline_miss" for rec in tracer.log)
    assert registry.counter("serve.deadline_miss").total == 1.0


def test_autoscaler_grows_and_logs_scale_records():
    tracer = Tracer()
    registry = MetricsRegistry()
    config = ServeConfig(
        admission=None,
        autoscaler=AutoscalerConfig(
            min_ranks=1,
            max_ranks=4,
            interval=0.005,
            high_water=0.002,
            low_water=0.0005,
            cooldown=0.01,
        ),
    )
    requests = BurstyArrivals(
        rate=20.0,
        burst_rate=400.0,
        period=0.5,
        burst_fraction=0.4,
        horizon=0.5,
        n_tenants=2,
        seed=5,
    ).requests()
    result = run_service(
        requests, config, n_ranks=1, tracer=tracer, registry=registry
    )
    assert result.pool_peak > 1
    scales = [rec for rec in tracer.log if rec.op == "scale"]
    assert scales
    assert any(rec.kind == "up" for rec in scales)
    assert registry.counter("serve.scale_ups").total >= 1.0
    assert find_violations(merge_order_log(tracer.log)) == []
    assert result.n_completed == result.n_admitted == len(requests)


def test_fifo_and_isolated_batching_modes_stay_correct():
    for fifo, cross in ((True, False), (False, False), (True, True)):
        tracer = Tracer()
        config = ServeConfig(
            admission=None, fifo=fifo, cross_job_batching=cross
        )
        result = run_service(small_trace(), config, tracer=tracer)
        assert result.n_completed == 9, (fifo, cross)
        assert find_violations(merge_order_log(tracer.log)) == [], (
            fifo,
            cross,
        )


def test_jobs_share_stage_items_only_under_cross_job_batching():
    """Under cross-job batching every job of one (template, class)
    hands the price model the same stage ``WorkItem`` object, so its
    ``item is previous`` path hits across jobs; salted jobs keep their
    own items."""
    for cross in (True, False):
        tracer = Tracer()
        priced = []

        def cost(rank, items):
            priced.extend(items)
            return flat_cost(rank, items)

        config = ServeConfig(admission=None, cross_job_batching=cross)
        result = JobService(
            n_ranks=2, batch_seconds=cost, config=config, tracer=tracer
        ).run(small_trace())
        ids = [i for rec in tracer.log if rec.op == "flush" for i in rec.ids]
        assert len(ids) == len(priced) == 108
        outcome = {o.job_id: o for o in result.outcomes}
        owners = {}
        for item_id, item in zip(ids, priced):
            job_id, stage, _ = item_id.split(".")
            o = outcome[job_id]
            key = (o.template, stage, o.slo) if cross else (job_id, stage)
            assert owners.setdefault(key, item) is item, (cross, item_id)
        # 7 (template, stage) pairs, each in one class; 21 job stages
        assert len(owners) == (7 if cross else 21)
        items = list(owners.values())
        assert all(a is not b for i, a in enumerate(items) for b in items[:i])


def test_a_stage_enters_the_queue_as_one_run(monkeypatch):
    """The 9 jobs' 21 stages of 108 items take 21 ``add`` calls."""
    calls = 0
    add = CrossJobBatcher.add

    def counted(self, run, now):
        nonlocal calls
        calls += 1
        add(self, run, now)

    monkeypatch.setattr(CrossJobBatcher, "add", counted)
    result = run_service(small_trace(), ServeConfig(admission=None))
    assert result.n_completed == 9
    assert calls == 21


def test_edf_prioritizes_interactive_latency():
    # one rank, simultaneous arrival of a batch job and an interactive
    # job: EDF dispatch finishes the interactive one first
    reqs = [
        JobRequest(0.0, 0, "coulomb-apply", "batch"),
        JobRequest(0.0, 1, "coulomb-apply", "interactive"),
    ]
    result = run_service(reqs, ServeConfig(admission=None), n_ranks=1)
    by_slo = {o.slo: o for o in result.outcomes}
    assert by_slo["interactive"].latency < by_slo["batch"].latency


def test_queue_delay_observed_once_per_batch():
    # the worker reads batcher.oldest_wait only to feed this histogram,
    # so it skips the read when no registry is attached
    registry = MetricsRegistry()
    result = run_service(small_trace(), registry=registry)
    assert result.n_batches > 1
    assert registry.counter("serve.batches").total == float(result.n_batches)
    for name in ("serve.queue_delay_seconds", "serve.batch_size"):
        assert registry.histogram(name).count == result.n_batches, name
    assert registry.histogram("serve.queue_delay_seconds").percentile(0.0) >= 0.0
    bare = run_service(small_trace())
    assert bare.n_batches == result.n_batches
    assert bare.outcomes == result.outcomes


def test_metrics_cover_the_ledger():
    registry = MetricsRegistry()
    result = run_service(small_trace(), registry=registry)
    assert registry.counter("serve.arrivals").total == 9.0
    assert registry.counter("serve.admitted").total == float(
        result.n_admitted
    )
    assert registry.counter("serve.completed").total == float(
        result.n_completed
    )
    latency = registry.histogram("serve.latency_seconds")
    assert latency.count == result.n_completed
    pct = latency.percentiles(50.0, 95.0, 99.0)
    assert set(pct) == {"p50", "p95", "p99"}
    assert pct["p50"] <= pct["p95"] <= pct["p99"]
