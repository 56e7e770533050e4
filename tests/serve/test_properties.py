"""Property tests: the serving ledger under arbitrary knobs.

Under *any* seeded arrival trace and *any* combination of shedding /
autoscaling / batching knobs, every job is either admitted-and-completed
or shed, exactly once — never both, never lost — and per-tenant
completion counts never exceed admissions.  The same runs must replay
byte-identically and pass the full happens-before checker (invariants
1-9).  Under the same knobs plus crashes, transient GPU faults, retry
budgets and batch caps, a run with no tracer and no registry must
return exactly what a traced and metered run returns: item ids are
formatted only for the tracer, and nothing the ledger reads may depend
on them.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.models import GpuFailure, NodeCrash
from repro.lint.trace_check import find_violations
from repro.obs.dump import merge_order_log
from repro.obs.metrics import MetricsRegistry
from repro.runtime.trace import Tracer
from repro.serve.admission import AdmissionConfig
from repro.serve.arrivals import PoissonArrivals
from repro.serve.autoscaler import AutoscalerConfig
from repro.serve.service import JobService, ServeConfig


def flat_cost(rank, items):
    del rank
    return 0.0005 * len(items)


knobs = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
        "rate": st.sampled_from([5.0, 40.0, 200.0]),
        "n_tenants": st.integers(min_value=1, max_value=4),
        "shedding": st.booleans(),
        "autoscaling": st.booleans(),
        "cross_job": st.booleans(),
        "fifo": st.booleans(),
        "max_queue": st.sampled_from([4, 32, 512]),
        "n_ranks": st.integers(min_value=1, max_value=3),
    }
)


def build(params):
    requests = PoissonArrivals(
        rate=params["rate"],
        horizon=0.5,
        n_tenants=params["n_tenants"],
        seed=params["seed"],
    ).requests()
    config = ServeConfig(
        admission=(
            AdmissionConfig(
                tenant_rate=4.0,
                tenant_burst=2.0,
                max_queue_items=params["max_queue"],
            )
            if params["shedding"]
            else None
        ),
        autoscaler=(
            AutoscalerConfig(
                min_ranks=1,
                max_ranks=4,
                interval=0.02,
                high_water=0.01,
                low_water=0.001,
                cooldown=0.05,
            )
            if params["autoscaling"]
            else None
        ),
        cross_job_batching=params["cross_job"],
        fifo=params["fifo"],
        max_batch_size=8,
    )
    return requests, config


@settings(max_examples=40, deadline=None)
@given(params=knobs)
def test_ledger_is_exactly_once_under_any_knobs(params):
    requests, config = build(params)
    tracer = Tracer()
    service = JobService(
        n_ranks=params["n_ranks"],
        batch_seconds=flat_cost,
        config=config,
        tracer=tracer,
    )
    result = service.run(requests)
    # every arrival got exactly one verdict, and admission implies
    # completion (the open-loop service drains before returning)
    assert result.n_arrived == len(requests)
    assert result.n_admitted + result.n_shed == result.n_arrived
    for outcome in result.outcomes:
        assert outcome.admitted == outcome.completed
        assert outcome.admitted != (outcome.shed_reason is not None)
    # per-tenant: completions never exceed admissions
    for tenant, row in result.per_tenant_counts().items():
        assert row["completed"] <= row["admitted"], tenant
        assert row["admitted"] + row["shed"] == row["arrived"], tenant
    # the trace-level ledger agrees (invariant #9 et al.)
    assert find_violations(merge_order_log(tracer.log)) == []


@settings(max_examples=10, deadline=None)
@given(params=knobs)
def test_reruns_replay_identically(params):
    def run():
        requests, config = build(params)
        tracer = Tracer()
        JobService(
            n_ranks=params["n_ranks"],
            batch_seconds=flat_cost,
            config=config,
            tracer=tracer,
        ).run(requests)
        return tracer.log

    assert run() == run()


#: a crash on a rank other than 0 (so the pool never dies whole),
#: transient GPU faults on every rank, a retry budget and a batch cap:
#: small caps split stage runs, and faults requeue and drop them
chaos = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**16),
        "crash_rank": st.integers(min_value=1, max_value=3),
        "crash_at": st.sampled_from([0.02, 0.1, 0.3]),
        "gpu_rate": st.sampled_from([0.1, 0.3]),
        "retry_budget": st.integers(min_value=0, max_value=2),
        "max_batch_size": st.integers(min_value=1, max_value=8),
    }
)


@settings(max_examples=30, deadline=None)
@given(params=knobs, faults=chaos)
def test_an_untraced_run_equals_a_traced_run(params, faults):
    requests, config = build(params)
    config = dataclasses.replace(
        config,
        retry_budget=faults["retry_budget"],
        max_batch_size=faults["max_batch_size"],
    )

    def run(tracer, registry):
        injector = FaultInjector(
            seed=faults["seed"],
            faults=[
                NodeCrash(rank=faults["crash_rank"], at=faults["crash_at"]),
                GpuFailure(rate=faults["gpu_rate"]),
            ],
        )
        return JobService(
            n_ranks=params["n_ranks"],
            batch_seconds=flat_cost,
            config=config,
            tracer=tracer,
            registry=registry,
            fault_injector=injector,
        ).run(requests)

    tracer = Tracer()
    traced = run(tracer, MetricsRegistry())
    assert dataclasses.asdict(run(None, None)) == dataclasses.asdict(traced)
    # in emission order, as the fault tests check it: the merge order
    # sorts a drop ahead of a same-instant flush of an item it retires
    assert find_violations(tracer.log) == []
