"""The node runtime under deterministic fault injection.

Covers the resilience contract end to end on a single node: the
zero-overhead happy path, transient-fault retries, CPU fallback after
budget exhaustion, the degraded-mode flip and recovery, and the
trace-checked exactly-once invariant.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.models import GpuFailure, PcieDegradation, StragglerNode
from repro.faults.policies import DegradedModeController, RetryPolicy
from repro.lint.trace_check import verify_tracer
from repro.runtime.trace import Tracer
from tests.conftest import make_runtime
from tests.runtime.test_node_runtime import make_tasks

N = 240


def run(mode="hybrid", n=N, **kwargs):
    return make_runtime(mode, **kwargs).execute(make_tasks(n))


class TestZeroOverhead:
    def test_empty_injector_timeline_is_identical(self):
        clean = run()
        armed = run(fault_injector=FaultInjector(seed=123))
        # bit-identical, field by field (metrics records included)
        assert dataclasses.asdict(clean) == dataclasses.asdict(armed)

    def test_empty_injector_cpu_and_gpu_modes(self):
        for mode in ("cpu", "gpu"):
            clean = run(mode)
            armed = run(mode, fault_injector=FaultInjector())
            # armed-but-idle contract: bit-identity IS the claim
            assert clean.total_seconds == armed.total_seconds  # repro: noqa[FLT001]

    def test_clean_run_reports_zero_fault_counters(self):
        tl = run(fault_injector=FaultInjector())
        assert tl.n_gpu_faults == 0
        assert tl.n_retries == 0
        assert tl.n_fallback_items == 0
        assert tl.retry_wait_seconds == 0.0  # repro: noqa[FLT001] - never incremented, exact zero


class TestTransientFaults:
    def test_retries_complete_all_work(self):
        inj = FaultInjector(seed=5, faults=[GpuFailure(rate=0.3)])
        tl = run(fault_injector=inj, retry_policy=RetryPolicy(max_attempts=4))
        assert tl.n_tasks == N
        assert tl.n_cpu_items + tl.n_gpu_items == N
        assert tl.n_gpu_faults > 0
        assert tl.n_retries > 0

    def test_faults_cost_time(self):
        clean = run().total_seconds
        inj = FaultInjector(seed=5, faults=[GpuFailure(rate=0.3)])
        faulted = run(
            fault_injector=inj, retry_policy=RetryPolicy(max_attempts=4)
        ).total_seconds
        assert faulted > clean

    def test_fault_schedule_is_reproducible(self):
        def once():
            inj = FaultInjector(seed=5, faults=[GpuFailure(rate=0.3)])
            return run(
                fault_injector=inj, retry_policy=RetryPolicy(max_attempts=4)
            )
        a, b = once(), once()
        # determinism: repeat runs must agree bit for bit
        assert a.total_seconds == b.total_seconds  # repro: noqa[FLT001]
        assert a.n_gpu_faults == b.n_gpu_faults

    def test_counters_match_metrics(self):
        # the run's fault counters are the sums of its batch records
        inj = FaultInjector(seed=5, faults=[GpuFailure(rate=0.3)])
        tl = run(fault_injector=inj, retry_policy=RetryPolicy(max_attempts=4))
        assert tl.n_gpu_faults > 0
        assert tl.n_gpu_faults == sum(b.gpu_faults for b in tl.batches)
        assert tl.n_retries == sum(b.attempts - 1 for b in tl.batches)
        assert tl.retry_wait_seconds == pytest.approx(
            sum(b.retry_wait_seconds for b in tl.batches)
        )


class TestFallback:
    def test_permanent_failure_falls_back_to_cpu(self):
        inj = FaultInjector(faults=[GpuFailure(permanent=True)])
        tl = run(fault_injector=inj, retry_policy=RetryPolicy(max_attempts=2))
        assert tl.n_tasks == N
        assert tl.n_gpu_items == 0  # every GPU share replayed on the CPU
        assert tl.n_cpu_items == N
        assert tl.n_fallback_items > 0
        assert tl.n_gpu_faults > 0

    def test_fallback_run_is_slower_than_clean(self):
        inj = FaultInjector(faults=[GpuFailure(permanent=True)])
        tl = run(fault_injector=inj, retry_policy=RetryPolicy(max_attempts=2))
        assert tl.total_seconds > run().total_seconds


class TestDegradedMode:
    def test_permanent_failure_degrades_node(self):
        inj = FaultInjector(faults=[GpuFailure(permanent=True)])
        ctl = DegradedModeController(fault_threshold=1, probe_interval=None)
        tl = run(
            fault_injector=inj,
            retry_policy=RetryPolicy(max_attempts=1),
            degraded_mode=ctl,
        )
        assert ctl.degradations == 1
        assert tl.degraded_seconds > 0.0
        assert tl.n_tasks == N
        assert tl.n_gpu_items == 0

    def test_windowed_failure_recovers_via_probe(self):
        # batches of 20 so that some are planned after the degradation:
        # only those are probes
        clean_span = run(max_batch_size=20).total_seconds
        inj = FaultInjector(
            faults=[GpuFailure(permanent=True, end=clean_span * 0.3)]
        )
        ctl = DegradedModeController(
            fault_threshold=1, probe_interval=clean_span * 0.05
        )
        recoveries = []  # (degraded_since, plan instant of the probe)
        record_success = ctl.record_success

        def watched(now, planned_at):
            since = ctl.degraded_since
            record_success(now, planned_at)
            if since is not None and not ctl.degraded:
                recoveries.append((since, planned_at))

        ctl.record_success = watched
        tl = run(
            max_batch_size=20,
            fault_injector=inj,
            retry_policy=RetryPolicy(max_attempts=1),
            degraded_mode=ctl,
        )
        assert ctl.degradations >= 1
        assert ctl.recoveries >= 1  # the GPU healed and a probe caught it
        assert len(recoveries) == ctl.recoveries
        # the recovering batch was planned after the node degraded
        assert all(planned > since for since, planned in recoveries)
        assert tl.n_gpu_items > 0  # hybrid dispatch resumed
        assert tl.n_tasks == N


class TestDegradations:
    def test_pcie_degradation_slows_transfers(self):
        clean = run("gpu")
        inj = FaultInjector(faults=[PcieDegradation(bandwidth_factor=0.25)])
        degraded = run("gpu", fault_injector=inj)
        assert degraded.total_seconds > clean.total_seconds

    def test_straggler_slows_compute(self):
        clean = run("cpu")
        inj = FaultInjector(faults=[StragglerNode(slowdown=2.0)])
        slow = run("cpu", fault_injector=inj)
        assert slow.total_seconds > 1.5 * clean.total_seconds


class TestTracedChaos:
    def test_trace_contract_holds_under_faults(self):
        tracer = Tracer()
        rt = make_runtime(
            "hybrid",
            fault_injector=FaultInjector(seed=5, faults=[GpuFailure(rate=0.3)]),
            retry_policy=RetryPolicy(max_attempts=4),
            tracer=tracer,
        )
        rt.execute(make_tasks(N))
        assert any(r.op == "gpu_fault" for r in tracer.log)
        assert any(
            r.op == "gpu_compute" and r.attempt > 0 for r in tracer.log
        )
        verify_tracer(tracer)

    def test_every_item_accumulated_once_under_fallback(self):
        tracer = Tracer()
        rt = make_runtime(
            "hybrid",
            fault_injector=FaultInjector(
                faults=[GpuFailure(permanent=True)]
            ),
            retry_policy=RetryPolicy(max_attempts=2),
            tracer=tracer,
        )
        rt.execute(make_tasks(N))
        verify_tracer(tracer)
        accumulated = [
            i for r in tracer.log if r.op == "accumulate" for i in r.ids
        ]
        assert len(accumulated) == N
        assert len(set(accumulated)) == N
