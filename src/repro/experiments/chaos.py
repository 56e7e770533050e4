"""Chaos ablation: the resilience layer under injected GPU faults.

Sweeps a transient GPU fault rate over the hybrid runtime and compares
two recovery strategies at each rate:

- **hybrid + retry** — the :mod:`repro.faults` resilience stack: capped
  exponential backoff (:class:`~repro.faults.policies.RetryPolicy`),
  and a :class:`~repro.faults.policies.DegradedModeController` that
  flips to CPU-only after repeated faults but *probes* the GPU and
  recovers;
- **naive fail-to-CPU** — the first fault permanently abandons the GPU
  (``max_attempts=1``, ``fault_threshold=1``, no probing), the
  strawman a retrying runtime must beat.

Every run is traced and replayed through
:func:`repro.lint.trace_check.verify_tracer`, so the sweep doubles as a
chaos test of the effectively-exactly-once contract: no item lost or
double-accumulated at any fault rate.  The zero-fault row asserts the
injector's zero-overhead guarantee — an armed-but-empty injector yields
a bit-identical makespan.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import SimulationError
from repro.analysis.reporting import ReportTable
from repro.apps.coulomb import probe_item
from repro.faults.injector import FaultInjector
from repro.faults.models import GpuFailure
from repro.faults.policies import DegradedModeController, RetryPolicy
from repro.lint.trace_check import verify_tracer
from repro.runtime.task import HybridTask
from repro.runtime.trace import Tracer

from repro.experiments.common import ExperimentResult, make_runtime, scaled

CHAOS_TASKS = 2400
FAULT_RATES = (0.05, 0.10, 0.20)
CHAOS_SEED = 7


def _chaos_tasks(n: int) -> list[HybridTask]:
    """Coulomb-shaped tasks with *distinct* work items, so the traced
    exactly-once check can tell them apart by identity."""
    proto = probe_item(3, 10, 100)
    return [
        HybridTask(
            work=replace(proto),
            pre_bytes=proto.input_bytes,
            post_bytes=proto.output_bytes,
        )
        for _ in range(n)
    ]


def _run(n: int, *, rate: float, resilient: bool) -> tuple[float, dict]:
    """One traced hybrid run at the given fault rate; returns
    (makespan, counters) after verifying the exactly-once contract."""
    injector = FaultInjector(CHAOS_SEED)
    if rate > 0.0:
        injector.add(GpuFailure(rate=rate))
    if resilient:
        retry = RetryPolicy(max_attempts=3, seed=CHAOS_SEED)
        degraded = DegradedModeController(fault_threshold=3, probe_interval=0.05)
    else:
        # naive fail-to-CPU: never retry, first fault degrades forever
        retry = RetryPolicy(max_attempts=1, seed=CHAOS_SEED)
        degraded = DegradedModeController(fault_threshold=1, probe_interval=None)
    tracer = Tracer()
    runtime = make_runtime(
        "hybrid",
        fault_injector=injector,
        retry_policy=retry,
        degraded_mode=degraded,
        tracer=tracer,
    )
    timeline = runtime.execute(_chaos_tasks(n))
    verify_tracer(tracer)
    accumulated = [
        rec for rec in tracer.log if rec.op == "accumulate"
    ]
    n_accumulated = sum(len(rec.ids) for rec in accumulated)
    if n_accumulated != n:
        raise SimulationError(
            f"chaos run lost work: {n_accumulated} of {n} items accumulated"
        )
    counters = {
        "gpu_faults": timeline.n_gpu_faults,
        "retries": timeline.n_retries,
        "fallback_items": timeline.n_fallback_items,
        "degraded_seconds": timeline.degraded_seconds,
        "recoveries": degraded.recoveries,
    }
    return timeline.total_seconds, counters


def run_chaos_ablation(scale: float = 1.0) -> ExperimentResult:
    """Makespan vs transient GPU fault rate, retry vs naive fallback."""
    n = scaled(CHAOS_TASKS, scale)
    clean = make_runtime("hybrid").execute(_chaos_tasks(n)).total_seconds
    armed_idle, _ = _run(n, rate=0.0, resilient=True)
    if armed_idle != clean:
        raise SimulationError(
            "zero-fault injector changed the makespan: "
            f"{armed_idle} != {clean} (the happy path must be untouched)"
        )

    table = ReportTable(
        "Ablation — chaos: hybrid makespan under transient GPU faults",
        ["fault rate", "retry+probe s", "naive fail-to-CPU s", "faults",
         "retries", "cpu-fallback items"],
    )
    table.add_row("0% (no injector)", clean, clean, 0, 0, 0)
    data: dict = {"clean": clean, "rates": {}}
    for rate in FAULT_RATES:
        resilient_s, rc = _run(n, rate=rate, resilient=True)
        naive_s, nc = _run(n, rate=rate, resilient=False)
        if nc["recoveries"]:
            raise SimulationError(
                f"naive fail-to-CPU recovered {nc['recoveries']} time(s) "
                f"at {rate:.0%} faults: its first degradation must be "
                "permanent"
            )
        table.add_row(
            f"{rate:.0%}", resilient_s, naive_s,
            rc["gpu_faults"], rc["retries"], rc["fallback_items"],
        )
        data["rates"][rate] = {
            "resilient": resilient_s,
            "naive": naive_s,
            "resilient_counters": rc,
            "naive_counters": nc,
        }
    table.add_note(
        "every run trace-checked: no item lost or double-accumulated"
    )
    table.add_note(
        "naive = first fault permanently abandons the GPU (no retry, "
        "no recovery probing)"
    )
    return ExperimentResult(name="ablation-chaos", table=table, data=data)
