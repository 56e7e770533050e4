"""Property tests: resilience preserves work under any fault schedule.

Hypothesis drives randomized seeded fault schedules — transient GPU
fault rates, failure windows, permanent failures, retry budgets and
degraded-mode controllers — through a traced hybrid run and asserts
the effectively-exactly-once contract: every submitted item is
accumulated exactly once, no matter which faults fired, and the
happens-before log stays violation-free.  The timeline's fault totals
must be the sums of its per-batch records.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.models import GpuFailure, PcieDegradation, StragglerNode
from repro.faults.policies import DegradedModeController, RetryPolicy
from repro.lint.trace_check import verify_tracer
from repro.runtime.trace import Tracer
from tests.conftest import make_runtime
from tests.runtime.test_node_runtime import make_tasks

N_TASKS = 48


def assert_totals_match_batches(tl) -> None:
    """The five totals ``execute`` sums from ``tl.batches``, recomputed
    with the same expressions (so float totals match bit for bit)."""
    b = tl.batches
    assert tl.n_gpu_faults == sum(r.gpu_faults for r in b)
    assert tl.n_retries == sum(r.attempts - 1 for r in b)
    assert tl.n_fallback_items == sum(r.fallback_items for r in b)
    # same sum() in the same order: bit-identity IS the claim
    assert tl.block_wait_seconds == sum(r.block_wait_seconds for r in b)
    assert tl.retry_wait_seconds == sum(r.retry_wait_seconds for r in b)


@st.composite
def gpu_failures(draw):
    """One GpuFailure: transient or permanent, whole-run or windowed."""
    permanent = draw(st.booleans())
    rate = 0.0 if permanent else draw(st.floats(0.05, 0.6))
    if draw(st.booleans()):
        start, end = 0.0, math.inf
    else:
        start = draw(st.floats(0.0, 0.02))
        end = start + draw(st.floats(0.005, 0.05))
    return GpuFailure(rate=rate, permanent=permanent, start=start, end=end)


fault_lists = st.lists(
    st.one_of(
        gpu_failures(),
        st.builds(
            PcieDegradation,
            bandwidth_factor=st.floats(0.2, 1.0, exclude_min=True),
        ),
        st.builds(StragglerNode, slowdown=st.floats(1.0, 3.0)),
    ),
    min_size=1,
    max_size=3,
)


@given(
    seed=st.integers(0, 2**32 - 1),
    faults=fault_lists,
    max_attempts=st.integers(1, 4),
    use_degraded=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_any_fault_schedule_accumulates_each_item_exactly_once(
    seed, faults, max_attempts, use_degraded
):
    tasks = make_tasks(N_TASKS)
    tracer = Tracer()
    rt = make_runtime(
        "hybrid",
        fault_injector=FaultInjector(seed=seed, faults=faults),
        retry_policy=RetryPolicy(max_attempts=max_attempts, seed=seed),
        degraded_mode=DegradedModeController(
            fault_threshold=2, probe_interval=0.01
        )
        if use_degraded
        else None,
        tracer=tracer,
    )
    tl = rt.execute(tasks)

    # no item lost to the faults, none replayed into the results twice
    submitted = {id(t.work) for t in tasks}
    accumulated = [
        i for r in tracer.log if r.op == "accumulate" for i in r.ids
    ]
    assert set(accumulated) == submitted
    assert len(accumulated) == len(submitted)
    assert tl.n_cpu_items + tl.n_gpu_items == N_TASKS

    # one account: the run's totals are the sums of its batch records
    assert_totals_match_batches(tl)
    # a fallback moves its items to the CPU in the records too
    assert tl.n_cpu_items == sum(
        b.n_cpu_items + b.fallback_items for b in tl.batches
    )

    # the full happens-before + exactly-once contract
    verify_tracer(tracer)


@given(seed=st.integers(0, 2**32 - 1), rate=st.floats(0.05, 0.5))
@settings(max_examples=10, deadline=None)
def test_fault_schedules_are_reproducible(seed, rate):
    """Same seed, same faults, same policies — bit-identical timelines."""

    def once():
        return make_runtime(
            "hybrid",
            fault_injector=FaultInjector(
                seed=seed, faults=[GpuFailure(rate=rate)]
            ),
            retry_policy=RetryPolicy(max_attempts=3, seed=seed),
        ).execute(make_tasks(N_TASKS))

    a, b = once(), once()
    assert a.total_seconds == b.total_seconds
    assert a.n_gpu_faults == b.n_gpu_faults
    assert a.n_retries == b.n_retries
    assert a.n_fallback_items == b.n_fallback_items
