"""Same-instant tie-breaking is deterministic.

Two layers pin the contract: at the kernel, events scheduled at one
float instant pop in scheduling order (or in the seeded adversarial
order under :func:`scheduling_perturbation`), on the heapq core exactly
as on the sorted-list reference core; at the dump, same-instant records
canonicalize in ``_OP_STAGE`` order — the ``(at, stage, batch,
attempt)`` key — on the heapq core and on the day-bucketed calendar
reference core.
"""

import random

import pytest

from repro.obs.dump import _OP_STAGE
from repro.runtime.events import Environment, scheduling_perturbation
from tests.runtime.test_des_equivalence import (
    CalendarEnvironment,
    ReferenceEnvironment,
    run_on_core,
)

_SAME_INSTANTS = [0.0, 1.0, 0.5883029443769618, 1e-9, 1e6]


def _completion_order(core, instant, n=8, seed=None):
    """Spawn ``n`` processes all finishing at ``instant`` on ``core``;
    return the order their completions land in."""
    if seed is None:
        env = core()
    else:
        with scheduling_perturbation(random.Random(seed)):
            env = core()
    order = []

    def worker(name):
        yield env.timeout(instant)
        order.append(name)

    for name in range(n):
        env.process(worker(name))
    env.run()
    return order


@pytest.mark.parametrize("instant", _SAME_INSTANTS)
def test_same_instant_pops_in_scheduling_order(instant):
    """Without perturbation, same-instant ties resolve to spawn order."""
    assert _completion_order(Environment, instant) == list(range(8))


@pytest.mark.parametrize("seed", [0, 1, 7, 1234])
@pytest.mark.parametrize("instant", _SAME_INSTANTS)
def test_perturbed_ties_identical_across_engines(instant, seed):
    """Seeded adversarial tie-breaks reorder the instant the same way
    on the heapq core and the reference core (the draw rides inside
    the queue key)."""
    core = _completion_order(Environment, instant, seed=seed)
    reference = _completion_order(ReferenceEnvironment, instant, seed=seed)
    assert core == reference
    assert sorted(core) == list(range(8))


@pytest.mark.parametrize(
    "core", [Environment, CalendarEnvironment], ids=["heap", "calendar"]
)
def test_dump_same_instant_records_in_op_stage_order(core, monkeypatch):
    """Canonical dumps list same-instant records in ``_OP_STAGE``
    order on the heapq core and on the day-bucketed reference core (the
    stealing scenario exercises every steal-protocol op)."""
    dump = run_on_core("stealing", monkeypatch, core).dump
    checked = 0
    for rank in dump.ranks:
        log = rank.log
        for prev, rec in zip(log, log[1:]):
            if prev.at == rec.at:  # repro: noqa[FLT001] - grouping identical instants, not comparing computed times
                checked += 1
                assert (
                    _OP_STAGE.get(prev.op, 99),
                    prev.batch,
                    prev.attempt,
                ) <= (
                    _OP_STAGE.get(rec.op, 99),
                    rec.batch,
                    rec.attempt,
                )
    assert checked > 0, "scenario produced no same-instant record pairs"
