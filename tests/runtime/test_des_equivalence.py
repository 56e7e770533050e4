"""Differential harness: the heapq DES core against a sorted-list reference.

:class:`ReferenceEnvironment` is the simplest correct core — a plain
list re-sorted by ``(time, draw, seq)`` on every pop.  Every canonical
scenario and a fleet of hypothesis-generated random event programs
(with and without perturbation seeds) run on both; canonical dumps must
be byte-identical, the trace-check / race-detector verdicts identical,
and completion orders, final clocks and event counts exact.  This suite
is the gate any future core change must clear (see docs/DES.md).

:class:`CalendarEnvironment` buckets the same list by day; the random
programs check it against both cores, and the ``run(until=)`` and
dump-ordering tests run on it as their ``calendar`` case.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.lint.races import detect_races
from repro.lint.trace_check import find_violations
from repro.obs.export import export_chrome
from repro.obs.scenarios import SCENARIOS, run_scenario
from repro.runtime.events import (
    AllOf,
    Environment,
    _Resume,
    scheduling_perturbation,
)


class ReferenceEnvironment(Environment):
    """The reference core: an unordered list, sorted before every pop."""

    def _schedule(self, event, delay):
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        draw = 0.0 if self._tie_breaker is None else self._tie_breaker.random()
        t = self.now + delay
        self._pending(t).append((t, draw, self._counter, event))
        self._counter += 1

    def _pending(self, t):
        """The list an entry due at ``t`` waits in."""
        return self._queue

    def _earliest(self):
        """The list holding the earliest pending entry (empty if none)."""
        return self._queue

    def run(self, until=None):
        while queue := self._earliest():
            queue.sort()  # seq is unique: events are never compared
            if until is not None and queue[0][0] > until:
                self.now = max(self.now, until)
                return self.now
            t, _draw, _seq, event = queue.pop(0)
            self.now = t
            self.n_processed += 1
            if isinstance(event, _Resume):
                event.fire()
                continue
            event.triggered = True
            callbacks, event.callbacks = event.callbacks, []
            for cb in callbacks:
                cb(event.value)
        return self.now


class CalendarEnvironment(ReferenceEnvironment):
    """A calendar-queue reference core: entries wait in unit-width day
    buckets keyed by ``floor(time)``, and a pop sorts only the earliest
    non-empty day.  Day boundaries fall on whole instants, which is
    where a bucketed queue splits time and where the inclusive
    ``run(until=)`` tests put their bound."""

    def __init__(self):
        super().__init__()
        self._days = {}

    def _pending(self, t):
        return self._days.setdefault(math.floor(t), [])

    def _earliest(self):
        while self._days:
            day = min(self._days)
            if self._days[day]:
                return self._days[day]
            del self._days[day]
        return []


def run_on_core(name, monkeypatch, core=ReferenceEnvironment):
    """Run scenario ``name`` with every ``repro`` module that builds an
    :class:`Environment` building a ``core`` instead."""
    built = []

    class Recorded(core):
        def __init__(self):
            super().__init__()
            built.append(self)

    with monkeypatch.context() as patch:
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro.") and (
                getattr(module, "Environment", None) is Environment
            ):
                patch.setattr(module, "Environment", Recorded)
        run = run_scenario(name)
    assert built, f"{name} never built a {core.__name__}"
    return run


# -- canonical scenarios ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_dumps_byte_identical(name, monkeypatch):
    """The canonical dump on the heapq core is byte for byte the
    reference core's."""
    core = run_scenario(name)
    reference = run_on_core(name, monkeypatch)
    assert core.dump.dumps() == reference.dump.dumps()
    assert core.makespan == reference.makespan  # repro: noqa[FLT001] - bit-identity is the contract under test
    assert export_chrome(core.dump) == export_chrome(reference.dump)


@pytest.mark.parametrize("name", ["stealing", "chaos-sched", "faulty"])
def test_scenario_verdicts_identical(name, monkeypatch):
    """trace_check and the race detector agree across the two cores."""
    core = run_scenario(name).dump
    reference = run_on_core(name, monkeypatch).dump
    for rank_h, rank_r in zip(core.ranks, reference.ranks):
        assert find_violations(rank_h.log) == find_violations(rank_r.log)
    report_h = detect_races(core)
    report_r = detect_races(reference)
    assert report_h.clean == report_r.clean
    assert report_h.to_dict() == report_r.to_dict()


# -- random event programs -------------------------------------------------------
#
# A program is a list of process specs; a spec is a list of actions the
# interpreter below replays identically on each core.  Delays are drawn
# from a small grid so same-instant ties (the hard case for any queue
# discipline) occur constantly.

_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.75])


def _actions(depth: int):
    options = [
        st.tuples(st.just("timeout"), _DELAYS),
        st.just(("pause",)),
        st.tuples(
            st.just("allof"),
            st.lists(_DELAYS, min_size=1, max_size=3),
        ),
    ]
    if depth > 0:
        child = st.lists(_actions(depth - 1), min_size=1, max_size=3)
        options.append(st.tuples(st.just("spawn"), child))
        options.append(st.tuples(st.just("wait"), child))
    return st.one_of(options)


_PROGRAMS = st.lists(
    st.lists(_actions(2), min_size=1, max_size=4), min_size=1, max_size=4
)

#: ``None`` runs the default scheduling-order tie-break
_SEEDS = st.one_of(st.none(), st.integers(min_value=0, max_value=2**16))


def _run_program(program, core, seed):
    """Interpret one program on ``core``; returns (completion log,
    final clock, events fired)."""
    if seed is None:
        env = core()
    else:
        with scheduling_perturbation(random.Random(seed)):
            env = core()
    log = []

    def exec_spec(spec, path):
        for index, action in enumerate(spec):
            kind = action[0]
            if kind == "timeout":
                yield env.timeout(action[1])
            elif kind == "pause":
                yield None
            elif kind == "allof":
                yield AllOf(env, [env.timeout(d) for d in action[1]])
            elif kind == "spawn":
                env.process(exec_spec(action[1], path + (index,)))
            elif kind == "wait":
                yield env.process(exec_spec(action[1], path + (index,)))
        log.append((env.now, path))

    for slot, spec in enumerate(program):
        env.process(exec_spec(spec, (slot,)))
    final = env.run()
    return log, final, env.n_processed


@given(_PROGRAMS, _SEEDS)
@settings(max_examples=250, deadline=None)
def test_random_programs_equivalent(program, seed):
    """Arbitrary interleaved timeout/AllOf/spawn programs complete in
    the same order at the same instants on every core, with and without
    a perturbation seed."""
    log_h, final_h, n_h = _run_program(program, Environment, seed)
    for core in (ReferenceEnvironment, CalendarEnvironment):
        log_r, final_r, n_r = _run_program(program, core, seed)
        assert log_h == log_r, core  # repro: noqa[FLT001] - bit-identity is the contract under test
        assert final_h == final_r, core  # repro: noqa[FLT001] - bit-identity is the contract under test
        assert n_h == n_r, core
