"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.runtime.events import AllOf, Environment, Resource
from tests.runtime.test_des_equivalence import CalendarEnvironment


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(2.5)
        log.append(env.now)
        yield env.timeout(1.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [2.5, 4.0]


def test_processes_interleave():
    env = Environment()
    log = []

    def worker(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(worker("b", 2.0))
    env.process(worker("a", 1.0))
    env.run()
    assert log == [(1.0, "a"), (2.0, "b")]


def test_same_time_events_fifo():
    env = Environment()
    log = []

    def worker(name):
        yield env.timeout(1.0)
        log.append(name)

    for name in "abc":
        env.process(worker(name))
    env.run()
    assert log == ["a", "b", "c"]


def test_process_return_value_propagates():
    env = Environment()
    result = []

    def child():
        yield env.timeout(1.0)
        return 42

    def parent():
        value = yield env.process(child())
        result.append(value)

    env.process(parent())
    env.run()
    assert result == [42]


def test_yield_none_is_cooperative():
    env = Environment()
    steps = []

    def proc():
        steps.append("one")
        yield None
        steps.append("two")

    env.process(proc())
    env.run()
    assert steps == ["one", "two"]
    assert env.now == 0.0  # repro: noqa[FLT001] - no timeouts ran, clock never moved


def test_event_succeed_with_value():
    env = Environment()
    got = []
    ev = env.event()

    def waiter():
        value = yield ev
        got.append((env.now, value))

    def trigger():
        yield env.timeout(3.0)
        ev.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == [(3.0, "payload")]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_yield_garbage_rejected():
    env = Environment()

    def proc():
        yield "not an event"

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_run_until_stops_clock():
    env = Environment()

    def proc():
        yield env.timeout(10.0)

    env.process(proc())
    end = env.run(until=4.0)
    assert end == 4.0  # repro: noqa[FLT001] - run(until=...) returns the bound verbatim


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_allof_waits_for_all():
    env = Environment()
    done_at = []

    def worker(delay):
        yield env.timeout(delay)

    def waiter():
        yield AllOf(env, [env.process(worker(1.0)), env.process(worker(5.0))])
        done_at.append(env.now)

    env.process(waiter())
    env.run()
    assert done_at == [5.0]  # repro: noqa[FLT001] - one hop from t=0, exact


def test_allof_empty_fires_immediately():
    env = Environment()
    fired = []

    def waiter():
        yield AllOf(env, [])
        fired.append(env.now)

    env.process(waiter())
    env.run()
    assert fired == [0.0]


def test_resource_serializes():
    env = Environment()
    log = []
    res = Resource(env, capacity=1)

    def user(name):
        req = res.request()
        yield req
        log.append((env.now, name, "start"))
        yield env.timeout(2.0)
        res.release()
        log.append((env.now, name, "end"))

    env.process(user("a"))
    env.process(user("b"))
    env.run()
    assert log == [
        (0.0, "a", "start"),
        (2.0, "a", "end"),
        (2.0, "b", "start"),
        (4.0, "b", "end"),
    ]


def test_resource_capacity_two_overlaps():
    env = Environment()
    res = Resource(env, capacity=2)
    starts = []

    def user():
        yield res.request()
        starts.append(env.now)
        yield env.timeout(1.0)
        res.release()

    for _ in range(3):
        env.process(user())
    env.run()
    assert starts == [0.0, 0.0, 1.0]


def test_resource_busy_time():
    env = Environment()
    res = Resource(env, capacity=1)

    def user():
        yield res.request()
        yield env.timeout(3.0)
        res.release()

    env.process(user())
    env.run()
    assert res.busy_time() == pytest.approx(3.0)


def test_resource_release_idle_rejected():
    env = Environment()
    res = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


# -- run(until=) boundary contract (inclusive; heapq and calendar cores) ---------

_CORES = pytest.mark.parametrize(
    "core", [Environment, CalendarEnvironment], ids=["heap", "calendar"]
)


@_CORES
def test_run_until_is_inclusive_at_exact_boundary(core):
    """An event scheduled at exactly ``until`` fires before the run
    stops — the bound is inclusive, even where it falls on a bucket
    boundary."""
    env = core()
    fired = []

    def proc():
        yield env.timeout(4.0)
        fired.append(env.now)
        yield env.timeout(1.0)
        fired.append(env.now)

    env.process(proc())
    end = env.run(until=4.0)
    assert fired == [4.0]  # repro: noqa[FLT001] - the boundary instant is the contract under test
    assert end == 4.0  # repro: noqa[FLT001] - run(until=...) returns the bound verbatim


@_CORES
def test_run_until_leaves_strictly_later_events_pending(core):
    env = core()
    fired = []

    def proc():
        yield env.timeout(4.0000000001)
        fired.append(env.now)

    env.process(proc())
    end = env.run(until=4.0)
    assert fired == []
    assert end == 4.0  # repro: noqa[FLT001] - run(until=...) returns the bound verbatim
    # a later run picks the pending event back up
    env.run()
    assert fired == [4.0000000001]  # repro: noqa[FLT001] - single scheduled instant, exact


@_CORES
def test_run_until_in_the_past_never_rewinds(core):
    env = core()

    def proc():
        yield env.timeout(5.0)
        yield env.timeout(5.0)

    env.process(proc())
    env.run(until=5.0)
    assert env.now == 5.0  # repro: noqa[FLT001] - one hop from t=0, exact
    end = env.run(until=1.0)
    assert end == 5.0  # repro: noqa[FLT001] - a past bound must not rewind the clock
    assert env.now == 5.0  # repro: noqa[FLT001] - a past bound must not rewind the clock


@_CORES
def test_run_until_with_empty_queue_returns_now(core):
    env = core()
    assert env.run(until=9.0) == 0.0  # repro: noqa[FLT001] - nothing scheduled, clock never moved
