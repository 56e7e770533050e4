"""A compact discrete-event simulation (DES) kernel.

The hybrid runtime is inherently concurrent — CPU threads, GPU streams,
PCIe transfers and flush timers all progress simultaneously — so the
paper's timing behaviour is reproduced on a simulated clock.  This module
provides the minimal generator-based process model needed (in the style
of SimPy): processes are generators that ``yield`` events; resources are
FIFO semaphores.

Determinism: events scheduled for the same instant fire in scheduling
order, so simulations are exactly reproducible (see docs/DES.md).
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Generator, Iterable
from contextlib import contextmanager
from contextvars import ContextVar

from repro.errors import SimulationError

#: adversarial tie-break source installed by :func:`scheduling_perturbation`
#: (None = the default deterministic scheduling-order tie-break)
_TIE_BREAKER: ContextVar = ContextVar("repro-des-tie-breaker", default=None)


@contextmanager
def scheduling_perturbation(rng):
    """Install ``rng`` (a seeded ``random.Random``) as the same-instant
    tie-breaker for every :class:`Environment` created in this context.

    The schedule-perturbation harness (:mod:`repro.lint.perturb`) uses
    this to re-execute a scenario under an *adversarial but still
    deterministic* schedule: events at one instant fire in seeded-random
    order instead of scheduling order.  Each (seed, scenario) pair is
    exactly reproducible, so a divergence the harness finds can be
    replayed.  Production code never installs a tie-breaker.
    """
    token = _TIE_BREAKER.set(rng)
    try:
        yield
    finally:
        _TIE_BREAKER.reset(token)


class Event:
    """A one-shot occurrence carrying an optional value."""

    __slots__ = ("env", "callbacks", "triggered", "value")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list = []
        self.triggered = False
        self.value = None

    def succeed(self, value=None) -> "Event":
        """Trigger the event now; its callbacks run at the current time."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        self.env._schedule(self, 0.0)
        return self


class Process(Event):
    """A running generator; the event triggers when the generator returns.

    The generator may yield:

    - an :class:`Event` (including another Process) — resume when it
      triggers, receiving its value;
    - ``None`` — resume immediately (a cooperative yield point).
    """

    __slots__ = ("_gen", "_resume")

    def __init__(self, env: "Environment", gen: Generator):
        super().__init__(env)
        self._gen = gen
        #: the callback every wait appends, bound once per process
        self._resume = self._step
        env._schedule(_Resume(env, self, None), 0.0)

    def _step(self, sent_value) -> None:
        try:
            target = self._gen.send(sent_value)
        except StopIteration as stop:
            # a finished process waits on nothing more; dropping its
            # bound resume breaks the self-cycle, so it is freed by
            # reference counting instead of waiting for a collection
            self._resume = None
            self.triggered = True
            self.value = stop.value
            self.env._schedule(self, 0.0)
            return
        if target is None:
            self.env._schedule(_Resume(self.env, self, None), 0.0)
        elif isinstance(target, Event):
            if target.triggered:
                self.env._schedule(_Resume(self.env, self, target.value), 0.0)
            else:
                target.callbacks.append(self._resume)
        else:
            raise SimulationError(
                f"process yielded {target!r}; expected an Event or None"
            )


class _Resume(Event):
    """Internal: scheduled continuation of a process."""

    __slots__ = ("_process", "_value")

    def __init__(self, env: "Environment", process: Process, value):
        super().__init__(env)
        self._process = process
        self._value = value
        self.triggered = True


class Environment:
    """The simulation clock and event queue.

    The queue is one ``heapq`` binary heap of ``(time, draw, seq,
    event)`` entries, popped least key first.  ``draw`` is ``0.0``
    unless :func:`scheduling_perturbation` installed a tie-breaker, and
    ``seq`` is the scheduling order, unique, so two entries never
    compare their events.
    """

    def __init__(self):
        self.now = 0.0
        self._queue: list[tuple[float, float, int, Event]] = []
        self._counter = 0
        #: events popped from the queue and fired so far; nothing that
        #: bypassed the queue is counted
        self.n_processed = 0
        #: same-instant tie-break RNG (perturbation harness only)
        self._tie_breaker = _TIE_BREAKER.get()

    def _schedule(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # ties on (time, draw) fall back to scheduling order; with no
        # tie-breaker installed draw is constant and the queue is the
        # documented deterministic (time, scheduling-order) heap
        draw = 0.0 if self._tie_breaker is None else self._tie_breaker.random()
        heapq.heappush(
            self._queue, (self.now + delay, draw, self._counter, event)
        )
        self._counter += 1

    def event(self) -> Event:
        """A fresh untriggered event bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value=None) -> Event:
        """An event that triggers ``delay`` time units from now.

        It is marked triggered only when its scheduled instant is reached
        (popped from the queue), so processes yielding on it block until
        then.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        ev = Event(self)
        ev.value = value
        # _schedule's entry pushed in place, the hottest entry point: the
        # same key and one draw per entry, in the same order
        tie = self._tie_breaker
        heapq.heappush(
            self._queue,
            (
                self.now + delay,
                0.0 if tie is None else tie.random(),
                self._counter,
                ev,
            ),
        )
        self._counter += 1
        return ev

    def process(self, gen: Generator) -> Process:
        """Start ``gen`` as a DES process; the Process triggers on return."""
        return Process(self, gen)

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains (or the clock passes ``until``).

        The ``until`` bound is **inclusive**: an event scheduled at
        exactly ``until`` fires before the run stops (pinned by
        ``tests/runtime/test_events.py``).  Only events strictly *after*
        ``until`` are left pending, and the clock then stops at
        ``max(now, until)`` — a bound in the past never rewinds the
        clock.

        Returns the final simulation time.
        """
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            if until is not None and queue[0][0] > until:
                if until > self.now:
                    self.now = until
                return self.now
            t, _draw, _seq, event = heappop(queue)
            self.now = t
            self.n_processed += 1
            if type(event) is _Resume:
                event._process._step(event._value)
                continue
            event.triggered = True
            callbacks, event.callbacks = event.callbacks, []
            for cb in callbacks:
                cb(event.value)
        return self.now


class AllOf(Event):
    """Triggers when all given events have triggered."""

    __slots__ = ("_pending",)

    def __init__(self, env: Environment, events: Iterable[Event]):
        super().__init__(env)
        events = list(events)
        self._pending = 0
        for ev in events:
            if not ev.triggered:
                self._pending += 1
                ev.callbacks.append(self._one_done)
        if self._pending == 0:
            self.succeed()

    def _one_done(self, _value) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed()


class Resource:
    """A FIFO counted resource (semaphore) for DES processes.

    Usage inside a process generator::

        req = resource.request()
        yield req
        try:
            yield env.timeout(work_time)
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, capacity: int):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiting: deque[Event] = deque()
        # busy-time accounting for utilisation reports
        self._busy_area = 0.0
        self._last_change = 0.0

    def _account(self) -> None:
        now = self.env.now
        self._busy_area += self.in_use * (now - self._last_change)
        self._last_change = now

    def request(self) -> Event:
        """Request one slot; the returned event triggers when granted."""
        ev = Event(self.env)
        if self.in_use < self.capacity:
            self._account()
            self.in_use += 1
            ev.succeed()
        else:
            self._waiting.append(ev)
        return ev

    def release(self) -> None:
        """Free one slot, handing it straight to the next FIFO waiter."""
        if self.in_use <= 0:
            raise SimulationError("release of an idle resource")
        if self._waiting:
            # hand the slot straight to the next waiter
            self._waiting.popleft().succeed()
        else:
            self._account()
            self.in_use -= 1

    def busy_time(self) -> float:
        """Integrated (slots x time) of use up to the current instant."""
        return self._busy_area + self.in_use * (self.env.now - self._last_change)

    def normalized_busy(self) -> float:
        """Slot-seconds divided by capacity — never exceeds elapsed time.

        For a 1-slot resource this equals :meth:`busy_time`; for
        multi-slot pools it is the equivalent fully-occupied duration,
        the number utilisation reports compare against the makespan.
        """
        return self.busy_time() / self.capacity
