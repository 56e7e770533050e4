"""How fast the host ran while a repeat ran.

The benchmark's host may be a share of a machine whose speed changes by
tens of percent from one second to the next as other tenants come and
go.  While a block runs under :meth:`HostSpeed.sampling`, a timer signal
interrupts it every ``PERIOD_S`` and times a fixed pure-Python loop
(:func:`probe_s`).  The median reading over ``NOMINAL_S`` is the block's
*slowdown*: dividing the block's seconds, less the probes' own time, by
it gives the seconds the block would have taken at full speed.

The probes take about 1% of the block's time.  Signal handlers run
between bytecodes, so a long call into C delays a probe but is never
interrupted by one.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections.abc import Iterator
from contextlib import contextmanager

#: host seconds between probes
PERIOD_S = 0.02
#: iterations of the probe loop
ITERATIONS = 4000
#: one probe on the host the benchmark was tuned on (two vCPUs of an
#: Intel Xeon VM, Python 3.11) while it ran at full speed
NOMINAL_S = 200e-6
#: direct probes taken when a block was too short for the timer to fire
FALLBACK_PROBES = 5


def probe_s() -> float:
    """Seconds one run of the fixed probe loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class HostSpeed:
    """Probe readings, as ``(start, seconds)``, taken while blocks run."""

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.readings.append((start, probe_s()))

    @contextmanager
    def sampling(self) -> Iterator[HostSpeed]:
        """Probe every ``PERIOD_S`` while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def probe_time(self, start: float, end: float) -> float:
        """Seconds the probes that began in ``[start, end)`` took."""
        return sum(s for t, s in self.readings if start <= t < end)

    def slowdown(self) -> float:
        """Median probe over ``NOMINAL_S``: 1.0 at full speed, 1.5 when
        the host ran half again as slow."""
        if not self.readings:
            self.readings = [
                (time.perf_counter(), probe_s()) for _ in range(FALLBACK_PROBES)
            ]
        return statistics.median(s for _t, s in self.readings) / NOMINAL_S
