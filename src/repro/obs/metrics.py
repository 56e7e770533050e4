"""Simulated-clock metrics: counters, gauges and histograms.

A :class:`MetricsRegistry` is the publication point the runtime, fault,
recovery and cluster layers write into while a simulation runs.  Every
sample is stamped with the *simulated* instant it happened at — never
wall clock — so a registry's contents are a pure function of the run's
seeds and byte-identical run to run.

Three metric types cover the paper's observability needs:

- :class:`Counter` — monotone totals (batches flushed, cache hits,
  injected faults).  Each increment appends a ``(at, total)`` sample,
  which the Chrome-trace exporter renders as a counter track.
- :class:`Gauge` — instantaneous levels (in-flight batches, degraded
  state).  Each ``set`` appends ``(at, value)``.
- :class:`Histogram` — distributions (batch latency, backoff waits).
  Raw observations are kept so summaries are exact, not bucketed.

Publishing is opt-in and zero-cost when absent: every producer guards
on ``registry is not None``, so an unarmed run executes no metrics code
at all (the same armed-but-idle contract as tracing, fault injection
and checkpointing).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import ReproError


class MetricsError(ReproError, ValueError):
    """An invalid metrics operation (bad name, type clash, bad merge)."""


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (``0 <= q <= 100``), by
    linear interpolation between order statistics — the latency
    quantile estimator the serving layer reports p50/p95/p99 through.
    No values report 0.0."""
    if not 0.0 <= q <= 100.0:
        raise MetricsError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _deltas(samples: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Per-sample increments of a counter's (at, running-total) stream."""
    prev = 0.0
    out = []
    for at, total in samples:
        out.append((at, total - prev))
        prev = total
    return out


@dataclass
class Counter:
    """A monotonically increasing total on the simulated clock."""

    name: str
    total: float = 0.0
    #: (simulated instant, running total *after* the increment)
    samples: list[tuple[float, float]] = field(default_factory=list)

    def inc(self, at: float, value: float = 1.0) -> None:
        """Add ``value`` (>= 0) at simulated instant ``at``."""
        if value < 0:
            raise MetricsError(
                f"counter {self.name!r} increment must be >= 0, got {value}"
            )
        self.total += value
        self.samples.append((at, self.total))


@dataclass
class Gauge:
    """An instantaneous level on the simulated clock."""

    name: str
    value: float = 0.0
    #: (simulated instant, value set)
    samples: list[tuple[float, float]] = field(default_factory=list)

    def set(self, at: float, value: float) -> None:
        """Record the level ``value`` at simulated instant ``at``."""
        self.value = float(value)
        self.samples.append((at, self.value))


@dataclass
class Histogram:
    """A distribution of observed values on the simulated clock."""

    name: str
    #: (simulated instant, observed value)
    samples: list[tuple[float, float]] = field(default_factory=list)

    def observe(self, at: float, value: float) -> None:
        """Record one observation at simulated instant ``at``."""
        self.samples.append((at, float(value)))

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self.samples)

    @property
    def total(self) -> float:
        """Sum of observed values."""
        return sum(v for _, v in self.samples)

    def summary(self) -> dict:
        """count / total / min / max / mean of the observations."""
        values = [v for _, v in self.samples]
        if not values:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {
            "count": len(values),
            "total": sum(values),
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
        }

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the observed values (see
        :func:`percentile`)."""
        return percentile((v for _, v in self.samples), q)

    def percentiles(self, *qs: float) -> dict[str, float]:
        """Several percentiles at once, keyed ``"p50"``-style (integral
        quantiles render without the decimal point)."""
        out: dict[str, float] = {}
        for q in qs:
            key = f"p{int(q)}" if float(q).is_integer() else f"p{q}"
            out[key] = self.percentile(q)
        return out


class MetricsRegistry:
    """Named metrics published during one simulation run.

    Metrics are created on first use (``registry.counter("x").inc(...)``)
    and a name is bound to exactly one type — asking for an existing
    name as a different type raises :class:`MetricsError`.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- access -----------------------------------------------------------------

    def _check_free(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise MetricsError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, "counter")
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, "gauge")
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name, "histogram")
            metric = self._histograms[name] = Histogram(name)
        return metric

    @property
    def counters(self) -> dict[str, Counter]:
        """Counters by name, in sorted order."""
        return dict(sorted(self._counters.items()))

    @property
    def gauges(self) -> dict[str, Gauge]:
        """Gauges by name, in sorted order."""
        return dict(sorted(self._gauges.items()))

    @property
    def histograms(self) -> dict[str, Histogram]:
        """Histograms by name, in sorted order."""
        return dict(sorted(self._histograms.items()))

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._histograms)

    # -- recovery-segment support -------------------------------------------------

    def shifted(self, offset: float) -> "ShiftedRegistry":
        """A view that adds ``offset`` to every recorded instant.

        The metrics twin of :class:`~repro.runtime.trace.OffsetTracer`:
        recovery segments run on fresh segment clocks but publish onto
        the run's global timeline.
        """
        return ShiftedRegistry(self, offset)

    # -- cross-rank aggregation ---------------------------------------------------

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry's samples into this one.

        Counters re-accumulate on the merged sample sequence (sorted by
        instant), gauges interleave their level changes, histograms
        concatenate observations.  Used to aggregate per-rank registries
        into one cluster-wide view.
        """
        for name, counter in other.counters.items():
            mine = self.counter(name)
            flat = sorted(_deltas(mine.samples) + _deltas(counter.samples))
            total = 0.0
            rebuilt: list[tuple[float, float]] = []
            for at, delta in flat:
                total += delta
                rebuilt.append((at, total))
            mine.samples = rebuilt
            mine.total = total
        for name, gauge in other.gauges.items():
            mine_g = self.gauge(name)
            mine_g.samples = sorted(mine_g.samples + gauge.samples)
            if mine_g.samples:
                mine_g.value = mine_g.samples[-1][1]
        for name, hist in other.histograms.items():
            mine_h = self.histogram(name)
            mine_h.samples = sorted(mine_h.samples + hist.samples)

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form (sorted names, raw samples preserved)."""
        return {
            "counters": {
                name: {"total": c.total, "samples": [list(s) for s in c.samples]}
                for name, c in self.counters.items()
            },
            "gauges": {
                name: {"value": g.value, "samples": [list(s) for s in g.samples]}
                for name, g in self.gauges.items()
            },
            "histograms": {
                name: {"samples": [list(s) for s in h.samples]}
                for name, h in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "MetricsRegistry":
        """Rebuild a registry serialized by :meth:`to_dict`."""
        registry = cls()
        for name, data in raw.get("counters", {}).items():
            c = registry.counter(name)
            c.total = data["total"]
            c.samples = [tuple(s) for s in data["samples"]]
        for name, data in raw.get("gauges", {}).items():
            g = registry.gauge(name)
            g.value = data["value"]
            g.samples = [tuple(s) for s in data["samples"]]
        for name, data in raw.get("histograms", {}).items():
            registry.histogram(name).samples = [
                tuple(s) for s in data["samples"]
            ]
        return registry


class ShiftedRegistry:
    """A registry view adding a clock offset to every sample.

    Shares the base registry's metric tables; only the recorded
    instants shift.  Handed to recovery segments so their samples land
    on the run's global timeline.
    """

    def __init__(self, base: MetricsRegistry, offset: float):
        if offset < 0:
            raise MetricsError(
                f"registry offset must be >= 0, got {offset}"
            )
        self._base = base
        self.offset = offset

    def counter(self, name: str) -> "_ShiftedCounter":
        """The base counter, increments shifted onto the global clock."""
        return _ShiftedCounter(self._base.counter(name), self.offset)

    def gauge(self, name: str) -> "_ShiftedGauge":
        """The base gauge, sets shifted onto the global clock."""
        return _ShiftedGauge(self._base.gauge(name), self.offset)

    def histogram(self, name: str) -> "_ShiftedHistogram":
        """The base histogram, observations shifted onto the global clock."""
        return _ShiftedHistogram(self._base.histogram(name), self.offset)


class _ShiftedCounter:
    def __init__(self, base: Counter, offset: float):
        self._base = base
        self._offset = offset

    def inc(self, at: float, value: float = 1.0) -> None:
        self._base.inc(at + self._offset, value)


class _ShiftedGauge:
    def __init__(self, base: Gauge, offset: float):
        self._base = base
        self._offset = offset

    def set(self, at: float, value: float) -> None:
        self._base.set(at + self._offset, value)


class _ShiftedHistogram:
    def __init__(self, base: Histogram, offset: float):
        self._base = base
        self._offset = offset

    def observe(self, at: float, value: float) -> None:
        self._base.observe(at + self._offset, value)
