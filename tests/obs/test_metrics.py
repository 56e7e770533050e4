"""Unit tests for the simulated-clock metrics registry."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates_and_samples(self):
        c = Counter("batches")
        c.inc(0.1)
        c.inc(0.5, 2.0)
        assert c.total == 3.0
        assert c.samples == [(0.1, 1.0), (0.5, 3.0)]

    def test_negative_increment_rejected(self):
        c = Counter("batches")
        with pytest.raises(MetricsError, match="must be >= 0"):
            c.inc(0.1, -1.0)
        assert c.total == 0.0 and c.samples == []


class TestGauge:
    def test_set_tracks_level(self):
        g = Gauge("inflight")
        g.set(0.1, 3)
        g.set(0.2, 1)
        assert g.value == 1.0
        assert g.samples == [(0.1, 3.0), (0.2, 1.0)]


class TestHistogram:
    def test_summary(self):
        h = Histogram("latency")
        for at, v in [(0.1, 2.0), (0.2, 4.0), (0.3, 6.0)]:
            h.observe(at, v)
        assert h.count == 3
        assert h.summary() == {
            "count": 3, "total": 12.0, "min": 2.0, "max": 6.0, "mean": 4.0,
        }

    def test_empty_summary(self):
        assert Histogram("latency").summary()["count"] == 0


class TestRegistry:
    def test_create_on_first_use_and_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_bool_reflects_registered_metrics(self):
        reg = MetricsRegistry()
        assert not MetricsRegistry()
        reg.counter("a")
        assert reg

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricsError, match="already registered"):
            reg.gauge("x")
        with pytest.raises(MetricsError, match="already registered"):
            reg.histogram("x")

    def test_sorted_views(self):
        reg = MetricsRegistry()
        reg.counter("zeta")
        reg.counter("alpha")
        assert list(reg.counters) == ["alpha", "zeta"]

    def test_shifted_offsets_every_sample(self):
        reg = MetricsRegistry()
        view = reg.shifted(10.0)
        view.counter("c").inc(0.5)
        view.gauge("g").set(0.25, 7)
        view.histogram("h").observe(0.75, 3.0)
        assert reg.counter("c").samples == [(10.5, 1.0)]
        assert reg.gauge("g").samples == [(10.25, 7.0)]
        assert reg.histogram("h").samples == [(10.75, 3.0)]

    def test_shifted_negative_offset_rejected(self):
        with pytest.raises(MetricsError, match="offset"):
            MetricsRegistry().shifted(-1.0)

    def test_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(0.125, 2.0)
        reg.gauge("g").set(0.25, 3.5)
        reg.histogram("h").observe(0.5, 1.25)
        rebuilt = MetricsRegistry.from_dict(reg.to_dict())
        assert rebuilt.to_dict() == reg.to_dict()
        assert rebuilt.counter("c").total == 2.0
        assert rebuilt.gauge("g").value == 3.5
        assert rebuilt.histogram("h").count == 1
