"""Unit tests for the retry and degraded-mode policies."""

from __future__ import annotations

import pytest

from repro.faults.models import FaultConfigError
from repro.faults.policies import DegradedModeController, RetryPolicy


class TestRetryPolicy:
    def test_backoff_grows_then_caps(self):
        p = RetryPolicy(
            base_backoff=1e-4, backoff_factor=2.0, max_backoff=4e-4, jitter=0.0
        )
        waits = [p.backoff_seconds(a) for a in (1, 2, 3, 4)]
        assert waits == pytest.approx([1e-4, 2e-4, 4e-4, 4e-4])

    def test_jitter_is_bounded_and_deterministic(self):
        p = RetryPolicy(jitter=0.25, seed=3)
        raw = RetryPolicy(jitter=0.0).backoff_seconds(1)
        for key in range(200):
            w = p.backoff_seconds(1, key=key)
            assert 0.75 * raw <= w <= 1.25 * raw
            assert w == p.backoff_seconds(1, key=key)

    def test_jitter_varies_by_key(self):
        p = RetryPolicy(jitter=0.25, seed=3)
        assert len({p.backoff_seconds(1, key=k) for k in range(10)}) > 1

    def test_attempt_must_be_positive(self):
        with pytest.raises(FaultConfigError):
            RetryPolicy().backoff_seconds(0)

    def test_validation(self):
        with pytest.raises(FaultConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(FaultConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(FaultConfigError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(FaultConfigError):
            RetryPolicy(base_backoff=1.0, max_backoff=0.5)


class TestDegradedMode:
    def test_flips_after_threshold(self):
        ctl = DegradedModeController(fault_threshold=3)
        ctl.record_fault(1.0, planned_at=1.0)
        ctl.record_fault(2.0, planned_at=2.0)
        assert not ctl.degraded
        ctl.record_fault(3.0, planned_at=3.0)
        assert ctl.degraded
        assert ctl.degradations == 1

    def test_success_resets_streak(self):
        ctl = DegradedModeController(fault_threshold=2)
        ctl.record_fault(1.0, planned_at=1.0)
        ctl.record_success(2.0, planned_at=2.0)
        ctl.record_fault(3.0, planned_at=3.0)
        assert not ctl.degraded

    def test_probe_after_interval_and_recovery(self):
        ctl = DegradedModeController(fault_threshold=1, probe_interval=1.0)
        ctl.record_fault(0.0, planned_at=0.0)
        assert ctl.degraded
        assert not ctl.should_probe(0.5)
        assert ctl.should_probe(1.0)
        ctl.record_success(1.5, planned_at=1.0)
        assert not ctl.degraded
        assert ctl.recoveries == 1
        assert ctl.degraded_seconds == pytest.approx(1.5)

    def test_failed_probe_restarts_clock(self):
        ctl = DegradedModeController(fault_threshold=1, probe_interval=1.0)
        ctl.record_fault(0.0, planned_at=0.0)
        # a batch planned before the flip is no probe: no clock restart
        ctl.record_fault(0.5, planned_at=0.0)
        assert ctl.probes == 0
        assert ctl.should_probe(1.0)
        ctl.record_fault(1.0, planned_at=1.0)  # failed probe
        assert ctl.probes == 1
        assert ctl.degraded
        assert not ctl.should_probe(1.5)
        assert ctl.should_probe(2.0)

    def test_none_interval_never_probes(self):
        ctl = DegradedModeController(fault_threshold=1, probe_interval=None)
        ctl.record_fault(1.0, planned_at=0.5)
        assert not ctl.should_probe(1e9)
        # a success from a batch planned before the degradation is no
        # probe: the node stays degraded
        ctl.record_success(1.2, planned_at=0.8)
        assert ctl.degraded
        assert ctl.recoveries == 0
        assert ctl.probes == 0

    def test_finish_accrues_open_span(self):
        ctl = DegradedModeController(fault_threshold=1)
        ctl.record_fault(1.0, planned_at=1.0)
        ctl.finish(3.0)
        assert ctl.degraded_seconds == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(FaultConfigError):
            DegradedModeController(fault_threshold=0)
        with pytest.raises(FaultConfigError):
            DegradedModeController(probe_interval=0.0)


class TestRetryBackoffSaturation:
    """Satellite coverage: jitter at the attempt boundary and the cap
    arithmetic — delays are monotone-bounded and deterministic."""

    def test_raw_schedule_is_monotone_then_saturates(self):
        p = RetryPolicy(
            max_attempts=6,
            base_backoff=1e-4,
            backoff_factor=3.0,
            max_backoff=2e-3,
            jitter=0.0,
        )
        waits = [p.backoff_seconds(a) for a in range(1, 12)]
        assert all(b >= a for a, b in zip(waits, waits[1:]))
        assert waits[-1] == p.max_backoff
        # once saturated, every later attempt stays pinned at the cap
        sat = next(i for i, w in enumerate(waits) if w == p.max_backoff)
        assert all(w == p.max_backoff for w in waits[sat:])

    def test_jittered_wait_is_bounded_by_the_cap_envelope(self):
        p = RetryPolicy(
            base_backoff=1e-4, backoff_factor=2.0, max_backoff=1e-3,
            jitter=0.25, seed=11,
        )
        for key in range(20):
            for attempt in range(1, 10):
                raw = min(
                    p.base_backoff * p.backoff_factor ** (attempt - 1),
                    p.max_backoff,
                )
                w = p.backoff_seconds(attempt, key=key)
                assert raw * (1 - p.jitter) <= w < raw * (1 + p.jitter)
                assert w < p.max_backoff * (1 + p.jitter)

    def test_deterministic_per_key_and_attempt(self):
        a = RetryPolicy(jitter=0.5, seed=3)
        b = RetryPolicy(jitter=0.5, seed=3)
        table_a = [
            a.backoff_seconds(att, key=k)
            for k in range(8) for att in range(1, 5)
        ]
        table_b = [
            b.backoff_seconds(att, key=k)
            for k in range(8) for att in range(1, 5)
        ]
        assert table_a == table_b
        # a different seed decorrelates the whole table
        c = RetryPolicy(jitter=0.5, seed=4)
        assert table_a != [
            c.backoff_seconds(att, key=k)
            for k in range(8) for att in range(1, 5)
        ]

    def test_boundary_attempt_draws_like_any_other(self):
        p = RetryPolicy(max_attempts=3, jitter=0.25, seed=5)
        # the policy prices any attempt number the runtime asks about,
        # including the last budgeted one and hypothetical later ones
        last = p.backoff_seconds(p.max_attempts, key=1)
        beyond = p.backoff_seconds(p.max_attempts + 1, key=1)
        assert last > 0 and beyond > 0
        assert beyond < p.max_backoff * (1 + p.jitter)
