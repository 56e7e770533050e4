"""Unit tests for the FaultInjector decision point."""

from __future__ import annotations

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.models import (
    FaultConfigError,
    FaultModel,
    GpuFailure,
    MessageDelay,
    MessageLoss,
    NodeCrash,
    PcieDegradation,
    StragglerNode,
)


class TestRegistration:
    def test_empty_injector_is_inactive(self):
        inj = FaultInjector()
        assert not inj.active
        assert inj.faults == ()

    def test_add_activates_and_chains(self):
        inj = FaultInjector().add(GpuFailure(rate=0.1))
        assert inj.active
        assert len(inj.faults) == 1

    def test_constructor_faults(self):
        inj = FaultInjector(
            seed=3, faults=[GpuFailure(rate=0.1), MessageLoss(rate=0.2)]
        )
        assert inj.active
        assert len(inj.faults) == 2

    def test_unknown_model_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultInjector().add(FaultModel())

    def test_repr_mentions_state(self):
        r = repr(FaultInjector(seed=5, faults=[GpuFailure(rate=0.1)]))
        assert "seed=5" in r and "active=True" in r


class TestGpuFaults:
    def test_permanent_always_faults(self):
        inj = FaultInjector(faults=[GpuFailure(permanent=True)])
        assert inj.gpu_permanently_failed(0)
        assert all(
            inj.gpu_batch_fault(0, b, a, 0.0)
            for b in range(10)
            for a in range(3)
        )

    def test_permanent_respects_rank(self):
        inj = FaultInjector(faults=[GpuFailure(rank=1, permanent=True)])
        assert inj.gpu_permanently_failed(1)
        assert not inj.gpu_permanently_failed(0)

    def test_transient_rate_is_respected(self):
        inj = FaultInjector(seed=11, faults=[GpuFailure(rate=0.2)])
        hits = sum(
            inj.gpu_batch_fault(0, b, 0, 0.0) for b in range(2000)
        )
        assert 0.15 < hits / 2000 < 0.25

    def test_transient_is_not_permanent(self):
        inj = FaultInjector(faults=[GpuFailure(rate=0.99)])
        assert not inj.gpu_permanently_failed(0)

    def test_retry_is_independent_trial(self):
        inj = FaultInjector(seed=2, faults=[GpuFailure(rate=0.5)])
        outcomes = {
            inj.gpu_batch_fault(0, 0, attempt, 0.0) for attempt in range(64)
        }
        assert outcomes == {True, False}

    def test_decisions_are_reproducible(self):
        a = FaultInjector(seed=9, faults=[GpuFailure(rate=0.3)])
        b = FaultInjector(seed=9, faults=[GpuFailure(rate=0.3)])
        for batch in range(50):
            assert a.gpu_batch_fault(1, batch, 0, 0.0) == b.gpu_batch_fault(
                1, batch, 0, 0.0
            )

    def test_window_gates_faults(self):
        inj = FaultInjector(
            faults=[GpuFailure(permanent=True, start=1.0, end=2.0)]
        )
        assert not inj.gpu_batch_fault(0, 0, 0, 0.5)
        assert inj.gpu_batch_fault(0, 0, 0, 1.5)
        assert not inj.gpu_batch_fault(0, 0, 0, 2.5)


class TestLinkAndCompute:
    def test_pcie_factor_composes(self):
        inj = FaultInjector(
            faults=[
                PcieDegradation(bandwidth_factor=0.5),
                PcieDegradation(bandwidth_factor=0.5),
            ]
        )
        assert inj.pcie_factor(0, 0.0) == pytest.approx(0.25)

    def test_pcie_factor_healthy_is_one(self):
        assert FaultInjector().pcie_factor(0, 0.0) == 1.0

    def test_compute_slowdown(self):
        inj = FaultInjector(faults=[StragglerNode(slowdown=3.0, rank=2)])
        assert inj.compute_slowdown(2, 0.0) == 3.0
        assert inj.compute_slowdown(0, 0.0) == 1.0


class TestMessages:
    def test_loss_and_delay_counted(self):
        inj = FaultInjector(
            seed=4,
            faults=[MessageLoss(rate=0.5), MessageDelay(rate=1.0,
                                                        delay_seconds=1e-3)],
        )
        lost, delay = inj.message_faults(0, 1000)
        assert 400 < lost < 600
        assert delay == pytest.approx(1.0)

    def test_no_messages_no_faults(self):
        inj = FaultInjector(faults=[MessageLoss(rate=1.0)])
        assert inj.message_faults(0, 0) == (0, 0.0)

    def test_rank_scoped_loss(self):
        inj = FaultInjector(faults=[MessageLoss(rate=1.0, rank=1)])
        assert inj.message_faults(0, 10) == (0, 0.0)
        assert inj.message_faults(1, 10)[0] == 10


class TestCrashes:
    def test_crash_time_none_without_faults(self):
        assert FaultInjector().crash_time(0) is None

    def test_earliest_crash_wins(self):
        inj = FaultInjector(
            faults=[NodeCrash(rank=0, at=2.0), NodeCrash(rank=0, at=1.0)]
        )
        assert inj.crash_time(0) == 1.0
        assert inj.crash_time(1) is None


class TestZeroMessageQueries:
    """Satellite fix: a zero-message query must draw nothing — it can
    never perturb other seeded decisions (bit-identity pins it)."""

    def test_zero_messages_short_circuit(self):
        inj = FaultInjector(
            seed=9,
            faults=[MessageLoss(rate=1.0), MessageDelay(rate=1.0,
                                                        delay_seconds=1.0)],
        )
        assert inj.message_faults(3, 0) == (0, 0.0)
        assert inj.message_faults(3, -1) == (0, 0.0)

    def test_no_message_models_short_circuit(self):
        # crash-only injector: the per-message loop is skipped entirely
        inj = FaultInjector(seed=9, faults=[NodeCrash(rank=0, at=1.0)])
        assert inj.message_faults(0, 10_000) == (0, 0.0)

    def test_zero_message_query_is_bit_identical(self):
        def draws(interleave_empty: bool) -> list[tuple[int, float]]:
            inj = FaultInjector(
                seed=17,
                faults=[
                    MessageLoss(rate=0.3),
                    MessageDelay(rate=0.4, delay_seconds=2e-3),
                ],
            )
            out = []
            for rank in range(4):
                if interleave_empty:
                    # zero-message queries sprinkled between real ones
                    assert inj.message_faults(rank, 0) == (0, 0.0)
                out.append(inj.message_faults(rank, 64))
                if interleave_empty:
                    assert inj.message_faults(rank + 100, 0) == (0, 0.0)
            return out

        assert draws(True) == draws(False)
