"""The fault injector: one query point between the models and the runtime.

A :class:`FaultInjector` owns a seed and a set of
:mod:`~repro.faults.models` instances, and answers the runtime's
questions — "does this GPU batch attempt fault?", "how slow is PCIe
right now?", "is this accumulate message lost?" — with deterministic
counter-keyed draws (:func:`~repro.faults.models.uniform`).  Every
decision is a pure function of ``(seed, decision key)``, so the fault
schedule is identical run to run regardless of event interleaving.

**Zero-overhead happy path.**  With no faults registered,
:attr:`active` is ``False`` and the runtime never enters a chaos code
path: the injector costs an attribute check per run, not per event, and
timelines are bit-identical to runs without an injector (a regression
test asserts this).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.faults.models import (
    CheckpointCorruption,
    FaultConfigError,
    FaultModel,
    GpuFailure,
    MessageDelay,
    MessageLoss,
    NodeCrash,
    PcieDegradation,
    StragglerNode,
    uniform,
)

#: decision domains, so draws for different questions never correlate
#: (domain 4 is the retry-policy jitter, see repro.faults.policies)
_DOMAIN_GPU = 1
_DOMAIN_MSG_LOSS = 2
_DOMAIN_MSG_DELAY = 3
_DOMAIN_CKPT = 5


class FaultInjector:
    """Holds registered faults and decides their occurrences.

    Args:
        seed: the fault schedule's seed; two injectors with equal seeds
            and fault sets produce identical schedules.
        faults: initial fault models (more may be :meth:`add`-ed).
    """

    def __init__(self, seed: int = 0, faults: Iterable[FaultModel] = ()):
        self.seed = int(seed)
        self._gpu: list[GpuFailure] = []
        self._pcie: list[PcieDegradation] = []
        self._stragglers: list[StragglerNode] = []
        self._msg_loss: list[MessageLoss] = []
        self._msg_delay: list[MessageDelay] = []
        self._crashes: list[NodeCrash] = []
        self._ckpt_corruption: list[CheckpointCorruption] = []
        self.add(*faults)

    def add(self, *faults: FaultModel) -> "FaultInjector":
        """Register fault models; returns self for chaining."""
        buckets = {
            GpuFailure: self._gpu,
            PcieDegradation: self._pcie,
            StragglerNode: self._stragglers,
            MessageLoss: self._msg_loss,
            MessageDelay: self._msg_delay,
            NodeCrash: self._crashes,
            CheckpointCorruption: self._ckpt_corruption,
        }
        for fault in faults:
            bucket = buckets.get(type(fault))
            if bucket is None:
                raise FaultConfigError(
                    f"unknown fault model {type(fault).__name__}"
                )
            bucket.append(fault)
        return self

    @property
    def active(self) -> bool:
        """Whether any fault is registered (False ⇒ happy path untouched)."""
        return bool(
            self._gpu
            or self._pcie
            or self._stragglers
            or self._msg_loss
            or self._msg_delay
            or self._crashes
            or self._ckpt_corruption
        )

    @property
    def faults(self) -> tuple[FaultModel, ...]:
        """Every registered fault model, grouped by type."""
        return tuple(
            self._gpu
            + self._pcie
            + self._stragglers
            + self._msg_loss
            + self._msg_delay
            + self._crashes
            + self._ckpt_corruption
        )

    # -- GPU batch faults -------------------------------------------------------

    def gpu_permanently_failed(self, rank: int, now: float = 0.0) -> bool:
        """Whether a permanent GPU failure is in force on ``rank`` at ``now``."""
        return any(
            f.permanent and f.applies(rank, now) for f in self._gpu
        )

    def gpu_batch_fault(
        self, rank: int, batch_index: int, attempt: int, now: float
    ) -> bool:
        """Whether this GPU batch attempt faults.

        Permanent failures always fault inside their window; transient
        ones draw per ``(rank, batch, attempt)`` so a retry of the same
        batch is an independent trial — which is what makes retrying
        worthwhile.
        """
        for f in self._gpu:
            if not f.applies(rank, now):
                continue
            if f.permanent:
                return True
            if (
                uniform(self.seed, _DOMAIN_GPU, rank, batch_index, attempt)
                < f.rate
            ):
                return True
        return False

    # -- link and compute degradation -------------------------------------------

    def pcie_factor(self, rank: int, now: float) -> float:
        """Remaining PCIe bandwidth fraction at ``now`` (1.0 = healthy).

        Overlapping degradations compose multiplicatively.
        """
        factor = 1.0
        for f in self._pcie:
            if f.applies(rank, now):
                factor *= f.bandwidth_factor
        return factor

    def compute_slowdown(self, rank: int, now: float) -> float:
        """Compute slowdown multiplier at ``now`` (1.0 = full speed)."""
        slowdown = 1.0
        for f in self._stragglers:
            if f.applies(rank, now):
                slowdown *= f.slowdown
        return slowdown

    # -- accumulate traffic ------------------------------------------------------

    def message_faults(
        self, rank: int, n_messages: int
    ) -> tuple[int, float]:
        """(messages lost, total stall seconds) over a rank's traffic.

        Message index is the decision counter, so the outcome is a pure
        function of the schedule — the cluster simulation charges the
        retransmits and stalls onto the rank's network drain.  A query
        over zero messages (or with no message faults registered) draws
        nothing and cannot perturb any other seeded decision.
        """
        if n_messages <= 0 or not (self._msg_loss or self._msg_delay):
            return 0, 0.0
        lost = 0
        delay = 0.0
        for i in range(n_messages):
            for f in self._msg_loss:
                if f.rank is not None and f.rank != rank:
                    continue
                if uniform(self.seed, _DOMAIN_MSG_LOSS, rank, i) < f.rate:
                    lost += 1
                    break
            for f in self._msg_delay:
                if f.rank is not None and f.rank != rank:
                    continue
                if uniform(self.seed, _DOMAIN_MSG_DELAY, rank, i) < f.rate:
                    delay += f.delay_seconds
        return lost, delay

    # -- crashes -----------------------------------------------------------------

    def crash_time(self, rank: int) -> float | None:
        """Earliest crash instant scheduled for ``rank`` (None = survives)."""
        times = [c.at for c in self._crashes if c.rank == rank]
        return min(times) if times else None

    def crash_times(self, rank: int) -> tuple[float, ...]:
        """Every crash instant scheduled for ``rank``, sorted ascending.

        The recovery protocol consumes these one restart at a time:
        crashes scheduled while the node is already down are skipped
        (the machine was not up to crash).
        """
        return tuple(sorted(c.at for c in self._crashes if c.rank == rank))

    # -- checkpoint integrity ------------------------------------------------------

    def checkpoint_corrupted(self, rank: int, seq: int, now: float) -> bool:
        """Whether the checkpoint written as ``seq`` on ``rank`` at ``now``
        is silently corrupted (discovered only at restore time)."""
        for f in self._ckpt_corruption:
            if not f.applies(rank, now):
                continue
            if uniform(self.seed, _DOMAIN_CKPT, rank, seq) < f.rate:
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, "
            f"faults={len(self.faults)}, active={self.active})"
        )
