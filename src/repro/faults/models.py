"""Seeded, declarative fault models on the simulated clock.

Every model is an immutable description of *when* and *where* a fault
class applies; whether a particular event actually faults is decided by
the :class:`~repro.faults.injector.FaultInjector` with a deterministic
counter-based hash, so a fault schedule is a pure function of
``(seed, fault set)`` — independent of host RNG state, hash
randomisation, and event interleaving.  That is what makes chaos runs
exactly reproducible and zero-fault runs bit-identical to fault-free
ones.

Ranks: ``rank=None`` applies to every rank; an integer restricts the
fault to that rank (the cluster simulation runs one
:class:`~repro.runtime.node.NodeRuntime` per rank).

Windows: ``start``/``end`` bound the fault on the simulated clock;
``end`` defaults to "forever".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ReproError


class FaultConfigError(ReproError, ValueError):
    """Invalid fault model or injector configuration."""


@dataclass(frozen=True)
class FaultModel:
    """Base: a fault bound to a rank (or all ranks) and a time window."""

    rank: int | None = None
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.rank is not None and self.rank < 0:
            raise FaultConfigError(f"rank must be >= 0 or None, got {self.rank}")
        if self.start < 0 or self.end < self.start:
            raise FaultConfigError(
                f"invalid fault window [{self.start}, {self.end})"
            )

    def applies(self, rank: int, now: float) -> bool:
        """Whether this fault is in force on ``rank`` at instant ``now``."""
        if self.rank is not None and self.rank != rank:
            return False
        return self.start <= now < self.end


@dataclass(frozen=True)
class GpuFailure(FaultModel):
    """The GPU faults batches: transiently at ``rate``, or permanently.

    A *transient* failure hits each dispatched GPU batch attempt inside
    the window independently with probability ``rate`` (the attempt
    occupies its streams for its full compute time, produces nothing,
    and is retried per the :class:`~repro.faults.policies.RetryPolicy`).  A *permanent* failure
    (``permanent=True``) fails every GPU batch from ``start`` onward —
    recovery probes keep failing, so a degraded node stays degraded.
    """

    rate: float = 0.0
    permanent: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.rate <= 1.0:
            raise FaultConfigError(
                f"fault rate must be in [0, 1], got {self.rate}"
            )
        if not self.permanent and self.rate == 0.0:
            raise FaultConfigError(
                "transient GpuFailure needs rate > 0 (or set permanent=True)"
            )


@dataclass(frozen=True)
class PcieDegradation(FaultModel):
    """The PCIe link runs at a fraction of its bandwidth in the window.

    ``bandwidth_factor`` is the *remaining* fraction in (0, 1]; transfer
    durations are divided by it.  Overlapping degradations compose
    multiplicatively (two half-speed faults ⇒ quarter speed).
    """

    bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise FaultConfigError(
                f"bandwidth factor must be in (0, 1], got {self.bandwidth_factor}"
            )


@dataclass(frozen=True)
class StragglerNode(FaultModel):
    """Compute on the node runs ``slowdown`` times slower in the window.

    A *windowed* slowdown on the simulated clock — thermal throttling or
    shared-service jitter that comes and goes (the default window makes
    the node slow for the whole run).  Applies to both CPU and GPU
    compute charges.
    """

    slowdown: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.slowdown < 1.0:
            raise FaultConfigError(
                f"straggler slowdown must be >= 1, got {self.slowdown}"
            )


@dataclass(frozen=True)
class MessageLoss(FaultModel):
    """Each inter-rank accumulate message is lost with probability ``rate``.

    A lost message is retransmitted: its full un-hidden drain cost is
    charged a second time (accumulates are asynchronous, so a loss
    costs bandwidth and latency, never correctness — MADNESS replays
    the send).
    """

    rate: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.rate <= 1.0:
            raise FaultConfigError(
                f"message loss rate must be in (0, 1], got {self.rate}"
            )


@dataclass(frozen=True)
class MessageDelay(FaultModel):
    """A fraction of accumulate messages stall ``delay_seconds`` each."""

    rate: float = 1.0
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.rate <= 1.0:
            raise FaultConfigError(
                f"message delay rate must be in (0, 1], got {self.rate}"
            )
        if self.delay_seconds < 0:
            raise FaultConfigError(
                f"message delay must be >= 0, got {self.delay_seconds}"
            )


@dataclass(frozen=True)
class NodeCrash(FaultModel):
    """The rank dies at simulated instant ``at``.

    Crashes need checkpoint/restart recovery (``recovery=``): the rank
    restores its newest readable snapshot and replays the lost window in
    place, and under work stealing its unflushed stolen tasks re-home to
    the victims that granted them (see docs/RECOVERY.md).
    """

    at: float = 0.0

    def __post_init__(self) -> None:
        if self.rank is None:
            raise FaultConfigError("NodeCrash needs an explicit rank")
        super().__post_init__()
        if self.at < 0:
            raise FaultConfigError(f"crash instant must be >= 0, got {self.at}")


@dataclass(frozen=True)
class CheckpointCorruption(FaultModel):
    """Each checkpoint written inside the window is silently corrupted
    with probability ``rate``.

    Corruption is decided (deterministically, per ``(rank, seq)``) when
    the snapshot is *written* but discovered only when recovery tries to
    *read* it — the restore path then walks the lineage chain back to
    the newest uncorrupted ancestor, paying one read charge per
    corrupted snapshot it rejects.
    """

    rate: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.rate <= 1.0:
            raise FaultConfigError(
                f"checkpoint corruption rate must be in (0, 1], got {self.rate}"
            )


# -- deterministic per-decision hashing ------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 scrambling round (stable across processes)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix64(*parts: int) -> int:
    """Fold integer key parts into one 64-bit hash, order-sensitively.

    Python's built-in ``hash`` is salted per process for strings, and
    global RNG state is banned in simulated-time code (lint DET002); this
    keyed mix is the deterministic substitute every fault decision draws
    from.
    """
    h = 0
    for p in parts:
        h = _splitmix64((h ^ (int(p) & _MASK64)) & _MASK64)
    return h


def uniform(seed: int, *key: int) -> float:
    """A deterministic uniform draw in [0, 1) keyed by ``(seed, *key)``."""
    return mix64(seed, *key) / float(1 << 64)
