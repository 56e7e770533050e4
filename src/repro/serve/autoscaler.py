"""Reactive rank-pool autoscaling against observed queue delay.

A deliberately simple hysteresis controller — the point is the
*mechanism* (resizing a simulated rank pool mid-run, deterministically,
with a ``scale`` trace record per decision), not a clever policy:

- queue delay above ``high_water`` → grow by ``step`` ranks;
- queue delay below ``low_water`` **and** a shallow backlog → shrink
  by ``step``;
- both bounded to ``[min_ranks, max_ranks]`` and rate-limited by
  ``cooldown`` seconds between decisions so the pool cannot flap
  within one burst.

The autoscaler holds no clock of its own: the service polls
:meth:`ReactiveAutoscaler.decide` on its sampling interval with the
simulated ``now``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError


class AutoscalerConfigError(ReproError, ValueError):
    """An autoscaling policy was configured with invalid parameters."""


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs of the reactive pool controller (see module docstring)."""

    min_ranks: int
    max_ranks: int
    interval: float = 0.25
    high_water: float = 0.25
    low_water: float = 0.05
    step: int = 1
    cooldown: float = 0.5

    def __post_init__(self) -> None:
        if self.min_ranks < 1:
            raise AutoscalerConfigError(
                f"min ranks must be >= 1, got {self.min_ranks}"
            )
        if self.max_ranks < self.min_ranks:
            raise AutoscalerConfigError(
                f"max ranks {self.max_ranks} below min {self.min_ranks}"
            )
        if self.interval <= 0:
            raise AutoscalerConfigError(
                f"sampling interval must be > 0, got {self.interval}"
            )
        if self.low_water >= self.high_water:
            raise AutoscalerConfigError(
                f"low water {self.low_water} must be below high water "
                f"{self.high_water}"
            )
        if self.step < 1:
            raise AutoscalerConfigError(f"step must be >= 1, got {self.step}")
        if self.cooldown < 0:
            raise AutoscalerConfigError(
                f"cooldown must be >= 0, got {self.cooldown}"
            )


class ReactiveAutoscaler:
    """Hysteresis controller over the simulated rank pool size."""

    def __init__(self, config: AutoscalerConfig):
        self.config = config
        self._last_change: float | None = None

    def decide(
        self,
        now: float,
        pool_size: int,
        queue_delay: float,
        queue_depth: int,
        dead_ranks: int = 0,
    ) -> int | None:
        """The new pool size, or ``None`` to hold.

        ``queue_delay`` is the age of the oldest queued item;
        ``queue_depth`` the backlog size (a shrink needs both calm).
        ``dead_ranks`` is how many ranks inside the current pool have
        crashed: the controller reasons about *live* capacity, so a
        crash both trips growth sooner and shifts the ``[min_ranks,
        max_ranks]`` clamps — a replacement rank spawned past a dead
        one does not count against the configured ceiling.
        """
        cfg = self.config
        if (
            self._last_change is not None
            and now - self._last_change < cfg.cooldown
        ):
            return None
        live = pool_size - dead_ranks
        target = None
        if queue_delay > cfg.high_water and live < cfg.max_ranks:
            target = min(cfg.max_ranks + dead_ranks, pool_size + cfg.step)
        elif (
            queue_delay < cfg.low_water
            and queue_depth == 0
            and live > cfg.min_ranks
        ):
            target = max(cfg.min_ranks + dead_ranks, pool_size - cfg.step)
        if target is None or target == pool_size:
            return None
        self._last_change = now
        return target
