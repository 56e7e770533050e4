"""Resilience policies: what the runtime does when a fault fires.

Two mechanisms, mirroring the task-replay shape of fault-tolerant
task runtimes (MADNESS's own replay design and the checkpoint/restart
literature in PAPERS.md):

- :class:`RetryPolicy` — capped exponential backoff with deterministic
  seeded jitter; a faulted GPU batch is requeued exactly once per
  attempt until the attempt budget runs out;
- :class:`DegradedModeController` — after ``fault_threshold``
  consecutive GPU faults the node flips from hybrid to CPU-only
  (graceful degradation) and probes the GPU every ``probe_interval``
  simulated seconds; a successful probe restores hybrid dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.models import FaultConfigError, uniform

#: decision domain for backoff jitter draws (see injector's domains)
_DOMAIN_JITTER = 4


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for faulted GPU batches.

    Args:
        max_attempts: total GPU attempts per batch (1 = never retry —
            the first fault sends the share straight to the CPU).
        base_backoff: simulated seconds before the first retry.
        backoff_factor: multiplier per further attempt.
        max_backoff: cap on any single backoff wait.
        jitter: fractional jitter in [0, 1); the wait is scaled by a
            deterministic draw in ``[1 - jitter, 1 + jitter)`` keyed by
            ``(seed, batch, attempt)`` — decorrelates retries without
            sacrificing reproducibility.
        seed: jitter seed.
    """

    max_attempts: int = 3
    base_backoff: float = 1e-4
    backoff_factor: float = 2.0
    max_backoff: float = 1e-2
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff < 0 or self.max_backoff < self.base_backoff:
            raise FaultConfigError(
                f"invalid backoff range [{self.base_backoff}, {self.max_backoff}]"
            )
        if self.backoff_factor < 1.0:
            raise FaultConfigError(
                f"backoff factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise FaultConfigError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )

    def backoff_seconds(self, attempt: int, key: int = 0) -> float:
        """Wait before retry number ``attempt`` (1-based) of batch ``key``."""
        if attempt < 1:
            raise FaultConfigError(f"attempt must be >= 1, got {attempt}")
        raw = min(
            self.base_backoff * self.backoff_factor ** (attempt - 1),
            self.max_backoff,
        )
        if self.jitter == 0.0:
            return raw
        u = uniform(self.seed, _DOMAIN_JITTER, key, attempt)
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * u)


@dataclass
class DegradedModeController:
    """Hybrid → CPU-only degradation with recovery probing.

    State machine::

        HEALTHY --k consecutive faults--> DEGRADED
        DEGRADED --probe_interval elapsed--> PROBE (next batch tries GPU)
        PROBE --success--> HEALTHY      PROBE --fault--> DEGRADED

    A probe is a batch *planned* while the node is degraded, so each
    GPU outcome arrives with its batch's plan instant.  A result from a
    batch planned before the degradation (already on its way to the
    GPU) neither recovers the node nor counts as a failed probe.

    ``probe_interval=None`` never probes: the first degradation is
    permanent (the naive fail-to-CPU baseline the chaos ablation
    measures against).
    """

    fault_threshold: int = 3
    probe_interval: float | None = 0.05
    consecutive_faults: int = 0
    degraded_since: float | None = None
    last_probe_at: float = 0.0
    #: lifetime counters for reporting
    degradations: int = 0
    recoveries: int = 0
    degraded_seconds: float = 0.0
    #: GPU results of batches planned while degraded (a successful
    #: probe is also a recovery)
    probes: int = 0

    def __post_init__(self) -> None:
        if self.fault_threshold < 1:
            raise FaultConfigError(
                f"fault threshold must be >= 1, got {self.fault_threshold}"
            )
        if self.probe_interval is not None and self.probe_interval <= 0:
            raise FaultConfigError(
                f"probe interval must be positive or None, got {self.probe_interval}"
            )

    @property
    def degraded(self) -> bool:
        """Whether the node is currently in CPU-only degraded mode."""
        return self.degraded_since is not None

    def _is_probe(self, planned_at: float) -> bool:
        """Whether a batch planned at ``planned_at`` probes the current
        degradation.  Strictly later: a batch planned at the degradation
        instant itself was planned before the flip, since a degraded node
        sends nothing to the GPU until ``probe_interval`` has elapsed."""
        since = self.degraded_since
        return since is not None and planned_at > since

    def record_fault(self, now: float, planned_at: float) -> None:
        """One GPU fault observed on a batch planned at ``planned_at``;
        may flip the node into degraded mode."""
        self.consecutive_faults += 1
        if self.degraded:
            if self._is_probe(planned_at):
                # a failed probe: stay degraded, restart the probe clock
                self.probes += 1
                self.last_probe_at = now
            return
        if self.consecutive_faults >= self.fault_threshold:
            self.degraded_since = now
            self.last_probe_at = now
            self.degradations += 1

    def record_success(self, now: float, planned_at: float) -> None:
        """One GPU batch planned at ``planned_at`` completed; recovers
        the node if that batch was a probe."""
        self.consecutive_faults = 0
        if self._is_probe(planned_at):
            # a successful probe: the node recovers to hybrid dispatch
            self.probes += 1
            self.degraded_seconds += now - self.degraded_since
            self.degraded_since = None
            self.recoveries += 1

    def should_probe(self, now: float) -> bool:
        """Whether a degraded node should risk its next batch on the GPU."""
        if not self.degraded or self.probe_interval is None:
            return False
        return now - self.last_probe_at >= self.probe_interval

    def finish(self, now: float) -> None:
        """Close the books at end of run (accrue an open degraded span)."""
        if self.degraded:
            self.degraded_seconds += now - self.degraded_since
            self.degraded_since = now
