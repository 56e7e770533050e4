"""Deterministic fault injection for the hybrid runtime.

The reproduction's happy path models a healthy Titan partition; this
package models the unhealthy one — GPUs that fault (transiently or for
good), PCIe links that degrade, nodes that straggle or crash outright,
and accumulate messages that are lost or delayed in the interconnect.

Three layers:

- :mod:`repro.faults.models` — declarative, seeded fault descriptions
  evaluated on the *simulated* clock (same seed ⇒ same fault schedule
  ⇒ same makespan);
- :mod:`repro.faults.injector` — :class:`FaultInjector`, the single
  query point the runtime and cluster simulation consult; with no
  faults registered every hook short-circuits and the happy path pays
  nothing;
- :mod:`repro.faults.policies` — the resilience side: capped
  exponential :class:`RetryPolicy` with deterministic jitter, and the
  :class:`DegradedModeController` hybrid→CPU-only state machine with
  recovery probing.

See ``docs/FAULTS.md`` for the catalogue and guarantees.
"""

from repro.faults.models import (
    CheckpointCorruption,
    FaultModel,
    GpuFailure,
    MessageDelay,
    MessageLoss,
    NodeCrash,
    PcieDegradation,
    StragglerNode,
)
from repro.faults.injector import FaultInjector
from repro.faults.policies import DegradedModeController, RetryPolicy

__all__ = [
    "CheckpointCorruption",
    "DegradedModeController",
    "FaultInjector",
    "FaultModel",
    "GpuFailure",
    "MessageDelay",
    "MessageLoss",
    "NodeCrash",
    "PcieDegradation",
    "RetryPolicy",
    "StragglerNode",
]
