"""Checkpoint/restart with deterministic replay.

Replaces the omniscient crash model — where the cluster simulation
redistributed a crashed rank's work with perfect foresight — with an
honest recovery protocol: ranks write durable snapshots of their
accumulated results on a configurable interval policy, survivors detect
a crash after a timeout, the victim restores its newest readable
snapshot (walking the lineage chain past corrupted ones), and the lost
window is re-executed deterministically.

Three modules:

- :mod:`repro.recovery.policy` — *when* to checkpoint: fixed-period,
  every-N-batches, and the Young/Daly optimum derived from the crash
  rate;
- :mod:`repro.recovery.checkpoint` — *what* a checkpoint is and costs:
  the snapshot lineage with its one restore step, the serialize + drain
  cost model, the :class:`Checkpointer` that both the node runtime and
  the work-stealing engine write snapshots through, and the migration
  ledger stealing runs recover with;
- :mod:`repro.recovery.protocol` — the crash → detect → restore →
  replay loop, exactly-once result delivery, and the
  :class:`DataLossError` restart budget.

See ``docs/RECOVERY.md`` for the model and its guarantees.
"""

from repro.recovery.checkpoint import (
    Checkpoint,
    Checkpointer,
    CheckpointCostModel,
    CheckpointStore,
    MigrationLedger,
    MigrationRecord,
    Restore,
)
from repro.recovery.policy import (
    CheckpointPolicy,
    EveryNBatches,
    FixedInterval,
    YoungDaly,
    young_daly_interval,
)
from repro.recovery.protocol import (
    RecoveredRun,
    RecoveryConfig,
    run_with_recovery,
)

__all__ = [
    "Checkpoint",
    "CheckpointCostModel",
    "CheckpointPolicy",
    "CheckpointStore",
    "Checkpointer",
    "EveryNBatches",
    "FixedInterval",
    "MigrationLedger",
    "MigrationRecord",
    "RecoveredRun",
    "RecoveryConfig",
    "Restore",
    "YoungDaly",
    "young_daly_interval",
    "run_with_recovery",
]
