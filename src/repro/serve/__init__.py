"""Open-loop multi-tenant serving front door for the MRA cluster.

Everything before this package is a *closed-loop* batch run: one
workload, one driver, makespan as the figure of merit.  ``repro.serve``
turns the simulated cluster into a *service*: an open-loop arrival
process (deterministic trace replay plus seeded Poisson/bursty
generators) emits MRA jobs — Coulomb ``apply`` batches,
compress/reconstruct chains, full project→compress→apply→reconstruct
operator pipelines — from many simulated tenants; an admission
controller enforces per-tenant token-bucket fairness and queue-depth
load shedding; jobs carry priority/SLO classes with deadline-aware
(EDF within class) dispatch; a cross-job batcher shape-buckets
compatible compute sub-tasks from *different* jobs into shared batches
(the MoE static-batching idea, applied across jobs); and a reactive
autoscaler grows/shrinks the simulated rank pool against observed
queue delay.

The whole layer runs on the existing DES clock and is deterministic:
byte-identical trace dumps across reruns, the job ledger verified by
``repro.lint.trace_check`` invariant #9 and the race detector.  See
docs/SERVING.md.
"""

from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    TokenBucket,
)
from repro.serve.arrivals import (
    BurstyArrivals,
    JobRequest,
    PoissonArrivals,
    TraceArrivals,
)
from repro.serve.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.serve.batcher import CrossJobBatcher, Run
from repro.serve.jobs import (
    DEFAULT_CLASSES,
    JOB_TEMPLATES,
    Job,
    JobTemplate,
    SloClass,
    build_job,
)
from repro.serve.service import (
    JobOutcome,
    JobService,
    ServeConfig,
    ServeResult,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AutoscalerConfig",
    "BurstyArrivals",
    "CrossJobBatcher",
    "DEFAULT_CLASSES",
    "JOB_TEMPLATES",
    "Job",
    "JobOutcome",
    "JobRequest",
    "JobService",
    "JobTemplate",
    "PoissonArrivals",
    "ReactiveAutoscaler",
    "Run",
    "ServeConfig",
    "ServeResult",
    "SloClass",
    "TokenBucket",
    "TraceArrivals",
]
