"""MRA job templates, SLO classes, and the serving job model.

A *job* is what one tenant submits in one request: a small DAG of
batchable compute stages.  Three templates cover the workload families
the paper and the related pipelines motivate:

- ``coulomb-apply`` — one stage of Coulomb operator ``apply`` items
  (the paper's headline workload);
- ``compress-chain`` — a compress stage followed by a reconstruct
  stage (the transform pair bracketing every operator application);
- ``pipeline`` — the full project→compress→apply→reconstruct operator
  chain (Teodoro et al.'s hierarchical-pipeline shape).

Stages run in order; every item of stage *n* must accumulate before
stage *n+1* becomes dispatchable.  Items are synthetic (cost-model
only) :class:`~repro.runtime.task.WorkItem`\\ s shaped by the paper's
Formula 1 quantities, with the SLO class folded into the
:class:`~repro.runtime.task.TaskKind` signature so the cross-job
batcher only ever merges items of one class — which keeps the
per-kind FIFO invariant (trace_check #2) intact under EDF dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.runtime.task import TaskKind, WorkItem

#: spatial dimension of the synthetic MRA tensors
_DIM = 3
#: operator rank of the separated representation (Formula 1's mu range)
_OP_RANK = 6


class JobConfigError(ReproError, ValueError):
    """A serving job was configured with invalid parameters."""


@dataclass(frozen=True)
class SloClass:
    """One service-level class.

    ``priority`` orders classes for dispatch (lower = more urgent);
    ``deadline_seconds`` is the completion budget measured from
    admission — a job finishing later counts against goodput and logs
    a ``deadline_miss`` record.
    """

    name: str
    priority: int
    deadline_seconds: float

    def __post_init__(self) -> None:
        if self.deadline_seconds <= 0:
            raise JobConfigError(
                f"SLO deadline must be > 0: {self}"
            )


#: default SLO ladder: interactive beats standard beats batch
DEFAULT_CLASSES = (
    SloClass("interactive", 0, 1.0),
    SloClass("standard", 1, 4.0),
    SloClass("batch", 2, 16.0),
)


@dataclass(frozen=True)
class JobTemplate:
    """Shape of one job family: its stage chain and per-stage size."""

    name: str
    stages: tuple[str, ...]
    items_per_stage: int
    q: int  # polynomial order (the shape knob behind batching)

    def __post_init__(self) -> None:
        if not self.stages:
            raise JobConfigError(f"template {self.name!r} has no stages")
        if self.items_per_stage < 1:
            raise JobConfigError(
                f"template {self.name!r} needs >= 1 item per stage"
            )


#: the served job families (see module docstring)
JOB_TEMPLATES = {
    "coulomb-apply": JobTemplate("coulomb-apply", ("apply",), 8, 10),
    "compress-chain": JobTemplate(
        "compress-chain", ("compress", "reconstruct"), 6, 8
    ),
    "pipeline": JobTemplate(
        "pipeline", ("project", "compress", "apply", "reconstruct"), 4, 10
    ),
}


@dataclass
class Job:
    """One admitted job in flight.

    ``stages[i]`` is the one :class:`WorkItem` every item of stage ``i``
    shares; a stage holds ``template.items_per_stage`` items, which the
    service queues as one :class:`~repro.serve.batcher.Run`.  It
    submits stage ``i+1`` when ``remaining`` (an item count) of stage
    ``i`` hits zero.
    ``deadline`` is absolute (admission instant + the class budget).
    ``requeues`` counts how many times a crashed or faulted worker sent
    the job's items back to the queue; once it exceeds the service's
    retry budget the job is dropped and ``failed_reason`` records why.
    """

    job_id: str
    tenant: int
    template: JobTemplate
    slo: SloClass
    stages: tuple[WorkItem, ...]
    arrived_at: float = 0.0
    admitted_at: float = 0.0
    deadline: float = 0.0
    stage_index: int = 0
    remaining: int = 0
    completed_at: float = field(default=-1.0)
    requeues: int = 0
    failed_reason: str | None = None

    @property
    def done(self) -> bool:
        """Whether every stage has fully accumulated."""
        return self.stage_index >= len(self.stages)


def _stage_item(stage: str, q: int, signature: tuple) -> WorkItem:
    """One synthetic work item of a stage, shaped by Formula 1: each
    item runs ``rank x dim`` small ``(q^{d-1}, q) x (q, q)``
    multiplications over an ``8 q^d``-byte coefficient tensor."""
    steps = _OP_RANK * _DIM
    rows = q ** (_DIM - 1)
    tensor_bytes = 8 * q**_DIM
    return WorkItem(
        kind=TaskKind(f"serve_{stage}", signature),
        flops=steps * 2 * rows * q * q,
        input_bytes=tensor_bytes,
        output_bytes=tensor_bytes,
        steps=steps,
        step_rows=rows,
        step_q=q,
    )


def build_job(
    job_id: str,
    tenant: int,
    template: JobTemplate,
    slo: SloClass,
    *,
    shared_kinds: bool = True,
    stages: tuple[WorkItem, ...] | None = None,
) -> Job:
    """Materialize one job from its template.

    ``shared_kinds=True`` (cross-job batching on) gives every job of
    one (template stage, q, SLO class) the *same* :class:`TaskKind`,
    so the batcher may merge their items into shared batches;
    ``False`` salts the signature with the job id, making every job
    its own batching universe — the ablation baseline.

    The items of one stage are identical, so they share one
    :class:`WorkItem` (and one :class:`TaskKind`): serving prices items
    by their cost fields and logs them by id, never by object.
    ``stages`` hands in the stage items of an earlier job of the same
    (template, class), so that jobs share them too; the service does so
    within one run under cross-job batching, which lets the price model
    reuse the previous item's price across jobs.  No item id is
    formatted here: :meth:`repro.serve.batcher.Run.ids` formats them
    for the trace records that name items.
    """
    if stages is None:
        signature: tuple = (slo.name, template.q)
        if not shared_kinds:
            signature = signature + (job_id,)
        stages = tuple(
            _stage_item(stage, template.q, signature)
            for stage in template.stages
        )
    job = Job(
        job_id=job_id,
        tenant=tenant,
        template=template,
        slo=slo,
        stages=stages,
    )
    job.remaining = template.items_per_stage
    return job
