"""Tasks of the hybrid runtime.

The paper's extension asks the algorithm developer to split a
compute-intensive MADNESS task into three sub-tasks:

- *preprocess* — CPU, data-intensive: gathers inputs (e.g. looks up the
  ``h`` operator matrices) and emits a :class:`WorkItem`;
- *compute*    — CPU **or** GPU, compute-intensive: the Formula 1 tensor
  contractions on the work item;
- *postprocess* — CPU, data-intensive: accumulates the result into the
  tree.

Batching groups work items by :class:`TaskKind`: "the 'kind' of a task is
given by a combination of the memory address of the compute function and
the result of a user-defined hash function applied to the input data"
(paper, footnote 2) — here the function's qualified name plus a shape
signature, which is what makes items of one batch uniformly shaped and
safely aggregatable into one transfer buffer.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class TaskKind:
    """Identity of a batchable compute-task family."""

    compute_name: str
    signature: Hashable

    def __str__(self) -> str:
        return f"{self.compute_name}[{self.signature}]"


@dataclass
class WorkItem:
    """One compute task inside a batch.

    Attributes:
        kind: batch grouping key.
        payload: optional real data (tensors and operator blocks) for
            numeric execution; ``None`` for cost-only (synthetic) items.
        flops: floating-point work of the compute phase.
        input_bytes: bytes that must reach the compute device (task
            inputs, excluding operator blocks, which are cached).
        output_bytes: bytes produced by the compute phase.
        block_keys: identities of the operator blocks the item needs on
            the device; the write-once GPU cache dedups their transfer.
        block_bytes: total size of those blocks if they all missed.
        steps: number of small matrix multiplications inside the item
            (``rank x dim`` for Formula 1) — the quantity that decides
            custom-kernel vs cuBLAS behaviour.
        step_rows / step_q: shape of each multiplication,
            ``(step_rows, step_q) x (step_q, step_q)`` — the paper's
            ``(k^{d-1}, k) x (k, k)``.
    """

    kind: TaskKind
    payload: Any = None
    flops: int = 0
    input_bytes: int = 0
    output_bytes: int = 0
    block_keys: tuple[Hashable, ...] = ()
    block_bytes: int = 0
    steps: int = 0
    step_rows: int = 0
    step_q: int = 0
    #: postprocess hook: called with the numeric result when the compute
    #: phase finishes (the *postprocess* sub-task of the paper's split).
    on_complete: Callable[[Any], None] | None = None


@dataclass
class HybridTask:
    """A full preprocess/compute/postprocess task triple.

    ``preprocess`` returns the :class:`WorkItem` to batch; ``postprocess``
    consumes the compute result.  Either may be ``None`` for synthetic
    workloads.

    Attributes:
        preprocess: callable () -> WorkItem.
        postprocess: callable (result) -> None.
        pre_bytes / post_bytes: data touched by the CPU-side phases (fed
            to the data-intensive cost model).
    """

    preprocess: Callable[[], WorkItem] | None = None
    postprocess: Callable[[Any], None] | None = None
    pre_bytes: int = 0
    post_bytes: int = 0
    work: WorkItem | None = None

    def run_preprocess(self) -> WorkItem:
        """Run the preprocess sub-task, yielding this task's WorkItem."""
        if self.preprocess is not None:
            self.work = self.preprocess()
        if self.work is None:
            raise ValueError("task has neither a preprocess nor a prepared WorkItem")
        return self.work


@dataclass
class BatchStats:
    """Aggregate shape of a batch, consumed by the kernel cost models."""

    n_items: int = 0
    flops: int = 0
    input_bytes: int = 0
    output_bytes: int = 0
    steps: int = 0
    step_rows: int = 0
    step_q: int = 0
    unique_block_bytes: int = 0
    #: the items' unique operator-block keys, in first-use order
    block_keys: tuple[Hashable, ...] = ()

    @classmethod
    def of(cls, items: list[WorkItem]) -> "BatchStats":
        """Aggregate ``items``, deduplicating operator-block bytes (each
        block is charged at the per-block size of the item that first
        uses it)."""
        stats = cls()
        seen: dict[Hashable, None] = {}
        for it in items:
            stats.n_items += 1
            stats.flops += it.flops
            stats.input_bytes += it.input_bytes
            stats.output_bytes += it.output_bytes
            stats.steps += it.steps
            stats.step_rows = max(stats.step_rows, it.step_rows)
            stats.step_q = max(stats.step_q, it.step_q)
            new = [k for k in it.block_keys if k not in seen]
            for k in new:
                seen[k] = None
            if it.block_keys:
                per_block = it.block_bytes / max(1, len(it.block_keys))
                stats.unique_block_bytes += int(per_block * len(new))
        stats.block_keys = tuple(seen)
        return stats
