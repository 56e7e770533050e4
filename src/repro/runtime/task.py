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
from functools import cached_property
from typing import Any


@dataclass(frozen=True)
class TaskKind:
    """Identity of a batchable compute-task family."""

    compute_name: str
    signature: Hashable

    @cached_property
    def label(self) -> str:
        """``compute_name[signature]``: the string traces log and the
        serving batcher buckets by, formatted once per kind object."""
        return f"{self.compute_name}[{self.signature}]"

    def __str__(self) -> str:
        return self.label


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
            Items of one block family share one tuple object, which lets
            :class:`BlockFold` fold the family once per aggregate.
        block_bytes: total size of those blocks if they all missed.  An
            aggregate charges ``block_bytes / len(block_keys)`` once for
            each distinct key of ``block_keys`` it has not seen before
            this item, so a key repeated inside one tuple is charged
            once.
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


class BlockFold:
    """The operator-block charge of a growing sequence of items.

    Each item is charged ``block_bytes / len(block_keys)`` once for
    every distinct key of its ``block_keys`` not seen before it: the
    per-key scan over ``dict.fromkeys(keys)``, so a key the tuple repeats
    counts once.  The fold gets that count without the scan wherever it
    can:

    - a tuple object already folded here adds no key (compared by
      ``id``, which is safe because the caller's items keep every
      tuple alive while the fold lives);
    - a tuple disjoint from the keys seen so far adds all its distinct
      keys, found with one set operation;
    - only a tuple that overlaps the seen keys is scanned key by key.

    :meth:`BatchStats.of` and ``HybridDispatcher._running_stats`` share
    this one dedup rule.
    """

    __slots__ = ("seen", "_folded")

    def __init__(self) -> None:
        #: every key folded so far, in first-use order
        self.seen: dict[Hashable, None] = {}
        self._folded: set[int] = set()

    def add(self, item: WorkItem) -> int:
        """Fold ``item``'s block keys in; returns the block bytes they add."""
        keys = item.block_keys
        set_id = id(keys)
        if not keys or set_id in self._folded:
            return 0
        self._folded.add(set_id)
        seen = self.seen
        new = dict.fromkeys(
            keys if seen.keys().isdisjoint(keys)
            else [k for k in keys if k not in seen]
        )
        if not new:
            return 0
        seen.update(new)
        per_block = item.block_bytes / len(keys)
        return int(per_block * len(new))


@dataclass
class BatchStats:
    """Aggregate shape of a batch, consumed by the kernel cost models.

    ``unique_block_bytes`` is the :class:`BlockFold` charge: each item
    pays its per-block size once for every distinct key of its
    ``block_keys`` that no earlier item used.  A key an item lists twice
    (``BatchedApply`` lists one key per axis, so a displacement with
    equal components repeats keys) is charged once, as ``block_keys``
    holds it once.
    """

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
        """Aggregate ``items``, deduplicating operator-block bytes through
        one :class:`BlockFold` (each block is charged at the per-block
        size of the item that first uses it)."""
        stats = cls()
        blocks = BlockFold()
        for it in items:
            stats.n_items += 1
            stats.flops += it.flops
            stats.input_bytes += it.input_bytes
            stats.output_bytes += it.output_bytes
            stats.steps += it.steps
            stats.step_rows = max(stats.step_rows, it.step_rows)
            stats.step_q = max(stats.step_q, it.step_q)
            stats.unique_block_bytes += blocks.add(it)
        stats.block_keys = tuple(blocks.seen)
        return stats
