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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
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


@dataclass(slots=True)
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
            Items of one block family share one tuple object: that is
            what lets :class:`BlockFold` fold the family once per
            aggregate and hash its keys once per plan, and the GPU cache
            partition it with set operations.  Equal but distinct
            tuples stay correct, at the per-tuple cost.
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
        block_set: ``block_keys`` as a frozenset, or ``None``.  A
            producer that shares one family's tuple across many batches
            builds its set once, with the tuple, and every fold of every
            plan uses it; without it each plan builds the set once.
            Left out of equality and ``repr``.

    The class has ``__slots__``: the runtime and recovery assign only
    its fields (``on_complete``).
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
    block_set: frozenset | None = field(default=None, compare=False, repr=False)


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


#: one block family's keys new to an aggregate: ``(keys, key_set)``,
#: ``keys`` distinct and in first-use order, ``key_set`` the same keys
#: as a set (the plan's shared family set when the family added all its
#: keys at once) or ``None`` when they were found key by key
BlockPart = tuple[tuple[Hashable, ...], frozenset | None]


class BlockParts(tuple):
    """The distinct operator-block keys of an aggregate, as the
    :data:`BlockPart` of each block family in first-use order.

    The parts are pairwise disjoint, so their keys concatenated are the
    aggregate's ``block_keys``.  :meth:`GpuBlockCache.begin_transfer
    <repro.kernels.gpu_cache.GpuBlockCache.begin_transfer>` partitions a
    batch part by part, with one set operation for each part whose keys
    are all in one state.
    """

    __slots__ = ()

    def joined(self) -> tuple[Hashable, ...]:
        """Every part's keys, concatenated in order."""
        if len(self) == 1:
            return self[0][0]
        return tuple(chain.from_iterable(keys for keys, _ in self))


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
    - a tuple whose key set is disjoint from the keys seen so far adds
      all its distinct keys with one set operation;
    - a tuple whose keys were all seen before adds none, found with one
      subset test;
    - only a tuple that overlaps the seen keys in part is scanned key
      by key.

    The fast paths rest on producers sharing one ``block_keys`` tuple
    object per block family.  The family's key set is the item's
    ``block_set`` when the producer built one; otherwise it is built
    once per plan, in ``key_sets`` (``id`` of the tuple -> set), and a
    dispatcher's plan passes one such dict to all of its folds.  Equal
    but distinct tuples stay correct, each getting a set of its own.

    :meth:`BatchStats.of` and ``HybridDispatcher._running_stats`` share
    this one dedup rule.  :attr:`parts` records each tuple's new keys,
    in first-use order, as a :data:`BlockPart`.
    """

    __slots__ = ("seen", "parts", "_key_sets", "_folded")

    def __init__(self, key_sets: dict[int, frozenset] | None = None) -> None:
        #: every key folded so far
        self.seen: set[Hashable] = set()
        #: each folded tuple's new keys, in first-use order
        self.parts: list[BlockPart] = []
        self._key_sets = {} if key_sets is None else key_sets
        self._folded: set[int] = set()

    def add(self, item: WorkItem) -> int:
        """Fold ``item``'s block keys in; returns the block bytes they add."""
        keys = item.block_keys
        set_id = id(keys)
        if not keys or set_id in self._folded:
            return 0
        self._folded.add(set_id)
        seen = self.seen
        family = item.block_set
        if family is None:
            family = self._key_sets.get(set_id)
            if family is None:
                family = self._key_sets[set_id] = frozenset(keys)
        if seen.isdisjoint(family):
            seen |= family
            n_new = len(family)
            # a tuple that repeats keys keeps each once, first use first
            new = keys if n_new == len(keys) else tuple(dict.fromkeys(keys))
            self.parts.append((new, family))
        elif family <= seen:
            return 0
        else:
            found = dict.fromkeys(k for k in keys if k not in seen)
            seen.update(found)
            n_new = len(found)
            self.parts.append((tuple(found), None))
        per_block = item.block_bytes / len(keys)
        return int(per_block * n_new)


@dataclass
class BatchStats:
    """Aggregate shape of a batch, consumed by the kernel cost models.

    ``unique_block_bytes`` is the :class:`BlockFold` charge: each item
    pays its per-block size once for every distinct key of its
    ``block_keys`` that no earlier item used.  A key an item lists twice
    (``BatchedApply`` lists one key per axis, so a displacement with
    equal components repeats keys) is charged once, as ``block_keys``
    holds it once.  ``block_parts`` holds the same keys split by block
    family (one part per ``block_keys`` tuple that added keys), which
    is what lets the GPU cache partition a batch a family at a time.
    Producers sharing one tuple per family give one part, with a set,
    per family; equal but distinct copies give a part each and stay
    correct.  ``block_parts`` is left out of equality, as two
    aggregates with the same keys are equal however their families
    split them.
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
    #: ``block_keys`` as block-family parts (see :class:`BlockParts`)
    block_parts: BlockParts = field(
        default=BlockParts(), compare=False, repr=False
    )

    @classmethod
    def of(
        cls, items: list[WorkItem], key_sets: dict[int, frozenset] | None = None
    ) -> "BatchStats":
        """Aggregate ``items``, deduplicating operator-block bytes through
        one :class:`BlockFold` (each block is charged at the per-block
        size of the item that first uses it).  ``key_sets`` is the
        block-family set cache the fold shares with a plan's other
        folds."""
        stats = cls()
        blocks = BlockFold(key_sets)
        for it in items:
            stats.n_items += 1
            stats.flops += it.flops
            stats.input_bytes += it.input_bytes
            stats.output_bytes += it.output_bytes
            stats.steps += it.steps
            stats.step_rows = max(stats.step_rows, it.step_rows)
            stats.step_q = max(stats.step_q, it.step_q)
            stats.unique_block_bytes += blocks.add(it)
        return stats.with_blocks(blocks)

    def with_blocks(self, blocks: BlockFold) -> "BatchStats":
        """Take ``blocks``' parts, and their keys joined, as this
        aggregate's; returns ``self``.  ``blocks`` must be the fold that
        charged :attr:`unique_block_bytes`."""
        self.block_parts = BlockParts(blocks.parts)
        self.block_keys = self.block_parts.joined()
        return self
