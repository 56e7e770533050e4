"""The hybrid CPU-GPU ``Apply`` (paper Algorithms 3-6).

The reference ``Apply`` walks the tree and computes each contribution
inline.  This version restructures the same work for the batching
runtime, exactly as the paper's Algorithm 3 does:

- task generation (Algorithm 3 lines 1-6): screen every (source node,
  displacement) pair of a level in one array expression against the
  level's screening table, and emit tasks only for the survivors;
- ``integral_preprocess`` (Algorithm 4): for one (source node,
  displacement) pair, look up the ``h`` operator matrices (from the
  operator's write-once CPU cache) and emit a batched work item.  The
  items of one (level, displacement, kept rank terms) family share
  their block keys and one stacked factor array, looked up at the
  family's first preprocess;
- ``integral_compute`` (Algorithm 5): Formula 1 on the batched inputs —
  executed by whichever kernel (CPU / custom GPU / cuBLAS) the
  dispatcher sends the item to;
- ``integral_postprocess`` (Algorithm 6): accumulate the result tensor
  into the neighbour node of the result tree (each neighbour's node is
  resolved once per task generation).

The telescoping correction (subtracting the scaling->scaling part at
levels > 0) is expressed as a *second kind* of compute task acting on the
``k^d`` scaling corner with negated coefficients, so both kinds are plain
Formula 1 batches and the accumulation stays commutative.

Numerics are identical to :meth:`GaussianConvolution.apply` up to the
screening granularity; the test suite asserts agreement to the operator
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OperatorError
from repro.mra.function import MultiresolutionFunction, scaling_corner
from repro.mra.key import Key
from repro.mra.node import FunctionNode
from repro.mra.tree import FunctionTree
from repro.operators.convolution import (
    ApplyStats,
    GaussianConvolution,
    _NORM_FLOOR,
    sum_down_ns,
)
from repro.kernels.base import FormulaPayload
from repro.runtime.node import NodeRuntime, NodeTimeline
from repro.runtime.task import HybridTask, TaskKind, WorkItem


@dataclass
class BatchedApplyResult:
    """Everything one hybrid ``Apply`` run produces."""

    function: MultiresolutionFunction
    timeline: NodeTimeline
    stats: ApplyStats


class _BlockFamily:
    """The operator blocks shared by the items of one ``(level, delta,
    kept terms, ns)`` family.

    ``block_keys`` lists ``(level, delta[axis], mu, ns)`` for each kept
    term ``mu`` and axis: one tuple object for the whole family, which
    is what lets :class:`~repro.runtime.task.BlockFold` and the GPU
    block cache take their per-family fast paths.  It keeps no key set
    for ``WorkItem.block_set``: one per family, alive through the
    Apply, starts an automatic full collection in every coulomb-apply
    benchmark repeat (docs/PIPELINE.md §3).
    """

    __slots__ = ("block_keys", "_stacked")

    def __init__(self, block_keys: tuple[tuple, ...]) -> None:
        self.block_keys = block_keys
        self._stacked: tuple[np.ndarray, np.ndarray] | None = None

    def stacked(
        self, op: GaussianConvolution, level: int, delta: tuple[int, ...],
        keep: np.ndarray, ns: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The family's ``(M_kept, d, q, q)`` stack of every block's
        transpose and its signed coefficients, looked up in the
        operator's caches at the first call (Algorithm 4's lookup, made
        once per family)."""
        if self._stacked is None:
            block = op.ns_block if ns else op.r_block
            axes = range(len(delta))
            factors = np.array([
                [block(level, delta[axis], mu).T for axis in axes]
                for mu in keep.tolist()
            ])
            coeffs = (1.0 if ns else -1.0) * op.expansion.coeffs[keep]
            self._stacked = (factors, coeffs)
        return self._stacked


class _SharedState:
    """What the tasks of one :meth:`BatchedApply.generate_tasks` call
    share; it lives in their closures and dies with them.

    - one :class:`TaskKind` per ``(level, ns)``;
    - one :class:`_BlockFamily` per ``(level, delta, kept terms, ns)``;
    - ``nodes``: each neighbour's result-tree node, resolved by
      ``ensure_path`` at its first accumulate.  The result tree only
      grows during an Apply, so the node stays the one ``ensure_path``
      would return (the distributed Apply's proxy reads the rank when
      it accumulates, not when it is made).
    """

    __slots__ = ("kinds", "families", "nodes")

    def __init__(self) -> None:
        self.kinds: dict[tuple[int, bool], TaskKind] = {}
        self.families: dict[tuple, _BlockFamily] = {}
        self.nodes: dict[Key, FunctionNode] = {}

    def kind(self, level: int, ns: bool, q: int, dim: int) -> TaskKind:
        """The batching kind of the ``(level, ns)`` tasks."""
        kind = self.kinds.get((level, ns))
        if kind is None:
            kind = self.kinds[level, ns] = TaskKind(
                "integral_compute" if ns else "integral_compute_corner",
                (level, q, dim),
            )
        return kind

    def family(
        self, level: int, delta: tuple[int, ...], keep: np.ndarray, ns: bool
    ) -> _BlockFamily:
        """The block family of the ``keep`` terms at ``(level, delta)``."""
        terms = tuple(keep.tolist())
        key = (level, delta, terms, ns)
        family = self.families.get(key)
        if family is None:
            axes = range(len(delta))
            family = self.families[key] = _BlockFamily(tuple(
                (level, delta[axis], mu, ns) for mu in terms for axis in axes
            ))
        return family


class BatchedApply:
    """Drives one ``Apply`` through the hybrid batching runtime."""

    def __init__(self, op: GaussianConvolution, runtime: NodeRuntime):
        self.op = op
        self.runtime = runtime

    # -- task generation (Algorithm 3 lines 1-6) -----------------------------------

    def generate_tasks(
        self, src: MultiresolutionFunction, result_tree: FunctionTree,
        stats: ApplyStats, source_log: list | None = None,
    ) -> list[HybridTask]:
        """Emit one preprocess/compute/postprocess task per contribution.

        ``source_log``, if given, receives the source tree key of every
        emitted task (same order) — the distributed Apply uses it to
        route tasks to their owner ranks.

        Tasks are emitted node-major in ``by_level`` order, then in
        displacement order.  A level's pairs are screened at once: first
        the norm test (a failing pair counts as a screened displacement),
        then the in-volume test (a failing pair is skipped uncounted),
        then each survivor's rank terms.  A node is padded to its
        ``(2k)^d`` tensor only when it emits a task.  The call's tasks
        share one :class:`_SharedState`: a kind per ``(level, ns)``, one
        block family per ``(level, delta, kept terms, ns)`` and each
        neighbour's result node.
        """
        op = self.op
        corner = scaling_corner(op.dim, op.k)
        rank = max(1, op.expansion.rank)
        by_level: dict[int, list[tuple[Key, FunctionNode]]] = {}
        for key, node in src.tree.by_level():
            if node.coeffs is None:
                continue
            stats.source_nodes += 1
            by_level.setdefault(key.level, []).append((key, node))
        tasks: list[HybridTask] = []
        shared = _SharedState()
        for level, group in by_level.items():
            cnorms = np.sqrt([np.vdot(node.coeffs, node.coeffs) for _k, node in group])
            nonzero = cnorms != 0.0
            if not nonzero.any():
                continue
            table = op.level_table(level)
            tol_task = op.thresh / max(1, len(table.pairs))
            screened = np.multiply.outer(cnorms, table.norms) < tol_task
            screened &= nonzero[:, None]
            stats.screened_displacements += int(screened.sum())
            limit = 1 << level
            survive = nonzero[:, None] & ~screened
            translations = np.array([key.translation for key, _node in group])
            for axis in range(op.dim):
                moved = np.add.outer(translations[:, axis], table.offsets[:, axis])
                survive &= (moved >= 0) & (moved < limit)
            rows, cols = np.nonzero(survive)
            mu_tol = tol_task / (np.maximum(cnorms, _NORM_FLOOR) * rank)
            kept = table.terms[cols] > mu_tol[rows, None]
            padded = -1
            for i, j, keep_mask in zip(rows.tolist(), cols.tolist(), kept):
                keep = np.nonzero(keep_mask)[0]
                if keep.size == 0:
                    continue
                key, node = group[i]
                if padded != i:
                    chat = op._combined(node)
                    padded = i
                delta = table.pairs[j][0]
                neighbor = key.neighbor(delta)
                stats.record_task(key.level)
                stats.mu_applications += int(keep.size)
                tasks.append(
                    self._make_task(
                        key.level, delta, chat, keep, neighbor, result_tree,
                        ns=True, shared=shared,
                    )
                )
                if source_log is not None:
                    source_log.append(key)
                if key.level > 0:
                    tasks.append(
                        self._make_task(
                            key.level, delta, chat[corner], keep, neighbor,
                            result_tree, ns=False, shared=shared,
                        )
                    )
                    if source_log is not None:
                        source_log.append(key)
        return tasks

    def _make_task(
        self,
        level: int,
        delta: tuple[int, ...],
        s: np.ndarray,
        keep: np.ndarray,
        neighbor: Key,
        result_tree: FunctionTree,
        *,
        ns: bool,
        shared: _SharedState | None = None,
    ) -> HybridTask:
        """One task: apply the ``keep`` rank terms of the ``(level,
        delta)`` operator to ``s`` and accumulate into ``neighbor``.

        ``shared`` is the state the tasks of one :meth:`generate_tasks`
        call share (see :class:`_SharedState`); without it the task
        shares nothing and builds its own.
        """
        op = self.op
        if shared is None:
            shared = _SharedState()
        q = s.shape[0]
        dim = op.dim
        kind = shared.kind(level, ns, q, dim)
        family = shared.family(level, delta, keep, ns)
        block_keys = family.block_keys
        steps = len(block_keys)
        rows = q ** (dim - 1)
        flops = steps * 2 * rows * q * q
        corner = scaling_corner(dim, op.k)
        nodes = shared.nodes

        def preprocess() -> WorkItem:
            # Algorithm 4: obtain the h 2-D tensors (write-once CPU cache),
            # stacked once per block family.
            factors, coeffs = family.stacked(op, level, delta, keep, ns)
            payload = FormulaPayload(s=s, factors=factors, coeffs=coeffs)
            return WorkItem(
                kind=kind,
                payload=payload,
                flops=flops,
                input_bytes=s.nbytes,
                output_bytes=s.nbytes,
                block_keys=block_keys,
                block_bytes=len(block_keys) * q * q * 8,
                steps=steps,
                step_rows=rows,
                step_q=q,
                on_complete=postprocess,
            )

        def postprocess(result: np.ndarray) -> None:
            # Algorithm 6: accumulate into the neighbour of the result tree.
            node = nodes.get(neighbor)
            if node is None:
                node = nodes[neighbor] = result_tree.ensure_path(neighbor)
            if ns:
                node.accumulate(result)
            else:
                full = np.zeros((2 * op.k,) * dim)
                full[corner] = result
                node.accumulate(full)

        return HybridTask(
            preprocess=preprocess,
            # input copy into the aggregation buffer plus per-block cache
            # lookups; the blocks themselves are not copied on the host
            pre_bytes=s.nbytes + 64 * len(block_keys),
            post_bytes=s.nbytes,
        )

    # -- the operator ------------------------------------------------------------------

    def apply(
        self, f: MultiresolutionFunction, *, copy_input: bool = True
    ) -> BatchedApplyResult:
        """Hybrid Apply: returns the result function plus the simulated
        timeline of the run."""
        if (f.dim, f.k) != (self.op.dim, self.op.k):
            raise OperatorError(
                f"operator (dim={self.op.dim}, k={self.op.k}) cannot act on "
                f"function (dim={f.dim}, k={f.k})"
            )
        stats = ApplyStats()
        src = f
        if copy_input:
            # nodes of its own, arrays shared: ``nonstandard`` (and the
            # ``reconstruct`` it runs) only rebinds ``node.coeffs`` and
            # task generation only reads them, so ``f`` keeps its
            # coefficients, flags and form
            src = MultiresolutionFunction(
                f.dim, f.k, f.tree.copy_nodes(), thresh=f.thresh,
                form=f.form, truncate_mode=f.truncate_mode,
            )
        src.nonstandard()
        result_tree = FunctionTree(self.op.dim)
        tasks = self.generate_tasks(src, result_tree, stats)
        timeline = self.runtime.execute(tasks)
        function = sum_down_ns(
            result_tree,
            dim=self.op.dim,
            k=self.op.k,
            filter_=self.op.filter,
            thresh=f.thresh,
            truncate_mode=f.truncate_mode,
        )
        return BatchedApplyResult(function=function, timeline=timeline, stats=stats)
