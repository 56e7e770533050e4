"""The hybrid CPU-GPU ``Apply`` (paper Algorithms 3-6).

The reference ``Apply`` walks the tree and computes each contribution
inline.  This version restructures the same work for the batching
runtime, exactly as the paper's Algorithm 3 does:

- task generation (Algorithm 3 lines 1-6): screen every (source node,
  displacement) pair of a level in one array expression against the
  level's screening table, and emit tasks only for the survivors;
- ``integral_preprocess`` (Algorithm 4): for one (source node,
  displacement) pair, look up the ``h`` operator matrices (from the
  operator's write-once CPU cache) and emit a batched work item;
- ``integral_compute`` (Algorithm 5): Formula 1 on the batched inputs —
  executed by whichever kernel (CPU / custom GPU / cuBLAS) the
  dispatcher sends the item to;
- ``integral_postprocess`` (Algorithm 6): accumulate the result tensor
  into the neighbour node of the result tree.

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
        ``(2k)^d`` tensor only when it emits a task.
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
                        key.level, delta, chat, keep, neighbor, result_tree, ns=True
                    )
                )
                if source_log is not None:
                    source_log.append(key)
                if key.level > 0:
                    tasks.append(
                        self._make_task(
                            key.level,
                            delta,
                            chat[corner],
                            keep,
                            neighbor,
                            result_tree,
                            ns=False,
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
    ) -> HybridTask:
        op = self.op
        q = s.shape[0]
        dim = op.dim
        sign = 1.0 if ns else -1.0
        kind = TaskKind(
            "integral_compute" if ns else "integral_compute_corner",
            (level, q, dim),
        )
        block_keys = tuple(
            (level, delta[axis], mu, ns)
            for mu in keep.tolist()
            for axis in range(dim)
        )
        steps = int(keep.size) * dim
        rows = q ** (dim - 1)
        flops = steps * 2 * rows * q * q
        corner = scaling_corner(dim, op.k)

        def preprocess() -> WorkItem:
            # Algorithm 4: obtain the h 2-D tensors (write-once CPU cache).
            block = op.ns_block if ns else op.r_block
            factors = [
                tuple(block(level, delta[axis], int(mu)).T for axis in range(dim))
                for mu in keep
            ]
            coeffs = sign * op.expansion.coeffs[keep]
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
            node = result_tree.ensure_path(neighbor)
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
        src = f.copy() if copy_input else f
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
