"""The hand-tuned CPU kernel (with optional rank reduction).

Without rank reduction it runs the shared Formula 1 evaluator
(:func:`repro.kernels.base.evaluate_formula`), so its numbers equal the
GPU kernels'.  With rank reduction enabled (paper Section II-D) it runs
a per-term ``mtxmq`` chain instead, because the truncation differs per
(rank term, axis): each multiplication first drops the rows/columns of
the factor matrix whose norm is below tolerance and pads the result
back — same answer to tolerance, up to ~2.5x fewer FLOPs in typical
separated representations.

The timing model charges the *reduced* FLOP count on the CPU; the GPU
kernels charge the full count regardless (SMs are reserved at launch
time), which is exactly the asymmetry the paper reports.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.cpu_model import CpuModel
from repro.kernels.base import (
    ComputeKernel,
    FormulaPayload,
    KernelTiming,
    evaluate_formula,
)
from repro.runtime.task import BatchStats, WorkItem
from repro.tensor.mtxm import mtxmq
from repro.tensor.rank_reduction import pad_reduced_result, rank_reduce_pair


class CpuMtxmKernel(ComputeKernel):
    """CPU execution of Formula 1 batches.

    Args:
        model: the CPU timing model.
        rank_reduction: enable the row/column truncation optimisation.
        reduction_tol: slice-norm threshold for the truncation.
        reduction_factor: FLOP saving assumed by the *timing* model when
            rank reduction is on and the payloads are synthetic (the
            paper: "can reduce the amount of computation on the CPU only
            by up to 2.5-times in typical cases"); for numeric payloads
            the measured reduced FLOP count is used instead.
    """

    name = "cpu-mtxm"

    def __init__(
        self,
        model: CpuModel,
        *,
        rank_reduction: bool = False,
        reduction_tol: float = 1e-10,
        reduction_factor: float = 2.2,
    ):
        self.model = model
        self.rank_reduction = rank_reduction
        self.reduction_tol = reduction_tol
        self.reduction_factor = reduction_factor

    # -- numerics ---------------------------------------------------------------

    def run_item(self, item: WorkItem) -> np.ndarray | None:
        """Evaluate Formula 1 on the CPU (with optional rank reduction)."""
        payload = item.payload
        if payload is None:
            return None
        if not isinstance(payload, FormulaPayload):
            raise TypeError(f"unexpected payload type {type(payload)!r}")
        if not self.rank_reduction:
            return evaluate_formula(payload)
        out = np.zeros_like(payload.s)
        q = payload.s.shape[0]
        for c, hs in zip(payload.coeffs, payload.factors):
            t = payload.s
            for h in hs:
                rest = t.size // q
                flat = t.reshape(q, rest)
                s_red, h_red, _out_cols = rank_reduce_pair(
                    flat, h, self.reduction_tol
                )
                prod = pad_reduced_result(mtxmq(s_red, h_red), q)
                t = prod.reshape(t.shape[1:] + (q,))
            out += c * t
        return out

    # -- timing -------------------------------------------------------------------

    def batch_timing(self, stats: BatchStats, parallelism: int) -> KernelTiming:
        """Batch duration on ``parallelism`` CPU threads (starvation-aware)."""
        flops = stats.flops
        if self.rank_reduction:
            flops = int(flops / self.reduction_factor)
        working_set = self._working_set_bytes(stats)
        # One CPU task is single-threaded ("currently there is no MADNESS
        # CPU implementation of multiple threads working on the same
        # multiplication"), so a batch smaller than the thread count
        # starves cores — the effect behind the CPU column of Table VI.
        threads = max(1, min(parallelism, stats.n_items))
        seconds = self.model.compute_seconds(flops, threads, working_set)
        return KernelTiming(seconds=seconds, flops=flops, launches=0)

    @staticmethod
    def _working_set_bytes(stats: BatchStats) -> int:
        """Bytes live during the batch: each task's input, output and the
        shared operator blocks.  Decides the in/out-of-cache regime."""
        return stats.input_bytes + stats.output_bytes + stats.unique_block_bytes
