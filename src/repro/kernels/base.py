"""Kernel interface, the numeric payload format and the shared evaluator.

A :class:`FormulaPayload` is one Formula 1 evaluation: an input tensor
``s`` of shape ``(q,) * d``, per-rank-term factor matrices (already
oriented for :func:`repro.tensor.transform.transform_seq`, i.e. the
transpose of the operator blocks), and the rank coefficients.
:func:`evaluate_formula` is the one evaluator every kernel runs (the CPU
kernel leaves it only for rank reduction): a per-axis chain of batched
``mtxmq`` rotations over all rank terms at once, the host counterpart of
the paper's aggregated ``cu_mtxmq`` kernel.  Kernels therefore differ in
scheduling and cost, not in arithmetic, and return identical arrays.
:meth:`FormulaPayload.reference_result` keeps the per-term ``mtxmq``
chain as the oracle the tests compare against.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import TensorShapeError
from repro.runtime.task import BatchStats, WorkItem
from repro.tensor.transform import transform_seq


@dataclass
class FormulaPayload:
    """Numeric data of one Formula 1 work item.

    Attributes:
        s: input tensor, shape ``(q,) * d``.
        factors: ``factors[mu]`` is a tuple of ``d`` matrices applied to
            the successive dimensions (transform orientation).
        coeffs: the ``c_mu`` scalars.
    """

    s: np.ndarray
    factors: list[tuple[np.ndarray, ...]]
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if len(self.factors) != len(self.coeffs):
            raise TensorShapeError(
                f"{len(self.factors)} factor sets vs {len(self.coeffs)} coefficients"
            )

    @property
    def rank(self) -> int:
        """Separation rank M of the payload's operator expansion."""
        return len(self.factors)

    @property
    def dim(self) -> int:
        """Dimensionality d of the payload tensor."""
        return self.s.ndim

    def reference_result(self) -> np.ndarray:
        """Per-term ``mtxmq``-chain evaluation — ground truth in tests."""
        out = np.zeros_like(self.s)
        for c, hs in zip(self.coeffs, self.factors):
            out += c * transform_seq(self.s, hs)
        return out


def evaluate_formula(payload: FormulaPayload) -> np.ndarray:
    """Evaluate one Formula 1 payload as a per-axis contraction chain.

    The factors are stacked once into an ``(M, d, q, q)`` array.  For
    each axis its ``(M, q, q)`` slice is applied with one broadcast
    ``matmul``: the batched form of the ``mtxmq`` rotation, which
    contracts the leading tensor axis and puts the new one last, for
    every rank term in one call.  After ``d`` steps the axes are back in
    order and one ``tensordot`` folds in the coefficients.
    """
    s = payload.s
    m = payload.rank
    q = s.shape[0]
    if m == 0:
        return np.zeros_like(s)
    h = np.array(payload.factors)
    # (1, q, rest): the input broadcasts against every term's first factor
    t = s.reshape(1, q, -1)
    for axis in range(s.ndim):
        t = np.matmul(t.transpose(0, 2, 1), h[:, axis]).reshape(m, q, -1)
    return np.tensordot(payload.coeffs, t, axes=1).reshape(s.shape)


@dataclass(frozen=True)
class KernelTiming:
    """Simulated cost of one batch on one kernel."""

    seconds: float
    flops: int
    launches: int

    def gflops(self) -> float:
        """Achieved GFLOPS implied by this timing (0 for zero time)."""
        if self.seconds <= 0:
            return 0.0
        return self.flops / self.seconds / 1e9


class ComputeKernel(abc.ABC):
    """A compute strategy: numeric execution plus a timing model."""

    name: str = "kernel"

    @abc.abstractmethod
    def batch_timing(self, stats: BatchStats, parallelism: int) -> KernelTiming:
        """Simulated duration of a batch at the given parallelism
        (CPU threads or CUDA streams)."""

    @abc.abstractmethod
    def run_item(self, item: WorkItem) -> np.ndarray | None:
        """Numerically execute one work item (None for cost-only items)."""
