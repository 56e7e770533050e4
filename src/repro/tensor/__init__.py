"""Small dense tensor substrate.

MADNESS expresses essentially all of its compute-intensive work as repeated
applications of one primitive: ``mtxmq``, the product of a highly
rectangular matrix ``(k^{d-1}, k)`` with a small square matrix ``(k, k)``
followed by an axis rotation.  Applying that primitive ``d`` times
transforms a ``d``-dimensional tensor by one small matrix per dimension —
the inner loop of the paper's Formula 1.

This subpackage provides:

- :func:`repro.tensor.mtxm.mtxmq` — the primitive contraction;
- :func:`repro.tensor.transform.transform` — the full d-dimensional
  transform built from ``mtxmq``, and ``transform_seq`` with one matrix
  per dimension (one rank term of Formula 1), and ``transform_stack``
  over a stack of tensors;
- :mod:`repro.tensor.rank_reduction` — the paper's CPU-side optimisation
  that truncates negligible rows/columns before multiplying, and the
  FLOP count of a truncated multiply.
"""

from repro.tensor.mtxm import mtxmq
from repro.tensor.transform import (
    transform,
    transform_dim,
    transform_seq,
    transform_stack,
)
from repro.tensor.rank_reduction import (
    effective_rank,
    mtxm_flops,
    pad_reduced_result,
    rank_reduce_pair,
    reduced_transform_flops,
)

__all__ = [
    "mtxm_flops",
    "mtxmq",
    "transform",
    "transform_dim",
    "transform_seq",
    "transform_stack",
    "effective_rank",
    "pad_reduced_result",
    "rank_reduce_pair",
    "reduced_transform_flops",
]
