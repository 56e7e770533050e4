"""Rank reduction — the paper's CPU-side optimisation (Section II-D).

The separated representation expands the operator rank, and many of the
``h^{(mu,i)}`` matrices are numerically low-rank: their trailing rows and
columns (in the multiwavelet ordering, higher polynomial degrees) fall
below the accuracy threshold.  MADNESS therefore truncates each
``s x h`` multiplication to the *effective* rows/columns before
multiplying (paper Figure 4).  The result keeps its full dimensions — the
omitted outputs are exactly the ones guaranteed to be ~0.

On the CPU this reduces work by up to ~2.5x.  On the GPU it buys nothing,
because SM resources are reserved at kernel-launch time for the full-size
problem (the paper measured no benefit) — that asymmetry is encoded in the
kernel cost models, not here.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TensorShapeError


def mtxm_flops(rows: int, inner: int, cols: int) -> int:
    """FLOPs of a dense ``(rows, inner) @ (inner, cols)`` multiply.

    Uses the conventional 2*m*k*n count (one multiply + one add per
    inner-product step), matching how the paper reports GFLOPS for its
    ``(k^2, k) x (k, k)`` and ``(k^3, k) x (k, k)`` batches.
    """
    return 2 * rows * inner * cols


def effective_rank(h: np.ndarray, tol: float, axis: int) -> int:
    """Count of leading slices of ``h`` along ``axis`` with norm > ``tol``.

    Returns the smallest ``r`` such that every slice with index >= ``r``
    has Frobenius norm <= ``tol``; at least 1 so a multiply always has
    something to do.
    """
    if h.ndim != 2:
        raise TensorShapeError(f"effective_rank expects a matrix, got {h.shape}")
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    norms = np.linalg.norm(h, axis=1 - axis)
    above = np.nonzero(norms > tol)[0]
    if above.size == 0:
        return 1
    return int(above[-1]) + 1


def rank_reduce_pair(
    s_flat: np.ndarray, h: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Truncate an ``mtxmq`` operand pair for reduced-cost multiplication.

    Args:
        s_flat: flattened tensor operand, shape ``(q, r)`` (contraction
            index leading, as in :func:`repro.tensor.mtxm.mtxmq`).
        h: operator matrix, shape ``(q, q')``.
        tol: slice-norm threshold below which rows/columns are dropped.

    Returns:
        ``(s_reduced, h_reduced, out_cols)`` where the reduced pair can be
        fed to ``mtxmq`` and the missing output columns (``q' - out_cols``)
        are zero to accuracy ``tol``; callers pad with
        :func:`pad_reduced_result`.
    """
    if s_flat.ndim != 2 or h.ndim != 2 or s_flat.shape[0] != h.shape[0]:
        raise TensorShapeError(
            f"rank_reduce_pair shape mismatch: s {s_flat.shape}, h {h.shape}"
        )
    contract = effective_rank(h, tol, axis=0)
    out_cols = effective_rank(h, tol, axis=1)
    return s_flat[:contract, :], h[:contract, :out_cols], out_cols


def pad_reduced_result(c_reduced: np.ndarray, full_cols: int) -> np.ndarray:
    """Zero-pad a reduced ``mtxmq`` result back to ``full_cols`` columns."""
    rows, cols = c_reduced.shape
    if cols > full_cols:
        raise TensorShapeError(
            f"reduced result has {cols} columns, more than full width {full_cols}"
        )
    if cols == full_cols:
        return c_reduced
    out = np.zeros((rows, full_cols), dtype=c_reduced.dtype)
    out[:, :cols] = c_reduced
    return out


def reduced_transform_flops(h: np.ndarray, rest: int, tol: float) -> int:
    """FLOPs of one rank-reduced ``mtxmq`` against operator ``h``.

    ``rest`` is the non-contracted extent of the flattened tensor
    (``k^{d-1}``).  This is what the CPU cost model charges when rank
    reduction is enabled; the full-cost counterpart is
    ``mtxm_flops(rest, q, q')``.
    """
    contract = effective_rank(h, tol, axis=0)
    out_cols = effective_rank(h, tol, axis=1)
    return mtxm_flops(rest, contract, out_cols)
