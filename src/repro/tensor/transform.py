"""d-dimensional tensor transforms built on ``mtxmq``.

``transform(s, h)`` computes the tensor whose entries are

    ``r[i1..id] = sum_{j1..jd} s[j1..jd] * h[j1,i1] * ... * h[jd,id]``

— one rank term of the paper's Formula 1.  ``transform_seq`` allows a
different matrix per dimension (the ``h^{(mu,1)} ... h^{(mu,d)}`` of a
separated operator).  Both are implemented as ``d`` successive ``mtxmq``
calls on the flattened tensor, which is exactly the data layout the
paper's CUDA kernels operate on.  ``transform_stack`` transforms a whole
stack of tensors with one stacked ``matmul`` per dimension.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import TensorShapeError
from repro.tensor.mtxm import mtxmq


def _as_cube(s: np.ndarray) -> tuple[int, int]:
    """Validate that ``s`` is a hyper-cube tensor; return (dim, side)."""
    if s.ndim < 1:
        raise TensorShapeError("transform requires a tensor of dimension >= 1")
    side = s.shape[0]
    if any(extent != side for extent in s.shape):
        raise TensorShapeError(
            f"transform requires equal extents per dimension, got {s.shape}"
        )
    return s.ndim, side


def transform_dim(s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Contract the leading dimension of ``s`` with ``h`` and rotate axes.

    For ``s`` of shape ``(k, ..., k)`` (d axes) and ``h`` of shape
    ``(k, k')`` the result has the contracted axis (now of extent ``k'``)
    moved to the last position.  ``d`` applications with the same ``h``
    cycle through every dimension.
    """
    if s.ndim < 1:
        raise TensorShapeError("transform_dim requires a tensor of dimension >= 1")
    side = s.shape[0]
    if h.ndim != 2 or h.shape[0] != s.shape[0]:
        raise TensorShapeError(
            f"operator matrix {h.shape} incompatible with tensor {s.shape}"
        )
    rest = int(np.prod(s.shape[1:], dtype=np.int64)) if s.ndim > 1 else 1
    flat = s.reshape(side, rest) if s.ndim > 1 else s.reshape(side, 1)
    out = mtxmq(flat, h)  # shape (rest, k')
    new_shape = s.shape[1:] + (h.shape[1],)
    return out.reshape(new_shape)


def transform(s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Transform every dimension of ``s`` by the same matrix ``h``.

    This is MADNESS's ``transform(t, c)``; with ``h`` the two-scale filter
    it implements compress/reconstruct, with ``h`` an operator block it
    implements one rank term of Formula 1.
    """
    dim, _ = _as_cube(s)
    r = s
    for _ in range(dim):
        r = transform_dim(r, h)
    return r


def transform_stack(s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """:func:`transform` of every tensor of a stack by one square ``h``.

    ``s`` has shape ``(B, side, ..., side)``.  Each dimension is one
    stacked ``matmul`` whose per-tensor products are the ``mtxmq`` calls
    of transforming that tensor alone, so every tensor of the result is
    bit-identical to :func:`transform` of it.
    """
    n, side = s.shape[0], s.shape[1]
    if h.shape != (side, side):
        raise TensorShapeError(
            f"operator matrix {h.shape} incompatible with tensors {s.shape[1:]}"
        )
    t = s
    for _ in range(s.ndim - 1):
        t = np.matmul(t.reshape(n, side, -1).transpose(0, 2, 1), h)
    return t.reshape(s.shape)


def transform_seq(s: np.ndarray, hs: Sequence[np.ndarray]) -> np.ndarray:
    """Transform dimension ``i`` of ``s`` by ``hs[i]``.

    The matrices are applied in order; because each :func:`transform_dim`
    rotates the axes, ``hs[0]`` acts on the original first dimension,
    ``hs[1]`` on the original second, and so on.
    """
    dim, _ = _as_cube(s)
    if len(hs) != dim:
        raise TensorShapeError(
            f"expected {dim} operator matrices for a {dim}-D tensor, got {len(hs)}"
        )
    r = s
    for h in hs:
        r = transform_dim(r, h)
    return r
