"""The ``mtxmq`` primitive.

MADNESS stores a ``d``-dimensional tensor of side ``k`` as a highly
rectangular 2-D matrix of shape ``(k^{d-1}, k)`` and multiplies it by a
small square operator matrix.  Crucially the MADNESS convention is

    ``C[i, j] = sum_a A[a, i] * B[a, j]``   (i.e. ``C = A^T @ B``)

because contracting the *leading* index of the flattened tensor and
writing the contracted index *last* rotates the tensor's axes by one
position.  Applying the primitive ``d`` times therefore transforms every
dimension exactly once and restores the original axis order — this is how
:func:`repro.tensor.transform.transform` implements the inner loop of the
paper's Formula 1 with nothing but rectangular matrix products.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TensorShapeError


def _check_2d(name: str, a: np.ndarray) -> None:
    if a.ndim != 2:
        raise TensorShapeError(f"{name} must be 2-D, got shape {a.shape}")


def mtxmq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Transposed rectangular matrix product ``a.T @ b``.

    Args:
        a: the flattened tensor, shape ``(q, r)`` — ``q`` is the dimension
           being contracted (tensor side ``k``), ``r = k^{d-1}``.
        b: the small square operator matrix, shape ``(q, q')``.

    Returns:
        Array of shape ``(r, q')``: the contracted index moved to the last
        axis.

    Raises:
        TensorShapeError: if the inner dimensions disagree.
    """
    _check_2d("a", a)
    _check_2d("b", b)
    if a.shape[0] != b.shape[0]:
        raise TensorShapeError(
            f"mtxmq inner dimension mismatch: a is {a.shape}, b is {b.shape}"
        )
    return a.T @ b
