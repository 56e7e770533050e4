"""Tests for the mtxmq primitive."""

import numpy as np
import pytest

from repro.errors import TensorShapeError
from repro.tensor.mtxm import mtxmq


def test_mtxmq_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 12))
    b = rng.standard_normal((5, 7))
    assert np.allclose(mtxmq(a, b), a.T @ b)


def test_mtxmq_paper_shape():
    """The paper's (k^2, k) x (k, k) product, stored contraction-first."""
    k = 10
    rng = np.random.default_rng(1)
    s = rng.standard_normal((k, k * k))  # contraction index leading
    h = rng.standard_normal((k, k))
    out = mtxmq(s, h)
    assert out.shape == (k * k, k)
    assert np.allclose(out, s.T @ h)


def test_mtxmq_shape_mismatch():
    with pytest.raises(TensorShapeError):
        mtxmq(np.zeros((3, 4)), np.zeros((5, 5)))


def test_mtxmq_requires_2d():
    with pytest.raises(TensorShapeError):
        mtxmq(np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(TensorShapeError):
        mtxmq(np.zeros((3, 3)), np.zeros(3))


def test_double_mtxmq_rotates_axes_back():
    """Two applications on a 2-D tensor restore the original orientation."""
    k = 6
    rng = np.random.default_rng(3)
    s = rng.standard_normal((k, k))
    h = rng.standard_normal((k, k))
    once = mtxmq(s, h)  # h^T s with axes rotated
    twice = mtxmq(once, h)
    expected = h.T @ s @ h
    assert np.allclose(twice, expected)
