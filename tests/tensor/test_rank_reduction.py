"""Tests for rank reduction (paper Section II-D)."""

import numpy as np
import pytest

from repro.errors import TensorShapeError
from repro.tensor.mtxm import mtxmq
from repro.tensor.rank_reduction import (
    effective_rank,
    mtxm_flops,
    pad_reduced_result,
    rank_reduce_pair,
    reduced_transform_flops,
)


def _decaying_matrix(k, decay=0.1, seed=0):
    """A matrix whose trailing rows/columns decay geometrically, like the
    high-polynomial-degree blocks of a smooth separated operator."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((k, k))
    scale = decay ** np.arange(k)
    return m * np.outer(scale, scale)


def test_mtxm_flops_formula():
    assert mtxm_flops(3, 4, 5) == 2 * 3 * 4 * 5


def test_effective_rank_full_matrix():
    h = np.eye(6)
    assert effective_rank(h, 1e-12, axis=0) == 6
    assert effective_rank(h, 1e-12, axis=1) == 6


def test_effective_rank_decaying():
    h = _decaying_matrix(10, decay=0.1)
    r = effective_rank(h, 1e-6, axis=0)
    assert 1 <= r < 10


def test_effective_rank_zero_matrix_is_one():
    assert effective_rank(np.zeros((5, 5)), 1e-12, axis=0) == 1


def test_effective_rank_bad_axis():
    with pytest.raises(ValueError):
        effective_rank(np.eye(3), 1e-6, axis=2)


def test_effective_rank_needs_matrix():
    with pytest.raises(TensorShapeError):
        effective_rank(np.zeros(5), 1e-6, axis=0)


def test_reduced_product_accuracy():
    """The reduced multiply agrees with the full one to tolerance."""
    k = 12
    tol = 1e-8
    rng = np.random.default_rng(1)
    s = rng.standard_normal((k, k * k))
    h = _decaying_matrix(k, decay=0.15, seed=2)
    full = mtxmq(s, h)
    s_red, h_red, _cols = rank_reduce_pair(s, h, tol)
    reduced = pad_reduced_result(mtxmq(s_red, h_red), k)
    # error is bounded by the dropped slice norms times the data norm
    assert np.linalg.norm(full - reduced) <= 100 * tol * np.linalg.norm(s)


def test_reduction_saves_flops():
    """For typical decaying operators the saving is substantial (the
    paper reports up to ~2.5x on the CPU)."""
    k = 16
    h = _decaying_matrix(k, decay=0.3, seed=3)
    rest = k * k
    full = mtxm_flops(rest, k, k)
    reduced = reduced_transform_flops(h, rest, 1e-6)
    assert reduced < full
    assert full / reduced > 1.5


def test_no_reduction_when_full_rank():
    k = 8
    rng = np.random.default_rng(4)
    h = rng.standard_normal((k, k))  # no decay: nothing to drop
    s = rng.standard_normal((k, 4))
    s_red, h_red, cols = rank_reduce_pair(s, h, 1e-12)
    assert s_red.shape == s.shape
    assert h_red.shape == h.shape
    assert cols == k


def test_pad_preserves_values():
    c = np.arange(6.0).reshape(2, 3)
    out = pad_reduced_result(c, 5)
    assert out.shape == (2, 5)
    assert np.allclose(out[:, :3], c)
    assert np.all(out[:, 3:] == 0)


def test_pad_rejects_shrinking():
    with pytest.raises(TensorShapeError):
        pad_reduced_result(np.zeros((2, 5)), 3)


def test_rank_reduce_shape_mismatch():
    with pytest.raises(TensorShapeError):
        rank_reduce_pair(np.zeros((3, 4)), np.zeros((5, 5)), 1e-6)
