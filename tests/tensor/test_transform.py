"""Tests for d-dimensional transforms (Formula 1 inner loop)."""

import numpy as np
import pytest

from repro.errors import TensorShapeError
from repro.tensor.transform import (
    transform,
    transform_dim,
    transform_seq,
)


def _dense_transform(s, hs):
    """Direct einsum evaluation of r[i..] = sum_j s[j..] prod h[j_a, i_a]."""
    dim = s.ndim
    in_idx = "abcd"[:dim]
    out_idx = "uvwx"[:dim]
    spec = in_idx + "," + ",".join(f"{i}{o}" for i, o in zip(in_idx, out_idx))
    return np.einsum(spec + "->" + out_idx, s, *hs)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_transform_matches_dense(dim):
    k = 5
    rng = np.random.default_rng(dim)
    s = rng.standard_normal((k,) * dim)
    h = rng.standard_normal((k, k))
    assert np.allclose(transform(s, h), _dense_transform(s, [h] * dim))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transform_seq_distinct_matrices(dim):
    k = 4
    rng = np.random.default_rng(10 + dim)
    s = rng.standard_normal((k,) * dim)
    hs = [rng.standard_normal((k, k)) for _ in range(dim)]
    assert np.allclose(transform_seq(s, hs), _dense_transform(s, hs))


def test_transform_identity():
    s = np.random.default_rng(5).standard_normal((4, 4, 4))
    assert np.allclose(transform(s, np.eye(4)), s)


def test_transform_orthogonal_preserves_norm():
    rng = np.random.default_rng(6)
    s = rng.standard_normal((6, 6))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    r = transform(s, q)
    assert np.isclose(np.linalg.norm(r), np.linalg.norm(s))


def test_transform_dim_rotates_axes():
    rng = np.random.default_rng(7)
    s = rng.standard_normal((3, 4, 5))  # deliberately unequal extents
    h = rng.standard_normal((3, 7))
    out = transform_dim(s, h)
    assert out.shape == (4, 5, 7)
    expected = np.einsum("abc,au->bcu", s, h)
    assert np.allclose(out, expected)


def test_transform_rejects_non_cube():
    with pytest.raises(TensorShapeError):
        transform(np.zeros((3, 4)), np.eye(3))


def test_transform_seq_wrong_count():
    with pytest.raises(TensorShapeError):
        transform_seq(np.zeros((3, 3)), [np.eye(3)])


def test_transform_rejects_mismatched_operator():
    with pytest.raises(TensorShapeError):
        transform(np.zeros((3, 3)), np.eye(4))
