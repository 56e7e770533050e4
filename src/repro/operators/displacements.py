"""Displacement enumeration for convolution operators.

``Apply`` translates every source box to a set of neighbour boxes at the
same level.  For kernels with decaying Gaussian terms only a bounded set
of integer displacements contributes above threshold; they are enumerated
in *rings* of increasing Chebyshev radius so screening can stop at the
first all-negligible ring — this per-task variability is the
"irregularity" the paper's batching runtime exists to absorb.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np


def displacement_ring(dim: int, radius: int) -> Iterator[tuple[int, ...]]:
    """All integer displacement vectors with Chebyshev norm == ``radius``.

    Ring 0 is the single zero displacement.  Vectors within a ring are
    produced in deterministic lexicographic order.
    """
    return map(tuple, ring_offsets(dim, radius).tolist())


@functools.lru_cache(maxsize=None)
def ring_offsets(dim: int, radius: int) -> np.ndarray:
    """:func:`displacement_ring` as a read-only ``(n, dim)`` integer array
    (cached per ``(dim, radius)``)."""
    if radius < 0:
        raise ValueError(f"ring radius must be >= 0, got {radius}")
    grid = np.indices((2 * radius + 1,) * dim).reshape(dim, -1).T - radius
    ring = grid[np.abs(grid).max(axis=1) == radius]
    ring.flags.writeable = False
    return ring


def displacements_up_to(dim: int, max_radius: int) -> list[tuple[int, ...]]:
    """All displacements with Chebyshev norm <= ``max_radius``, ring order."""
    out: list[tuple[int, ...]] = []
    for radius in range(max_radius + 1):
        out.extend(displacement_ring(dim, radius))
    return out


def ring_sizes(dim: int, max_radius: int) -> list[int]:
    """Number of displacements per ring: ``(2r+1)^d - (2r-1)^d``."""
    sizes = [1]
    for r in range(1, max_radius + 1):
        sizes.append((2 * r + 1) ** dim - (2 * r - 1) ** dim)
    return sizes
