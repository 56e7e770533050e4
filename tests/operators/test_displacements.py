"""Tests for displacement ring enumeration."""

import itertools

import pytest

from repro.operators.displacements import (
    displacement_ring,
    displacements_up_to,
    ring_offsets,
    ring_sizes,
)


def test_ring_zero():
    assert list(displacement_ring(3, 0)) == [(0, 0, 0)]


@pytest.mark.parametrize("dim,radius", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_ring_sizes_match_formula(dim, radius):
    ring = list(displacement_ring(dim, radius))
    expected = (2 * radius + 1) ** dim - (2 * radius - 1) ** dim
    assert len(ring) == expected
    assert ring_sizes(dim, radius)[-1] == expected


def test_ring_members_have_exact_radius():
    for vec in displacement_ring(3, 2):
        assert max(abs(c) for c in vec) == 2


def test_rings_are_disjoint_and_cover():
    all_disps = displacements_up_to(2, 3)
    assert len(all_disps) == len(set(all_disps)) == 7 * 7


def test_ring_order_is_deterministic():
    assert list(displacement_ring(2, 1)) == list(displacement_ring(2, 1))


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        list(displacement_ring(2, -1))


def test_up_to_orders_by_ring():
    disps = displacements_up_to(2, 2)
    radii = [max(abs(c) for c in d) for d in disps]
    assert radii == sorted(radii)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("radius", [0, 1, 4, 8])
def test_ring_offsets_match_lexicographic_enumeration(dim, radius):
    expected = [
        vec
        for vec in itertools.product(range(-radius, radius + 1), repeat=dim)
        if max(abs(c) for c in vec) == radius
    ]
    offsets = ring_offsets(dim, radius)
    assert [tuple(row) for row in offsets.tolist()] == expected
    assert list(displacement_ring(dim, radius)) == expected
    assert not offsets.flags.writeable
