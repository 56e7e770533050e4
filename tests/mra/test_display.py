"""Tests for the text tree renderers."""

import pytest

from repro.mra.display import occupancy_strip, tree_summary


def test_occupancy_strip_marks_center(f1d):
    """The 1-D Gaussian is centred at 0.5: the deepest strip is marked
    near the middle and blank at the edges."""
    strip = occupancy_strip(f1d, width=64)
    deepest_line = strip.splitlines()[-1]
    cells = deepest_line.split("|")[1]
    mid = cells[len(cells) // 2 - 4 : len(cells) // 2 + 4]
    assert "#" in mid
    assert cells[0] == " " and cells[-1] == " "


def test_occupancy_strip_axis_validated(f2d):
    with pytest.raises(ValueError):
        occupancy_strip(f2d, axis=5)


def test_tree_summary_mentions_counts(f3d):
    s = tree_summary(f3d)
    assert str(f3d.tree.size()) in s
    assert "adaptivity" in s


def test_every_level_with_leaves_appears(f2d):
    strip = occupancy_strip(f2d)
    leaf_levels = {k.level for k, _n in f2d.tree.leaves()}
    for level in leaf_levels:
        assert f"L{level:<2}" in strip


def test_occupancy_strip_negative_axis_rejected(f2d):
    with pytest.raises(ValueError, match="axis"):
        occupancy_strip(f2d, axis=-1)


def test_occupancy_strip_narrow_width_still_marks(f1d):
    # deep boxes narrower than one column must still leave a mark
    strip = occupancy_strip(f1d, width=4)
    for line in strip.splitlines():
        assert "#" in line


def test_occupancy_strip_second_axis(f2d):
    # a symmetric 2-D Gaussian refines identically along both axes
    assert occupancy_strip(f2d, axis=0) == occupancy_strip(f2d, axis=1)


def test_tree_summary_fraction_formats(f1d):
    s = tree_summary(f1d)
    assert "%" in s and "depth" in s
