"""Differential test of the level-at-a-time nonstandard transform.

``MultiresolutionFunction.nonstandard`` filters all interior nodes of a
level with one stacked two-scale product per axis.  The oracle below is
the walk it replaced: fine to coarse, one :func:`gather_children` and one
:func:`transform` by ``hg.T`` per parent.  Both must leave the same tree:
the same keys in the same insertion order, the same ``has_children``
flags and bit-identical coefficients.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mra.function import (
    NONSTANDARD,
    FunctionFactory,
    MultiresolutionFunction,
    gather_children,
    scaling_corner,
)
from repro.mra.tree import FunctionTree
from repro.tensor.transform import transform


def reference_nonstandard(fn: MultiresolutionFunction) -> MultiresolutionFunction:
    """The per-parent walk: gather each parent's children and filter."""
    fn.reconstruct()
    s_of = {}
    corner = scaling_corner(fn.dim, fn.k)
    for key, node in fn.tree.by_level(reverse=True):
        if not node.has_children:
            s_of[key] = node.coeffs
            continue
        uu = gather_children(lambda c: s_of[c], key, fn.k)
        v = transform(uu, fn.filter.hg.T)
        s_of[key] = v[corner].copy()
        node.coeffs = v
    fn.form = NONSTANDARD
    return fn


def assert_same_tree(got: FunctionTree, want: FunctionTree) -> None:
    assert list(got.keys()) == list(want.keys())
    for key, node in want.items():
        mine = got[key]
        assert mine.has_children == node.has_children, key
        if node.coeffs is None:
            assert mine.coeffs is None, key
        else:
            assert np.array_equal(mine.coeffs, node.coeffs), key


#: finest level per dimension, so one example stays small
MAX_LEVEL = {1: 7, 2: 5, 3: 3}


@st.composite
def projected_functions(draw) -> MultiresolutionFunction:
    """An adaptively projected off-centre Gaussian in 1-3 D, k 2-6."""
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(2, 6))
    centre = np.array(draw(st.lists(st.floats(0.2, 0.8), min_size=dim, max_size=dim)))
    alpha = draw(st.floats(20.0, 400.0))
    thresh = draw(st.sampled_from([1e-2, 1e-3, 1e-4]))

    def f(x):
        return np.exp(-alpha * ((x - centre) ** 2).sum(axis=1))

    factory = FunctionFactory(dim, k, thresh, max_level=MAX_LEVEL[dim])
    return factory.from_callable(f)


@given(projected_functions())
@settings(max_examples=40, deadline=None)
def test_nonstandard_matches_per_parent_walk(fn):
    got = fn.copy().nonstandard()
    want = reference_nonstandard(fn.copy())
    assert got.form == NONSTANDARD
    assert_same_tree(got.tree, want.tree)


def test_nonstandard_of_a_single_box_changes_nothing():
    fn = FunctionFactory(2, 3, 1e-3).zero()
    got = fn.copy().nonstandard()
    assert_same_tree(got.tree, reference_nonstandard(fn.copy()).tree)


def test_nonstandard_from_compressed_form(f1d):
    want = reference_nonstandard(f1d.copy().compress())
    assert_same_tree(f1d.copy().compress().nonstandard().tree, want.tree)
