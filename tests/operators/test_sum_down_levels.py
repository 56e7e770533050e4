"""Differential test of the level-at-a-time ``sum_down_ns``.

``sum_down_ns`` sums, tests and unfilters a whole level of the result
tree at once, then fills the output tree in depth-first pre-order.  The
oracle below is the walk it replaced: a stack of ``(key, parent scaling
coefficients)`` popped one node at a time, each output node created by
``ensure_path``.  Both must build the same function: the same keys in
the same insertion order, the same ``has_children`` flags and
bit-identical coefficients.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mra.function import (
    RECONSTRUCTED,
    MultiresolutionFunction,
    child_block,
    scaling_corner,
)
from repro.mra.key import Key
from repro.mra.node import FunctionNode
from repro.mra.tree import FunctionTree
from repro.mra.twoscale import TwoScaleFilter
from repro.operators.apply_batched import BatchedApply
from repro.operators.convolution import ApplyStats, sum_down_ns
from repro.tensor.transform import transform

from tests.conftest import make_runtime
from tests.mra.test_nonstandard_levels import assert_same_tree, projected_functions
from tests.operators.test_apply_batched import (
    _coulomb_seed0_density,
    _coulomb_seed0_operator,
)


def reference_sum_down_ns(tree, *, dim, k, filter_, thresh, truncate_mode="absolute"):
    """The node-at-a-time stack walk."""
    corner = scaling_corner(dim, k)
    root = Key.root(dim)
    if root not in tree:
        tree[root] = FunctionNode(coeffs=None)
    out = FunctionTree(dim)
    stack = [(root, np.zeros((k,) * dim))]
    while stack:
        key, s_parent = stack.pop()
        node = tree.get(key)
        has_kids = node.has_children if node is not None else False
        v = None if node is None else node.coeffs
        if not has_kids and v is None:
            out.ensure_path(key).coeffs = s_parent
            continue
        full = np.zeros((2 * k,) * dim)
        if v is not None:
            full += v
        full[corner] += s_parent
        if not has_kids:
            detail = full.copy()
            detail[corner] = 0.0
            if float(np.linalg.norm(detail)) <= thresh * 1e-2:
                out.ensure_path(key).coeffs = full[corner].copy()
                continue
        uu = transform(full, filter_.hg)
        out.ensure_path(key).has_children = True
        for child in key.children():
            bits = tuple(t & 1 for t in child.translation)
            stack.append((child, uu[child_block(bits, k)].copy()))
    return MultiresolutionFunction(
        dim, k, out, thresh=thresh, form=RECONSTRUCTED, truncate_mode=truncate_mode
    )


def assert_same_sum_down(tree: FunctionTree, dim: int, k: int, filter_, thresh: float):
    got = sum_down_ns(tree.copy(), dim=dim, k=k, filter_=filter_, thresh=thresh)
    want = reference_sum_down_ns(
        tree.copy(), dim=dim, k=k, filter_=filter_, thresh=thresh
    )
    assert got.form == RECONSTRUCTED
    assert_same_tree(got.tree, want.tree)


def contribution_tree(fn: MultiresolutionFunction, seed: int) -> FunctionTree:
    """A result-like tree over ``fn``'s nonstandard keys.

    Every node holds a ``(2k)^d`` tensor: the nonstandard ``[s|d]`` of an
    interior node, or a leaf's scaling coefficients in the corner plus a
    detail part that is absent, negligible or large (so a childless
    node either stays a leaf or refines one extra level).  Some nodes
    lose their tensor, some interior nodes are marked childless and some
    subtrees are missing, as in a result tree that only holds the boxes
    contributions reached.
    """
    rng = np.random.default_rng(seed)
    dim, k = fn.dim, fn.k
    corner = scaling_corner(dim, k)
    tree = FunctionTree(dim)
    for key, node in fn.copy().nonstandard().tree.items():
        if key.level > 0 and key.parent() not in tree:
            continue
        if key.level > 1 and rng.random() < 0.05:
            continue  # a missing subtree
        v = node.coeffs
        if v.shape[0] == k:
            full = np.zeros((2 * k,) * dim)
            full[corner] = v
            scale = rng.choice([0.0, 1e-14, 1e-3, 1.0]) * fn.thresh
            v = full + scale * rng.standard_normal(full.shape)
        if rng.random() < 0.15:
            v = None
        has_children = node.has_children and rng.random() < 0.9
        tree[key] = FunctionNode(coeffs=v, has_children=has_children)
    return tree


@given(projected_functions(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sum_down_matches_stack_walk(fn, seed):
    tree = contribution_tree(fn, seed)
    assert_same_sum_down(tree, fn.dim, fn.k, fn.filter, fn.thresh)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sum_down_of_an_empty_tree(dim):
    # the root is added as a coefficient-free leaf: one zero box
    assert_same_sum_down(FunctionTree(dim), dim, 3, TwoScaleFilter.build(3), 1e-4)


@pytest.mark.parametrize("problem", ["problem_1d", "problem_2d", "problem_3d"])
def test_sum_down_of_apply_result_trees(problem, request):
    """The trees a batched Apply accumulates, summed down both ways."""
    f, op = request.getfixturevalue(problem)
    src = f.copy()
    src.nonstandard()
    tree = FunctionTree(op.dim)
    gen = BatchedApply(op, make_runtime("hybrid"))
    gen.runtime.execute(gen.generate_tasks(src, tree, ApplyStats()))
    assert len(tree) > 1
    assert_same_sum_down(tree, op.dim, op.k, op.filter, f.thresh)


@pytest.fixture(scope="module")
def problem_1d(f1d, gauss_op_1d):
    return f1d, gauss_op_1d


@pytest.fixture(scope="module")
def problem_2d(f2d, gauss_op_2d):
    return f2d, gauss_op_2d


@pytest.fixture(scope="module")
def problem_3d():
    """perf's seed-0 coulomb-apply density and cold operator."""
    return _coulomb_seed0_density(), _coulomb_seed0_operator()
