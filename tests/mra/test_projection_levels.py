"""Differential test of the level-at-a-time projection.

``FunctionFactory.from_callable`` projects a whole level's boxes per call
of the user's function and tests every parent's convergence at once.  The
oracle below is the per-box, depth-first refinement it replaced: one
``project_box`` (a meshgrid, one call of ``f`` and ``dim`` tensordots) per
box and one recursive ``refine`` per interior node.  Both must build the
same tree: the same keys in the same insertion order, the same
``has_children`` flags and bit-identical coefficients.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OperatorError
from repro.mra.function import (
    TRUNCATE_MODES,
    FunctionFactory,
    gather_children,
    truncate_tol,
)
from repro.mra.key import Key
from repro.mra.node import FunctionNode
from repro.mra.tree import FunctionTree
from repro.tensor.transform import transform

from tests.conftest import gaussian_1d


def project_box(factory: FunctionFactory, f, key: Key) -> np.ndarray:
    """Scaling coefficients of ``f`` on one box by tensor quadrature."""
    quad, dim = factory.quad, factory.dim
    scale = 1.0 / (1 << key.level)
    axes = [(quad.points + t) * scale for t in key.translation]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    values = np.asarray(f(grid), dtype=float).reshape((quad.npt,) * dim)
    t = values
    for _ in range(dim):
        t = np.tensordot(t, quad.phiw, axes=([0], [0]))
    return t * 2.0 ** (-key.level * dim / 2.0)


def reference_tree(factory: FunctionFactory, f) -> FunctionTree:
    """Recursive depth-first refinement, one box at a time."""
    dim, k = factory.dim, factory.k
    tree = FunctionTree(dim)
    corner = (slice(0, k),) * dim
    hgT = factory.filter.hg.T

    def refine(key: Key) -> None:
        tree[key] = FunctionNode(has_children=True)
        child_coeffs = {c: project_box(factory, f, c) for c in key.children()}
        converged = False
        if key.level >= factory.initial_level:
            uu = gather_children(child_coeffs.__getitem__, key, k)
            v = transform(uu, hgT).copy()
            v[corner] = 0.0
            d_norm = float(np.linalg.norm(v))
            tol = truncate_tol(factory.thresh, factory.truncate_mode, dim, key.level)
            converged = d_norm <= tol
        if converged or key.level + 1 >= factory.max_level:
            for child, s in child_coeffs.items():
                tree[child] = FunctionNode(coeffs=s)
        else:
            for child in key.children():
                refine(child)

    refine(Key.root(dim))
    return tree


def assert_same_tree(got: FunctionTree, want: FunctionTree) -> None:
    assert list(got.keys()) == list(want.keys())
    for key, node in want.items():
        mine = got[key]
        assert mine.has_children == node.has_children, key
        if node.coeffs is None:
            assert mine.coeffs is None, key
        else:
            assert np.array_equal(mine.coeffs, node.coeffs), key


# -- the callables ----------------------------------------------------------


def off_centre_gaussian(dim: int, alpha: float):
    centre = np.array([0.37, 0.61, 0.52][:dim])

    def f(x):
        return np.exp(-alpha * ((x - centre) ** 2).sum(axis=1))

    return f


def polynomial(dim: int, degree: int):
    """A polynomial of degree ``degree`` (below k) in each coordinate."""

    def f(x):
        out = np.full(len(x), 0.5)
        for axis in range(dim):
            out = out + (axis + 1.0) * x[:, axis] ** degree
        return out

    return f


def step(dim: int):
    def f(x):
        return np.where(x[:, 0] < 0.3, 1.0, -0.5)

    return f


def zero(dim: int):
    def f(x):
        return np.zeros(len(x))

    return f


@st.composite
def projections(draw):
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, 8))
    # a 3-D tree refined to level 6 everywhere has 8^6 leaves, too many
    # for the per-box oracle; level 4 still reaches the cap in 3-D
    max_level = draw(st.integers(2, 6 if dim < 3 else 4))
    factory = FunctionFactory(
        dim,
        k,
        10.0 ** draw(st.floats(-10.0, -2.0)),
        initial_level=draw(st.integers(0, 2)),
        max_level=max_level,
        truncate_mode=draw(st.sampled_from(TRUNCATE_MODES)),
    )
    kind = draw(st.sampled_from(["gaussian", "polynomial", "step", "zero"]))
    if kind == "gaussian":
        f = off_centre_gaussian(dim, draw(st.floats(5.0, 400.0)))
    elif kind == "polynomial":
        f = polynomial(dim, draw(st.integers(0, k - 1)))
    elif kind == "step":
        f = step(dim)
    else:
        f = zero(dim)
    return factory, f


@settings(max_examples=60, deadline=None)
@given(projections())
def test_level_projection_matches_recursive_refinement(case):
    factory, f = case
    assert_same_tree(factory.from_callable(f).tree, reference_tree(factory, f))


@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(1, 3),
    k=st.integers(1, 8),
    level=st.integers(0, 3),
    alpha=st.floats(5.0, 400.0),
)
def test_uniform_matches_per_box_projection(dim, k, level, alpha):
    factory = FunctionFactory(dim, k)
    f = off_centre_gaussian(dim, alpha)
    want = FunctionTree(dim)
    keys = [Key.root(dim)]
    for _ in range(level):
        keys = [c for key in keys for c in key.children()]
    for key in keys:
        want.ensure_path(key).coeffs = project_box(factory, f, key)
    assert_same_tree(factory.uniform(f, level).tree, want)


def _coulomb_density(centre, alpha: float):
    norm = (alpha / math.pi) ** 1.5
    centre = np.array(centre)

    def rho(x):
        return norm * np.exp(-alpha * ((x - centre) ** 2).sum(axis=1))

    return rho


def _end_to_end_density(x):
    """``CoulombApplication.real_instance``'s charge at alpha 150."""
    alpha = 150.0
    r2 = ((x - 0.5) ** 2).sum(axis=1)
    return (alpha / math.pi) ** 1.5 * np.exp(-alpha * r2)


@pytest.mark.parametrize(
    "factory, f, nodes",
    [
        # perf's coulomb-apply density at seed 0
        (
            FunctionFactory(dim=3, k=4, thresh=2e-3),
            _coulomb_density((0.53, 0.45, 0.57), 150.0),
            3721,
        ),
        # the tier-1 end-to-end density (real_instance(k=5, thresh=2e-3, alpha=150))
        (FunctionFactory(dim=3, k=5, thresh=2e-3), _end_to_end_density, 1609),
        # conftest's f1d: 28 leaves, where a batched 1-D tensordot (a gemm
        # instead of each box's vector-matrix product) differs by one ulp
        (FunctionFactory(dim=1, k=8, thresh=1e-8), gaussian_1d(), 55),
    ],
    ids=["coulomb-seed0", "end-to-end", "f1d"],
)
def test_named_densities_match_recursive_refinement(factory, f, nodes):
    got = factory.from_callable(f).tree
    assert got.size() == nodes
    assert_same_tree(got, reference_tree(factory, f))


def test_detail_norms_match_per_parent_norm():
    """The batched convergence norm is ``np.linalg.norm`` of each
    parent's transformed, corner-zeroed two-scale tensor, bit for bit."""
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3):
        for k in (1, 3, 6):
            factory = FunctionFactory(dim, k)
            coeffs = rng.standard_normal((5, 1 << dim) + (k,) * dim)
            norms = factory._detail_norms(coeffs)
            parent = Key(1, (1,) * dim)
            for p in range(5):
                kids = dict(zip(parent.children(), coeffs[p]))
                v = transform(gather_children(kids.__getitem__, parent, k), factory.filter.hg.T)
                v = v.copy()
                v[(slice(0, k),) * dim] = 0.0
                assert norms[p] == float(np.linalg.norm(v))


def test_unknown_truncate_mode_is_rejected_up_front():
    with pytest.raises(OperatorError, match="truncate mode"):
        FunctionFactory(dim=1, k=4, truncate_mode="levle")
