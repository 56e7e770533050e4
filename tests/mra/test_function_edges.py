"""Edge-case tests for MultiresolutionFunction and FunctionFactory."""

import numpy as np
import pytest

from repro.errors import OperatorError
from repro.mra.function import FunctionFactory, MultiresolutionFunction
from repro.mra.tree import FunctionTree
from tests.conftest import gaussian_1d


def test_initial_level_forces_minimum_depth():
    shallow = FunctionFactory(dim=1, k=6, thresh=1e-2, initial_level=1)
    deep = FunctionFactory(dim=1, k=6, thresh=1e-2, initial_level=4)
    f_shallow = shallow.from_callable(gaussian_1d(5.0))
    f_deep = deep.from_callable(gaussian_1d(5.0))
    # a very smooth function truncates early unless initial_level forces
    # refinement to continue
    assert f_deep.tree.max_level() >= 5
    assert f_deep.tree.max_level() > f_shallow.tree.max_level()


def test_max_level_floor_terminates():
    """A discontinuous function cannot satisfy the threshold; max_level
    must stop the recursion."""
    fac = FunctionFactory(dim=1, k=4, thresh=1e-12, max_level=5)

    def step(x):
        return (x[:, 0] > 0.37).astype(float)

    f = fac.from_callable(step)
    assert f.tree.max_level() == 5
    f.tree.check_structure()


def test_truncate_explicit_tol_overrides_thresh(f1d):
    loose = f1d.copy()
    tight = f1d.copy()
    loose.truncate(1e-2)
    tight.truncate(1e-12)
    assert loose.tree.size() <= tight.tree.size()


def test_zero_function_round_trips():
    fac = FunctionFactory(dim=2, k=5, thresh=1e-6)
    z = fac.zero()
    assert z.norm2() == 0.0
    z.compress().reconstruct()
    assert z.norm2() == 0.0
    assert z.eval((0.3, 0.7)) == 0.0


def test_constructor_validates_form_and_mode():
    tree = FunctionTree(1)
    with pytest.raises(OperatorError):
        MultiresolutionFunction(1, 4, tree, form="weird")
    with pytest.raises(OperatorError):
        MultiresolutionFunction(1, 4, tree, truncate_mode="weird")


def test_constructor_validates_tree_dim():
    from repro.errors import TreeStructureError

    with pytest.raises(TreeStructureError):
        MultiresolutionFunction(2, 4, FunctionTree(3))


def test_copy_preserves_configuration(f2d):
    c = f2d.copy()
    assert (c.dim, c.k, c.thresh, c.form, c.truncate_mode) == (
        f2d.dim, f2d.k, f2d.thresh, f2d.form, f2d.truncate_mode
    )
    # and is independent
    c.scale(2.0)
    assert not np.isclose(c.norm2(), f2d.norm2())


def test_call_dunder_matches_eval(f1d):
    assert f1d((0.5,)) == f1d.eval((0.5,))


def test_eval_wrong_dimension_rejected(f2d):
    with pytest.raises(OperatorError):
        f2d.eval((0.5,))


def test_conform_to_is_idempotent(f2d, factory_2d):
    from tests.conftest import gaussian_nd

    g = factory_2d.from_callable(gaussian_nd(2, alpha=30.0))
    a = f2d.copy()
    a.conform_to(g)
    size_once = a.tree.size()
    a.conform_to(g)
    assert a.tree.size() == size_once
