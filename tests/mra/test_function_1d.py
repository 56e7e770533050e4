"""1-D function tests: projection accuracy, forms, norms, evaluation."""

import numpy as np
import pytest
from scipy.integrate import quad

from repro.errors import OperatorError
from tests.conftest import gaussian_1d

ALPHA = 300.0


def test_projection_pointwise_accuracy(f1d):
    g = gaussian_1d(ALPHA)
    for x in (0.1, 0.35, 0.5, 0.62, 0.9):
        exact = float(g(np.array([[x]]))[0])
        assert abs(f1d.eval((x,)) - exact) < 1e-6, x


def test_tree_is_adaptive(f1d):
    """Refinement concentrates where the Gaussian varies."""
    hist = f1d.tree.level_histogram()
    assert f1d.tree.max_level() >= 3
    # the deepest level is not fully populated (adaptivity)
    deepest = f1d.tree.max_level()
    assert hist[deepest] < 2**deepest


def test_norm_matches_integral(f1d):
    exact, _err = quad(lambda x: np.exp(-2 * ALPHA * (x - 0.5) ** 2), 0, 1)
    assert np.isclose(f1d.norm2(), np.sqrt(exact), atol=1e-8)


def test_compress_reconstruct_roundtrip(f1d):
    f = f1d.copy()
    before = {k: n.coeffs.copy() for k, n in f.tree.leaves()}
    f.compress()
    assert f.form == "compressed"
    f.reconstruct()
    assert f.form == "reconstructed"
    for k, c in before.items():
        assert np.allclose(f.tree[k].coeffs, c, atol=1e-12)


def test_compress_preserves_norm(f1d):
    f = f1d.copy()
    n0 = f.norm2()
    f.compress()
    assert np.isclose(f.norm2(), n0, atol=1e-12)


def test_compress_idempotent(f1d):
    f = f1d.copy().compress()
    coeffs = f.tree[f.tree.root].coeffs.copy()
    f.compress()
    assert np.allclose(f.tree[f.tree.root].coeffs, coeffs)


def test_nonstandard_form_roundtrip(f1d):
    f = f1d.copy()
    f.nonstandard()
    assert f.form == "nonstandard"
    # interior nodes hold (2k) combined tensors, leaves hold k
    for key, node in f.tree.items():
        if node.has_children:
            assert node.coeffs.shape == (2 * f.k,)
        else:
            assert node.coeffs.shape == (f.k,)
    f.reconstruct()
    assert abs(f.eval((0.5,)) - 1.0) < 1e-6


def test_eval_requires_reconstructed(f1d):
    f = f1d.copy().compress()
    with pytest.raises(OperatorError):
        f.eval((0.5,))


def test_eval_outside_domain_is_zero(f1d):
    assert f1d.eval((1.5,)) == 0.0
    assert f1d.eval((-0.2,)) == 0.0


def test_norm2_rejects_nonstandard(f1d):
    f = f1d.copy().nonstandard()
    with pytest.raises(OperatorError):
        f.norm2()


def test_scale(f1d):
    f = f1d.copy().scale(3.0)
    assert np.isclose(f.eval((0.5,)), 3.0, atol=1e-5)
    assert np.isclose(f.norm2(), 3.0 * f1d.norm2())


def test_addition_and_subtraction(f1d, factory_1d):
    g = factory_1d.from_callable(gaussian_1d(ALPHA, center=0.4))
    total = f1d + g
    x = 0.45
    expected = f1d.eval((x,)) + g.eval((x,))
    assert np.isclose(total.eval((x,)), expected, atol=1e-8)
    diff = total - g
    assert np.isclose(diff.eval((x,)), f1d.eval((x,)), atol=1e-8)


def test_single_leaf_tree_compress_roundtrip(factory_1d):
    z = factory_1d.zero()
    z.compress()
    assert z.tree[z.tree.root].coeffs.shape == (2 * z.k,)
    z.reconstruct()
    assert z.tree[z.tree.root].coeffs.shape == (z.k,)
    assert z.norm2() == 0.0


def test_refine_leaf_is_exact(f1d):
    f = f1d.copy()
    leaf = next(k for k, n in f.tree.leaves())
    val_before = f.eval(leaf.box_center())
    f.refine_leaf(leaf)
    assert np.isclose(f.eval(leaf.box_center()), val_before, atol=1e-12)
    assert f.tree[leaf].has_children
