"""Property-based tests of the operator-block machinery."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import OperatorError
from repro.mra.quadrature import gauss_legendre, phi_values
from repro.mra.twoscale import TwoScaleFilter
from repro.operators.blocks import (
    gaussian_block_1d,
    gaussian_blocks_1d,
    ns_block_from_children,
)
from repro.operators.gaussian_fit import fit_inverse_r

exponents = st.floats(0.5, 1e6)
levels = st.integers(0, 6)
deltas = st.integers(-4, 4)
orders = st.integers(2, 8)


def _dense_block(k, a, level, delta, npt=60):
    x, w = gauss_legendre(npt)
    phi = phi_values(x, k)
    beta = a * 4.0 ** (-level)
    kernel = np.exp(-beta * (x[:, None] - x[None, :] + delta) ** 2)
    return 2.0 ** (-level) * np.einsum("u,v,uv,ui,vj->ij", w, w, kernel, phi, phi)


@given(orders, st.floats(0.5, 200.0), levels, deltas)
@settings(max_examples=40, deadline=None)
def test_block_matches_dense_quadrature_for_wide_kernels(k, a, level, delta):
    """For beta small enough that tensor quadrature converges, the
    windowed correlation evaluation must agree."""
    beta = a * 4.0 ** (-level)
    if beta > 300.0:
        return  # dense reference itself unreliable there
    ours = gaussian_block_1d(k, a, level, delta)
    dense = _dense_block(k, a, level, delta)
    assert np.allclose(ours, dense, atol=1e-10)


@given(orders, exponents, levels, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_block_symmetry_property(k, a, level, dabs):
    plus = gaussian_block_1d(k, a, level, dabs)
    minus = gaussian_block_1d(k, a, level, -dabs)
    assert np.allclose(plus, minus.T, atol=1e-12)


@given(orders, exponents, levels)
@settings(max_examples=40, deadline=None)
def test_block_positive_diagonal_at_zero_displacement(k, a, level):
    """The kernel is positive, so <phi_i | K | phi_i> at delta=0 is > 0
    for the constant mode and the matrix is symmetric PSD-ish."""
    r = gaussian_block_1d(k, a, level, 0)
    assert r[0, 0] > 0
    eigs = np.linalg.eigvalsh((r + r.T) / 2)
    assert eigs.min() > -1e-10 * max(1.0, eigs.max())


@given(orders, st.floats(1.0, 1e5), levels, st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_ns_corner_consistency_property(k, a, level, delta):
    filt = TwoScaleFilter.build(k)
    coarse = gaussian_block_1d(k, a, level, delta)
    t = ns_block_from_children(
        filt,
        gaussian_block_1d(k, a, level + 1, 2 * delta),
        gaussian_block_1d(k, a, level + 1, 2 * delta - 1),
        gaussian_block_1d(k, a, level + 1, 2 * delta + 1),
    )
    scale = max(1.0, float(np.abs(coarse).max()))
    assert np.allclose(t[:k, :k], coarse, atol=1e-10 * scale)


@given(st.floats(1e-8, 1e-3), st.floats(1e-5, 1e-2))
@settings(max_examples=25, deadline=None)
def test_inverse_r_fit_accuracy_property(eps, r_lo):
    fit = fit_inverse_r(eps, r_lo)
    err = fit.max_relative_error(lambda r: 1.0 / r, r_lo, np.sqrt(3.0))
    assert err < 50 * eps


#: exponents log-uniform over 1e-7..1e9: at levels 0..10 and deltas up to
#: 20 the Gaussian's window on a unit piece is full, clipped or empty
wide_exponents = st.lists(
    st.floats(-7.0, 9.0).map(lambda e: 10.0**e), min_size=1, max_size=4
)
wide_deltas = st.lists(st.integers(-20, 20), min_size=1, max_size=4)


@given(st.integers(1, 10), wide_exponents, st.integers(0, 10), wide_deltas)
# full (a=1), clipped (a=1e6, delta 0) and empty (a=1e6, delta 5) windows
@example(4, [1.0, 1e6], 0, [0, 5])
@settings(max_examples=60, deadline=None)
def test_batched_blocks_match_per_block_oracle(k, exps, level, deltas):
    """Every block of the stacked quadrature lies within 1e-12 of its
    largest entry of the one-block oracle."""
    stack = gaussian_blocks_1d(k, np.array(exps), level, deltas)
    assert stack.shape == (len(deltas), len(exps), k, k)
    for i, delta in enumerate(deltas):
        for mu, a in enumerate(exps):
            oracle = gaussian_block_1d(k, a, level, delta)
            scale = float(np.abs(oracle).max())
            assert np.abs(stack[i, mu] - oracle).max() <= 1e-12 * scale


@given(
    st.integers(1, 10),
    st.floats(max_value=0.0, allow_nan=False),
    st.integers(-5, 5),
    wide_deltas,
)
@settings(max_examples=30, deadline=None)
def test_batched_blocks_reject_what_the_oracle_rejects(k, bad_a, level, deltas):
    """A non-positive exponent or a negative level raises on both paths."""
    with pytest.raises(OperatorError):
        gaussian_block_1d(k, bad_a, abs(level), deltas[0])
    with pytest.raises(OperatorError):
        gaussian_blocks_1d(k, np.array([1.0, bad_a]), abs(level), deltas)
    if level < 0:
        with pytest.raises(OperatorError):
            gaussian_block_1d(k, 1.0, level, deltas[0])
        with pytest.raises(OperatorError):
            gaussian_blocks_1d(k, np.array([1.0]), level, deltas)
