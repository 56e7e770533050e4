"""1-D operator matrix blocks for Gaussian convolutions.

The matrix element of the kernel ``g(r) = exp(-a r^2)`` between scaling
bases of two boxes at level ``n`` separated by integer displacement
``delta`` is

    ``R^{n,delta}[i,j] = 2^{-n} int_0^1 int_0^1 phi_i(u) phi_j(v)
                                  g(2^{-n} (u - v + delta)) du dv``

which depends on ``a`` and ``n`` only through ``beta = a * 4^{-n}``.
The double integral is reduced to a single integral over ``w = u - v``
against the basis cross-correlation functions (piecewise polynomials),
and the ``w`` quadrature window is clipped to the effective support of
the Gaussian — this keeps the computation accurate for arbitrarily sharp
kernels, which tensor-product quadrature would miss entirely.

``gaussian_blocks_1d`` builds the blocks of many displacements and rank
terms in one quadrature: every non-empty window of every
``(delta, mu)`` pair is one row of a single stacked evaluation.  The
operator fills its cache through it a ring of displacements at a time.
``gaussian_block_1d`` computes one block on its own and is the oracle
the batched path is tested against.

``ns_block_from_children`` assembles the ``(2k, 2k)`` nonstandard-form
block at level ``n`` from the three level ``n+1`` blocks via the
two-scale filter; its scaling corner reproduces ``R^{n,delta}`` exactly
(tested), which is the consistency that makes the telescoping
nonstandard ``Apply`` correct.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import OperatorError
from repro.mra.quadrature import gauss_legendre, phi_values
from repro.mra.twoscale import TwoScaleFilter

#: Gaussian tail cut: exp(-x^2) < 3e-22 beyond |x| = 7.
_TAIL = 7.0
#: quadrature points for the outer (w) integral per piece.
_NW = 48


def phi_correlation(k: int, w: np.ndarray) -> np.ndarray:
    """Cross-correlation matrices ``C[q, i, j] = int phi_i(v + w_q) phi_j(v) dv``.

    The integration range is the overlap of the supports,
    ``v in [max(0, -w), min(1, 1 - w)]``; the integrand is a polynomial of
    degree ``2k - 2`` so ``k`` Gauss points are exact.
    """
    w = np.asarray(w, dtype=float)
    x, wt = gauss_legendre(k)
    lo = np.maximum(0.0, -w)
    hi = np.minimum(1.0, 1.0 - w)
    length = np.maximum(hi - lo, 0.0)
    # v points per w: shape (nw, k)
    v = lo[:, None] + np.multiply.outer(length, x)
    phi_v = phi_values(v.ravel(), k).reshape(v.shape + (k,))
    phi_vw = phi_values(np.clip(v + w[:, None], 0.0, 1.0).ravel(), k).reshape(
        v.shape + (k,)
    )
    weights = np.multiply.outer(length, wt)  # (nw, k)
    return np.einsum("qp,qpi,qpj->qij", weights, phi_vw, phi_v)


def gaussian_block_1d(k: int, a: float, level: int, delta: int) -> np.ndarray:
    """The ``(k, k)`` scaling-basis block ``R^{n,delta}`` of ``exp(-a r^2)``.

    Args:
        k: multiwavelet order.
        a: Gaussian exponent of the kernel.
        level: refinement level ``n`` (boxes of size ``2^{-n}``).
        delta: integer displacement between result and source boxes.

    Returns:
        ``R[i, j]`` mapping source coefficients ``s_j`` at box ``l`` to
        result contributions at box ``l + delta``.
    """
    if a <= 0:
        raise OperatorError(f"Gaussian exponent must be positive, got {a}")
    if level < 0:
        raise OperatorError(f"negative level: {level}")
    beta = a * 4.0 ** (-level)
    halfwidth = _TAIL / math.sqrt(beta)
    center = -float(delta)
    out = np.zeros((k, k))
    for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
        wlo = max(lo, center - halfwidth)
        whi = min(hi, center + halfwidth)
        if whi <= wlo:
            continue
        x, wt = gauss_legendre(_NW)
        w_q = wlo + (whi - wlo) * x
        w_wt = (whi - wlo) * wt
        gauss = np.exp(-beta * (w_q + delta) ** 2)
        corr = phi_correlation(k, w_q)
        out += np.einsum("q,q,qij->ij", w_wt, gauss, corr)
    return out * 2.0 ** (-level)


def gaussian_blocks_1d(
    k: int, exponents: np.ndarray, level: int, deltas: list[int]
) -> np.ndarray:
    """The blocks ``R^{n,delta}`` of ``exp(-a_mu r^2)`` for every pair of
    ``deltas`` and ``exponents``, as a ``(D, M, k, k)`` stack.

    Each block uses :func:`gaussian_block_1d`'s windows and nodes: the
    Gaussian's support is clipped to each unit piece of ``w``, an empty
    window contributes zero, and a non-empty one gets ``_NW`` points.
    All non-empty windows are evaluated in one stacked quadrature.
    """
    exponents = np.asarray(exponents, dtype=float)
    if np.any(exponents <= 0):
        raise OperatorError(f"Gaussian exponents must be positive, got {exponents}")
    if level < 0:
        raise OperatorError(f"negative level: {level}")
    beta = exponents * 4.0 ** (-level)  # (M,)
    halfwidth = _TAIL / np.sqrt(beta)
    delta = np.asarray(deltas, dtype=float)  # (D,)
    center = -delta
    # window ends per (delta, mu, piece); the pieces are [-1, 0] and [0, 1]
    wlo = np.maximum(np.subtract.outer(center, halfwidth)[..., None], [-1.0, 0.0])
    whi = np.minimum(np.add.outer(center, halfwidth)[..., None], [0.0, 1.0])
    live = whi > wlo
    d_idx, m_idx, _piece = np.nonzero(live)
    span = (whi - wlo)[live][:, None]  # (P, 1)
    x, wt = gauss_legendre(_NW)
    w_q = wlo[live][:, None] + span * x  # (P, _NW)
    w_wt = span * wt
    gauss = np.exp(-beta[m_idx][:, None] * (w_q + delta[d_idx][:, None]) ** 2)
    corr = phi_correlation(k, w_q.ravel()).reshape(w_q.shape + (k, k))
    pieces = np.zeros(live.shape + (k, k))
    pieces[live] = np.einsum("pq,pq,pqij->pij", w_wt, gauss, corr)
    return (pieces[:, :, 0] + pieces[:, :, 1]) * 2.0 ** (-level)


def ns_block_from_children(
    filter_: TwoScaleFilter,
    r_2d: np.ndarray,
    r_2d_minus: np.ndarray,
    r_2d_plus: np.ndarray,
) -> np.ndarray:
    """Assemble the ``(2k, 2k)`` nonstandard block ``T^{n,delta}``.

    Children boxes of source ``l`` and result ``l + delta`` couple through
    the level ``n+1`` blocks ``R^{n+1, 2 delta}`` (same parity),
    ``R^{n+1, 2 delta - 1}`` and ``R^{n+1, 2 delta + 1}``:

        ``[r_child0; r_child1] = [[R^{2d}, R^{2d-1}], [R^{2d+1}, R^{2d}]]
                                 @ [s_child0; s_child1]``

    conjugating with the orthogonal two-scale filter maps this to the
    combined ``[s|d]`` basis.
    """
    k = filter_.k
    if r_2d.shape != (k, k):
        raise OperatorError(
            f"child block shape {r_2d.shape} does not match filter order {k}"
        )
    big = np.zeros((2 * k, 2 * k))
    big[:k, :k] = r_2d
    big[:k, k:] = r_2d_minus
    big[k:, :k] = r_2d_plus
    big[k:, k:] = r_2d
    return filter_.hg @ big @ filter_.hg.T
