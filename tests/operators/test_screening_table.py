"""The per-level screening table against the per-displacement ring loop.

``GaussianConvolution.level_table`` screens each ring of displacements
with one array expression over blocks built a ring at a time.  The
reference here is the per-item path it replaced: one oracle quadrature
per R block, one SVD per NS block and rank term, and one
``operator_norm`` call per displacement.
"""

import itertools
import math

import numpy as np
import pytest

from repro.operators.blocks import gaussian_block_1d
from repro.operators.convolution import CoulombOperator, GaussianConvolution
from repro.operators.gaussian_fit import single_gaussian


class _PerBlockConvolution(GaussianConvolution):
    """Builds each R block with the one-block oracle, each 1-D norm with
    one SVD per rank term, and each displacement's term norms on their
    own."""

    def r_block(self, level, delta, mu):
        if delta < 0:
            return self.r_block(level, -delta, mu).T
        a = float(self.expansion.exponents[mu])
        return self.r_cache.get_or_compute(
            (level, delta, mu), lambda: gaussian_block_1d(self.k, a, level, delta)
        )

    def _norms_1d(self, level, dabs):
        key = (level, dabs)
        if key not in self._norm1d:
            rank = self.expansion.rank
            n_full, n_coup = np.empty(rank), np.empty(rank)
            for mu in range(rank):
                t = self.ns_block(level, dabs, mu)
                n_full[mu] = np.linalg.norm(t, 2)
                td = t.copy()
                td[: self.k, : self.k] -= self.r_block(level, dabs, mu)
                n_coup[mu] = np.linalg.norm(td, 2)
            self._norm1d[key] = (n_full, n_coup)
        return self._norm1d[key]

    def term_norms(self, level, delta, *, subtracted):
        full = [self._norms_1d(level, abs(d))[0] for d in delta]
        if not subtracted:
            out = np.abs(self.expansion.coeffs).copy()
            for nf in full:
                out = out * nf
            return out
        coup = [self._norms_1d(level, abs(d))[1] for d in delta]
        total = np.zeros(self.expansion.rank)
        for i in range(len(delta)):
            term = coup[i].copy()
            for j in range(len(delta)):
                if j != i:
                    term = term * full[j]
            total += term
        return np.abs(self.expansion.coeffs) * total


def _ring(dim, radius):
    """Chebyshev ring ``radius`` in lexicographic order, one tuple at a time."""
    for vec in itertools.product(range(-radius, radius + 1), repeat=dim):
        if max(abs(c) for c in vec) == radius:
            yield vec


def _ring_loop(op, level):
    """Significant displacements of ``level`` by one ``operator_norm``
    call per displacement, ring by ring."""
    floor = op.thresh * 1e-3
    out = []
    for radius in range(op.max_radius + 1):
        ring = []
        for delta in _ring(op.dim, radius):
            norm = op.operator_norm(level, delta, subtracted=level > 0)
            if norm > floor:
                ring.append((delta, norm))
        if radius > 0 and not ring:
            break
        out.extend(ring)
    return out


def _operator(name):
    if name == "1d":
        return GaussianConvolution(1, 8, single_gaussian(1.0, 400.0), thresh=1e-8)
    if name == "2d":
        return GaussianConvolution(2, 6, single_gaussian(1.0, 250.0), thresh=1e-6)
    return CoulombOperator(dim=3, k=4, eps=1e-2, r_lo=math.sqrt(1e-2) * 0.1)


@pytest.mark.parametrize("name, levels", [("1d", 12), ("2d", 9), ("coulomb", 7)])
def test_level_table_matches_per_displacement_ring_loop(name, levels):
    op = _operator(name)
    ref = _PerBlockConvolution(
        op.dim, op.k, op.expansion, thresh=op.thresh, max_radius=op.max_radius
    )
    for level in range(levels):
        table = op.level_table(level)
        expected = _ring_loop(ref, level)
        assert [d for d, _n in table.pairs] == [d for d, _n in expected]
        assert table.offsets.tolist() == [list(d) for d, _n in expected]
        ref_norms = np.array([n for _d, n in expected])
        assert np.allclose(table.norms, ref_norms, rtol=1e-10, atol=0.0)
        assert [n for _d, n in table.pairs] == table.norms.tolist()
        ref_terms = np.array(
            [ref.term_norms(level, d, subtracted=level > 0) for d, _n in expected]
        ).reshape(len(expected), op.expansion.rank)
        # per-term norms compare on their row's scale: a wide Gaussian's
        # coupling norm is rounding noise far below any screening cut
        row_scale = ref_terms.max(axis=1, keepdims=True)
        assert np.all(np.abs(table.terms - ref_terms) <= 1e-10 * row_scale)


def test_level_table_rows_are_term_norms():
    """The table's rows are the single-displacement ``term_norms``, in
    the table's displacement order."""
    op = _operator("coulomb")
    for level in (0, 1, 4):
        table = op.level_table(level)
        for (delta, norm), row in zip(table.pairs, table.terms):
            single = op.term_norms(level, delta, subtracted=level > 0)
            assert np.array_equal(row, single)
            assert norm == op.operator_norm(level, delta, subtracted=level > 0)


def test_ring_fill_builds_the_per_item_cache_keys():
    """Filling R a ring at a time keeps the per-(level, delta, mu) keys
    that block-at-a-time construction produces."""
    op = _operator("coulomb")
    ref = _PerBlockConvolution(
        op.dim, op.k, op.expansion, thresh=op.thresh, max_radius=op.max_radius
    )
    for level in range(4):
        op.level_table(level)
        _ring_loop(ref, level)
    assert sorted(op.r_cache._data) == sorted(ref.r_cache._data)
    assert sorted(op.ns_cache._data) == sorted(ref.ns_cache._data)
    for ours, theirs in ((op.r_cache, ref.r_cache), (op.ns_cache, ref.ns_cache)):
        assert ours.stats.misses == theirs.stats.misses == len(ours)
        assert ours.stats.bytes_inserted == theirs.stats.bytes_inserted
