"""Separated Gaussian convolution operators and the reference ``Apply``.

This is the paper's Algorithm 1-2: for every node of the (nonstandard
form) source tree and every significant displacement, apply the
separated integral operator (Formula 1) and accumulate the result into
the neighbour box of the result tree; finally sum the per-scale
contributions down the tree.

The operator acts in the *nonstandard form*: each tree node contributes
through ``(2k, 2k)`` combined ``[s|d]`` blocks ``T^{n,delta}``, with the
scaling->scaling part subtracted at every level but the coarsest (the
telescoping that prevents double counting across scales).  The 1-D
operator matrices are built a ring of displacements at a time, for every
rank term in one quadrature, and held per ``(level, displacement, mu)``
in the write-once software cache the paper describes.  Screening is
obtained once per level (Algorithm 1): each ring's norm estimates are
one array expression, and the level's table of displacements, norms and
per-term norms is shared by every task at that level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import OperatorError
from repro.mra.function import (
    MultiresolutionFunction,
    RECONSTRUCTED,
    scaling_corner,
    split_children,
)
from repro.mra.key import Key
from repro.mra.node import FunctionNode
from repro.mra.tree import FunctionTree
from repro.mra.twoscale import TwoScaleFilter
from repro.operators.blocks import gaussian_blocks_1d, ns_block_from_children
from repro.operators.cache import OperatorBlockCache
from repro.operators.displacements import ring_offsets
from repro.operators.gaussian_fit import GaussianExpansion, fit_inverse_r
from repro.tensor.transform import transform_stack

#: absolute floor below which an operator block is treated as exactly zero.
_NORM_FLOOR = 1e-300


@dataclass
class ApplyStats:
    """Work statistics of one ``Apply`` call's screening: the source
    nodes, the (source node, displacement) tasks past screening and the
    rank terms they apply.  The FLOPs are counted per work item
    (``WorkItem.flops``), where the kernels run them."""

    source_nodes: int = 0
    tasks: int = 0  # (source node, displacement) pairs past screening
    mu_applications: int = 0  # rank terms actually multiplied
    screened_displacements: int = 0
    by_level: dict[int, int] = field(default_factory=dict)

    def record_task(self, level: int) -> None:
        """Count one surviving (source node, displacement) task."""
        self.tasks += 1
        self.by_level[level] = self.by_level.get(level, 0) + 1


@dataclass(frozen=True)
class LevelTable:
    """The significant displacements of one level, in ring order.

    ``pairs`` is what :meth:`GaussianConvolution.level_displacements`
    returns: ``(delta, norm)`` per displacement.  The arrays hold the
    same rows: ``offsets`` ``(n, dim)``, ``norms`` ``(n,)`` and the
    per-term norms ``terms`` ``(n, M)``.
    """

    pairs: list[tuple[tuple[int, ...], float]]
    offsets: np.ndarray
    norms: np.ndarray
    terms: np.ndarray


class GaussianConvolution:
    """A convolution operator in separated Gaussian form.

    Args:
        dim: spatial dimension.
        k: multiwavelet order of the functions it acts on.
        expansion: the kernel's Gaussian expansion (rank ``M``).
        thresh: accuracy target; drives displacement and rank screening.
        max_radius: hard cap on the displacement Chebyshev radius.
    """

    def __init__(
        self,
        dim: int,
        k: int,
        expansion: GaussianExpansion,
        *,
        thresh: float = 1e-6,
        max_radius: int = 8,
    ):
        if dim < 1 or k < 1:
            raise OperatorError(f"invalid dim={dim} or k={k}")
        self.dim = dim
        self.k = k
        self.expansion = expansion
        self.thresh = thresh
        self.max_radius = max_radius
        self.filter = TwoScaleFilter.build(k)
        self.r_cache = OperatorBlockCache()
        self.ns_cache = OperatorBlockCache()
        self._norm1d: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._levels: dict[int, LevelTable] = {}

    # -- 1-D blocks -----------------------------------------------------------

    def r_block(self, level: int, delta: int, mu: int) -> np.ndarray:
        """Scaling-basis block ``R^{n,delta}`` for rank term ``mu``.

        Symmetry ``R^{n,-delta} = (R^{n,delta})^T`` (even kernel) halves
        the cache.
        """
        if delta < 0:
            return self.r_block(level, -delta, mu).T
        return self.r_cache.get_or_compute(
            (level, delta, mu),
            lambda: gaussian_blocks_1d(
                self.k, self.expansion.exponents[mu : mu + 1], level, [delta]
            )[0, 0],
        )

    def _fill_r(self, level: int, dabs: tuple[int, ...]) -> None:
        """Build the missing blocks ``R^{level, d}`` (``d >= 0`` in ``dabs``)
        of every rank term in one quadrature."""
        rank = self.expansion.rank
        missing = [
            d for d in dict.fromkeys(dabs)
            if any((level, d, mu) not in self.r_cache for mu in range(rank))
        ]
        if not missing:
            return
        stack = gaussian_blocks_1d(self.k, self.expansion.exponents, level, missing)
        for d, blocks in zip(missing, stack):
            for mu in range(rank):
                self.r_cache.insert((level, d, mu), blocks[mu])

    def ns_block(self, level: int, delta: int, mu: int) -> np.ndarray:
        """Nonstandard ``(2k, 2k)`` block ``T^{n,delta}`` for term ``mu``."""
        if delta < 0:
            return self.ns_block(level, -delta, mu).T
        return self.ns_cache.get_or_compute(
            (level, delta, mu),
            lambda: ns_block_from_children(
                self.filter,
                self.r_block(level + 1, 2 * delta, mu),
                self.r_block(level + 1, 2 * delta - 1, mu),
                self.r_block(level + 1, 2 * delta + 1, mu),
            ),
        )

    def _norms_1d(self, level: int, dabs: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached per-mu 1-D norms at ``(level, |delta|)``.

        Returns ``(n_full, n_coupling)``: spectral norms of the full NS
        block and of the NS block with its scaling->scaling corner
        removed.  The coupling norm is what decays rapidly with distance
        (the wavelets' vanishing moments), and is the correct screening
        quantity for the telescoped operator.

        The R blocks the NS blocks need, at ``(level + 1; 2|d| - 1, 2|d|,
        2|d| + 1)`` and ``(level; |d|)``, are filled for every rank term
        first; each norm is one stacked SVD over the rank.
        """
        key = (level, dabs)
        cached = self._norm1d.get(key)
        if cached is not None:
            return cached
        self._fill_r(level + 1, (abs(2 * dabs - 1), 2 * dabs, 2 * dabs + 1))
        self._fill_r(level, (dabs,))
        terms = range(self.expansion.rank)
        t = np.stack([self.ns_block(level, dabs, mu) for mu in terms])
        n_full = np.linalg.norm(t, 2, axis=(1, 2))
        t[:, : self.k, : self.k] -= np.stack([self.r_block(level, dabs, mu) for mu in terms])
        n_coup = np.linalg.norm(t, 2, axis=(1, 2))
        self._norm1d[key] = (n_full, n_coup)
        return n_full, n_coup

    def term_norms(
        self, level: int, delta: tuple[int, ...], *, subtracted: bool
    ) -> np.ndarray:
        """Per-mu operator-norm estimates for one displacement vector.

        For the unsubtracted operator (coarsest level) the tensor-product
        bound is the product of 1-D norms.  For the telescoped operator
        ``(x)T - (x)embed(R)`` the bound follows from the telescoping
        identity: ``sum_i ||T_i - embed(R_i)|| * prod_{j != i} ||T_j||``.
        """
        return self._terms(level, np.array([delta]), subtracted=subtracted)[0]

    def _terms(
        self, level: int, offsets: np.ndarray, *, subtracted: bool
    ) -> np.ndarray:
        """:meth:`term_norms` of every displacement row of ``offsets``
        ``(n, dim)`` at once, as an ``(n, M)`` array."""
        dabs = np.abs(offsets).T
        rank = self.expansion.rank
        full = np.zeros((int(dabs.max()) + 1, rank))
        coup = np.zeros_like(full)
        for d in np.unique(dabs).tolist():
            full[d], coup[d] = self._norms_1d(level, d)
        coeffs = np.abs(self.expansion.coeffs)
        if not subtracted:
            out = coeffs
            for d in dabs:
                out = out * full[d]
            return out
        total = np.zeros((dabs.shape[1], rank))
        for i in range(len(dabs)):
            term = coup[dabs[i]]
            for j in range(len(dabs)):
                if j != i:
                    term = term * full[dabs[j]]
            total += term
        return coeffs * total

    def operator_norm(
        self, level: int, delta: tuple[int, ...], *, subtracted: bool
    ) -> float:
        """Norm estimate of the whole operator for one displacement."""
        return float(self.term_norms(level, delta, subtracted=subtracted).sum())

    # -- displacement screening --------------------------------------------------

    def level_displacements(self, level: int) -> list[tuple[tuple[int, ...], float]]:
        """Significant displacements at ``level``, with norm estimates.

        Rings of increasing Chebyshev radius are generated until a whole
        ring falls below ``thresh * 1e-3`` (relative to a unit-norm
        source), or the hard radius cap is hit.  The list is cached per
        level and shared by all tasks — it is the MADNESS "obtain
        displacements" step of Algorithm 1.
        """
        return self.level_table(level).pairs

    def level_table(self, level: int) -> LevelTable:
        """The cached screening table behind :meth:`level_displacements`:
        each ring's :meth:`term_norms` are one array expression."""
        cached = self._levels.get(level)
        if cached is not None:
            return cached
        floor = self.thresh * 1e-3
        rings: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for radius in range(self.max_radius + 1):
            offsets = ring_offsets(self.dim, radius)
            terms = self._terms(level, offsets, subtracted=level > 0)
            norms = terms.sum(axis=1)
            live = norms > floor
            if radius > 0 and not live.any():
                break
            rings.append((offsets[live], norms[live], terms[live]))
        offsets = np.concatenate([r[0] for r in rings])
        norms = np.concatenate([r[1] for r in rings])
        table = LevelTable(
            pairs=list(zip(map(tuple, offsets.tolist()), norms.tolist())),
            offsets=offsets,
            norms=norms,
            terms=np.concatenate([r[2] for r in rings]),
        )
        self._levels[level] = table
        return table

    # -- the integral kernel (Formula 1) -------------------------------------------

    def _batched_apply(
        self,
        batch: np.ndarray,
        level: int,
        delta: tuple[int, ...],
        keep: np.ndarray,
        *,
        ns: bool,
    ) -> np.ndarray:
        """Apply the kept rank terms to a batch of tensors at once.

        ``batch`` has shape ``(n, q, ..., q)``; the same per-dimension
        operator matrices act on every tensor, so each rank term is a
        chain of ``dim`` batched ``mtxmq`` contractions — numerically
        identical to the per-task kernel loop but amortising NumPy call
        overhead across the whole batch (this is also exactly the data
        aggregation the paper performs before shipping a batch to the
        GPU).
        """
        block = self.ns_block if ns else self.r_block
        out = np.zeros_like(batch)
        for mu in keep:
            t = batch
            for axis in range(self.dim):
                m = block(level, delta[axis], int(mu))
                # contract the leading tensor axis (axis 1 of the batch)
                # against the operator's input index; the contracted axis
                # lands last, rotating the tensor axes exactly as mtxmq.
                t = np.tensordot(t, m, axes=([1], [1]))
            out += float(self.expansion.coeffs[mu]) * t
        return out

    # -- reference Apply (paper Algorithms 1-2) ----------------------------------

    def apply(
        self,
        f: MultiresolutionFunction,
        *,
        stats: ApplyStats | None = None,
        copy_input: bool = True,
    ) -> MultiresolutionFunction:
        """Apply the operator to ``f`` and return the result function.

        The source is converted to nonstandard form (on a copy unless
        ``copy_input=False``); contributions are accumulated into a fresh
        result tree and summed down; the result is reconstructed.
        """
        if (f.dim, f.k) != (self.dim, self.k):
            raise OperatorError(
                f"operator (dim={self.dim}, k={self.k}) cannot act on "
                f"function (dim={f.dim}, k={f.k})"
            )
        stats = stats if stats is not None else ApplyStats()
        src = f.copy() if copy_input else f
        src.nonstandard()
        result_tree = FunctionTree(self.dim)
        corner = scaling_corner(self.dim, self.k)
        tol = self.thresh

        # Group source nodes by level: every task at (level, delta) shares
        # its operator matrices, so the whole group is applied as one
        # batched contraction (the paper's aggregation of computation).
        by_level: dict[int, list[tuple[Key, np.ndarray]]] = {}
        for key, node in src.tree.items():
            if node.coeffs is None:
                continue
            stats.source_nodes += 1
            by_level.setdefault(key.level, []).append((key, self._combined(node)))

        rank = max(1, self.expansion.rank)
        for level in sorted(by_level):
            group = by_level[level]
            keys = [key for key, _c in group]
            chats = np.stack([c for _k, c in group])
            cnorms = np.linalg.norm(chats.reshape(len(group), -1), axis=1)
            table = self.level_table(level)
            tol_task = tol / max(1, len(table.pairs))
            subtract = level > 0
            for (delta, opnorm), norms_mu in zip(table.pairs, table.terms):
                selected: list[int] = []
                neighbors: list[Key] = []
                for i, key in enumerate(keys):
                    if opnorm * cnorms[i] < tol_task:
                        stats.screened_displacements += 1
                        continue
                    neighbor = key.neighbor(delta)
                    if neighbor is None:
                        continue
                    selected.append(i)
                    neighbors.append(neighbor)
                if not selected:
                    continue
                batch = chats[selected]
                cmax = float(cnorms[selected].max())
                mu_tol = tol_task / (max(cmax, _NORM_FLOOR) * rank)
                keep = np.nonzero(norms_mu > mu_tol)[0]
                if keep.size == 0:
                    continue
                big = self._batched_apply(batch, level, delta, keep, ns=True)
                if subtract:
                    small = self._batched_apply(
                        batch[(slice(None),) + corner], level, delta, keep, ns=False
                    )
                    big[(slice(None),) + corner] -= small
                for neighbor, contrib in zip(neighbors, big):
                    result_tree.ensure_path(neighbor).accumulate(contrib)
                    stats.record_task(level)
                    stats.mu_applications += int(keep.size)
        return sum_down_ns(
            result_tree,
            dim=self.dim,
            k=self.k,
            filter_=self.filter,
            thresh=f.thresh,
            truncate_mode=f.truncate_mode,
        )

    def _combined(self, node: FunctionNode) -> np.ndarray:
        """Promote a node's coefficients to the combined ``(2k)^d`` tensor."""
        coeffs = node.coeffs
        if coeffs.shape[0] == 2 * self.k:
            return coeffs
        chat = np.zeros((2 * self.k,) * self.dim)
        chat[scaling_corner(self.dim, self.k)] = coeffs
        return chat


def sum_down_ns(
    tree: FunctionTree,
    *,
    dim: int,
    k: int,
    filter_: TwoScaleFilter,
    thresh: float,
    truncate_mode: str = "absolute",
) -> MultiresolutionFunction:
    """Assemble a reconstructed function from per-scale NS contributions.

    Top-down pass: each node's accumulated ``(2k)^d`` tensor receives its
    parent's scaling contribution in the corner and is unfiltered to its
    children.  A childless node whose wavelet content is non-negligible
    is refined one extra level so no detail is lost (the result of a
    convolution is legitimately finer than its input).

    The pass runs a level at a time: a level's sums are array additions,
    the detail norms one stacked product and the unfilter one
    :func:`transform_stack` by ``hg``, each making every node's own
    operations, so every coefficient is bit-identical to a node-by-node
    pass.  The output tree is then filled in depth-first pre-order
    (a node, then its children's subtrees, last child first).
    """
    scaling = scaling_corner(dim, k)
    corner = (slice(None),) + scaling  # every row's scaling corner
    root = Key.root(dim)
    if root not in tree:
        tree[root] = FunctionNode(coeffs=None)
    tol = thresh * 1e-2
    leaf_coeffs: dict[Key, np.ndarray] = {}
    children_of: dict[Key, list[Key]] = {}
    # the level's keys and the scaling coefficients their parents pass down
    keys, s_parents = [root], np.zeros((1,) + (k,) * dim)
    while keys:
        # a node holding a tensor or children is summed (a row of ``full``);
        # any other node is a leaf of its parent's coefficients
        active: list[int] = []
        tensors: list[np.ndarray] = []
        with_v: list[int] = []  # rows holding a tensor
        childless: list[int] = []  # rows without children
        for i, key in enumerate(keys):
            node = tree.get(key)
            if node is None or (node.coeffs is None and not node.has_children):
                leaf_coeffs[key] = s_parents[i]
                continue
            if node.coeffs is not None:
                with_v.append(len(active))
                tensors.append(node.coeffs)
            if not node.has_children:
                childless.append(len(active))
            active.append(i)
        full = np.zeros((len(active),) + (2 * k,) * dim)
        if tensors:
            full[with_v] += np.stack(tensors)
        full[corner] += s_parents[active]
        refine = np.ones(len(active), dtype=bool)
        if childless:
            detail = full[childless]
            detail[corner] = 0.0
            flat = detail.reshape(len(childless), 1, -1)
            norms = np.sqrt(flat @ flat.transpose(0, 2, 1)).reshape(-1)
            for row in np.asarray(childless)[norms <= tol].tolist():
                leaf_coeffs[keys[active[row]]] = full[row][scaling].copy()
                refine[row] = False
        parents = [keys[i] for i, r in zip(active, refine.tolist()) if r]
        if not parents:
            break
        blocks = split_children(transform_stack(full[refine], filter_.hg))
        keys = []
        for parent in parents:
            kids = list(parent.children())
            children_of[parent] = kids
            keys.extend(kids)
        s_parents = blocks.reshape((len(keys),) + (k,) * dim)
    out = FunctionTree(dim)
    stack = [root]
    while stack:
        key = stack.pop()
        kids = children_of.get(key)
        if kids is None:
            out[key] = FunctionNode(coeffs=leaf_coeffs[key])
        else:
            out[key] = FunctionNode(has_children=True)
            stack.extend(kids)
    fn = MultiresolutionFunction(
        dim, k, out, thresh=thresh, form=RECONSTRUCTED, truncate_mode=truncate_mode
    )
    return fn


class CoulombOperator(GaussianConvolution):
    """The ``1/r`` convolution used by the paper's *Coulomb* application.

    The Gaussian fit resolves radii from ``r_lo`` (default tied to the
    precision: finer precision needs sharper Gaussians and therefore a
    larger separation rank M, exactly the paper's regime where
    ``M ~ 100``).
    """

    def __init__(
        self,
        dim: int = 3,
        k: int = 10,
        *,
        eps: float = 1e-8,
        r_lo: float | None = None,
        max_radius: int = 8,
    ):
        r_lo = r_lo if r_lo is not None else max(eps ** 0.5 * 1e-2, 1e-8)
        expansion = fit_inverse_r(eps, r_lo, math.sqrt(float(dim)))
        super().__init__(
            dim, k, expansion, thresh=eps, max_radius=max_radius
        )
        self.eps = eps
        self.r_lo = r_lo
