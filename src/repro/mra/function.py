"""Adaptive multiresolution functions and the Compress / Reconstruct /
Truncate operators.

A :class:`MultiresolutionFunction` owns a :class:`~repro.mra.tree.FunctionTree`
in one of three *forms* (see :mod:`repro.mra.node`) and implements the
three cheap MADNESS operators the paper names alongside ``Apply``:

- ``compress``  — bottom-up two-scale analysis (scaling -> wavelet);
- ``reconstruct`` — top-down synthesis (wavelet -> scaling);
- ``truncate`` — discard wavelet blocks below threshold, pruning the tree.

Adaptive projection of a user callable is provided by
:class:`FunctionFactory`; the refinement criterion is the size of the
wavelet coefficients that would be discarded by representing the box at
the coarser scale, exactly as in MADNESS.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

import numpy as np

from repro.errors import OperatorError, TreeStructureError
from repro.mra.key import Key
from repro.mra.node import FunctionNode
from repro.mra.quadrature import QuadratureRule, phi_values
from repro.mra.tree import FunctionTree
from repro.mra.twoscale import TwoScaleFilter
from repro.tensor.transform import transform, transform_stack

RECONSTRUCTED = "reconstructed"
COMPRESSED = "compressed"
NONSTANDARD = "nonstandard"

#: truncate_tol modes, mirroring MADNESS truncate_mode 0/1/2.
TRUNCATE_MODES = ("absolute", "level", "level_volume")

#: boxes whose quadrature points one call of the projected function
#: receives; bounds the point array and the function's temporaries
_CHUNK_BOXES = 512


def truncate_tol(thresh: float, mode: str, dim: int, level: int) -> float:
    """Level-dependent truncation threshold (MADNESS truncate modes)."""
    if mode == "absolute":
        return thresh
    if mode == "level":
        return thresh * 2.0 ** (-level / 2.0)
    return thresh * 2.0 ** (-level * dim / 2.0)


def child_block(bits: tuple[int, ...], k: int) -> tuple[slice, ...]:
    """Slices selecting child ``bits``'s block inside a ``(2k)^d`` tensor."""
    return tuple(slice(b * k, (b + 1) * k) for b in bits)


def scaling_corner(dim: int, k: int) -> tuple[slice, ...]:
    """Slices selecting the ``[0:k]^d`` scaling corner of a ``(2k)^d`` tensor."""
    return (slice(0, k),) * dim


def gather_children(
    coeffs_of: Callable[[Key], np.ndarray], key: Key, k: int
) -> np.ndarray:
    """Pack the 2^d children's ``k^d`` scaling tensors into one ``(2k)^d``."""
    dim = key.dim
    uu = np.zeros((2 * k,) * dim)
    for child in key.children():
        bits = tuple(t & 1 for t in child.translation)
        uu[child_block(bits, k)] = coeffs_of(child)
    return uu


def join_children(coeffs: np.ndarray) -> np.ndarray:
    """:func:`gather_children` of a stack of parents.

    ``coeffs`` is ``(P, 2^d, k, ..., k)``: each parent's children's
    scaling tensors in :meth:`Key.children` order.  Returns the
    ``(P, 2k, ..., 2k)`` stack of the parents' packed tensors.
    """
    n, k, dim = len(coeffs), coeffs.shape[-1], coeffs.ndim - 2
    # (P, b_1..b_d, i_1..i_d) -> (P, b_1, i_1, .., b_d, i_d) = (P, 2k, .., 2k)
    axes = [0] + [a for i in range(1, dim + 1) for a in (i, dim + i)]
    u = coeffs.reshape((n,) + (2,) * dim + (k,) * dim).transpose(axes)
    return u.reshape((n,) + (2 * k,) * dim)


def split_children(uu: np.ndarray) -> np.ndarray:
    """The inverse of :func:`join_children`: ``(P, 2k, ..., 2k)`` packed
    tensors to each parent's ``(2^d, k, ..., k)`` child blocks, in
    :meth:`Key.children` order (the blocks :func:`child_block` selects)."""
    n, dim = len(uu), uu.ndim - 1
    k = uu.shape[1] // 2
    axes = [0] + [2 * i + 1 for i in range(dim)] + [2 * i + 2 for i in range(dim)]
    u = uu.reshape((n,) + (2, k) * dim).transpose(axes)
    return u.reshape((n, 1 << dim) + (k,) * dim)


class MultiresolutionFunction:
    """A function adaptively represented on a dyadic multiwavelet tree."""

    def __init__(
        self,
        dim: int,
        k: int,
        tree: FunctionTree,
        *,
        thresh: float = 1e-6,
        form: str = RECONSTRUCTED,
        truncate_mode: str = "absolute",
    ):
        if form not in (RECONSTRUCTED, COMPRESSED, NONSTANDARD):
            raise OperatorError(f"unknown tree form {form!r}")
        if truncate_mode not in TRUNCATE_MODES:
            raise OperatorError(f"unknown truncate mode {truncate_mode!r}")
        if tree.dim != dim:
            raise TreeStructureError(
                f"tree dimension {tree.dim} does not match function dimension {dim}"
            )
        self.dim = dim
        self.k = k
        self.tree = tree
        self.thresh = thresh
        self.form = form
        self.truncate_mode = truncate_mode
        self.filter = TwoScaleFilter.build(k)
        self.quad = QuadratureRule.build(k)

    # -- thresholds ---------------------------------------------------------

    def truncate_tol(self, level: int, tol: float | None = None) -> float:
        """Level-dependent truncation threshold (MADNESS truncate modes)."""
        thresh = self.thresh if tol is None else tol
        return truncate_tol(thresh, self.truncate_mode, self.dim, level)

    # -- form changes ---------------------------------------------------------

    def compress(self) -> "MultiresolutionFunction":
        """Convert in place to compressed (wavelet) form.  Idempotent."""
        if self.form == COMPRESSED:
            return self
        if self.form == NONSTANDARD:
            self._strip_nonstandard()
        s_of: dict[Key, np.ndarray] = {}
        for key, node in self.tree.by_level(reverse=True):
            if not node.has_children:
                if node.coeffs is None:
                    raise OperatorError(f"reconstructed leaf {key} has no coeffs")
                s_of[key] = node.coeffs
                node.coeffs = None
                continue
            uu = gather_children(s_of.pop, key, self.k)
            v = transform(uu, self.filter.hg.T)
            corner = scaling_corner(self.dim, self.k)
            s = v[corner].copy()
            if key.level > 0:
                v[corner] = 0.0
            node.coeffs = v
            s_of[key] = s
        root = self.tree[self.tree.root]
        if not root.has_children:
            # Single-box tree: the root keeps its scaling coefficients in
            # the corner of an otherwise-zero [s|d] tensor.
            v = np.zeros((2 * self.k,) * self.dim)
            v[scaling_corner(self.dim, self.k)] = s_of.pop(self.tree.root)
            root.coeffs = v
        self.form = COMPRESSED
        return self

    def reconstruct(self) -> "MultiresolutionFunction":
        """Convert in place to reconstructed (scaling) form.  Idempotent."""
        if self.form == RECONSTRUCTED:
            return self
        if self.form == NONSTANDARD:
            self._strip_nonstandard()
            self.form = RECONSTRUCTED
            return self
        root = self.tree[self.tree.root]
        if not root.has_children:
            root.coeffs = root.coeffs[scaling_corner(self.dim, self.k)].copy()
            self.form = RECONSTRUCTED
            return self
        s_of: dict[Key, np.ndarray] = {}
        corner = scaling_corner(self.dim, self.k)
        for key, node in self.tree.by_level():
            if not node.has_children:
                node.coeffs = s_of.pop(key)
                continue
            v = node.coeffs
            if v is None:
                raise OperatorError(f"compressed interior node {key} has no coeffs")
            v = v.copy()
            if key.level == 0:
                pass  # root keeps its own s corner
            else:
                v[corner] = s_of.pop(key)
            uu = transform(v, self.filter.hg)
            for child in key.children():
                bits = tuple(t & 1 for t in child.translation)
                s_of[child] = uu[child_block(bits, self.k)].copy()
            node.coeffs = None
        self.form = RECONSTRUCTED
        return self

    def _strip_nonstandard(self) -> None:
        """Drop the redundant interior [s|d] tensors of nonstandard form.

        Leaves already hold scaling coefficients, so the result is the
        reconstructed form.
        """
        for _key, node in self.tree.interior():
            node.coeffs = None
        self.form = RECONSTRUCTED

    def nonstandard(self) -> "MultiresolutionFunction":
        """Convert in place to nonstandard form (used by ``Apply``).

        Interior nodes keep the full ``(2k)^d`` ``[s|d]`` tensor *and*
        leaves keep their scaling coefficients — the redundant form lets
        the convolution act at every scale independently.

        The interior nodes are filtered a level at a time, finest first:
        one :func:`transform_stack` by ``hg.T`` over the level's packed
        children, whose per-parent products are those of
        :func:`gather_children` and :func:`transform` on each parent
        alone, so every ``[s|d]`` tensor is bit-identical to it.  A
        parent's tensor is its row of the level's stack.
        """
        if self.form == NONSTANDARD:
            return self
        self.reconstruct()
        levels: dict[int, list[tuple[Key, FunctionNode]]] = {}
        for key, node in self.tree.interior():
            levels.setdefault(key.level, []).append((key, node))
        s_of = {key: node.coeffs for key, node in self.tree.leaves()}
        corner = (slice(None),) + scaling_corner(self.dim, self.k)
        hgT = self.filter.hg.T
        for level in sorted(levels, reverse=True):
            group = levels[level]
            children = np.stack(
                [s_of[child] for key, _node in group for child in key.children()]
            )
            packed = join_children(
                children.reshape((len(group), 1 << self.dim) + children.shape[1:])
            )
            v = transform_stack(packed, hgT)
            for (key, node), tensor, s in zip(group, v, v[corner]):
                node.coeffs = tensor
                s_of[key] = s
        self.form = NONSTANDARD
        return self

    # -- truncate -------------------------------------------------------------

    def truncate(self, tol: float | None = None) -> "MultiresolutionFunction":
        """Discard negligible wavelet blocks, pruning the tree in place.

        Operates in compressed form (converting if needed) and restores
        the original form afterwards.  A subtree is removed when every
        descendant's wavelet norm is below the level threshold, cascading
        fine-to-coarse exactly like MADNESS ``truncate``.
        """
        original_form = self.form
        self.compress()
        # keep_norm[key]: norm of wavelet content strictly below key
        removable: dict[Key, bool] = {}
        for key, node in self.tree.by_level(reverse=True):
            if not node.has_children:
                removable[key] = True
                continue
            children_ok = all(removable.get(c, False) for c in key.children())
            d_norm = node.norm()  # corner is zero except root
            if key.level == 0:
                corner = scaling_corner(self.dim, self.k)
                v = node.coeffs.copy()
                v[corner] = 0.0
                d_norm = float(np.linalg.norm(v))
            removable[key] = children_ok and d_norm <= self.truncate_tol(
                key.level, tol
            )
        # Delete subtrees whose root is an interior node that is removable:
        # the node becomes a leaf (its wavelet content is dropped).
        for key, node in list(self.tree.by_level()):
            if key not in self.tree:
                continue
            if node.has_children and removable[key] and key.level > 0:
                self._delete_descendants(key)
                node.has_children = False
                node.coeffs = None
        if original_form == RECONSTRUCTED:
            self.reconstruct()
        elif original_form == NONSTANDARD:
            self.reconstruct().nonstandard()
        return self

    def _delete_descendants(self, key: Key) -> None:
        stack = list(key.children())
        while stack:
            k = stack.pop()
            node = self.tree.get(k)
            if node is None:
                continue
            if node.has_children:
                stack.extend(k.children())
            del self.tree[k]

    # -- evaluation and norms ---------------------------------------------------

    def __call__(self, point: Iterable[float]) -> float:
        return self.eval(tuple(point))

    def eval(self, point: tuple[float, ...]) -> float:
        """Point evaluation (requires reconstructed form)."""
        if self.form != RECONSTRUCTED:
            raise OperatorError("eval requires reconstructed form; call reconstruct()")
        if len(point) != self.dim:
            raise OperatorError(f"point {point} has wrong dimension")
        if any(not 0.0 <= x <= 1.0 for x in point):
            return 0.0
        key = self.tree.root
        node = self.tree[key]
        while node.has_children:
            scale = 1 << (key.level + 1)
            translation = tuple(
                min(int(x * scale), scale - 1) for x in point
            )
            key = Key(key.level + 1, translation)
            node = self.tree[key]
        s = node.coeffs
        scale = 1 << key.level
        local = [x * scale - t for x, t in zip(point, key.translation)]
        val = s
        for x in local:
            basis = phi_values(float(min(max(x, 0.0), 1.0)), self.k)
            val = np.tensordot(val, basis, axes=([0], [0]))
        return float(val) * 2.0 ** (key.level * self.dim / 2.0)

    def norm2(self) -> float:
        """L2 norm, exact in either form thanks to basis orthonormality."""
        if self.form == RECONSTRUCTED:
            total = sum(node.norm() ** 2 for _k, node in self.tree.leaves())
        elif self.form == COMPRESSED:
            # In compressed form exactly the nodes holding coefficients
            # (interior d-blocks plus the root's s corner) carry the norm.
            total = sum(
                node.norm() ** 2 for _k, node in self.tree.items() if node.has_coeffs
            )
        else:
            raise OperatorError("norm2 is not defined on nonstandard form")
        return math.sqrt(total)

    # -- structure manipulation --------------------------------------------------

    def refine_leaf(self, key: Key) -> None:
        """Exactly split a reconstructed leaf into its 2^d children."""
        if self.form != RECONSTRUCTED:
            raise OperatorError("refine_leaf requires reconstructed form")
        node = self.tree[key]
        if node.has_children:
            raise TreeStructureError(f"{key} is not a leaf")
        v = np.zeros((2 * self.k,) * self.dim)
        v[scaling_corner(self.dim, self.k)] = node.coeffs
        uu = transform(v, self.filter.hg)
        for child in key.children():
            bits = tuple(t & 1 for t in child.translation)
            self.tree[child] = FunctionNode(
                coeffs=uu[child_block(bits, self.k)].copy()
            )
        node.coeffs = None
        node.has_children = True

    def conform_to(self, other: "MultiresolutionFunction") -> None:
        """Refine this function so its leaf set covers ``other``'s leaves."""
        self.reconstruct()
        other.reconstruct()
        pending = [self.tree.root]
        while pending:
            key = pending.pop()
            mine = self.tree[key]
            theirs = other.tree.get(key)
            if theirs is None or not theirs.has_children:
                continue
            if not mine.has_children:
                self.refine_leaf(key)
            pending.extend(key.children())

    # -- arithmetic ---------------------------------------------------------------

    def copy(self) -> "MultiresolutionFunction":
        """Deep copy sharing no tree state with the original."""
        return MultiresolutionFunction(
            self.dim,
            self.k,
            self.tree.copy(),
            thresh=self.thresh,
            form=self.form,
            truncate_mode=self.truncate_mode,
        )

    def scale(self, a: float) -> "MultiresolutionFunction":
        """Multiply in place by a scalar."""
        for _k, node in self.tree.items():
            if node.coeffs is not None:
                node.coeffs = node.coeffs * a
        return self

    def __add__(self, other: "MultiresolutionFunction") -> "MultiresolutionFunction":
        return self._binary(other, 1.0)

    def __sub__(self, other: "MultiresolutionFunction") -> "MultiresolutionFunction":
        return self._binary(other, -1.0)

    def _binary(
        self, other: "MultiresolutionFunction", sign: float
    ) -> "MultiresolutionFunction":
        if (other.dim, other.k) != (self.dim, self.k):
            raise OperatorError("operands have incompatible dimension or order")
        a = self.copy()
        b = other.copy()
        a.conform_to(b)
        b.conform_to(a)
        for key, node in a.tree.leaves():
            node.coeffs = node.coeffs + sign * b.tree[key].coeffs
        return a

    # -- statistics -----------------------------------------------------------------

    def describe(self) -> dict:
        """Summary statistics used by the workload generators and reports."""
        return {
            "dim": self.dim,
            "k": self.k,
            "form": self.form,
            "nodes": self.tree.size(),
            "leaves": self.tree.n_leaves(),
            "max_level": self.tree.max_level(),
            "level_histogram": self.tree.level_histogram(),
        }


class FunctionFactory:
    """Adaptive projection of callables into multiresolution functions.

    The callable ``f`` is vectorised: it receives an ``(N, dim)`` array of
    points in the unit cube and returns ``N`` values.  One call carries
    the quadrature points of many boxes (up to 512 per call), so ``f``'s
    value at a point must not depend on the other points of the call.

    Args:
        dim: spatial dimension of the simulation volume (unit hyper-cube).
        k: multiwavelet order (polynomials 0..k-1 per dimension).
        thresh: accuracy threshold driving adaptive refinement.
        initial_level: refinement starts below this level unconditionally.
        max_level: hard refinement floor to guarantee termination.
        truncate_mode: level scaling of the threshold (see TRUNCATE_MODES).
    """

    def __init__(
        self,
        dim: int,
        k: int,
        thresh: float = 1e-6,
        *,
        initial_level: int = 1,
        max_level: int = 20,
        truncate_mode: str = "absolute",
    ):
        if dim < 1:
            raise OperatorError(f"dimension must be >= 1, got {dim}")
        if k < 1:
            raise OperatorError(f"multiwavelet order must be >= 1, got {k}")
        if not 0 <= initial_level <= max_level:
            raise OperatorError(
                f"need 0 <= initial_level <= max_level, got {initial_level}, {max_level}"
            )
        if truncate_mode not in TRUNCATE_MODES:
            raise OperatorError(f"unknown truncate mode {truncate_mode!r}")
        self.dim = dim
        self.k = k
        self.thresh = thresh
        self.initial_level = initial_level
        self.max_level = max_level
        self.truncate_mode = truncate_mode
        self.quad = QuadratureRule.build(k)
        self.filter = TwoScaleFilter.build(k)

    # -- projection ------------------------------------------------------------

    def _project(
        self, f: Callable[[np.ndarray], np.ndarray], level: int, translations: np.ndarray
    ) -> np.ndarray:
        """Scaling coefficients of ``f`` on boxes of one level by tensor
        quadrature: ``(B, dim)`` translations give ``(B, k, ..., k)``.

        ``f`` sees the quadrature points of up to ``_CHUNK_BOXES`` boxes
        per call.  Each contraction with ``quad.phiw`` is one stacked
        matmul whose per-box products are the BLAS calls of projecting
        each box alone (``np.tensordot`` per axis), so the coefficients
        do not depend on how boxes are grouped.
        """
        quad, dim = self.quad, self.dim
        npt = quad.npt
        scale = 1.0 / (1 << level)
        out = np.empty((len(translations),) + (self.k,) * dim)
        for lo in range(0, len(translations), _CHUNK_BOXES):
            chunk = translations[lo : lo + _CHUNK_BOXES]
            m = len(chunk)
            grid = np.empty((m,) + (npt,) * dim + (dim,))
            for axis in range(dim):
                shape = [m] + [1] * dim
                shape[1 + axis] = npt
                coords = (quad.points + chunk[:, axis, None]) * scale
                grid[..., axis] = coords.reshape(shape)
            c = np.asarray(f(grid.reshape(-1, dim)), dtype=float)
            for _ in range(dim):
                c = np.matmul(c.reshape(m, npt, -1).transpose(0, 2, 1), quad.phiw)
            out[lo : lo + m] = c.reshape((m,) + (self.k,) * dim)
        out *= 2.0 ** (-level * dim / 2.0)
        return out

    def _detail_norms(self, coeffs: np.ndarray) -> np.ndarray:
        """Norm of the wavelet part of each parent's two-scale tensor.

        ``coeffs`` is ``(P, 2^d, k, ..., k)``: each parent's children in
        :meth:`Key.children` order.  Per parent this is
        :func:`gather_children`, :func:`transform` by ``hg.T``, a zeroed
        scaling corner and ``np.linalg.norm``; :func:`transform_stack` and
        the stacked norm make each parent's BLAS calls, so the norms are
        bit-identical to it.
        """
        n = len(coeffs)
        v = transform_stack(join_children(coeffs), self.filter.hg.T)
        v[(slice(None),) + scaling_corner(self.dim, self.k)] = 0.0
        flat = v.reshape(n, 1, -1)
        return np.sqrt(flat @ flat.transpose(0, 2, 1)).reshape(n)

    def from_callable(
        self, f: Callable[[np.ndarray], np.ndarray]
    ) -> MultiresolutionFunction:
        """Adaptively project ``f``; result is in reconstructed form.

        Refinement runs a level at a time: the children of every box that
        refines at a level are projected together, each parent's
        convergence is tested on its children's coefficients, and the
        tree is filled in depth-first pre-order (a box, then its
        children's subtrees), the order a recursive refinement inserts.
        A parent converges when the wavelet norm its children carry is
        at most ``truncate_tol``; its children then become leaves.
        """
        dim = self.dim
        root = Key.root(dim)
        children_of: dict[Key, list[Key]] = {}
        leaf_coeffs: dict[Key, np.ndarray] = {}
        parents, level = [root], 0
        while parents:
            children = [list(p.children()) for p in parents]
            translations = np.array([c.translation for kids in children for c in kids])
            coeffs = self._project(f, level + 1, translations).reshape(
                (len(parents), 1 << dim) + (self.k,) * dim
            )
            if level >= self.initial_level:
                tol = truncate_tol(self.thresh, self.truncate_mode, dim, level)
                done = self._detail_norms(coeffs) <= tol
            else:
                done = np.zeros(len(parents), dtype=bool)
            if level + 1 >= self.max_level:
                done[:] = True
            refining: list[Key] = []
            for parent, kids, block, leaves in zip(parents, children, coeffs, done):
                children_of[parent] = kids
                if leaves:
                    leaf_coeffs[parent] = block
                else:
                    refining.extend(kids)
            parents, level = refining, level + 1

        tree = FunctionTree(dim)
        stack = [root]
        while stack:
            key = stack.pop()
            tree[key] = FunctionNode(has_children=True)
            block = leaf_coeffs.get(key)
            if block is None:
                stack.extend(reversed(children_of[key]))
            else:
                for child, s in zip(children_of[key], block):
                    tree[child] = FunctionNode(coeffs=s)
        fn = MultiresolutionFunction(
            dim,
            self.k,
            tree,
            thresh=self.thresh,
            form=RECONSTRUCTED,
            truncate_mode=self.truncate_mode,
        )
        fn.tree.check_structure()
        return fn

    def zero(self) -> MultiresolutionFunction:
        """The zero function (a single root leaf of zero coefficients)."""
        tree = FunctionTree(self.dim)
        tree[Key.root(self.dim)] = FunctionNode(
            coeffs=np.zeros((self.k,) * self.dim)
        )
        return MultiresolutionFunction(
            self.dim,
            self.k,
            tree,
            thresh=self.thresh,
            form=RECONSTRUCTED,
            truncate_mode=self.truncate_mode,
        )
