"""The in-memory multiresolution tree container.

A :class:`FunctionTree` is a mapping from :class:`~repro.mra.key.Key` to
:class:`~repro.mra.node.FunctionNode` with the structural guarantees the
operators rely on: a single root, and every non-root node's parent present
with ``has_children`` set.  The distributed version
(:mod:`repro.dht.distributed_tree`) shards an identical structure across
simulated compute nodes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from operator import attrgetter

from repro.errors import TreeStructureError
from repro.mra.key import Key
from repro.mra.node import FunctionNode

#: a key's ``(level, translation)`` tuple: sorting on it orders keys as
#: ``Key``'s comparisons do, without a Python-level ``__lt__`` per compare
_level_major = attrgetter("level", "translation")


class FunctionTree:
    """Dictionary-backed 2^d-ary tree of coefficient nodes."""

    def __init__(self, dim: int):
        if dim < 1:
            raise TreeStructureError(f"tree dimension must be >= 1, got {dim}")
        self.dim = dim
        self._nodes: dict[Key, FunctionNode] = {}

    # -- mapping interface -------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        return key in self._nodes

    def __getitem__(self, key: Key) -> FunctionNode:
        return self._nodes[key]

    def __setitem__(self, key: Key, node: FunctionNode) -> None:
        if key.dim != self.dim:
            raise TreeStructureError(
                f"key dimension {key.dim} does not match tree dimension {self.dim}"
            )
        self._nodes[key] = node

    def __delitem__(self, key: Key) -> None:
        del self._nodes[key]

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Key]:
        return iter(self._nodes)

    def get(self, key: Key, default: FunctionNode | None = None) -> FunctionNode | None:
        """The node at ``key``, or ``default`` when absent."""
        return self._nodes.get(key, default)

    def items(self):
        """(key, node) pairs in insertion order."""
        return self._nodes.items()

    def keys(self):
        """All keys present in the tree, in insertion order."""
        return self._nodes.keys()

    # -- structure ---------------------------------------------------------

    @property
    def root(self) -> Key:
        """The level-0 key of this tree's dimensionality."""
        return Key.root(self.dim)

    def ensure_path(self, key: Key) -> FunctionNode:
        """Create ``key`` (as a leaf) and any missing ancestors.

        Ancestors are created (or updated) with ``has_children`` set; the
        key itself is created without children if absent.  Returns the
        node at ``key``.
        """
        ancestors = []
        k = key
        while k.level > 0:
            k = k.parent()
            ancestors.append(k)
        for a in reversed(ancestors):
            node = self._nodes.get(a)
            if node is None:
                self._nodes[a] = FunctionNode(has_children=True)
            else:
                node.has_children = True
        node = self._nodes.get(key)
        if node is None:
            node = FunctionNode()
            self._nodes[key] = node
        return node

    def leaves(self) -> Iterator[tuple[Key, FunctionNode]]:
        """(key, node) pairs of boxes without children."""
        for key, node in self._nodes.items():
            if not node.has_children:
                yield key, node

    def interior(self) -> Iterator[tuple[Key, FunctionNode]]:
        """(key, node) pairs of boxes that have children."""
        for key, node in self._nodes.items():
            if node.has_children:
                yield key, node

    def by_level(self, reverse: bool = False) -> Iterator[tuple[Key, FunctionNode]]:
        """Iterate nodes sorted coarse-to-fine (or fine-to-coarse)."""
        for key in sorted(self._nodes, key=_level_major, reverse=reverse):
            yield key, self._nodes[key]

    def max_level(self) -> int:
        """Finest refinement level present (raises on an empty tree)."""
        if not self._nodes:
            raise TreeStructureError("empty tree has no levels")
        return max(k.level for k in self._nodes)

    def size(self) -> int:
        """Total number of tree nodes."""
        return len(self._nodes)

    def n_leaves(self) -> int:
        """Number of leaf boxes."""
        return sum(1 for _ in self.leaves())

    def level_histogram(self) -> dict[int, int]:
        """Node count per level — a direct view of the tree's imbalance."""
        hist: dict[int, int] = {}
        for key in self._nodes:
            hist[key.level] = hist.get(key.level, 0) + 1
        return dict(sorted(hist.items()))

    def copy(self) -> "FunctionTree":
        """Deep copy: every node is copied, nothing shared."""
        t = FunctionTree(self.dim)
        t._nodes = {k: n.copy() for k, n in self._nodes.items()}
        return t

    def copy_nodes(self) -> "FunctionTree":
        """Copy every node but share its coefficient array: a copy for a
        caller that only rebinds ``node.coeffs`` and never writes an
        array in place, as the form changes do."""
        t = FunctionTree(self.dim)
        t._nodes = {
            k: FunctionNode(n.coeffs, n.has_children)
            for k, n in self._nodes.items()
        }
        return t

    def check_structure(self, complete: bool = True) -> None:
        """Validate structural invariants; raises TreeStructureError.

        - the root exists;
        - every non-root node's parent exists and is marked interior;
        - with ``complete=True`` (the form produced by projection and the
          operators) every interior node has all 2^d children present.
        """
        nodes = self._nodes
        if self.root not in nodes:
            raise TreeStructureError("tree has no root node")
        parent_of = {key: key.parent() for key in nodes if key.level > 0}
        # a node's children present in the tree are the nodes naming it as
        # parent: all 2^d are present exactly when 2^d nodes name it
        n_present = Counter(parent_of.values())
        n_children = 1 << self.dim
        for key, node in nodes.items():
            if key.level > 0:
                parent = nodes.get(parent_of[key])
                if parent is None:
                    raise TreeStructureError(f"node {key} has no parent in tree")
                if not parent.has_children:
                    raise TreeStructureError(
                        f"parent of {key} is not marked as interior"
                    )
            if complete and node.has_children and n_present[key] != n_children:
                child = next(c for c in key.children() if c not in nodes)
                raise TreeStructureError(
                    f"interior node {key} is missing child {child}"
                )
