"""Process maps: tree-node to compute-node assignment policies.

MADNESS load balance is *static*: a process map fixes each tree node's
owner before the operator runs.  The paper uses two policies and their
contrast drives several results:

- an **even** distribution ("for this test only we use a MADNESS process
  map that distributes work evenly among all compute nodes", Tables
  III/IV) — :class:`HashProcessMap`;
- the default **locality** map ("MADNESS does not distribute work evenly
  between compute nodes, but rather attempts to achieve work locality ...
  depending on the shape of the highly unbalanced tree", Tables V/VI,
  including "there is not enough work to distribute to 8 compute nodes")
  — :class:`SubtreePartitionMap`.
"""

from __future__ import annotations

import abc

from repro.errors import ClusterConfigError
from repro.dht.hashing import stable_key_hash
from repro.mra.key import Key


class ProcessMap(abc.ABC):
    """Maps tree keys to compute-node ranks.

    A map never changes once built, so :meth:`owner` places each key
    once and memoizes its rank per map instance.  A policy implements
    only :meth:`_place`.
    """

    def __init__(self, n_ranks: int):
        if n_ranks < 1:
            raise ClusterConfigError(f"need at least one rank, got {n_ranks}")
        self.n_ranks = n_ranks
        self._placed: dict[Key, int] = {}

    def owner(self, key: Key) -> int:
        """The rank owning ``key`` (in ``[0, n_ranks)``)."""
        rank = self._placed.get(key)
        if rank is None:
            rank = self._placed[key] = self._place(key)
        return rank

    @abc.abstractmethod
    def _place(self, key: Key) -> int:
        """The policy's rank for ``key``, computed from scratch (once per
        key and map, by :meth:`owner`)."""

    def anchor_of(self, key: Key) -> Key:
        """The key that decides ``key``'s rank.

        Policies without subtree structure route every key by itself;
        partitioned maps override this to walk to the owning anchor.
        The contract tested by the property suite: for every key,
        ``owner(key) == owner(anchor_of(key))``.  A partitioned policy
        calls it from :meth:`_place`, so it runs once per placed key.
        """
        return key


def _unit_displacements(dim: int) -> list[tuple[int, ...]]:
    """All nonzero displacements with components in {-1, 0, 1}."""
    out = [()]
    for _ in range(dim):
        out = [d + (step,) for d in out for step in (-1, 0, 1)]
    return [d for d in out if any(d)]


class HashProcessMap(ProcessMap):
    """Even distribution by stable key hash (no locality)."""

    def _place(self, key: Key) -> int:
        """The rank holding ``key``: its stable hash modulo the ranks."""
        return stable_key_hash(key) % self.n_ranks


class SubtreePartitionMap(ProcessMap):
    """Locality-preserving map: whole subtrees stay on one rank.

    Every key is mapped through its ancestor at ``anchor_level``; the
    ancestors are distributed round-robin in a deterministic space-
    filling order.  For an unbalanced tree the subtree weights differ
    wildly, so ranks receive very different amounts of work — this is
    deliberate (communication locality) and is what limits scaling in the
    paper's Tables V and VI.

    Keys coarser than ``anchor_level`` are their own anchors and are
    hashed directly across all ranks — the tree top is tiny, and hashing
    keeps ``owner`` consistent with ``anchor_of`` (a coarse key's anchor
    is itself), so no single rank is a structural hot spot.
    """

    def __init__(self, n_ranks: int, anchor_level: int = 1):
        super().__init__(n_ranks)
        if anchor_level < 0:
            raise ClusterConfigError(f"anchor level must be >= 0, got {anchor_level}")
        self.anchor_level = anchor_level

    def anchor_of(self, key: Key) -> Key:
        """The ancestor at ``anchor_level`` that decides ``key``'s rank."""
        k = key
        while k.level > self.anchor_level:
            k = k.parent()
        return k

    def _place(self, key: Key) -> int:
        """The rank of ``key``'s anchor subtree (coarse keys hash directly)."""
        if key.level < self.anchor_level:
            # the (few) coarse keys above the anchors are hashed directly
            return stable_key_hash(key) % self.n_ranks
        anchor = self.anchor_of(key)
        # anchors are placed by stable hash: statistically even in anchor
        # count, but an unbalanced tree makes anchor *weights* wildly
        # different, which is exactly the locality/imbalance trade-off
        return stable_key_hash(anchor) % self.n_ranks


class CostPartitionMap(ProcessMap):
    """Cost-driven recursive subtree partitioning (MADNESS ``LBDeux``).

    MADNESS's production process maps partition the tree by *estimated
    cost*: starting from the root, any subtree whose cost exceeds
    ``total / (n_ranks * granularity)`` is split into its children, and
    the resulting anchor subtrees are assigned to ranks by hash.  The
    granularity knob trades locality (big chunks, fewer messages) against
    balance; with the coarse granularities used in practice the balance
    is imperfect, which is exactly why the paper's Tables V and VI scale
    sub-linearly.

    Build it with :meth:`from_weights`, giving per-key work estimates
    (e.g. task counts).
    """

    def __init__(self, n_ranks: int, anchors: dict[Key, int]):
        super().__init__(n_ranks)
        if not anchors:
            raise ClusterConfigError("cost partition needs at least one anchor")
        self._anchors = anchors

    @classmethod
    def from_weights(
        cls,
        n_ranks: int,
        weights: dict[Key, float],
        granularity: float = 2.0,
        target_chunks: int | None = None,
    ) -> "CostPartitionMap":
        """Partition by cost.

        With ``target_chunks`` the split cap is ``total / target_chunks``
        *independent of the rank count* — this reproduces how a MADNESS
        process map built for an application is reused across partition
        sizes, so imbalance (and with it the paper's sub-linear scaling)
        grows as ranks are added.  Without it the cap adapts to
        ``n_ranks * granularity``.
        """
        if granularity <= 0:
            raise ClusterConfigError(
                f"granularity must be positive, got {granularity}"
            )
        if not weights:
            raise ClusterConfigError("cost partition needs nonempty weights")
        dim = next(iter(weights)).dim
        # subtree cost = own weight plus descendants': push every key's
        # weight up its whole ancestor chain
        subtree: dict[Key, float] = {}
        for key, w in weights.items():
            k = key
            subtree[k] = subtree.get(k, 0.0) + w
            while k.level > 0:
                k = k.parent()
                subtree[k] = subtree.get(k, 0.0) + w
        root = Key.root(dim)
        total = subtree.get(root, 0.0)
        if total <= 0:
            raise ClusterConfigError("total weight must be positive")
        if target_chunks is not None:
            if target_chunks < 1:
                raise ClusterConfigError(
                    f"target_chunks must be >= 1, got {target_chunks}"
                )
            cap = total / target_chunks
        else:
            cap = total / (n_ranks * granularity)
        anchors: dict[Key, int] = {}
        stack = [root]
        while stack:
            key = stack.pop()
            w = subtree.get(key, 0.0)
            children = [c for c in key.children() if c in subtree]
            if w <= cap or not children:
                anchors[key] = stable_key_hash(key) % n_ranks
            else:
                # The split node itself still owns its residual weight
                # (it is a real tree node); register it so every key on
                # the tree resolves to an anchor on its ancestor chain.
                anchors[key] = stable_key_hash(key) % n_ranks
                stack.extend(children)
        return cls(n_ranks, anchors)

    def anchor_of(self, key: Key) -> Key:
        """The nearest registered anchor on ``key``'s ancestor chain."""
        k = key
        while k not in self._anchors and k.level > 0:
            k = k.parent()
        return k

    def _place(self, key: Key) -> int:
        """The anchor's assigned rank (hash fallback off the known tree)."""
        anchor = self.anchor_of(key)
        rank = self._anchors.get(anchor)
        if rank is None:
            # anchor chain left the weighted tree: hash the anchor (not
            # the raw key) so owner() stays consistent with anchor_of()
            return stable_key_hash(anchor) % self.n_ranks
        return rank

    @property
    def n_anchors(self) -> int:
        """Number of registered anchor subtrees."""
        return len(self._anchors)


class LevelStripeMap(ProcessMap):
    """Stripes each refinement level across ranks (diagnostic policy).

    Spreads every level evenly but destroys all locality — useful as an
    ablation against :class:`SubtreePartitionMap` to show how much of the
    paper's non-linear scaling is the locality map's fault.
    """

    def _place(self, key: Key) -> int:
        """Stripe by translation index within the key's level."""
        index = 0
        for t in key.translation:
            index = index * 31 + t
        return (index + key.level) % self.n_ranks
