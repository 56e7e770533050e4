"""A sharded function tree with remote-accumulation accounting.

The cluster simulation does not need byte-faithful MPI; it needs to know
*which* accumulations cross node boundaries and how many bytes they
carry, because the paper asserts (and we preserve) that "MADNESS on a
cluster already efficiently handles communications between compute nodes
and Titan does not introduce additional bottlenecks" — an assertion the
network model can then check rather than assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dht.process_map import ProcessMap
from repro.errors import ClusterConfigError
from repro.mra.key import Key
from repro.mra.tree import FunctionTree


@dataclass
class MessageLog:
    """Counts of inter-rank accumulate messages."""

    n_messages: int = 0
    bytes_total: int = 0
    by_pair: dict[tuple[int, int], int] = field(default_factory=dict)

    def record(self, src: int, dst: int, nbytes: int) -> None:
        """Count one src -> dst accumulate message of ``nbytes``."""
        self.n_messages += 1
        self.bytes_total += nbytes
        pair = (src, dst)
        self.by_pair[pair] = self.by_pair.get(pair, 0) + 1


class DistributedTree:
    """A function tree sharded over ranks by a process map."""

    def __init__(self, dim: int, pmap: ProcessMap):
        self.dim = dim
        self.pmap = pmap
        self.shards: list[FunctionTree] = [
            FunctionTree(dim) for _ in range(pmap.n_ranks)
        ]
        self.messages = MessageLog()

    # -- placement ----------------------------------------------------------

    def owner(self, key: Key) -> int:
        """The rank owning ``key`` (validated against the shard count)."""
        rank = self.pmap.owner(key)
        if not 0 <= rank < self.pmap.n_ranks:
            raise ClusterConfigError(
                f"process map returned invalid rank {rank} for {key}"
            )
        return rank

    # -- the operation the cluster runtime needs ---------------------------------

    def accumulate(self, key: Key, tensor: np.ndarray, from_rank: int) -> int:
        """Accumulate a contribution into ``key``, recording a message if
        the destination lives on another rank.  Returns the owner."""
        rank = self.owner(key)
        if rank != from_rank:
            self.messages.record(from_rank, rank, tensor.nbytes)
        self.shards[rank].ensure_path(key).accumulate(tensor)
        return rank

    def gather(self) -> FunctionTree:
        """Reassemble the global tree (for verification)."""
        out = FunctionTree(self.dim)
        for shard in self.shards:
            for key, node in shard.items():
                if key in out:
                    existing = out[key]
                    if node.coeffs is not None:
                        existing.accumulate(node.coeffs)
                    existing.has_children = existing.has_children or node.has_children
                else:
                    out[key] = node.copy()
        return out
