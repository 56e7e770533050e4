"""Tests for the sharded distributed tree."""

import numpy as np

from repro.dht.distributed_tree import DistributedTree
from repro.dht.process_map import HashProcessMap
from repro.mra.key import Key
from repro.mra.node import FunctionNode
from repro.mra.tree import FunctionTree


def build_local_tree(dim=2, depth=2):
    tree = FunctionTree(dim)
    root = Key.root(dim)
    tree[root] = FunctionNode(has_children=True)
    frontier = list(root.children())
    for level in range(1, depth):
        new_frontier = []
        for key in frontier:
            tree[key] = FunctionNode(has_children=True)
            new_frontier.extend(key.children())
        frontier = new_frontier
    for key in frontier:
        tree[key] = FunctionNode(coeffs=np.full((2, 2), float(sum(key.translation))))
    return tree


def accumulate_leaves(tree, pmap, from_rank=0):
    """Fill a distributed tree the way ``DistributedApply`` does: one
    ``accumulate`` per leaf contribution."""
    dist = DistributedTree(tree.dim, pmap)
    for key, node in tree.leaves():
        dist.accumulate(key, node.coeffs, from_rank=from_rank)
    return dist


def test_accumulate_places_by_owner():
    tree = build_local_tree()
    pmap = HashProcessMap(4)
    dist = accumulate_leaves(tree, pmap)
    for rank, shard in enumerate(dist.shards):
        for key, _node in shard.leaves():
            assert pmap.owner(key) == rank


def test_gather_roundtrip():
    tree = build_local_tree()
    dist = accumulate_leaves(tree, HashProcessMap(3))
    back = dist.gather()
    assert back.size() == tree.size()
    for key, node in tree.items():
        other = back[key]
        assert other.has_children == node.has_children
        if node.coeffs is None:
            assert other.coeffs is None
        else:
            assert np.allclose(other.coeffs, node.coeffs)


def test_local_accumulate_records_no_message():
    dist = DistributedTree(2, HashProcessMap(4))
    key = Key(1, (0, 1))
    owner = dist.owner(key)
    dist.accumulate(key, np.ones((2, 2)), from_rank=owner)
    assert dist.messages.n_messages == 0


def test_remote_accumulate_records_message():
    dist = DistributedTree(2, HashProcessMap(4))
    key = Key(1, (0, 1))
    owner = dist.owner(key)
    sender = (owner + 1) % 4
    t = np.ones((2, 2))
    dist.accumulate(key, t, from_rank=sender)
    assert dist.messages.n_messages == 1
    assert dist.messages.bytes_total == t.nbytes
    assert dist.messages.by_pair[(sender, owner)] == 1


def test_accumulate_sums_contributions():
    dist = DistributedTree(1, HashProcessMap(2))
    key = Key(2, (1,))
    dist.accumulate(key, np.ones(3), from_rank=0)
    dist.accumulate(key, np.ones(3), from_rank=1)
    assert np.all(dist.gather()[key].coeffs == 2.0)
