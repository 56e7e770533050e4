"""Tests for process maps (static load balancing policies)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workloads import synthetic_tree_keys
from repro.dht.process_map import (
    CostPartitionMap,
    HashProcessMap,
    LevelStripeMap,
    SubtreePartitionMap,
)
from repro.errors import ClusterConfigError
from repro.mra.key import Key
from tests.cluster.test_stealing import SlotMap


def tree_keys(dim=2, n_leaves=128, seed=3):
    return synthetic_tree_keys(dim, n_leaves, seed)


def test_hash_map_covers_all_ranks():
    pmap = HashProcessMap(8)
    owners = {pmap.owner(k) for k in tree_keys()}
    assert owners == set(range(8))


def test_hash_map_is_even():
    """The Tables III/IV 'distribute work evenly' map."""
    pmap = HashProcessMap(4)
    counts = [0] * 4
    for k in tree_keys(n_leaves=512):
        counts[pmap.owner(k)] += 1
    assert max(counts) < 1.3 * min(counts)


def test_subtree_map_keeps_families_together():
    pmap = SubtreePartitionMap(8, anchor_level=1)
    for key in tree_keys():
        if key.level >= 2:
            assert pmap.owner(key) == pmap.owner(key.parent())


def test_subtree_map_is_uneven_on_skewed_trees():
    """The locality map of Tables V/VI produces imbalance by design."""
    pmap = SubtreePartitionMap(8, anchor_level=1)
    counts = [0] * 8
    for k in synthetic_tree_keys(2, 512, seed=7, skew=2.5):
        counts[pmap.owner(k)] += 1
    mean = sum(counts) / 8
    assert max(counts) > 1.5 * mean


def test_cost_partition_balances_better_than_subtree():
    keys = synthetic_tree_keys(2, 512, seed=7, skew=2.5)
    weights = {k: 1.0 for k in keys}
    cost_map = CostPartitionMap.from_weights(8, weights, granularity=4.0)
    subtree_map = SubtreePartitionMap(8, anchor_level=1)

    def imbalance(pmap):
        counts = [0] * 8
        for k in keys:
            counts[pmap.owner(k)] += 1
        return max(counts) / (sum(counts) / 8)

    assert imbalance(cost_map) < imbalance(subtree_map)


def test_cost_partition_respects_target_chunks():
    keys = synthetic_tree_keys(2, 256, seed=9)
    weights = {k: 1.0 for k in keys}
    coarse = CostPartitionMap.from_weights(4, weights, target_chunks=8)
    fine = CostPartitionMap.from_weights(4, weights, target_chunks=64)
    assert coarse.n_anchors < fine.n_anchors


def test_cost_partition_keeps_subtrees_together():
    keys = synthetic_tree_keys(2, 256, seed=11)
    weights = {k: 1.0 for k in keys}
    pmap = CostPartitionMap.from_weights(4, weights, granularity=1.0)
    for key in keys:
        anchor = pmap.anchor_of(key)
        # everything under one anchor shares the anchor's rank
        assert pmap.owner(key) == pmap.owner(anchor)


def test_level_stripe_map_spreads_levels():
    pmap = LevelStripeMap(4)
    owners = {pmap.owner(k) for k in tree_keys(n_leaves=256)}
    assert owners == set(range(4))


@pytest.mark.parametrize(
    "factory",
    [
        lambda n: HashProcessMap(n),
        lambda n: SubtreePartitionMap(n, anchor_level=1),
        lambda n: LevelStripeMap(n),
    ],
)
def test_owner_in_range(factory):
    pmap = factory(5)
    for key in tree_keys():
        assert 0 <= pmap.owner(key) < 5


@given(st.integers(1, 64), st.integers(0, 4), st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_every_key_has_exactly_one_owner(n_ranks, level, t_seed):
    """A process map is a total function into [0, n_ranks)."""
    limit = 1 << level
    key = Key(level, (t_seed % limit, (t_seed // 7) % limit))
    for pmap in (
        HashProcessMap(n_ranks),
        SubtreePartitionMap(n_ranks, anchor_level=1),
        LevelStripeMap(n_ranks),
    ):
        owner = pmap.owner(key)
        assert 0 <= owner < n_ranks
        assert pmap.owner(key) == owner  # deterministic


def test_invalid_configs():
    with pytest.raises(ClusterConfigError):
        HashProcessMap(0)
    with pytest.raises(ClusterConfigError):
        SubtreePartitionMap(4, anchor_level=-1)
    with pytest.raises(ClusterConfigError):
        CostPartitionMap.from_weights(4, {}, granularity=1.0)
    with pytest.raises(ClusterConfigError):
        CostPartitionMap.from_weights(4, {Key.root(1): 1.0}, granularity=-1.0)


def test_subtree_map_coarse_keys_hash_across_ranks():
    """Pin the documented coarse-key behaviour: keys above the anchor
    level are their own anchors and hash directly across all ranks —
    the tree top is not a structural hot spot."""
    from repro.dht.hashing import stable_key_hash

    pmap = SubtreePartitionMap(8, anchor_level=3)
    coarse = [Key(2, (a, b)) for a in range(4) for b in range(4)]
    for key in coarse:
        assert pmap.anchor_of(key) == key
        assert pmap.owner(key) == stable_key_hash(key) % 8
        assert pmap.owner(key) == pmap.owner(pmap.anchor_of(key))
    assert len({pmap.owner(k) for k in coarse}) > 1


def test_subtree_map_boundary_level_is_its_own_anchor():
    """A key exactly at the anchor level anchors itself, and its whole
    subtree routes through it."""
    pmap = SubtreePartitionMap(8, anchor_level=2)
    key = Key(2, (1, 3))
    assert pmap.anchor_of(key) == key
    for child in key.children():
        assert pmap.anchor_of(child) == key
        assert pmap.owner(child) == pmap.owner(key)


@st.composite
def _tree_key(draw, dim=2, max_level=5):
    level = draw(st.integers(0, max_level))
    limit = 1 << level
    translation = tuple(
        draw(st.integers(0, limit - 1)) for _ in range(dim)
    )
    return Key(level, translation)


@given(
    n_ranks=st.integers(1, 16),
    anchor_level=st.integers(0, 3),
    keys=st.lists(_tree_key(), min_size=1, max_size=32),
)
@settings(max_examples=60, deadline=None)
def test_every_policy_is_total_and_anchor_consistent(
    n_ranks, anchor_level, keys
):
    """Every policy is a total, stable map into [0, n_ranks) whose
    ``owner`` agrees with its ``anchor_of`` routing — including keys at
    the ``level == anchor_level`` boundary."""
    weights = {k: 1.0 for k in keys}
    policies = [
        HashProcessMap(n_ranks),
        SubtreePartitionMap(n_ranks, anchor_level=anchor_level),
        LevelStripeMap(n_ranks),
        CostPartitionMap.from_weights(n_ranks, weights, granularity=2.0),
    ]
    for pmap in policies:
        for key in keys:
            owner = pmap.owner(key)
            assert 0 <= owner < n_ranks
            assert pmap.owner(key) == owner  # stable
            anchor = pmap.anchor_of(key)
            assert pmap.anchor_of(anchor) == anchor  # idempotent
            assert pmap.owner(anchor) == owner  # routing agreement


class _CountingStripeMap(LevelStripeMap):
    """LevelStripeMap that counts how often its policy runs."""

    def __init__(self, n_ranks):
        super().__init__(n_ranks)
        self.placements = 0

    def _place(self, key):
        self.placements += 1
        return super()._place(key)


def test_owner_places_each_key_once():
    """A map never changes once built, so a repeated key, or an equal
    key built anew, is placed by the policy only once per map."""
    keys = tree_keys(n_leaves=64)
    pmap = _CountingStripeMap(4)
    first = [pmap.owner(k) for k in keys]
    again = [pmap.owner(Key(k.level, k.translation)) for k in keys]
    assert again == first
    assert pmap.placements == len(set(keys))
    assert _CountingStripeMap(4).owner(keys[0]) == first[0]  # memo is per map


@given(
    n_ranks=st.integers(1, 16),
    anchor_levels=st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
    target_chunks=st.integers(1, 24),
    pool=st.lists(_tree_key(), min_size=1, max_size=16, unique=True),
    order=st.lists(st.integers(0, 1000), min_size=1, max_size=64),
)
@settings(max_examples=80, deadline=None)
def test_memoized_owner_matches_the_policy(
    n_ranks, anchor_levels, target_chunks, pool, order
):
    """Every map's memoized ``owner`` equals its unmemoized policy over
    repeated queries interleaved across maps, and still agrees with its
    ``anchor_of`` routing."""
    weights = {k: 1.0 + (i % 3) for i, k in enumerate(pool)}
    maps = [
        HashProcessMap(n_ranks),
        *(SubtreePartitionMap(n_ranks, anchor_level=a) for a in anchor_levels),
        CostPartitionMap.from_weights(n_ranks, weights, granularity=2.0),
        CostPartitionMap.from_weights(n_ranks, weights, target_chunks=target_chunks),
        LevelStripeMap(n_ranks),
        SlotMap(n_ranks),
    ]
    for i in order:
        key = pool[i % len(pool)]
        for pmap in maps:
            owner = pmap.owner(key)
            assert owner == pmap._place(key), (type(pmap).__name__, key)
            assert pmap.owner(pmap.anchor_of(key)) == owner
