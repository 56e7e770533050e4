"""The cluster set-up builders against their simple references.

``synthetic_tree_keys`` keeps its leaves in parallel lists with each
leaf's ``weight**skew`` cached and the prefix sums refreshed from the
changed leaf on; ``CostPartitionMap.from_weights`` walks a parent ->
children index.  The references below are the builders as they were
before, quadratic but plain: the tree loop re-lists every leaf and
raises every weight to ``skew`` on each draw, and the partition scans
all 2^d ``Key.children()`` of every node it visits.

On random trees (dims 1-4, capped leaves included) and random weights
the optimised builders must give equal key lists and equal anchor dicts
as ordered item lists.  The tree test also records every draw's
cumulative weights and the RNG's final state: the draws must see the
same sums, bit for bit, and the generator the same calls, so an ulp off
in one cached power fails even when it happens not to change a key.
"""

from __future__ import annotations

import random
from itertools import accumulate
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import workloads
from repro.apps.workloads import synthetic_tree_keys
from repro.dht.hashing import stable_key_hash
from repro.dht.process_map import CostPartitionMap
from repro.errors import ClusterConfigError
from repro.mra.key import Key


def reference_tree_keys(
    dim, n_leaves, seed, skew=2.0, max_level=20, rng_type=random.Random
):
    """The tree loop before leaf weights were cached: one dict of leaves,
    re-listed and re-powered on every draw."""
    rng = rng_type(seed)
    root = Key.root(dim)
    leaves: dict[Key, float] = {root: 1.0}
    keys: list[Key] = [root]
    while len(leaves) < n_leaves:
        population = list(leaves.items())
        weights = [w**skew for _k, w in population]
        (leaf, weight), = rng.choices(population, weights=weights, k=1)
        if leaf.level >= max_level:
            leaves[leaf] = 0.0
            continue
        del leaves[leaf]
        for child in leaf.children():
            w = weight * rng.uniform(0.1, 1.0)
            leaves[child] = w
            keys.append(child)
    return keys


def reference_from_weights(n_ranks, weights, granularity=2.0, target_chunks=None):
    """The cost partition before the child index: the split walk builds
    every node's 2^d children and keeps those in the weighted tree."""
    dim = next(iter(weights)).dim
    subtree: dict[Key, float] = {}
    for key, w in weights.items():
        k = key
        subtree[k] = subtree.get(k, 0.0) + w
        while k.level > 0:
            k = k.parent()
            subtree[k] = subtree.get(k, 0.0) + w
    root = Key.root(dim)
    total = subtree.get(root, 0.0)
    if target_chunks is not None:
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
            anchors[key] = stable_key_hash(key) % n_ranks
            stack.extend(children)
    return CostPartitionMap(n_ranks, anchors)


def _recording_rng():
    """A ``random.Random`` type that logs each ``choices`` call's
    population size and cumulative weights, and the instances it made."""
    draws: list[tuple[int, list[float]]] = []
    made: list[random.Random] = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

        def choices(self, population, weights=None, *, cum_weights=None, k=1):
            if cum_weights is None:
                cum_weights = list(accumulate(weights))
            draws.append((len(population), list(cum_weights)))
            return super().choices(population, cum_weights=cum_weights, k=k)

    return Recording, draws, made


@st.composite
def tree_cases(draw):
    """Tree parameters whose leaf count fits the level cap."""
    dim = draw(st.integers(1, 4))
    # the default cap in half the cases, a cap that leaves hit otherwise
    max_level = draw(st.just(20) | st.integers(1, 4))
    limit = min(1200 if dim == 4 else 600, 2 ** (dim * max_level))
    # half the cases in the upper half, where trees are large and a
    # low max_level caps many leaves
    n_leaves = draw(st.integers(1, limit) | st.integers((limit + 1) // 2, limit))
    skew = draw(
        st.one_of(
            st.sampled_from([2.0, 2.4, 3.0, 6.0]),
            st.floats(0.0, 6.0, exclude_min=True),
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return dim, n_leaves, seed, skew, max_level


@given(tree_cases())
@settings(max_examples=80, deadline=None)
def test_tree_matches_reference(case):
    dim, n_leaves, seed, skew, max_level = case
    ref_type, ref_draws, ref_rngs = _recording_rng()
    expected = reference_tree_keys(
        dim, n_leaves, seed, skew, max_level, rng_type=ref_type
    )
    new_type, new_draws, new_rngs = _recording_rng()
    with mock.patch.object(
        workloads, "random", SimpleNamespace(Random=new_type)
    ):
        keys = synthetic_tree_keys(dim, n_leaves, seed, skew, max_level)
    assert keys == expected
    assert new_draws == ref_draws
    assert new_rngs[0].getstate() == ref_rngs[0].getstate()


@st.composite
def partition_cases(draw):
    """A tree, weights on a shuffled subset of its keys, and a cap."""
    dim, n_leaves, seed, skew, max_level = draw(tree_cases())
    keys = synthetic_tree_keys(dim, n_leaves, seed, skew, max_level)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    chosen = rng.sample(keys, draw(st.integers(1, len(keys))))
    if draw(st.booleans()):
        weights = {k: rng.randint(0, 40) for k in chosen}
    else:
        weights = {k: rng.uniform(0.0, 10.0) for k in chosen}
    weights[chosen[0]] += 1  # a positive total
    n_ranks = draw(st.integers(1, 64))
    if draw(st.booleans()):
        cap = {"target_chunks": draw(st.integers(1, 300))}
    else:
        cap = {"granularity": draw(st.floats(0.1, 16.0))}
    return n_ranks, weights, cap


@given(partition_cases())
@settings(max_examples=80, deadline=None)
def test_partition_matches_reference(case):
    n_ranks, weights, cap = case
    expected = reference_from_weights(n_ranks, weights, **cap)
    pmap = CostPartitionMap.from_weights(n_ranks, weights, **cap)
    assert list(pmap._anchors.items()) == list(expected._anchors.items())


def test_partition_rejects_nan_total():
    root = Key.root(2)
    with pytest.raises(ClusterConfigError):
        CostPartitionMap.from_weights(
            4, {root: float("nan"), next(root.children()): 1.0}
        )
