"""Tests for synthetic trees and workloads."""

import random
from types import SimpleNamespace

import pytest

from repro.apps import workloads
from repro.apps.workloads import SyntheticApplyWorkload, synthetic_tree_keys
from repro.errors import ClusterConfigError
from repro.mra.key import Key


def test_tree_keys_form_a_tree():
    keys = synthetic_tree_keys(2, 64, seed=1)
    key_set = set(keys)
    assert Key.root(2) in key_set
    for key in keys:
        if key.level > 0:
            assert key.parent() in key_set


def test_tree_determinism():
    a = synthetic_tree_keys(3, 128, seed=42)
    b = synthetic_tree_keys(3, 128, seed=42)
    assert a == b


def test_different_seeds_differ():
    a = set(synthetic_tree_keys(2, 128, seed=1))
    b = set(synthetic_tree_keys(2, 128, seed=2))
    assert a != b


def test_trees_are_unbalanced():
    """The generated trees are 'highly unbalanced' (paper Figure 1): one
    level-1 subtree holds far more than its uniform 1/2^d share."""
    keys = synthetic_tree_keys(2, 256, seed=3, skew=2.0)
    counts = {}
    for k in keys:
        if k.level >= 1:
            a = k
            while a.level > 1:
                a = a.parent()
            counts[a] = counts.get(a, 0) + 1
    heaviest = max(counts.values()) / sum(counts.values())
    assert heaviest > 0.4  # uniform share would be 0.25


def test_leaf_count_reached():
    keys = synthetic_tree_keys(2, 100, seed=4)
    key_set = set(keys)
    leaves = [k for k in keys if not any(c in key_set for c in k.children())]
    assert len(leaves) >= 100


def test_invalid_leaf_count():
    with pytest.raises(ClusterConfigError):
        synthetic_tree_keys(2, 0, seed=1)


class _DrawBudget(random.Random):
    """A generator that fails a test after 10,000 draws, so a tree that
    can never be grown fails instead of hanging the suite."""

    def choices(self, *args, **kwargs):
        self.draws = getattr(self, "draws", 0) + 1
        if self.draws > 10_000:
            raise AssertionError("tree growth did not finish")
        return super().choices(*args, **kwargs)


@pytest.fixture
def draw_budget(monkeypatch):
    monkeypatch.setattr(workloads, "random", SimpleNamespace(Random=_DrawBudget))


@pytest.mark.parametrize("skew", [2.0, 0.0])
def test_more_leaves_than_the_level_cap_allows(draw_budget, skew):
    # a 1-D tree capped at level 2 has at most 4 leaves; before the
    # check, skew 2 raised random.choices' ValueError and skew 0 never
    # returned (a capped leaf weighs 0.0**0 == 1.0, so it was redrawn)
    with pytest.raises(ClusterConfigError, match="at most"):
        synthetic_tree_keys(1, 5, seed=0, skew=skew, max_level=2)
    with pytest.raises(ClusterConfigError):
        synthetic_tree_keys(3, 9, seed=0, skew=skew, max_level=1)


@pytest.mark.parametrize("skew", [2.0, 0.0])
def test_a_full_capped_tree_still_grows(draw_budget, skew):
    keys = synthetic_tree_keys(1, 4, seed=0, skew=skew, max_level=2)
    assert sorted(keys) == [Key(0, (0,)), Key(1, (0,)), Key(1, (1,))] + [
        Key(2, (t,)) for t in range(4)
    ]
    full = synthetic_tree_keys(2, 16, seed=3, skew=skew, max_level=2)
    assert len(full) == 1 + 4 + 16
    assert max(k.level for k in full) == 2


def test_negative_skew_is_rejected(draw_budget):
    # 0.0 ** -1.0 raised ZeroDivisionError at the first capped leaf
    with pytest.raises(ClusterConfigError, match="skew"):
        synthetic_tree_keys(2, 10, seed=0, skew=-1.0, max_level=1)
    with pytest.raises(ClusterConfigError, match="skew"):
        synthetic_tree_keys(2, 10, seed=0, skew=-0.5)


def test_zero_skew_tree_grows(draw_budget):
    keys = synthetic_tree_keys(2, 64, seed=5, skew=0.0)
    assert len(keys) == 1 + 4 * 21
    assert synthetic_tree_keys(2, 64, seed=5, skew=0.0) == keys


@pytest.fixture(scope="module")
def workload():
    return SyntheticApplyWorkload(
        dim=3, k=10, rank=80, n_tasks=5000, n_tree_leaves=128, seed=7
    )


def test_exact_task_count(workload):
    assert len(workload.tasks) == 5000


def test_task_shapes_match_parameters(workload):
    q = 20
    for task in workload.tasks[:50]:
        item = task.item
        assert item.step_q == q
        assert item.step_rows == q * q
        assert item.steps == 80 * 3
        assert item.input_bytes == q**3 * 8
        assert len(item.block_keys) == 80


def test_flops_include_corner_share(workload):
    q = 20
    base = 80 * 3 * 2 * (q**2) * q * q
    expected = int(base * (1 + 2.0**-4))
    assert workload.tasks[0].item.flops == expected
    assert workload.total_flops == expected * 5000


def test_neighbors_are_valid_same_level(workload):
    for task in workload.tasks[:200]:
        assert task.neighbor.level == task.key.level
        delta = tuple(
            a - b for a, b in zip(task.neighbor.translation, task.key.translation)
        )
        assert max(abs(d) for d in delta) <= 1


def test_kinds_partition_by_level(workload):
    for task in workload.tasks[:200]:
        level, dim, q = task.item.kind.signature
        assert level == task.key.level
        assert (dim, q) == (3, 20)


def test_block_key_tuples_shared(workload):
    """Same-level tasks reuse block-key tuples (memory and cache realism)."""
    by_level = {}
    for task in workload.tasks[:500]:
        key = (task.key.level, task.item.block_keys[0][1])
        if key in by_level:
            assert by_level[key] is task.item.block_keys
        else:
            by_level[key] = task.item.block_keys


def test_determinism_of_workload():
    a = SyntheticApplyWorkload(dim=2, k=5, rank=10, n_tasks=100, seed=9)
    b = SyntheticApplyWorkload(dim=2, k=5, rank=10, n_tasks=100, seed=9)
    assert [t.key for t in a.tasks] == [t.key for t in b.tasks]


def test_invalid_workload():
    with pytest.raises(ClusterConfigError):
        SyntheticApplyWorkload(dim=0, k=5, rank=10, n_tasks=10)
