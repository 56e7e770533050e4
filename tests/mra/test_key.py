"""Tests for dyadic box keys."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TreeStructureError
from repro.mra.key import Key


def test_root():
    r = Key.root(3)
    assert r.level == 0
    assert r.translation == (0, 0, 0)
    assert r.dim == 3


def test_children_count_and_levels():
    k = Key(1, (0, 1))
    kids = list(k.children())
    assert len(kids) == 4
    assert all(c.level == 2 for c in kids)
    assert len(set(kids)) == 4


def test_parent_child_roundtrip():
    k = Key(2, (1, 3, 2))
    for child in k.children():
        assert child.parent() == k


def test_child_index_order():
    k = Key(0, (0, 0))
    kids = list(k.children())
    assert [c.child_index() for c in kids] == [0, 1, 2, 3]


def test_root_has_no_parent():
    with pytest.raises(TreeStructureError):
        Key.root(2).parent()


def test_translation_range_validated():
    with pytest.raises(TreeStructureError):
        Key(1, (2,))
    with pytest.raises(TreeStructureError):
        Key(1, (-1,))
    with pytest.raises(TreeStructureError):
        Key(-1, (0,))


def test_neighbor_inside_domain():
    k = Key(2, (1, 2))
    n = k.neighbor((1, -1))
    assert n == Key(2, (2, 1))


def test_neighbor_outside_domain_is_none():
    k = Key(1, (0, 1))
    assert k.neighbor((-1, 0)) is None
    assert k.neighbor((0, 1)) is None


def test_neighbor_dimension_check():
    with pytest.raises(TreeStructureError):
        Key(1, (0, 0)).neighbor((1,))


def test_box_geometry():
    k = Key(2, (1, 3))
    assert k.box_size() == 0.25
    assert k.box_center() == (0.375, 0.875)


def test_contains():
    k = Key(1, (0,))
    assert k.contains((0.25,))
    assert not k.contains((0.75,))
    edge = Key(1, (1,))
    assert edge.contains((1.0,))


def test_ordering_is_level_major():
    assert Key(0, (0,)) < Key(1, (0,)) < Key(1, (1,)) < Key(2, (0,))


def test_str_compact():
    assert str(Key(2, (1, 3))) == "(2: 1,3)"


# -- the value contract: that of the tuple (level, translation) ---------------


@st.composite
def keys(draw, dim=None):
    dim = draw(st.integers(1, 3)) if dim is None else dim
    level = draw(st.integers(0, 10))
    limit = (1 << level) - 1
    translation = draw(st.tuples(*[st.integers(0, limit)] * dim))
    return Key(level, translation)


def as_tuple(key):
    return (key.level, key.translation)


@given(keys())
def test_hash_is_the_tuple_hash(key):
    assert hash(key) == hash((key.level, key.translation))


@given(st.integers(1, 3).flatmap(lambda d: st.lists(keys(d), min_size=2, max_size=12)))
def test_ordering_and_equality_follow_the_tuple(ks):
    a, b = ks[0], ks[1]
    assert (a < b) == (as_tuple(a) < as_tuple(b))
    assert (a <= b) == (as_tuple(a) <= as_tuple(b))
    assert (a > b) == (as_tuple(a) > as_tuple(b))
    assert (a >= b) == (as_tuple(a) >= as_tuple(b))
    assert (a == b) == (as_tuple(a) == as_tuple(b))
    assert (a != b) == (as_tuple(a) != as_tuple(b))
    assert [as_tuple(k) for k in sorted(ks)] == sorted(as_tuple(k) for k in ks)
    assert a == Key(a.level, a.translation)


def test_key_is_not_equal_to_its_tuple():
    key = Key(1, (0, 1))
    assert key != (1, (0, 1))
    with pytest.raises(TypeError):
        key < (1, (0, 1))


@given(keys())
def test_key_is_immutable(key):
    with pytest.raises(AttributeError):
        key.level = key.level + 1
    with pytest.raises(AttributeError):
        key.translation = ()
    with pytest.raises(AttributeError):
        key.note = "anything"
    with pytest.raises(AttributeError):
        del key.level
    assert not hasattr(key, "__dict__")


@given(keys())
def test_pickle_and_deepcopy_round_trip(key):
    """Checkpoints deep-copy results that hold keys."""
    for copied in (pickle.loads(pickle.dumps(key)), copy.deepcopy(key), copy.copy(key)):
        assert type(copied) is Key
        assert copied == key and hash(copied) == hash(key)
    (copied,) = copy.deepcopy({key: None})
    assert copied == key and hash(copied) == hash(key)


@given(keys())
def test_repr_is_the_dataclass_repr(key):
    assert repr(key) == f"Key(level={key.level!r}, translation={key.translation!r})"


def test_repr_example():
    assert repr(Key(2, (1, 3))) == "Key(level=2, translation=(1, 3))"


def test_outside_construction_still_validates():
    for level, translation in [(1, (2,)), (2, (0, 4)), (0, (1, 0, 0)), (3, (-1,))]:
        with pytest.raises(TreeStructureError):
            Key(level, translation)


@given(keys(), st.data())
def test_derived_keys_equal_validated_ones(key, data):
    for child in key.children():
        built = Key(child.level, child.translation)
        assert child == built and hash(child) == hash(built)
        assert type(child.translation) is tuple
        assert child.parent() == key
    if key.level > 0:
        parent = key.parent()
        assert parent == Key(parent.level, parent.translation)
        assert hash(parent) == hash(Key(parent.level, parent.translation))
    offset = tuple(data.draw(st.integers(-2, 2)) for _ in range(key.dim))
    moved = key.neighbor(offset)
    limit = 1 << key.level
    translated = tuple(t + d for t, d in zip(key.translation, offset))
    if all(0 <= t < limit for t in translated):
        assert moved == Key(key.level, translated)
        assert hash(moved) == hash(Key(key.level, translated))
    else:
        assert moved is None
