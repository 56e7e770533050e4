"""Tests for the write-once operator block cache."""

import numpy as np

from repro.operators.cache import CacheStats, OperatorBlockCache


def test_miss_then_hit():
    cache = OperatorBlockCache()
    calls = []

    def compute():
        calls.append(1)
        return np.ones((4, 4))

    a = cache.get_or_compute("k1", compute)
    b = cache.get_or_compute("k1", compute)
    assert a is b
    assert len(calls) == 1
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.bytes_inserted == a.nbytes


def test_distinct_keys():
    cache = OperatorBlockCache()
    cache.get_or_compute(("a", 1), lambda: np.zeros(2))
    cache.get_or_compute(("a", 2), lambda: np.zeros(2))
    assert len(cache) == 2
    assert ("a", 1) in cache
    assert ("b", 1) not in cache


def test_hit_rate():
    cache = OperatorBlockCache()
    for _ in range(4):
        cache.get_or_compute("x", lambda: np.zeros(1))
    assert cache.stats.hit_rate == 0.75
    assert cache.stats.accesses == 4


def test_empty_stats():
    assert CacheStats().hit_rate == 0.0


def test_clear_resets():
    cache = OperatorBlockCache()
    cache.get_or_compute("x", lambda: np.zeros(8))
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.accesses == 0


def test_insert_counts_a_miss_and_is_write_once():
    cache = OperatorBlockCache()
    block = np.ones((3, 3))
    cache.insert("k", block)
    cache.insert("k", np.zeros((3, 3)))
    assert cache.get_or_compute("k", lambda: np.zeros((3, 3))) is block
    assert (cache.stats.misses, cache.stats.hits) == (1, 1)
    assert cache.stats.bytes_inserted == block.nbytes
