"""Tests for the compute-pool page cache (exact LRU, write-back)."""

import pytest

from repro.errors import ConfigError
from repro.mem.cache import PageCache


def test_capacity_must_be_positive():
    with pytest.raises(ConfigError):
        PageCache(0)


def test_insert_and_get():
    cache = PageCache(4)
    cache.insert(1, writable=True)
    entry = cache.get(1)
    assert entry is not None
    assert entry.writable
    assert not entry.dirty


def test_miss_returns_none():
    cache = PageCache(4)
    assert cache.get(42) is None


def test_lru_eviction_order():
    cache = PageCache(2)
    cache.insert(1, writable=False)
    cache.insert(2, writable=False)
    evicted = cache.insert(3, writable=False)
    assert evicted == [(1, False)]
    assert 1 not in cache
    assert 2 in cache and 3 in cache


def test_get_promotes_to_mru():
    cache = PageCache(2)
    cache.insert(1, writable=False)
    cache.insert(2, writable=False)
    cache.get(1)  # promote
    evicted = cache.insert(3, writable=False)
    assert evicted == [(2, False)]


def test_peek_does_not_promote():
    cache = PageCache(2)
    cache.insert(1, writable=False)
    cache.insert(2, writable=False)
    cache.peek(1)
    evicted = cache.insert(3, writable=False)
    assert evicted == [(1, False)]


def test_dirty_eviction_reported():
    cache = PageCache(1)
    cache.insert(1, writable=True, dirty=True)
    evicted = cache.insert(2, writable=False)
    assert evicted == [(1, True)]


def test_reinsert_merges_permissions():
    cache = PageCache(4)
    cache.insert(1, writable=False)
    cache.insert(1, writable=True)
    assert cache.get(1).writable
    assert len(cache) == 1


def test_invalidate_removes_and_returns_entry():
    cache = PageCache(4)
    cache.insert(1, writable=True, dirty=True)
    entry = cache.invalidate(1)
    assert entry.dirty
    assert 1 not in cache
    assert cache.invalidate(1) is None


def test_downgrade_clears_write_and_reports_dirty():
    cache = PageCache(4)
    cache.insert(1, writable=True, dirty=True)
    assert cache.downgrade(1) is True
    entry = cache.peek(1)
    assert not entry.writable
    assert not entry.dirty  # flushed by the caller
    assert cache.downgrade(1) is False  # second downgrade: nothing dirty


def test_downgrade_missing_page_is_noop():
    cache = PageCache(4)
    assert cache.downgrade(9) is False


def test_dirty_vpns():
    cache = PageCache(4)
    cache.insert(1, writable=True, dirty=True)
    cache.insert(2, writable=True)
    cache.insert(3, writable=True, dirty=True)
    assert sorted(cache.dirty_vpns()) == [1, 3]


def test_clear_returns_all_with_dirty_flags():
    cache = PageCache(4)
    cache.insert(1, writable=True, dirty=True)
    cache.insert(2, writable=False)
    dropped = dict(cache.clear())
    assert dropped == {1: True, 2: False}
    assert len(cache) == 0


def test_resident_items_in_lru_order():
    cache = PageCache(4)
    cache.insert(1, writable=False)
    cache.insert(2, writable=False)
    cache.get(1)
    vpns = [vpn for vpn, _ in cache.resident_items()]
    assert vpns == [2, 1]  # LRU first
