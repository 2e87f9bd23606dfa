"""The compute pool's local page cache.

In a disaggregated OS the compute pool's DRAM "is nothing more than a
cache" of the memory pool (Section 1). :class:`PageCache` models it as an
exact-LRU, write-back, write-allocate cache of 4 KiB pages. Its entries
double as the compute side's page table: a page present here is present in
the compute pool with the recorded permission, which is precisely the state
TELEPORT's coherence protocol manipulates.
"""

from collections import OrderedDict, deque
from functools import lru_cache, partial
from itertools import count, repeat

import numpy as np

from repro.errors import ConfigError


class CacheEntry:
    """Residency record for one cached page."""

    __slots__ = ("writable", "dirty")

    def __init__(self, writable, dirty=False):
        self.writable = writable
        self.dirty = dirty

    @property
    def permission(self):
        return "W" if self.writable else "R"

    def __repr__(self):
        return f"CacheEntry(writable={self.writable}, dirty={self.dirty})"


class PageCache:
    """Exact-LRU write-back cache of pages, keyed by vpn."""

    def __init__(self, capacity_pages):
        if capacity_pages < 1:
            raise ConfigError(f"cache capacity must be >= 1 page, got {capacity_pages}")
        self.capacity_pages = capacity_pages
        #: vpn -> CacheEntry, in LRU order. ``ComputeKernel.touch_runs``
        #: reads and updates it directly, so that a hit costs it no call;
        #: ``ComputeKernel.touch_dense`` rebuilds it from :meth:`replay`.
        self._entries = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, vpn):
        return vpn in self._entries

    def get(self, vpn):
        """Look up a page and promote it to most-recently-used."""
        entry = self._entries.get(vpn)
        if entry is not None:
            self._entries.move_to_end(vpn)
        return entry

    def peek(self, vpn):
        """Look up a page without touching recency."""
        return self._entries.get(vpn)

    def first_cached(self, start_vpn, end_vpn):
        """Smallest cached vpn in [start_vpn, end_vpn), or ``end_vpn``.

        Scans ``min(end_vpn - start_vpn, len(self))`` candidates: the range
        when it is shorter than the cache, otherwise the cached vpns (a
        stream over a large region against a small cache tests only the
        cache's entries).
        """
        span = range(start_vpn, end_vpn)
        entries = self._entries
        if len(span) <= len(entries):
            return next(filter(entries.__contains__, span), end_vpn)
        return min(filter(span.__contains__, entries), default=end_vpn)

    def count_cached(self, span):
        """How many vpns of the range ``span`` are cached, probing the
        shorter of the two as :meth:`first_cached` does."""
        entries = self._entries
        if len(span) <= len(entries):
            return sum(map(entries.__contains__, span))
        return sum(map(span.__contains__, entries))

    def replay(self, vpns):
        """The residency interval that would serve each access of ``vpns``
        (a list) in turn, as an int64 array, leaving the cache unchanged.
        The cached pages hold intervals 0 .. len(self) - 1 in LRU order and
        each miss opens the next: an ``lru_cache`` of the same capacity (an
        exact LRU in C) maps each vpn through ``next`` of one counter."""
        replay = lru_cache(maxsize=self.capacity_pages)(partial(next, count()))
        deque(map(replay, self._entries), maxlen=0)
        return np.fromiter(map(replay, vpns), np.int64, len(vpns))

    def insert(self, vpn, writable, dirty=False):
        """Insert (or refresh) a page; return list of evicted (vpn, dirty).

        Evictions are exact LRU; dirty victims must be written back by the
        caller (the kernel charges the transfer).
        """
        return self.insert_run(vpn, 1, writable, dirty)

    def insert_run(self, start_vpn, npages, writable, dirty=False):
        """Insert (or refresh) ``npages`` consecutive pages in order.

        Returns the evicted (vpn, dirty) pairs in eviction order, exactly
        as calling :meth:`insert` page by page would. A page of the run may
        evict an earlier page of the same run when the run is longer than
        the cache.
        """
        entries = self._entries
        capacity = self.capacity_pages
        evicted = []
        for vpn in range(start_vpn, start_vpn + npages):
            entry = entries.get(vpn)
            if entry is not None:
                entry.writable = entry.writable or writable
                entry.dirty = entry.dirty or dirty
                entries.move_to_end(vpn)
                continue
            if len(entries) < capacity:
                entries[vpn] = CacheEntry(writable, dirty)
                continue
            # Evict the LRU entry first and reuse it for the page.
            victim_vpn, entry = entries.popitem(last=False)
            evicted.append((victim_vpn, entry.dirty))
            entry.writable = writable
            entry.dirty = dirty
            entries[vpn] = entry
        return evicted

    def insert_absent_run(self, start_vpn, npages, writable, dirty=False):
        """Insert ``npages`` consecutive pages, none of them cached, in order.

        The LRU order and victims are those of :meth:`insert_run`, but the
        result is built in one step: the victims are the oldest entries in
        LRU order, then the run's own earliest pages, and run pages that
        the run itself evicts are never created. Returns the evicted
        (vpn, dirty) pairs of the entries cached before the call, in
        eviction order, and the number of run pages evicted (the first
        ones; each had the flags given here).
        """
        entries = self._entries
        overflow = len(entries) + npages - self.capacity_pages
        old_victims = []
        for _ in range(min(overflow, len(entries))):
            victim_vpn, victim = entries.popitem(last=False)
            old_victims.append((victim_vpn, victim.dirty))
        run_evicted = max(0, overflow - len(old_victims))
        for vpn in range(start_vpn + run_evicted, start_vpn + npages):
            entries[vpn] = CacheEntry(writable, dirty)
        return old_victims, run_evicted

    def invalidate(self, vpn):
        """Drop a page (coherence invalidation); return its entry or None."""
        return self._entries.pop(vpn, None)

    def drop_range(self, start_vpn, end_vpn):
        """Drop the pages of [start_vpn, end_vpn) (their region was freed)
        without write-back. Like :meth:`first_cached`, it scans the range
        or the cached vpns, whichever is shorter."""
        span = range(start_vpn, end_vpn)
        entries = self._entries
        cached = span if len(span) <= len(entries) else [vpn for vpn in entries if vpn in span]
        deque(map(entries.pop, cached, repeat(None)), maxlen=0)

    def downgrade(self, vpn):
        """Set a page read-only; return True if it held dirty data.

        MESI M->S: the caller must flush the dirty page to the memory pool
        when this returns True. The dirty bit is cleared here because after
        the flush both copies agree.
        """
        entry = self._entries.get(vpn)
        if entry is None:
            return False
        was_dirty = entry.dirty
        entry.writable = False
        entry.dirty = False
        return was_dirty

    def dirty_vpns(self):
        return [vpn for vpn, entry in self._entries.items() if entry.dirty]

    def resident_items(self):
        """Snapshot of (vpn, entry) in LRU-to-MRU order."""
        return list(self._entries.items())

    def clear(self):
        """Drop everything; return list of (vpn, dirty) for all pages."""
        dropped = [(vpn, entry.dirty) for vpn, entry in self._entries.items()]
        self._entries.clear()
        return dropped

    def __repr__(self):
        return f"PageCache({len(self._entries)}/{self.capacity_pages} pages)"
