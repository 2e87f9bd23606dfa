"""The splitkernel's compute-side component.

A :class:`ComputeKernel` owns the compute pool's local page cache and the
process's memory-pool DRAM (an LRU over the pool capacity, spilling to the
storage pool); the process's full page table, which also lives in the
memory pool, is kept on its address space. It serves application accesses
from the cache, forwarding misses over the fabric to the memory pool —
exactly the recursive-fault flow described in Section 2.1 of the paper.

When a TELEPORT pushdown is active with coherence enabled, the kernel
routes the relevant transitions through the attached
:class:`~repro.teleport.coherence.CoherenceProtocol` so that the
Single-Writer-Multiple-Reader invariant holds across the pools.
"""

from collections import deque
from itertools import accumulate

import numpy as np

from repro.mem.cache import CacheEntry, PageCache
from repro.mem.storage import SwapDevice, distinct_heads


class ComputeKernel:
    """Compute-pool pager: local page cache in front of the memory pool."""

    def __init__(self, platform, process):
        self.platform = platform
        self.config = platform.config
        self.stats = platform.stats
        self.network = platform.network
        self.process = process
        self.cache = PageCache(self.config.compute_cache_pages)
        #: The memory pool's DRAM: every fault is served from it and every
        #: write-back of a dirty page lands in it.
        self.pool = SwapDevice(self.config, self.stats, self.config.memory_pool_pages)
        #: Active coherence protocol, set by the TELEPORT runtime for the
        #: duration of a pushdown (None when no pushdown is running).
        self.protocol = None

    def on_alloc(self, region):
        """New allocations become memory-pool resident.

        No time is charged: in a disaggregated OS fresh anonymous pages are
        created in the memory pool without device reads. If the pool is
        over capacity the displaced pages pay their fault cost when (and
        if) they are touched again.
        """
        self.pool.admit_new_range(region.start_vpn, region.npages)

    def on_free(self, region):
        """Drop a freed region's pages from the cache and the memory pool
        without write-back."""
        self.cache.drop_range(region.start_vpn, region.end_vpn)
        self.pool.drop_range(region.start_vpn, region.end_vpn)

    # ------------------------------------------------------------------
    # Access paths (cost only; data lives in the region's numpy buffer)
    # ------------------------------------------------------------------
    def touch_runs(self, heads, repeats, write, now, span=None):
        """The cost of a batch of random runs of page accesses from the
        compute pool.

        A run costs ``dram_random_ps``, one ``dram_line_ps`` per repeat and
        its first access's (its head's) fault cost; its repeats are cache
        hits. Each head is served at ``now`` plus the cost of the runs
        before it. A hit moves the page to the MRU end; a write hit makes
        it writable (silently without a protocol, by :meth:`_upgrade` with
        one) and dirty. A miss is a one-page fetch with its ``fault`` trace
        event: through :meth:`_fetch` and its hooks with a protocol, inline
        without one. An inline fetch costs its storage fault (if the memory
        pool spilled the page) + ``single_fault_ps`` [+
        ``single_writeback_ps`` and the memory pool's ``write_back`` for a
        dirty victim]; its counters, traffic and fixed costs are charged
        once per batch. On a full cache it evicts the LRU victim before
        the insert rather than after, which evicts the same page, and
        reuses the victim's entry for the new page. ``span`` is unused.
        """
        entries = self.cache._entries
        get = entries.get
        move_to_end = entries.move_to_end
        capacity = self.cache.capacity_pages
        protocol = self.protocol
        tracer = self.platform.tracer
        tracing = tracer.enabled
        pool = self.pool
        pool_move_to_end = pool._resident.move_to_end
        config = self.config
        fault_ps = config.single_fault_ps
        writeback_ps = config.single_writeback_ps
        random_ps = config.dram_random_ps
        line_ps = config.dram_line_ps
        misses = evictions = dirty = 0
        # The DRAM time of the runs before head i, which only a protocol
        # upgrade and a traced miss read, is i * random_ps + lines_before[i]
        # * line_ps. The runs' DRAM time and the inline misses' fixed costs
        # are added after the loop.
        if protocol is not None or tracing:
            lines_before = list(accumulate(repeats, initial=0))
        cost = 0
        for index, vpn in enumerate(heads):
            entry = get(vpn)
            if entry is not None:
                move_to_end(vpn)
                if write:
                    if not entry.writable:
                        if protocol is None:
                            entry.writable = True
                        else:
                            at = now + cost + index * random_ps + lines_before[index] * line_ps
                            cost += self._upgrade(vpn, entry, at)
                    entry.dirty = True
                continue
            if tracing:
                at = now + cost + index * random_ps + lines_before[index] * line_ps
                if protocol is None:
                    at += misses * fault_ps + dirty * writeback_ps
                tracer.emit(at, "fault", vpn=vpn, write=write)
            misses += 1
            if protocol is not None:
                cost += self._fetch(vpn, 1, write)
                continue
            try:
                pool_move_to_end(vpn)
            except KeyError:
                cost += pool.touch(vpn)
            if len(entries) < capacity:
                entries[vpn] = CacheEntry(write, write)
                continue
            # Evict the LRU entry first and reuse it for the page.
            evictions += 1
            victim_vpn, entry = entries.popitem(last=False)
            if entry.dirty:
                dirty += 1
                if not pool.all_dirty:
                    cost += pool.write_back((victim_vpn,))
            entry.writable = entry.dirty = write
            entries[vpn] = entry
        stats = self.stats
        stats.cache_hits += len(heads) - misses + sum(repeats)
        stats.cache_misses += misses
        if protocol is None:
            cost += self.network.pages_in_ps(misses, batch=1)
            cost += self.network.pages_out_ps(dirty, batch=1)
            stats.cache_evictions += evictions
            stats.dirty_writebacks += dirty
        return cost + len(heads) * random_ps + sum(repeats) * line_ps

    def touch_dense(self, heads, repeats, write, now):
        """:meth:`touch_runs` for a dense batch, given as two int64 arrays.

        With no protocol and the tracer off, :meth:`PageCache.replay` gives
        each head its residency interval at C speed, and numpy derives the
        loop's effect from those ids: LRU evicts intervals in the order of
        their last access, the untouched cached ones first (DESIGN.md,
        "Dense batches"). The heads go through :meth:`touch_runs` instead
        with a protocol or the tracer, when the cache holds more entries
        than the batch has heads (seeding would cost more than the batch),
        when a missed page is absent from the memory pool, or when a dirty
        victim's write-back would change it (not ``all_dirty``). The replay
        changes nothing, so falling back after it is exact.
        """
        cache = self.cache
        entries = cache._entries
        cached = len(entries)
        if self.protocol is not None or self.platform.tracer.enabled or cached > len(heads):
            return self.touch_runs(heads.tolist(), repeats.tolist(), write, now)
        ids = cache.replay(heads.tolist())
        intervals = max(int(ids.max()) + 1, cached)
        misses = intervals - cached
        evictions = max(0, intervals - cache.capacity_pages)
        page_of = np.empty(intervals, np.int64)
        page_of[:cached] = np.fromiter(entries, np.int64, cached)
        # Every head of an interval is the same page: any write order does.
        page_of[ids] = heads
        missed = page_of[cached:]
        missed = missed[distinct_heads(missed, last=True)].tolist() if misses else []
        # Every interval in the order of its last access.
        touched = ids[distinct_heads(ids, last=True)]
        hit = np.zeros(intervals, bool)
        hit[touched] = True
        order = np.concatenate((np.flatnonzero(~hit[:cached]), touched))
        old = list(entries.values())
        # A victim is dirty if its entry was, or if the batch writes and
        # opened or hit it.
        dirty_of = np.full(intervals, write)
        dirty_of[:cached] = [entry.dirty for entry in old]
        dirty_of[touched] |= write
        dirty = int(np.count_nonzero(dirty_of[order[:evictions]]))
        resident = self.pool._resident
        if (dirty and not self.pool.all_dirty) or not all(map(resident.__contains__, missed)):
            return self.touch_runs(heads.tolist(), repeats.tolist(), write, now)
        deque(map(resident.move_to_end, missed), maxlen=0)
        # The survivors in order: a cached entry is kept (and a write hit
        # makes it writable and dirty), every other page's is new.
        if write:
            for entry in map(old.__getitem__, touched[touched < cached].tolist()):
                entry.writable = entry.dirty = True
        alive = order[evictions:].tolist()
        kept = [old[i] if i < cached else CacheEntry(write, write) for i in alive]
        entries.clear()
        entries.update(zip(page_of[alive].tolist(), kept))
        lines = int(repeats.sum())
        stats = self.stats
        stats.cache_hits += len(heads) - misses + lines
        stats.cache_misses += misses
        stats.cache_evictions += evictions
        stats.dirty_writebacks += dirty
        cost = self.network.pages_in_ps(misses, batch=1)
        cost += self.network.pages_out_ps(dirty, batch=1)
        return cost + len(heads) * self.config.dram_random_ps + lines * self.config.dram_line_ps

    def touch_sequential(self, start_vpn, npages, write, now=0):
        """Stream ``npages`` consecutive pages through the cache.

        Misses are served in prefetch-degree batches, modelling the
        disaggregated OS's sequential prefetcher; every page additionally
        pays the DRAM streaming cost since the CPU consumes it. ``now`` is
        the stream's start time; a write upgrade happens at ``now`` plus
        the fault cost charged before it, as on the random path, and each
        batch's ``fault`` trace event carries that time too.

        A batch that starts at a miss is one :meth:`_fetch`. Without an
        attached protocol, a run of pages none of which is cached is
        charged in closed form by :meth:`_stream_absent`: whole prefetch
        batches, or up to the end of the stream. When the memory pool
        holds the whole run and no write-back can change it, the run is
        charged as a whole rather than batch by batch. The batch that
        reaches a cached page is a plain :meth:`_fetch`.
        """
        cache = self.cache
        degree = self.config.prefetch_degree
        tracer = self.platform.tracer
        cost = 0
        vpn = start_vpn
        end = start_vpn + npages
        while vpn < end:
            entry = cache.get(vpn)
            if entry is not None:
                if write and not entry.writable:
                    cost += self._upgrade(vpn, entry, now + cost)
                if write:
                    entry.dirty = True
                self.stats.cache_hits += 1
                vpn += 1
                continue
            if self.protocol is None:
                run_end = cache.first_cached(vpn + 1, end)
                if run_end < end:
                    run_end -= (run_end - vpn) % degree
                if run_end > vpn:
                    cost = self._stream_absent(vpn, run_end - vpn, write, now, cost)
                    vpn = run_end
                    continue
            batch = min(degree, end - vpn)
            self.stats.cache_misses += 1
            if tracer.enabled:
                tracer.emit(now + cost, "fault", vpn=vpn, npages=batch, write=write)
            cost += self._fetch(vpn, batch, write)
            vpn += batch
        return cost + npages * self.config.dram_page_ps

    # ------------------------------------------------------------------
    # Fault machinery
    # ------------------------------------------------------------------
    def _fetch(self, vpn, npages, write):
        """Fault one prefetch batch of ``npages`` at ``vpn`` in; returns its cost.

        The memory pool brings the pages into its DRAM (itself faulting
        them from storage if it spilled them: the recursive fault of
        Section 2.1), one request carries them over the fabric, and the
        cache admits them in one step. Each dirty victim is written back
        in its own message and lands dirty in the memory pool.

        With a protocol attached the batch is admitted page by page: per
        page ``on_compute_fetch`` (Figure 9 lines 3-10: the memory side
        adjusts ``t_mm`` before replying), its insert, ``on_compute_evict``
        for each of its victims and the sanitizer's fetch check. Running
        each page's fetch hook just before its own insert matters when an
        earlier insert of the batch evicts a later page of it: the evict
        hook gives ``t_mm`` write access back, and the later page's fetch
        hook must then take it away again.
        """
        cost = self.pool.touch_range(vpn, npages)
        cost += self.network.pages_in_ps(npages, batch=npages)
        protocol = self.protocol
        if protocol is None:
            victims = self.cache.insert_run(vpn, npages, write, dirty=write)
        else:
            sanitizers = self.platform.sanitizers
            victims = []
            for fetched in range(vpn, vpn + npages):
                protocol.on_compute_fetch(fetched, write)
                evicted = self.cache.insert(fetched, write, dirty=write)
                for victim_vpn, _dirty in evicted:
                    protocol.on_compute_evict(victim_vpn)
                if sanitizers is not None:
                    # The fetch transition is complete only once the page
                    # is in the cache.
                    sanitizers.swmr_transition(protocol, "compute_fetch", fetched)
                victims += evicted
        self.stats.cache_evictions += len(victims)
        written = [victim_vpn for victim_vpn, was_dirty in victims if was_dirty]
        self.stats.dirty_writebacks += len(written)
        cost += self.pool.write_back(written)
        return cost + self.network.pages_out_ps(len(written), batch=1)

    def _stream_absent(self, start_vpn, npages, write, now, cost):
        """Stream ``npages`` pages, none of them cached, as :meth:`_fetch`
        batches would; returns ``cost`` plus the batches' costs.

        Only valid without a protocol: no hook or sanitizer check runs per
        page. The run is exact in closed form because its pages are
        distinct and absent, so none can be hit, or evicted and fetched
        again, within it. The cache's victims are its oldest entries in LRU
        order, then the run's own earliest pages (dirty exactly when the
        stream writes); the j-th victim is evicted by the run's
        (free + j)-th insert. The victims' network write-backs are charged
        once.

        The memory pool is charged per run, not per batch, as long as the
        victims' write-backs change nothing in it (there are none, or
        every page it admitted is dirty) and it holds the batch's pages:
        such a batch costs exactly ``remote_fault_ps`` of its pages and
        only moves them to the pool's MRU end, so nothing between two
        batches can fault, evict or reorder the pool. One pass moves the
        run's pages to the MRU end in stream order up to the pool's first
        absent page (:meth:`SwapDevice.touch_resident`), and the whole
        batches before it (or the whole run) are one ``pages_in_ps(...,
        batch=degree)``. Each remaining batch calls the memory pool and the
        network, in order, and then hands the dirty victims its inserts
        evicted to the memory pool's ``write_back``; moving the pages
        before the absent one again changes nothing, as they are already
        the pool's MRU pages in that order.

        Either way a batch's ``fault`` trace event is at ``now`` plus the
        cost charged before it, the write-backs of the victims its earlier
        batches evicted included.
        """
        cache = self.cache
        config = self.config
        degree = config.prefetch_degree
        tracer = self.platform.tracer
        pool = self.pool
        free = cache.capacity_pages - len(cache)
        old_victims, run_evicted = cache.insert_absent_run(start_vpn, npages, write, dirty=write)
        old_dirty = [was_dirty for _vpn, was_dirty in old_victims]
        dirty = sum(old_dirty) + (run_evicted if write else 0)
        self.stats.cache_evictions += len(old_victims) + run_evicted
        self.stats.dirty_writebacks += dirty
        self.stats.cache_misses += -(-npages // degree)
        if tracer.enabled:
            writeback_ps = config.single_writeback_ps
            # written[j]: the dirty pages among the run's first j victims.
            written = list(accumulate(old_dirty + [write] * run_evicted, initial=0))
        # served: the pages of the batches charged per run.
        served = 0
        if not dirty or pool.all_dirty:
            served = pool.touch_resident(start_vpn, start_vpn + npages) - start_vpn
            if served < npages:
                served -= served % degree
            if tracer.enabled:
                # Each of these batches but the run's last is full.
                batch_ps = config.remote_fault_ps(degree)
                for index, offset in enumerate(range(0, served, degree)):
                    at = now + cost + index * batch_ps
                    at += written[max(0, offset - free)] * writeback_ps
                    batch = min(degree, npages - offset)
                    tracer.emit(at, "fault", vpn=start_vpn + offset, npages=batch, write=write)
            cost += self.network.pages_in_ps(served, batch=degree)
        for offset in range(served, npages, degree):
            batch = min(degree, npages - offset)
            batch_vpn = start_vpn + offset
            if tracer.enabled:
                at = now + cost + written[max(0, offset - free)] * writeback_ps
                tracer.emit(at, "fault", vpn=batch_vpn, npages=batch, write=write)
            cost += pool.touch_range(batch_vpn, batch)
            cost += self.network.pages_in_ps(batch, batch=batch)
            if dirty and not pool.all_dirty:
                # This batch's inserts evicted the victims [first, last);
                # the dirty ones land in the memory pool.
                first, last = max(0, offset - free), max(0, offset + batch - free)
                cost += pool.write_back(
                    [vpn for vpn, was_dirty in old_victims[first:last] if was_dirty]
                )
                if write:
                    old = len(old_victims)
                    cost += pool.write_back(
                        range(start_vpn + max(0, first - old), start_vpn + max(0, last - old))
                    )
        return cost + self.network.pages_out_ps(dirty, batch=1)

    def _upgrade(self, vpn, entry, now):
        """Upgrade a cached read-only page to writable.

        Without an active pushdown the compute pool is the only possible
        sharer, so the upgrade is silent. During pushdown it is a coherence
        transition that may lose a tie-break to the memory pool
        (Section 4.1).
        """
        cost = 0
        if self.protocol is not None:
            cost = self.protocol.compute_upgrade(vpn, now)
        entry.writable = True
        if self.protocol is not None and self.platform.sanitizers is not None:
            # Re-check after the entry actually became writable: t_mm must
            # no longer map the page (MESI).
            self.platform.sanitizers.swmr_transition(
                self.protocol, "compute_upgrade_applied", vpn
            )
        return cost

    # ------------------------------------------------------------------
    # Synchronisation helpers used by TELEPORT (Section 4.2)
    # ------------------------------------------------------------------
    def flush_dirty(self, vpns=None):
        """Write dirty pages back to the memory pool; returns (cost, count).

        ``vpns=None`` flushes everything. The pages cross the fabric in one
        batched transfer, for ``syncmem`` and for the eager-sync ablation's
        pre-sync alike (Section 4 / Figure 20, through :meth:`evict_all`);
        that ablation's strawman cost is the page-by-page refetch after it.
        """
        if vpns is None:
            targets = self.cache.dirty_vpns()
        else:
            targets = [vpn for vpn in vpns if vpn in self.cache]
        flushed = []
        for vpn in targets:
            entry = self.cache.peek(vpn)
            if entry is not None and entry.dirty:
                entry.dirty = False
                flushed.append(vpn)
        if not flushed:
            return 0, 0
        self.stats.dirty_writebacks += len(flushed)
        cost = self.pool.write_back(flushed)
        return cost + self.network.pages_out_ps(len(flushed), batch=len(flushed)), len(flushed)

    def evict_all(self):
        """Write every dirty page back in one batched :meth:`flush_dirty`,
        then drop the whole cache (the eager-sync ablation's full-process
        migration); returns the flush's cost, as dropping clean pages is free.
        """
        cost, _count = self.flush_dirty()
        self.stats.cache_evictions += len(self.cache.clear())
        return cost

    def evict_regions(self, regions):
        """Flush + drop only the pages of the given regions (per-thread
        pushdown ablation of Figure 6); returns cost (page-by-page)."""
        cost = 0
        written = []
        dropped = 0
        for region in regions:
            for vpn in region.all_vpns():
                entry = self.cache.invalidate(vpn)
                if entry is None:
                    continue
                dropped += 1
                if entry.dirty:
                    written.append(vpn)
        if written:
            self.stats.dirty_writebacks += len(written)
            cost += self.pool.write_back(written)
            cost += self.network.pages_out_ps(len(written), batch=1)
        self.stats.cache_evictions += dropped
        return cost

    def resident_snapshot(self):
        """(vpn, writable) list sent with a pushdown request (Section 4.1)."""
        return [(vpn, entry.writable) for vpn, entry in self.cache.resident_items()]
