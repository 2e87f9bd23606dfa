"""Per-page reference of the compute pool's fault path.

This is the compute kernel as it charged faults one page at a time: every
fetched page goes through its own cache insert, and every dirty victim
through its own ``Network.pages_out_ps(1, batch=1)``. The property tests run it
side by side with :class:`repro.ddc.kernels.ComputeKernel`, whose batch
and closed-form paths must agree with it exactly (costs are integer ps). The LRU insert is
kept here too, so the reference shares no cache code with what it checks.
"""

from repro.mem.cache import CacheEntry


def lru_insert(cache, vpn, writable, dirty):
    """Insert (or refresh) one page; return the evicted (vpn, dirty) list."""
    entries = cache._entries
    entry = entries.get(vpn)
    if entry is not None:
        entry.writable = entry.writable or writable
        entry.dirty = entry.dirty or dirty
        entries.move_to_end(vpn)
        return []
    entries[vpn] = CacheEntry(writable, dirty)
    evicted = []
    while len(entries) > cache.capacity_pages:
        victim_vpn, victim = entries.popitem(last=False)
        evicted.append((victim_vpn, victim.dirty))
    return evicted


def touch_random(kernel, vpn, write, now=0):
    """One random page touch; returns the fault-path cost."""
    entry = kernel.cache.get(vpn)
    if entry is not None:
        cost = kernel._upgrade(vpn, entry, now) if write and not entry.writable else 0
        if write:
            entry.dirty = True
        kernel.stats.cache_hits += 1
        return cost
    kernel.stats.cache_misses += 1
    if kernel.platform.tracer.enabled:
        kernel.platform.tracer.emit(now, "fault", vpn=vpn, write=write)
    return fetch(kernel, vpn, 1, write)


def touch_sequential(kernel, start_vpn, npages, write, now=0):
    """Stream pages through the cache, one prefetch batch per miss."""
    cost = 0
    vpn = start_vpn
    end = start_vpn + npages
    while vpn < end:
        entry = kernel.cache.get(vpn)
        if entry is not None:
            if write and not entry.writable:
                cost += kernel._upgrade(vpn, entry, now + cost)
            if write:
                entry.dirty = True
            kernel.stats.cache_hits += 1
            vpn += 1
            continue
        batch = min(kernel.config.prefetch_degree, end - vpn)
        kernel.stats.cache_misses += 1
        if kernel.platform.tracer.enabled:
            kernel.platform.tracer.emit(now + cost, "fault", vpn=vpn, npages=batch, write=write)
        cost += fetch(kernel, vpn, batch, write)
        vpn += batch
    return cost + npages * kernel.config.dram_page_ps


def fetch(kernel, vpn, npages, write):
    """Fault ``npages`` in from the memory pool, inserting page by page;
    each page's fetch hook runs just before its own insert."""
    cost = kernel.pool.touch_range(vpn, npages)
    cost += kernel.network.pages_in_ps(npages, batch=npages)
    for fetched in range(vpn, vpn + npages):
        if kernel.protocol is not None:
            kernel.protocol.on_compute_fetch(fetched, write)
        cost += insert(kernel, fetched, write)
    return cost


def insert(kernel, vpn, write):
    """Admit one fetched page, writing back any dirty victim to the
    memory pool."""
    cost = 0
    for victim_vpn, victim_dirty in lru_insert(kernel.cache, vpn, write, write):
        kernel.stats.cache_evictions += 1
        if victim_dirty:
            kernel.stats.dirty_writebacks += 1
            cost += kernel.pool.write_back((victim_vpn,))
            cost += kernel.network.pages_out_ps(1, batch=1)
        if kernel.protocol is not None:
            kernel.protocol.on_compute_evict(victim_vpn)
    if kernel.protocol is not None and kernel.platform.sanitizers is not None:
        kernel.platform.sanitizers.swmr_transition(kernel.protocol, "compute_fetch", vpn)
    return cost
