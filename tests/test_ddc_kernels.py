"""Direct unit tests for the compute kernel and its memory pool."""

from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest

from repro.ddc import make_platform
from repro.sim.config import DdcConfig
from repro.sim.units import KIB, MIB

from tests.conftest import alloc_floats

PAGE = 4 * KIB


@pytest.fixture
def kernels():
    platform = make_platform("ddc", DdcConfig(compute_cache_bytes=64 * KIB))
    process = platform.new_process()
    region = alloc_floats(process, "a", 200_000)  # 1.6 MB >> 64 KiB cache
    return platform, process, region, platform.kernel_for(process)


class TestComputeKernel:
    def test_miss_then_hit(self, kernels):
        platform, _process, region, compute = kernels
        vpn = region.start_vpn
        miss_cost = compute.touch_runs([vpn], [0], False, 0)
        assert miss_cost > platform.config.dram_random_ps
        assert platform.stats.cache_misses == 1
        hit_cost = compute.touch_runs([vpn], [0], False, 0)
        assert hit_cost == platform.config.dram_random_ps
        assert platform.stats.cache_hits == 1

    def test_silent_upgrade_without_protocol(self, kernels):
        platform, _process, region, compute = kernels
        vpn = region.start_vpn
        compute.touch_runs([vpn], [0], False, 0)
        assert not compute.cache.peek(vpn).writable
        cost = compute.touch_runs([vpn], [0], True, 0)
        assert cost == platform.config.dram_random_ps  # no other sharer: silent upgrade
        assert compute.cache.peek(vpn).writable
        assert compute.cache.peek(vpn).dirty

    def test_sequential_batches_by_prefetch_degree(self, kernels):
        platform, _process, region, compute = kernels
        degree = platform.config.prefetch_degree
        npages = degree * 4
        compute.touch_sequential(region.start_vpn, npages, write=False)
        # One fault event per prefetch batch, all pages moved.
        assert platform.stats.cache_misses == 4
        assert platform.stats.remote_pages_in == npages

    def test_sequential_write_marks_dirty(self, kernels):
        _platform, _process, region, compute = kernels
        compute.touch_sequential(region.start_vpn, 4, write=True)
        assert set(compute.cache.dirty_vpns()) == set(
            range(region.start_vpn, region.start_vpn + 4)
        )

    def test_eviction_writes_back_dirty_pages(self, kernels):
        platform, _process, region, compute = kernels
        capacity = compute.cache.capacity_pages
        compute.touch_sequential(region.start_vpn, capacity, write=True)
        assert platform.stats.dirty_writebacks == 0
        # Overflow the cache: dirty LRU victims must be written back.
        compute.touch_sequential(region.start_vpn + capacity, capacity, write=False)
        assert platform.stats.dirty_writebacks > 0
        assert platform.stats.remote_pages_out > 0

    def test_flush_dirty_scoped(self, kernels):
        _platform, _process, region, compute = kernels
        compute.touch_sequential(region.start_vpn, 8, write=True)
        cost, count = compute.flush_dirty([region.start_vpn, region.start_vpn + 1])
        assert count == 2
        assert cost > 0
        assert len(compute.cache.dirty_vpns()) == 6

    def test_flush_dirty_nothing_to_do(self, kernels):
        _platform, _process, _region, compute = kernels
        cost, count = compute.flush_dirty()
        assert (cost, count) == (0, 0)

    def test_evict_all_clears_cache(self, kernels):
        _platform, _process, region, compute = kernels
        compute.touch_sequential(region.start_vpn, 10, write=True)
        cost = compute.evict_all()
        assert cost > 0  # dirty write-backs
        assert len(compute.cache) == 0

    def test_resident_snapshot_permissions(self, kernels):
        _platform, _process, region, compute = kernels
        compute.touch_runs([region.start_vpn], [0], False, 0)
        compute.touch_runs([region.start_vpn + 1], [0], True, 0)
        snapshot = dict(compute.resident_snapshot())
        assert snapshot[region.start_vpn] is False
        assert snapshot[region.start_vpn + 1] is True


class TestMemoryPool:
    def test_alloc_is_resident(self, kernels):
        _platform, _process, region, compute = kernels
        assert region.start_vpn in compute.pool

    def test_spill_and_fault_back(self):
        platform = make_platform(
            "ddc",
            DdcConfig(compute_cache_bytes=64 * KIB, memory_pool_bytes=1 * MIB),
        )
        process = platform.new_process()
        big = alloc_floats(process, "big", 400_000)  # 3.2 MB > 1 MiB pool
        pool = platform.kernel_for(process).pool
        # The earliest pages were displaced to storage.
        assert big.start_vpn not in pool
        cost = pool.touch(big.start_vpn)
        assert cost > 0
        assert big.start_vpn in pool
        assert platform.stats.storage_faults >= 1

    def test_free_drops_residency(self, kernels):
        _platform, process, region, compute = kernels
        process.free(region)
        assert region.start_vpn not in compute.pool

    def test_compute_fetch_triggers_recursive_fault(self):
        """Section 2.1's recursive fault: compute fault -> memory pool
        faults the page in from storage -> page flows back."""
        platform = make_platform(
            "ddc",
            DdcConfig(compute_cache_bytes=64 * KIB, memory_pool_bytes=1 * MIB),
        )
        process = platform.new_process()
        big = alloc_floats(process, "big", 400_000)
        compute = platform.kernel_for(process)
        assert big.start_vpn not in compute.pool
        cost = compute.touch_runs([big.start_vpn], [0], False, 0)
        # Paid both the storage fault and the network fault.
        assert cost > platform.config.remote_fault_ps(1) + platform.config.dram_random_ps
        assert platform.stats.storage_faults >= 1
        assert big.start_vpn in compute.cache


class _RecordingLru(OrderedDict):
    """An LRU that records every (vpn, dirty) entry it evicts."""

    def __init__(self, items):
        super().__init__(items)
        self.evicted = []

    def popitem(self, last=True):
        item = super().popitem(last)
        self.evicted.append(item)
        return item


def small_pool_platform(kind):
    """A 4-page compute cache in front of an 8-page memory pool, one page
    per fault at every level."""
    return make_platform(kind, DdcConfig(
        compute_cache_bytes=4 * PAGE, memory_pool_bytes=8 * PAGE,
        ssd_readahead_pages=1, prefetch_degree=1,
    ))


class TestMemoryPoolDirtyBit:
    """Every write that lands in memory-pool DRAM makes the page dirty
    there, so spilling it to storage costs a write-back."""

    def test_compute_writeback_is_paged_out_once(self):
        platform = small_pool_platform("ddc")
        process = platform.new_process()
        region = alloc_floats(process, "a", 32 * PAGE // 8)
        compute = platform.kernel_for(process)
        compute.pool._resident = lru = _RecordingLru(compute.pool._resident)
        page0 = region.start_vpn
        compute.touch_runs([page0], [0], True, 0)
        # Stream 24 more pages: the first few evict page 0 from the cache
        # (a dirty write-back), the rest push it out of the pool.
        compute.touch_sequential(page0 + 1, 24, write=False)
        assert page0 not in compute.cache
        assert platform.stats.dirty_writebacks == 1
        assert page0 not in compute.pool
        assert [dirty for vpn, dirty in lru.evicted if vpn == page0] == [True]

    @pytest.mark.parametrize("access", ["random", "sequential"])
    def test_memory_side_write_dirties_resident_page(self, access):
        platform = small_pool_platform("teleport")
        ctx = platform.main_context()
        process = ctx.thread.process
        region = alloc_floats(process, "a", 16 * PAGE // 8)
        compute = platform.kernel_for(process)
        # The pool kept the region's last 8 pages at allocation; fault the
        # first one in clean, then push it out of the cache.
        page = region.start_vpn
        compute.touch_runs([page], [0], False, 0)
        compute.touch_sequential(page + 1, 4, write=False)
        assert page not in compute.cache and compute.pool._resident[page] is False
        lru_order = list(compute.pool._resident)

        def write_page(mctx):
            if access == "random":
                mctx.touch_random(region, [0], write=True)
            else:
                mctx.touch_seq(region, 0, 1, write=True)

        ctx.pushdown(write_page)
        assert compute.pool._resident[page] is True
        # A memory-side touch leaves the pool's LRU order as it was.
        assert list(compute.pool._resident) == lru_order


class _CountingLru(OrderedDict):
    """An LRU that counts its ``move_to_end`` calls."""

    def __init__(self, items):
        super().__init__(items)
        self.moves = 0

    def move_to_end(self, key, last=True):
        self.moves += 1
        super().move_to_end(key, last)


@pytest.mark.parametrize("write", [False, True])
def test_uncached_stream_on_a_pool_that_never_spills_is_charged_per_run(write):
    """An 8 192-page stream through a 16-page cache, on a memory pool that
    holds the whole region, is charged as one run: at most two
    ``pages_in_ps`` calls, one pool pass (each page moved to the MRU end
    once) and no per-batch pool call."""
    platform = make_platform("ddc", DdcConfig(compute_cache_bytes=16 * PAGE))
    process = platform.new_process()
    npages = 8192
    region = alloc_floats(process, "a", npages * PAGE // 8)
    compute = platform.kernel_for(process)
    pool = compute.pool
    pool._resident = lru = _CountingLru(pool._resident)
    network = platform.network
    with mock.patch.object(network, "pages_in_ps", wraps=network.pages_in_ps) as pages_in, \
            mock.patch.object(pool, "touch_range", wraps=pool.touch_range) as touch_range, \
            mock.patch.object(pool, "touch", wraps=pool.touch) as touch:
        compute.touch_sequential(region.start_vpn, npages, write)
    assert pages_in.call_count <= 2
    assert touch_range.call_count + touch.call_count <= 1
    assert lru.moves == npages
    degree = platform.config.prefetch_degree
    assert platform.stats.cache_misses == npages // degree
    assert platform.stats.rpc_messages == 2 * (npages // degree) + (npages - 16 if write else 0)
    assert platform.stats.storage_faults == 0
