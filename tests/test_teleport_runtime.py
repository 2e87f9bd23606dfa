"""Tests for the pushdown syscall end to end (Section 3.2)."""

from unittest import mock

import numpy as np
import pytest

from repro.ddc import Pool, make_platform, run_parallel
from repro.sim.config import DdcConfig
from repro.sim.units import KIB, MIB, to_ns
from repro.teleport.flags import ConsistencyMode, SyncMethod

from tests.conftest import alloc_floats


@pytest.fixture
def env():
    platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
    process = platform.new_process()
    region = alloc_floats(process, "data", 1_000_000)
    ctx = platform.main_context(process)
    return platform, process, region, ctx


def scan_sum(mctx, region):
    values = mctx.load_slice(region)
    mctx.compute(len(values))
    return float(values.sum())


class TestBasicSemantics:
    def test_pushdown_returns_function_result(self, env):
        _platform, _process, region, ctx = env
        result = ctx.pushdown(scan_sum, region)
        assert result == pytest.approx(float(region.array.sum()))

    def test_pushdown_blocks_the_caller(self, env):
        _platform, _process, region, ctx = env
        before = ctx.now
        ctx.pushdown(scan_sum, region)
        assert ctx.now > before

    def test_pushed_function_runs_in_memory_pool(self, env):
        _platform, _process, region, ctx = env
        pools = []
        ctx.pushdown(lambda mctx: pools.append(mctx.pool))
        assert pools == [Pool.MEMORY]

    def test_pushdown_counts_in_stats(self, env):
        platform, _process, region, ctx = env
        ctx.pushdown(scan_sum, region)
        ctx.pushdown(scan_sum, region)
        assert platform.stats.pushdown_calls == 2

    def test_pushdown_records_breakdown(self, env):
        platform, _process, region, ctx = env
        ctx.pushdown(scan_sum, region)
        assert len(platform.teleport.breakdowns) == 1
        breakdown = platform.teleport.breakdowns[0]
        assert breakdown.function_ns > 0
        assert breakdown.request_ns > 0
        assert breakdown.response_ns > 0
        assert breakdown.context_setup_ns > 0

    def test_memory_side_writes_are_visible_after_return(self, env):
        _platform, process, region, ctx = env

        def double_first_page(mctx, r):
            values = mctx.load_slice(r, 0, 512)
            mctx.store_slice(r, 0, values * 2)

        original = region.array[:512].copy()
        ctx.pushdown(double_first_page, region)
        read_back = ctx.load_slice(region, 0, 512)
        assert (read_back == original * 2).all()

    def test_pushdown_faster_than_compute_side_for_memory_bound_scan(self, env):
        platform, process, region, ctx = env
        t0 = ctx.now
        pushed = ctx.pushdown(scan_sum, region)
        pushdown_time = ctx.now - t0
        # Same work executed from the compute pool on a fresh platform.
        base = make_platform("ddc", platform.config)
        base_process = base.new_process()
        base_region = alloc_floats(base_process, "data", 1_000_000)
        base_ctx = base.main_context(base_process)
        local = scan_sum(base_ctx, base_region)
        assert pushed == pytest.approx(local)
        assert pushdown_time < base_ctx.now

    def test_arguments_are_passed_through(self, env):
        _platform, _process, region, ctx = env

        def fn(mctx, a, b, c):
            return (a, b, c)

        assert ctx.pushdown(fn, 1, "two", [3]) == (1, "two", [3])

    def test_non_teleport_platform_runs_inline(self):
        platform = make_platform("ddc")
        process = platform.new_process()
        region = alloc_floats(process, "data", 10_000)
        ctx = platform.main_context(process)
        result = ctx.pushdown(scan_sum, region)
        assert result == pytest.approx(float(region.array.sum()))
        assert platform.stats.pushdown_calls == 0


class TestTimeAccounting:
    def test_breakdown_components_sum_to_caller_elapsed(self, env):
        """Conservation of simulated time: the caller's elapsed time for a
        pushdown equals the sum of the breakdown's components."""
        platform, _process, region, ctx = env
        ctx.touch_seq(region, 0, 200_000, write=True)  # warm, dirty cache
        before = ctx.now
        ctx.pushdown(scan_sum, region)
        elapsed = ctx.now - before
        breakdown = platform.teleport.breakdowns[-1]
        assert breakdown.total_ns == pytest.approx(to_ns(elapsed), rel=1e-9)

    def test_breakdown_sums_for_eager_sync(self, env):
        platform, _process, region, ctx = env
        ctx.touch_seq(region, 0, 200_000, write=True)
        before = ctx.now
        ctx.pushdown(scan_sum, region, sync=SyncMethod.EAGER)
        elapsed = ctx.now - before
        breakdown = platform.teleport.breakdowns[-1]
        assert breakdown.total_ns == pytest.approx(to_ns(elapsed), rel=1e-9)

    def test_memory_thread_never_precedes_caller(self, env):
        _platform, _process, region, ctx = env
        call_time = ctx.now
        starts = []
        ctx.pushdown(lambda mctx: starts.append(mctx.now))
        assert starts[0] >= call_time


class TestCoherenceDuringPushdown:
    def test_dirty_compute_pages_reach_the_function(self, env):
        """Divergence point (1) of Section 4: pre-pushdown dirty data."""
        _platform, _process, region, ctx = env
        # Write from the compute pool: pages are dirty in the cache only.
        ctx.store_slice(region, 0, np.full(512, 99.0))

        def read_first(mctx, r):
            return float(mctx.load_slice(r, 0, 512)[0])

        assert ctx.pushdown(read_first, region) == 99.0

    def test_stale_compute_cache_invalidated_by_memory_writes(self, env):
        """Divergence point (2): compute cache stale after pushdown."""
        platform, process, region, ctx = env
        ctx.load_slice(region, 0, 512)  # cache the first page
        compute = platform.kernel_for(process)
        vpn = region.start_vpn
        assert vpn in compute.cache

        def overwrite(mctx, r):
            mctx.store_slice(r, 0, np.full(512, -1.0))

        ctx.pushdown(overwrite, region)
        # The memory-side write invalidated the cached copy, so the next
        # compute read refetches fresh data.
        assert vpn not in compute.cache
        assert (ctx.load_slice(region, 0, 512) == -1.0).all()

    def test_invariant_checked_during_execution(self, env):
        platform, process, region, ctx = env

        def touch_everything(mctx, r):
            mctx.load_slice(r, 0, 10_000)
            mctx.store_slice(r, 0, np.zeros(512))
            mctx.pager.check_swmr()

        ctx.load_slice(region, 0, 50_000)
        ctx.store_slice(region, 0, np.ones(2048))
        ctx.pushdown(touch_everything, region)


class TestSyncMethods:
    def test_eager_sync_slower_than_on_demand(self, env):
        """Figure 20: eager is an order of magnitude more expensive."""
        platform, process, region, ctx = env
        ctx.touch_seq(region, 0, 200_000, write=True)  # populate + dirty cache
        t0 = ctx.now
        ctx.pushdown(lambda mctx: None, sync=SyncMethod.ON_DEMAND)
        on_demand = ctx.now - t0

        ctx.touch_seq(region, 0, 200_000, write=True)
        t0 = ctx.now
        ctx.pushdown(lambda mctx: None, sync=SyncMethod.EAGER)
        eager = ctx.now - t0
        assert eager > 5 * on_demand

    def test_eager_clears_then_restores_cache(self, env):
        platform, process, region, ctx = env
        ctx.touch_seq(region, 0, 100_000)
        compute = platform.kernel_for(process)
        resident_before = len(compute.cache)
        assert resident_before > 0
        ctx.pushdown(lambda mctx: None, sync=SyncMethod.EAGER)
        # Post-pushdown the strawman refetched everything page by page.
        assert len(compute.cache) == resident_before

    def test_eager_pre_sync_is_one_batched_flush(self, env):
        """Eager pre-sync writes the dirty pages back in one batched
        transfer; dropping the then-clean cache adds no cost."""
        platform, process, region, ctx = env
        ctx.touch_seq(region, 0, 100_000, write=True)
        ctx.touch_seq(region, 100_000, 150_000, write=False)
        compute = platform.kernel_for(process)
        dirty, resident = len(compute.cache.dirty_vpns()), len(compute.cache)
        assert 0 < dirty < resident
        flushes = []
        flush = compute.flush_dirty

        def spy_flush(vpns=None):
            flushes.append((vpns, flush(vpns)))
            return flushes[-1][1]

        writebacks, evictions = platform.stats.dirty_writebacks, platform.stats.cache_evictions
        network = compute.network
        with mock.patch.object(compute, "flush_dirty", side_effect=spy_flush), \
                mock.patch.object(network, "pages_out_ps", wraps=network.pages_out_ps) as out:
            ctx.pushdown(lambda mctx: None, sync=SyncMethod.EAGER)
        [(vpns, (cost, count))] = flushes
        assert (vpns, count) == (None, dirty)
        assert out.call_args_list == [mock.call(dirty, batch=dirty)]
        assert platform.teleport.breakdowns[-1].pre_sync_ns == to_ns(cost)
        assert platform.stats.dirty_writebacks - writebacks == dirty
        assert platform.stats.cache_evictions - evictions == resident
        assert compute.evict_all() == 0  # the refetched cache is clean

    def test_eager_regions_evicts_only_those_regions(self, env):
        platform, process, region, ctx = env
        other = alloc_floats(process, "other", 50_000, seed=11)
        ctx.touch_seq(region, 0, 60_000, write=True)
        ctx.touch_seq(other, 0, 50_000, write=True)
        compute = platform.kernel_for(process)
        ctx.pushdown(
            lambda mctx: None, sync=SyncMethod.EAGER_REGIONS, sync_regions=[other]
        )
        cached = {vpn for vpn, _entry in compute.cache.resident_items()}
        assert not cached.intersection(set(other.all_vpns()))
        assert cached.intersection(set(region.all_vpns()))

    def test_breakdown_distinguishes_methods(self, env):
        platform, _process, region, ctx = env
        ctx.touch_seq(region, 0, 100_000, write=True)
        ctx.pushdown(lambda mctx: None, sync=SyncMethod.EAGER)
        eager = platform.teleport.breakdowns[-1]
        assert eager.pre_sync_ns > 0
        assert eager.post_sync_ns > 0
        ctx.touch_seq(region, 0, 100_000, write=True)
        ctx.pushdown(lambda mctx: None, sync=SyncMethod.ON_DEMAND)
        on_demand = platform.teleport.breakdowns[-1]
        assert on_demand.pre_sync_ns == 0.0
        assert on_demand.post_sync_ns == 0.0
        assert on_demand.context_setup_ns > eager.context_setup_ns


class TestConsistencyFlags:
    def test_weak_mode_defers_to_boundary_sync(self, env):
        platform, process, region, ctx = env
        ctx.load_slice(region, 0, 100_000)

        def writer(mctx, r):
            mctx.store_slice(r, 0, np.zeros(512))

        ctx.pushdown(writer, region, consistency=ConsistencyMode.WEAK)
        # No per-access traffic — only the constant end-of-pushdown
        # boundary exchange that propagates the memory side's writes.
        assert platform.stats.coherence_messages == 2
        assert platform.stats.coherence_invalidations >= 1
        # The stale compute copy was dropped, so the next read refetches
        # (and sees) the memory side's data.
        compute = platform.kernel_for(process)
        assert region.start_vpn not in compute.cache
        assert (ctx.load_slice(region, 0, 512) == 0).all()

    @pytest.mark.parametrize("mode", [ConsistencyMode.WEAK, ConsistencyMode.PSO])
    def test_boundary_sync_ignores_pages_dirtied_by_earlier_pushdowns(self, env, mode):
        # A page only an earlier pushdown dirtied, refetched fresh by the
        # compute pool, is not stale for a pushdown that writes nothing.
        platform, process, region, ctx = env
        vpn = region.start_vpn

        def writer(mctx, r):
            mctx.store_at(r, 0, 1.0)

        def idle(mctx):
            return None

        ctx.pushdown(writer, region, consistency=mode)
        assert ctx.load_at(region, 0) == 1.0  # refetch a read-only copy
        compute = platform.kernel_for(process)
        assert vpn in compute.cache
        invalidations = platform.stats.coherence_invalidations
        messages = platform.stats.coherence_messages

        ctx.pushdown(idle, consistency=mode)
        assert platform.teleport.breakdowns[-1].post_sync_ns == 0.0
        assert vpn in compute.cache
        assert platform.stats.coherence_invalidations == invalidations
        assert platform.stats.coherence_messages == messages

    def test_default_mode_generates_coherence_traffic(self, env):
        platform, process, region, ctx = env
        ctx.store_slice(region, 0, np.zeros(100_000))

        def writer(mctx, r):
            mctx.store_slice(r, 0, np.ones(512))

        ctx.pushdown(writer, region)
        assert platform.stats.coherence_messages > 0


class TestConcurrentPushdown:
    def test_single_instance_serialises_requests(self):
        config = DdcConfig(compute_cache_bytes=1 * MIB, teleport_instances=1)
        platform = make_platform("teleport", config)
        process = platform.new_process()
        region = alloc_floats(process, "data", 400_000)
        parent = platform.main_context(process)

        quarter = len(region) // 4

        def make_task(part):
            def task(ctx):
                lo = part * quarter
                return ctx.pushdown(
                    lambda mctx: float(mctx.load_slice(region, lo, lo + quarter).sum())
                )
            return task

        results = run_parallel(parent, [make_task(i) for i in range(4)])
        assert sum(results) == pytest.approx(float(region.array.sum()))
        # Serialised: total time ~ 4x one pushdown, so the last breakdown
        # shows queueing.
        waits = [b.queue_wait_ns for b in platform.teleport.breakdowns]
        assert max(waits) > 0

    def test_multiple_instances_reduce_makespan(self):
        def run_with(instances):
            config = DdcConfig(
                compute_cache_bytes=1 * MIB,
                teleport_instances=instances,
                memory_pool_cores=2,
            )
            platform = make_platform("teleport", config)
            process = platform.new_process()
            region = alloc_floats(process, "data", 400_000)
            parent = platform.main_context(process)
            quarter = len(region) // 8

            def make_task(part):
                def task(ctx):
                    lo = part * quarter
                    return ctx.pushdown(
                        lambda mctx: float(
                            mctx.load_slice(region, lo, lo + quarter).sum()
                        )
                    )
                return task

            run_parallel(parent, [make_task(i) for i in range(8)])
            return parent.now

        serial = run_with(1)
        dual = run_with(2)
        assert dual < serial
