"""Tests for execution contexts: data correctness and cost shapes."""

import numpy as np
import pytest

from repro.ddc import make_platform, run_parallel
from repro.sim.config import DdcConfig
from repro.sim.units import KIB, MIB

from tests.conftest import alloc_floats


def elapsed(ctx, fn, *args):
    t0 = ctx.now
    fn(ctx, *args)
    return ctx.now - t0


class TestDataCorrectness:
    """The same application code must compute identical results everywhere."""

    @pytest.mark.parametrize("kind", ["local", "ddc", "teleport"])
    def test_load_slice_returns_data(self, kind):
        platform = make_platform(kind)
        process = platform.new_process()
        region = process.alloc_array("a", np.arange(1000, dtype=np.float64))
        ctx = platform.main_context(process)
        values = ctx.load_slice(region, 10, 20)
        assert (values == np.arange(10, 20)).all()

    @pytest.mark.parametrize("kind", ["local", "ddc", "teleport"])
    def test_store_then_load_round_trips(self, kind):
        platform = make_platform(kind)
        process = platform.new_process()
        region = process.alloc_like("a", 1000, np.float64)
        ctx = platform.main_context(process)
        ctx.store_slice(region, 100, np.full(50, 3.5))
        assert (ctx.load_slice(region, 100, 150) == 3.5).all()

    @pytest.mark.parametrize("kind", ["local", "ddc", "teleport"])
    def test_gather_scatter(self, kind):
        platform = make_platform(kind)
        process = platform.new_process()
        region = process.alloc_array("a", np.arange(1000, dtype=np.int64))
        ctx = platform.main_context(process)
        idx = np.array([5, 500, 999])
        assert (ctx.gather(region, idx) == idx).all()
        ctx.scatter(region, idx, np.array([-1, -2, -3]))
        assert region.array[5] == -1
        assert region.array[999] == -3

    @pytest.mark.parametrize("kind", ["local", "ddc", "teleport"])
    def test_load_at_store_at(self, kind):
        platform = make_platform(kind)
        process = platform.new_process()
        region = process.alloc_array("a", np.zeros(100, dtype=np.float64))
        ctx = platform.main_context(process)
        ctx.store_at(region, 42, 7.0)
        assert ctx.load_at(region, 42) == 7.0


class TestCostShapes:
    """The relative costs that drive every figure in the paper."""

    @pytest.mark.parametrize("kind", ["local", "ddc", "teleport"])
    def test_numpy_slice_bounds_cost_as_python_ints(self, kind):
        """Bounds computed with numpy (CSR offsets, split cursors) charge
        the same integer time as Python ints."""
        times = []
        for lo, hi in [(10, 90_000), (np.int64(10), np.int64(90_000))]:
            platform = make_platform(kind, DdcConfig(compute_cache_bytes=64 * KIB))
            process = platform.new_process()
            region = alloc_floats(process, "a", 100_000)
            ctx = platform.main_context(process)
            ctx.load_slice(region, lo, hi)
            ctx.store_slice(region, lo, np.ones(3))
            times.append(ctx.now)
        assert type(times[1]) is int
        assert times[0] == times[1]

    def test_ddc_scan_slower_than_local(self):
        config = DdcConfig(compute_cache_bytes=256 * KIB)
        costs = {}
        for kind in ("local", "ddc"):
            platform = make_platform(kind, config)
            process = platform.new_process()
            region = alloc_floats(process, "a", 1_000_000)  # 8 MB >> cache
            ctx = platform.main_context(process)
            costs[kind] = elapsed(ctx, lambda c: c.touch_seq(region, 0, len(region)))
        assert 2 < costs["ddc"] / costs["local"] < 20

    def test_ddc_random_much_slower_than_local(self):
        config = DdcConfig(compute_cache_bytes=256 * KIB)
        rng = np.random.default_rng(3)
        costs = {}
        for kind in ("local", "ddc"):
            platform = make_platform(kind, config)
            process = platform.new_process()
            region = alloc_floats(process, "a", 1_000_000)
            ctx = platform.main_context(process)
            idx = rng.integers(0, 1_000_000, size=5000)
            costs[kind] = elapsed(ctx, lambda c: c.touch_random(region, idx))
        assert costs["ddc"] / costs["local"] > 20

    def test_cache_hits_make_reruns_cheap(self):
        config = DdcConfig(compute_cache_bytes=16 * MIB)  # fits working set
        platform = make_platform("ddc", config)
        process = platform.new_process()
        region = alloc_floats(process, "a", 1_000_000)
        ctx = platform.main_context(process)
        cold = elapsed(ctx, lambda c: c.touch_seq(region, 0, len(region)))
        warm = elapsed(ctx, lambda c: c.touch_seq(region, 0, len(region)))
        assert warm < cold / 3

    def test_compute_charges_scale_with_clock(self):
        fast = make_platform("ddc", DdcConfig(compute_clock_ghz=4.2))
        slow = make_platform("ddc", DdcConfig(compute_clock_ghz=2.1))
        fast_ctx = fast.main_context()
        slow_ctx = slow.main_context()
        fast_ctx.compute(1_000_000)
        slow_ctx.compute(1_000_000)
        assert slow_ctx.now == pytest.approx(2 * fast_ctx.now)

    def test_compute_zero_or_negative_is_free(self):
        ctx = make_platform("ddc").main_context()
        ctx.compute(0)
        ctx.compute(-5)
        assert ctx.now == 0.0

    def test_local_spill_to_ssd_slower_than_ram(self):
        big = DdcConfig(local_ram_bytes=64 * MIB)
        small = DdcConfig(local_ram_bytes=1 * MIB)
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 2_000_000, size=3000)
        costs = {}
        for name, config in [("ram", big), ("spill", small)]:
            platform = make_platform("local", config)
            process = platform.new_process()
            region = alloc_floats(process, "a", 2_000_000)  # 16 MB
            ctx = platform.main_context(process)
            costs[name] = elapsed(ctx, lambda c: c.touch_random(region, idx))
        assert costs["spill"] / costs["ram"] > 50

    def test_dirty_eviction_charges_writeback(self):
        config = DdcConfig(compute_cache_bytes=64 * KIB)
        read_platform = make_platform("ddc", config)
        write_platform = make_platform("ddc", config)
        costs = {}
        for name, platform, write in [
            ("read", read_platform, False),
            ("write", write_platform, True),
        ]:
            process = platform.new_process()
            region = alloc_floats(process, "a", 200_000)
            ctx = platform.main_context(process)
            # Two passes: the second pass of the write case must evict
            # dirty pages from the first.
            ctx.touch_seq(region, 0, len(region), write=write)
            costs[name] = elapsed(
                ctx, lambda c: c.touch_seq(region, 0, len(region), write=write)
            )
        assert costs["write"] > costs["read"]
        assert write_platform.stats.dirty_writebacks > 0


class TestParallel:
    def test_run_parallel_joins_on_slowest(self):
        platform = make_platform("ddc")
        ctx = platform.main_context()

        def task_fast(c):
            c.compute(1000)
            return "fast"

        def task_slow(c):
            c.compute(100_000)
            return "slow"

        results = run_parallel(ctx, [task_fast, task_slow])
        assert results == ["fast", "slow"]
        assert ctx.now == platform.config.cpu_ps(100_000)

    def test_run_parallel_children_start_at_parent_time(self):
        platform = make_platform("ddc")
        ctx = platform.main_context()
        ctx.compute(5000)
        start = ctx.now
        seen = []

        def task(c):
            seen.append(c.now)

        run_parallel(ctx, [task, task])
        assert seen == [start, start]


class TestSyncmem:
    def test_syncmem_flushes_dirty_pages(self):
        config = DdcConfig(compute_cache_bytes=1 * MIB)
        platform = make_platform("teleport", config)
        process = platform.new_process()
        region = alloc_floats(process, "a", 10_000)
        ctx = platform.main_context(process)
        ctx.touch_seq(region, 0, len(region), write=True)
        compute = platform.kernel_for(process)
        assert compute.cache.dirty_vpns()
        ctx.syncmem()
        assert not compute.cache.dirty_vpns()
        assert platform.stats.syncmem_calls == 1

    def test_syncmem_scoped_to_regions(self):
        config = DdcConfig(compute_cache_bytes=4 * MIB)
        platform = make_platform("teleport", config)
        process = platform.new_process()
        a = alloc_floats(process, "a", 10_000)
        b = alloc_floats(process, "b", 10_000, seed=9)
        ctx = platform.main_context(process)
        ctx.touch_seq(a, 0, len(a), write=True)
        ctx.touch_seq(b, 0, len(b), write=True)
        ctx.syncmem([a])
        compute = platform.kernel_for(process)
        dirty = set(compute.cache.dirty_vpns())
        assert not dirty.intersection(set(a.all_vpns()))
        assert dirty.intersection(set(b.all_vpns()))

    def test_syncmem_noop_on_local(self):
        platform = make_platform("local")
        ctx = platform.main_context()
        ctx.syncmem()
        assert platform.stats.syncmem_calls == 0
