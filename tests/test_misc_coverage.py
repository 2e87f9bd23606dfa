"""Edge-case coverage across modules: options objects, frees, reprs."""

import pytest

from repro.ddc import make_platform
from repro.errors import AccessError, AllocationError
from repro.graph import GraphEngine, social_graph
from repro.sim.config import DdcConfig
from repro.sim.units import KIB, MIB
from repro.teleport.flags import ConsistencyMode, PushdownOptions, SyncMethod

from tests.conftest import alloc_floats


class TestPushdownOptions:
    def test_default_instance_frozen(self):
        assert PushdownOptions.DEFAULT.consistency is ConsistencyMode.MESI
        assert PushdownOptions.DEFAULT.sync is SyncMethod.ON_DEMAND
        with pytest.raises(AttributeError):
            PushdownOptions.DEFAULT.timeout_ns = 5

    def test_options_object_passed_whole(self):
        platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
        process = platform.new_process()
        region = alloc_floats(process, "a", 10_000)
        ctx = platform.main_context(process)
        options = PushdownOptions(consistency=ConsistencyMode.WEAK)
        result = ctx.pushdown(
            lambda mctx: float(mctx.load_slice(region).sum()), options=options
        )
        assert result == pytest.approx(float(region.array.sum()))

    def test_kwargs_build_options(self):
        platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
        ctx = platform.main_context()
        ctx.pushdown(lambda mctx: None, sync=SyncMethod.EAGER)
        breakdown = platform.teleport.breakdowns[-1]
        # Empty cache: eager sync has nothing to flush or refetch.
        assert breakdown.post_sync_ns == 0.0


class TestRegionLifecycle:
    def test_use_after_free_faults_loudly(self):
        platform = make_platform("ddc", DdcConfig(compute_cache_bytes=64 * KIB))
        process = platform.new_process()
        region = alloc_floats(process, "a", 10_000)
        ctx = platform.main_context(process)
        process.free(region)
        with pytest.raises(AllocationError):
            process.free(region)
        # The region handle still works for numpy access but new regions
        # never reuse its pages (guard against aliasing).
        other = alloc_floats(process, "b", 10_000, seed=3)
        assert other.start_vpn >= region.end_vpn

    def test_out_of_bounds_access_raises(self):
        platform = make_platform("local")
        process = platform.new_process()
        region = alloc_floats(process, "a", 100)
        ctx = platform.main_context(process)
        with pytest.raises(AccessError):
            ctx.load_at(region, 100)
        with pytest.raises(AccessError):
            ctx.load_slice(region, 0, 101)


class TestGraphExtras:
    def test_engine_reprs_are_informative(self):
        src, dst, weight = social_graph(100, avg_degree=4, seed=79)
        platform = make_platform("local")
        engine = GraphEngine(platform.main_context(), 100, src, dst, weight)
        engine.finalize()
        assert "finalize" in repr(engine.profiles["finalize"].name)


class TestReprs:
    """__repr__ must never raise and should carry the key facts."""

    def test_core_reprs(self):
        platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
        process = platform.new_process()
        region = alloc_floats(process, "a", 1000)
        ctx = platform.main_context(process)
        texts = [repr(process), repr(region), repr(ctx), repr(ctx.thread)]
        assert any("Process" in text for text in texts)
        assert any("Region" in text for text in texts)
        compute = platform.kernel_for(process)
        assert "PageCache" in repr(compute.cache)
