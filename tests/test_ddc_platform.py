"""Tests for platform construction, processes, and allocation hooks."""

import numpy as np
import pytest

from repro.ddc import DdcPlatform, LocalPlatform, Pool, TeleportPlatform, make_platform
from repro.errors import AllocationError, ConfigError
from repro.sim.config import DdcConfig
from repro.teleport.coherence import CoherenceProtocol


def test_factory_builds_each_kind():
    assert isinstance(make_platform("local"), LocalPlatform)
    assert isinstance(make_platform("ddc"), DdcPlatform)
    assert isinstance(make_platform("teleport"), TeleportPlatform)


def test_factory_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        make_platform("mainframe")


def test_teleport_is_a_ddc_platform():
    platform = make_platform("teleport")
    assert isinstance(platform, DdcPlatform)
    assert platform.teleport is not None


def test_thread_pools_per_platform():
    for kind, pool in [("local", Pool.LOCAL), ("ddc", Pool.COMPUTE), ("teleport", Pool.COMPUTE)]:
        platform = make_platform(kind)
        process = platform.new_process()
        thread = platform.spawn_thread(process)
        assert thread.pool is pool


def test_processes_have_distinct_pids():
    platform = make_platform("ddc")
    a = platform.new_process()
    b = platform.new_process()
    assert a.pid != b.pid


def test_alloc_on_ddc_is_memory_pool_resident():
    platform = make_platform("ddc")
    process = platform.new_process()
    region = process.alloc_array("a", np.zeros(4096, dtype=np.float64))
    pool = platform.kernel_for(process).pool
    assert all(vpn in pool for vpn in region.all_vpns())


def test_alloc_on_local_is_ram_resident():
    platform = make_platform("local")
    process = platform.new_process()
    region = process.alloc_array("a", np.zeros(4096, dtype=np.float64))
    assert all(vpn in platform.swap for vpn in region.all_vpns())


def test_kernels_are_per_process_and_cached():
    platform = make_platform("ddc")
    a = platform.new_process()
    b = platform.new_process()
    assert platform.kernel_for(a) is platform.kernel_for(a)
    assert platform.kernel_for(a) is not platform.kernel_for(b)


def test_each_placement_pages_through_one_pager():
    local = make_platform("local")
    assert local.main_context().pager is local.swap
    teleport = make_platform("teleport")
    ctx = teleport.main_context()
    assert ctx.pager is teleport.kernel_for(ctx.thread.process)
    assert isinstance(ctx.pushdown(lambda mctx: mctx.pager), CoherenceProtocol)


def test_main_context_spawns_thread():
    platform = make_platform("ddc")
    ctx = platform.main_context()
    assert ctx.now == 0.0
    assert ctx.pool is Pool.COMPUTE


def test_platform_uses_given_config():
    config = DdcConfig(memory_clock_ghz=0.7)
    platform = make_platform("teleport", config)
    assert platform.config.memory_clock_ghz == pytest.approx(0.7)


def test_free_releases_region():
    platform = make_platform("ddc")
    process = platform.new_process()
    region = process.alloc("tmp", 8192)
    process.free(region)
    assert "tmp" not in process.address_space.regions


def test_freeing_a_stale_handle_leaves_the_live_region_alone():
    platform = make_platform("ddc")
    process = platform.new_process()
    space = process.address_space
    stale = process.alloc("a", 8192)
    process.free(stale)
    live = process.alloc("a", 8192)
    with pytest.raises(AllocationError):
        process.free(stale)
    assert space.regions["a"] is live
    assert space.full_table.snapshot().maps(live.start_vpn, live.end_vpn - 1)
    assert live.start_vpn in platform.kernel_for(process).pool


def test_processes_on_one_local_platform_keep_their_own_swap_pages():
    page = 4096
    platform = make_platform("local", DdcConfig(local_ram_bytes=64 * page))
    proc_a, proc_b = platform.new_process(), platform.new_process()
    region_a = proc_a.alloc("a", 32 * page)
    region_b = proc_b.alloc("b", 32 * page)
    assert set(region_a.all_vpns()).isdisjoint(region_b.all_vpns())
    assert platform.swap.resident_pages == 64
    ctx_b = platform.main_context(proc_b)
    proc_a.free(region_a)
    ctx_b.touch_random(region_b, [5 * page])
    assert platform.stats.storage_faults == 0
