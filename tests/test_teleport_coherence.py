"""Tests for the coherence protocol (paper Figures 8 and 9)."""

import numpy as np
import pytest

from repro.ddc import Pool, make_platform
from repro.ddc.context import ExecutionContext
from repro.ddc.thread import SimThread
from repro.sim.config import DdcConfig
from repro.sim.units import KIB, MIB, to_ps
from repro.teleport.coherence import CoherenceProtocol
from repro.teleport.flags import ConsistencyMode

PAGE_ELEMENTS = 4 * KIB // 8


@pytest.fixture
def env():
    platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
    process = platform.new_process()
    region = process.alloc_array("data", np.zeros(100_000, dtype=np.float64))
    return platform, process, region


def make_protocol(platform, process, mode=ConsistencyMode.MESI):
    return CoherenceProtocol(platform, process, mode)


class TestSetup:
    """Figure 8: temporary-context page table construction."""

    def test_snapshot_covers_full_table(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        protocol.setup([])
        assert protocol.t_mm.maps(region.start_vpn, region.end_vpn - 1)
        assert protocol.t_mm.peek(region.end_vpn) is None

    def test_writable_compute_pages_removed_from_t_mm(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        vpn = region.start_vpn
        protocol.setup([(vpn, True)])
        pte = protocol.t_mm.get(vpn)
        assert not pte.present

    def test_read_only_compute_pages_downgraded_in_t_mm(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        vpn = region.start_vpn
        protocol.setup([(vpn, False)])
        pte = protocol.t_mm.get(vpn)
        assert pte.present
        assert not pte.writable

    def test_absent_pages_stay_fully_mapped(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        protocol.setup([(region.start_vpn, True)])
        other = protocol.t_mm.get(region.start_vpn + 1)
        assert other.present and other.writable

    def test_setup_cost_scales_with_resident_list(self, env):
        platform, process, region = env
        small = make_protocol(platform, process).setup([(region.start_vpn, True)])
        resident = [(vpn, False) for vpn in list(region.all_vpns())[:50]]
        large = make_protocol(platform, process).setup(resident)
        assert large > small

    def test_setup_invariant_holds(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        # Populate the cache with a mix of permissions.
        compute.cache.insert(region.start_vpn, writable=True, dirty=True)
        compute.cache.insert(region.start_vpn + 1, writable=False)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        protocol.check_swmr()


class TestSnapshot:
    """``t_mm`` is the full table as of setup, copied on access."""

    def test_region_allocated_during_pushdown_is_unmapped(self, env):
        platform, process, _region = env
        protocol = make_protocol(platform, process)
        protocol.setup([])
        late = process.alloc_array("late", np.zeros(1024, dtype=np.float64))
        assert protocol.t_mm.peek(late.start_vpn) is None
        assert protocol.t_mm.get(late.start_vpn) is None
        assert protocol.state_of(late.start_vpn) == ("0", "0")

    @pytest.mark.parametrize("write", [False, True])
    def test_batch_matches_per_head_touches_on_a_late_region(self, write):
        # touch_runs serves a head inline only if t_mm mapped it at setup; a
        # region allocated during the pushdown takes memory_touch, which maps
        # its pages in t_mm.
        def play(touch):
            platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
            process = platform.new_process()
            early = process.alloc_array("early", np.zeros(4 * PAGE_ELEMENTS))
            protocol = make_protocol(platform, process)
            protocol.setup([])
            late = process.alloc_array("late", np.zeros(4 * PAGE_ELEMENTS))
            batches = [[late.start_vpn + 2, late.start_vpn], [early.start_vpn + 1]]
            costs = [touch(platform, protocol, heads) for heads in batches]
            owned = sorted(
                (vpn - late.start_vpn, pte.present, pte.writable, pte.dirty)
                for vpn, pte in protocol.t_mm.owned_entries()
            )
            return costs, owned

        batch = play(lambda _platform, protocol, heads: protocol.touch_runs(
            heads, [0] * len(heads), write, 0
        ))
        per_head = play(lambda platform, protocol, heads: sum(
            protocol.memory_touch(vpn, write, 0) + platform.config.dram_random_ps
            for vpn in heads
        ))
        assert batch == per_head
        assert [offset for offset, *_flags in batch[1]][-2:] == [0, 2]

    def test_region_freed_during_pushdown_stays_mapped(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        protocol.setup([])
        process.free(region)
        assert process.address_space.full_table.snapshot().peek(region.start_vpn) is None
        assert protocol.t_mm.maps(region.start_vpn, region.end_vpn - 1)
        assert protocol.t_mm.get(region.start_vpn).present
        assert protocol.state_of(region.start_vpn) == ("0", "W")

    def test_read_only_checks_copy_nothing(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        for offset in range(4):
            compute.cache.insert(region.start_vpn + offset, writable=offset % 2 == 0)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        owned = len(protocol.t_mm.owned_entries())
        protocol.check_swmr()
        for offset in range(8):
            protocol.check_swmr(region.start_vpn + offset)
            protocol.state_of(region.start_vpn + offset)
        assert len(protocol.t_mm.owned_entries()) == owned

    def test_setup_copies_only_resident_pages(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        compute.cache.insert(region.start_vpn, writable=True)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        assert [vpn for vpn, _pte in protocol.t_mm.owned_entries()] == [region.start_vpn]

    def test_owned_copies_start_clean(self, env):
        platform, process, region = env
        vpn = region.start_vpn
        protocol = make_protocol(platform, process)
        protocol.setup([])
        protocol.memory_touch(vpn, write=True, now=0)
        protocol.finish()
        # A page an earlier pushdown dirtied is clean in the next t_mm.
        protocol.setup([(vpn, False)])
        assert not protocol.t_mm.get(vpn).dirty
        protocol.finish()


class TestMemoryTouch:
    """Figure 9 lines 11-25: memory-side faults during pushdown."""

    def test_read_of_unshared_page_is_free(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        protocol.setup([])
        cost = protocol.memory_touch(region.start_vpn, write=False, now=0)
        assert cost == 0
        assert platform.stats.coherence_messages == 0

    def test_write_to_compute_writable_page_invalidates(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=True, dirty=True)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        cost = protocol.memory_touch(vpn, write=True, now=0)
        assert cost > 0
        assert vpn not in compute.cache
        assert platform.stats.coherence_invalidations == 1
        assert protocol.t_mm.get(vpn).writable
        protocol.check_swmr()

    def test_read_of_compute_writable_page_downgrades(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=True, dirty=True)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        cost = protocol.memory_touch(vpn, write=False, now=0)
        assert cost > 0
        entry = compute.cache.peek(vpn)
        assert entry is not None and not entry.writable
        assert platform.stats.coherence_downgrades >= 1
        pte = protocol.t_mm.get(vpn)
        assert pte.present and not pte.writable
        protocol.check_swmr()

    def test_upgrade_of_shared_read_page(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=False)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        # (R, R) -> memory wants W: compute copy must be invalidated.
        protocol.memory_touch(vpn, write=True, now=0)
        assert vpn not in compute.cache
        assert protocol.t_mm.get(vpn).writable
        protocol.check_swmr()

    def test_compute_evicted_page_regained_silently(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=True)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        compute.cache.invalidate(vpn)
        protocol.on_compute_evict(vpn)
        messages_before = platform.stats.coherence_messages
        cost = protocol.memory_touch(vpn, write=True, now=0)
        assert cost == 0
        assert platform.stats.coherence_messages == messages_before

    def test_spilled_page_is_true_fault_to_storage(self, env):
        platform, process, _region = env
        # A fresh region beyond the memory pool capacity.
        tiny = make_platform(
            "teleport",
            DdcConfig(compute_cache_bytes=1 * MIB, memory_pool_bytes=1 * MIB),
        )
        process = tiny.new_process()
        big = process.alloc_array("big", np.zeros(1_000_000, dtype=np.float64))
        protocol = make_protocol(tiny, process)
        protocol.setup([])
        # The first pages of the region were evicted to storage by later
        # allocation; touching them is a true fault (no coherence traffic).
        cost = protocol.memory_touch(big.start_vpn, write=False, now=0)
        assert cost > 0
        assert tiny.stats.storage_faults >= 1
        assert tiny.stats.coherence_messages == 0

    @pytest.mark.parametrize("write", [False, True])
    def test_spilled_page_cached_by_compute_keeps_swmr(self, write):
        """The memory pool spilled a page the compute pool caches writable.
        A memory-side touch faults it in from storage and still runs the
        coherence exchange: the compute copy is downgraded (read) or
        invalidated (write), so the page is never writable on both sides."""
        tiny = make_platform(
            "teleport",
            DdcConfig(compute_cache_bytes=1 * MIB, memory_pool_bytes=1 * MIB),
        )
        process = tiny.new_process()
        big = process.alloc_array("big", np.zeros(1_000_000, dtype=np.float64))
        compute = tiny.kernel_for(process)
        vpn = big.start_vpn
        assert vpn not in compute.pool
        compute.cache.insert(vpn, writable=True, dirty=True)
        protocol = make_protocol(tiny, process)
        protocol.setup(compute.resident_snapshot())
        protocol.memory_touch(vpn, write=write, now=0)
        protocol.check_swmr()
        assert tiny.stats.storage_faults >= 1
        assert tiny.stats.coherence_messages == 2
        assert protocol.state_of(vpn) == (("0", "W") if write else ("R", "R"))

    def test_dirty_transfer_costs_more_than_clean_invalidate(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        clean_vpn = region.start_vpn
        dirty_vpn = region.start_vpn + 1
        compute.cache.insert(clean_vpn, writable=True, dirty=False)
        compute.cache.insert(dirty_vpn, writable=True, dirty=True)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        clean_cost = protocol.memory_touch(clean_vpn, write=True, now=0)
        dirty_cost = protocol.memory_touch(dirty_vpn, write=True, now=0)
        assert dirty_cost > clean_cost


class TestComputeSide:
    """Figure 9 lines 1-10 plus the compute-side upgrade race."""

    def test_compute_fetch_for_write_invalidates_t_mm(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        protocol.setup([])
        vpn = region.start_vpn
        assert protocol.t_mm.get(vpn).present
        protocol.on_compute_fetch(vpn, write=True)
        assert not protocol.t_mm.get(vpn).present
        assert platform.stats.coherence_invalidations == 1

    def test_compute_fetch_for_read_downgrades_t_mm(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        protocol.setup([])
        vpn = region.start_vpn
        protocol.on_compute_fetch(vpn, write=False)
        pte = protocol.t_mm.get(vpn)
        assert pte.present and not pte.writable
        assert platform.stats.coherence_downgrades == 1

    def test_compute_upgrade_invalidates_memory_copy(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=False)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        cost = protocol.compute_upgrade(vpn, now=0)
        assert cost > 0
        assert not protocol.t_mm.get(vpn).present

    def test_tiebreak_favours_memory_pool(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=False)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        # Memory pool upgrades first; its round trip is in flight at t=0.
        protocol.memory_touch(vpn, write=True, now=0)
        # Compute pool upgrades concurrently: it must lose, back off t,
        # and reissue — costing strictly more than an uncontended upgrade.
        compute.cache.insert(vpn, writable=False)
        contended = protocol.compute_upgrade(vpn, now=1_000)
        uncontended_protocol = make_protocol(platform, process)
        compute.cache.insert(vpn, writable=False)
        uncontended_protocol.setup(compute.resident_snapshot())
        uncontended = uncontended_protocol.compute_upgrade(vpn, now=0)
        assert contended > uncontended
        assert contended >= platform.config.contention_backoff_ps
        assert platform.stats.coherence_tiebreaks == 1

    @pytest.mark.parametrize("write_at_ns, tiebreaks", [(0.0, 1), (1e9, 0)])
    def test_sequential_write_tiebreaks_only_while_upgrade_in_flight(
        self, env, write_at_ns, tiebreaks
    ):
        """A sequential compute write upgrades at its own virtual time, as a
        random one does: it loses the tie-break to a memory-pool upgrade in
        flight, never to one that finished a second earlier."""
        platform, process, region = env
        compute = platform.kernel_for(process)
        compute.cache.insert(region.start_vpn, writable=False)
        protocol = platform.teleport.acquire_protocol(process, ConsistencyMode.PSO)
        protocol.setup(compute.resident_snapshot())
        compute.protocol = protocol
        # PSO memory-pool write at t=0: the compute copy is demoted, not dropped.
        protocol.memory_touch(region.start_vpn, write=True, now=0)
        ctx = platform.main_context(process)
        ctx.clock.advance_to(to_ps(write_at_ns))
        ctx.touch_seq(region, 0, 1, write=True)
        assert platform.stats.coherence_tiebreaks == tiebreaks

    @pytest.mark.parametrize(
        "upgrade_at_ns, tiebreaks", [(5000.0, 1), (12_000.0, 1), (13_000.0, 0)]
    )
    def test_memory_sequential_write_upgrades_end_in_turn(self, env, upgrade_at_ns, tiebreaks):
        """A memory-pool sequential write upgrades its pages one after the
        other: under PSO each of four read-only compute copies costs a
        3.2 us round trip, so the 4th upgrade is in flight until 12.8 us,
        not 3.2 us, and a compute upgrade of that page before then loses
        the tie-break."""
        platform, process, region = env
        compute = platform.kernel_for(process)
        vpns = range(region.start_vpn, region.start_vpn + 4)
        for vpn in vpns:
            compute.cache.insert(vpn, writable=False)
        protocol = platform.teleport.acquire_protocol(process, ConsistencyMode.PSO)
        protocol.setup(compute.resident_snapshot())
        compute.protocol = protocol
        mctx = ExecutionContext(platform, SimThread(process, pool=Pool.MEMORY), protocol)
        mctx.touch_seq(region, 0, 4 * PAGE_ELEMENTS, write=True)
        assert protocol.online_sync_ps == 4 * 2 * platform.config.coherence_msg_ps
        compute.touch_runs([vpns[-1]], [0], True, to_ps(upgrade_at_ns))
        assert platform.stats.coherence_tiebreaks == tiebreaks


class TestRelaxations:
    """Section 4.2: PSO, weak ordering, coherence off."""

    def test_pso_downgrades_instead_of_removing(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=True)
        protocol = make_protocol(platform, process, ConsistencyMode.PSO)
        protocol.setup(compute.resident_snapshot())
        protocol.memory_touch(vpn, write=True, now=0)
        # PSO keeps the compute copy as read-only rather than evicting it.
        entry = compute.cache.peek(vpn)
        assert entry is not None
        assert not entry.writable

    def test_weak_mode_sends_no_coherence_messages(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=True, dirty=True)
        protocol = make_protocol(platform, process, ConsistencyMode.WEAK)
        protocol.setup(compute.resident_snapshot())
        cost = protocol.memory_touch(vpn, write=True, now=0)
        assert cost == 0
        assert platform.stats.coherence_messages == 0

    def test_weak_upgrade_is_silent(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=False)
        protocol = make_protocol(platform, process, ConsistencyMode.WEAK)
        protocol.setup(compute.resident_snapshot())
        assert protocol.compute_upgrade(vpn, now=0) == 0


class TestBoundarySync:
    """Explicit synchronisation points of the relaxed modes."""

    def _dirty_shared_page(self, platform, process, region, mode):
        compute = platform.kernel_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=False)
        protocol = make_protocol(platform, process, mode)
        protocol.setup(compute.resident_snapshot())
        protocol.memory_touch(vpn, write=True, now=0)
        return protocol, compute, vpn

    def test_weak_boundary_invalidates_stale_copies(self, env):
        platform, process, region = env
        protocol, compute, vpn = self._dirty_shared_page(
            platform, process, region, ConsistencyMode.WEAK
        )
        assert vpn in compute.cache  # weak mode left the stale copy
        cost = protocol.boundary_sync()
        assert cost > 0
        assert vpn not in compute.cache
        assert platform.stats.coherence_invalidations >= 1

    def test_pso_boundary_also_syncs(self, env):
        platform, process, region = env
        protocol, compute, vpn = self._dirty_shared_page(
            platform, process, region, ConsistencyMode.PSO
        )
        assert protocol.boundary_sync() > 0
        assert vpn not in compute.cache

    def test_mesi_boundary_is_noop(self, env):
        platform, process, region = env
        protocol, _compute, _vpn = self._dirty_shared_page(
            platform, process, region, ConsistencyMode.MESI
        )
        assert protocol.boundary_sync() == 0

    def test_off_mode_boundary_is_noop(self, env):
        platform, process, region = env
        protocol, compute, vpn = self._dirty_shared_page(
            platform, process, region, ConsistencyMode.OFF
        )
        assert protocol.boundary_sync() == 0
        assert vpn in compute.cache  # user must syncmem manually

    def test_boundary_with_nothing_stale_is_free(self, env):
        platform, process, _region = env
        protocol = make_protocol(platform, process, ConsistencyMode.WEAK)
        protocol.setup([])
        assert protocol.boundary_sync() == 0


class TestFinish:
    def test_finish_drops_the_temporary_context(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        protocol.setup([])
        vpn = region.start_vpn
        protocol.memory_touch(vpn, write=True, now=0)
        assert protocol.t_mm.get(vpn).dirty
        protocol.finish()
        assert protocol.t_mm is None
        assert protocol.state_of(vpn) == ("0", "0")

    def test_state_of_reports_pair(self, env):
        platform, process, region = env
        compute = platform.kernel_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=False)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        assert protocol.state_of(vpn) == ("R", "R")
