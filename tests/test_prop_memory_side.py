"""Property test: the temporary context's setup and memory-side streams
are exact.

``CoherenceProtocol.setup`` owns the pages the compute pool holds through
two shared PTEs instead of copying and invalidating one per page, and
``CoherenceProtocol.touch_sequential`` serves a stream's pages through
the quiet-page path instead of one ``memory_touch`` each. Here both are
compared with the per-page references kept in
``tests/reference_protocol.py``, on two identical platforms with the
sanitizers armed: the returned costs (integer picoseconds) must be equal,
and after every step so must ``state_of`` for every page, the owned PTEs
in the order they were made, the compute cache, the memory pool's LRU
order and dirty bits, the counters, the SWMR checks made and (when the
tracer is on) the trace events.

The address space holds two regions with a freed one between them, so a
stream or a resident list can cross an unmapped gap, and a third region
allocated after setup: its pages are in the memory pool but not mapped in
``t_mm``, so a stream into it must not take them for quiet. A compute-side
warm-up leaves read-only and writable (dirty) pages in the compute cache,
and the memory pool either spills the regions to storage or holds them.
After every example both shared PTEs must still hold their bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddc import make_platform
from repro.sim.config import DdcConfig
from repro.sim.units import KIB
from repro.teleport.coherence import CoherenceProtocol
from repro.teleport.flags import ConsistencyMode
from tests import reference_protocol
from tests.reference_page_table import assert_held_ptes_intact

REGION_PAGES = 16
GAP_PAGES = 4
PAGE_ELEMENTS = 4 * KIB // 8
#: Memory-pool sizes in pages: one the regions spill from, one that holds them.
POOL_PAGES = {"spills": 20, "holds": 64}
MODES = [ConsistencyMode.MESI, ConsistencyMode.PSO, ConsistencyMode.WEAK, ConsistencyMode.OFF]


class Layout:
    """A platform whose address space is [first | freed gap | second],
    plus a ``late`` region after them from setup on."""

    def __init__(self, mode, pool, traced):
        config = DdcConfig(
            compute_cache_bytes=12 * 4 * KIB,
            memory_pool_bytes=POOL_PAGES[pool] * 4 * KIB,
            sanitizers=True,
        )
        self.platform = make_platform("teleport", config)
        if traced:
            self.platform.tracer.enable()
        self.process = self.platform.new_process()
        pages = np.zeros(REGION_PAGES * PAGE_ELEMENTS)
        first = self.process.alloc_array("first", pages)
        gap = self.process.alloc_array("gap", np.zeros(GAP_PAGES * PAGE_ELEMENTS))
        second = self.process.alloc_array("second", pages)
        self.process.free(gap)
        #: The unmapped vpns between the two regions.
        self.gap = range(first.end_vpn, second.start_vpn)
        #: Every vpn from the first region's start to the late one's end,
        #: once :meth:`setup` has allocated the late region.
        self.vpns = None
        self.mapped = [*first.all_vpns(), *second.all_vpns()]
        self.compute = self.platform.kernel_for(self.process)
        self.mode = mode
        self.protocol = None
        self.now = 0
        self.costs = []
        #: SWMR checks made by this layout's calls (``pytest --sanitize``
        #: shares one suite between the two layouts).
        self.swmr_checks = 0

    def run(self, fn, *args):
        """Call ``fn(*args)`` and charge the cost it returns."""
        suite = self.platform.sanitizers
        before = suite.swmr_checks
        cost = fn(*args)
        self.swmr_checks += suite.swmr_checks - before
        self.costs.append(cost)
        self.now += cost

    def warm(self, warmup):
        for index, write in warmup:
            vpn = self.mapped[index % len(self.mapped)]
            self.run(self.compute.touch_runs, [vpn], [0], write, self.now)

    def resident(self, unmapped):
        """The compute pool's resident list, with ``unmapped`` (position,
        offset, writable) triples inserted: vpns of the gap or just past
        the second region, where the late region will lie."""
        resident = self.compute.resident_snapshot()
        end = self.mapped[-1] + 1
        outside = [*self.gap, *range(end, end + 4)]
        taken = set()
        for position, offset, writable in unmapped:
            vpn = outside[offset % len(outside)]
            if vpn not in taken:
                taken.add(vpn)
                resident.insert(position % (len(resident) + 1), (vpn, writable))
        return resident

    def setup(self, setup, resident):
        self.protocol = CoherenceProtocol(self.platform, self.process, self.mode)
        self.run(setup, self.protocol, resident)
        self.compute.protocol = self.protocol
        late = self.process.alloc_array("late", np.zeros(GAP_PAGES * PAGE_ELEMENTS))
        self.vpns = range(self.mapped[0], late.end_vpn)

    def step(self, op, touch_sequential):
        protocol = self.protocol
        kind, offset, length, write = op
        vpn = self.vpns.start + offset % len(self.vpns)
        if kind == "seq":
            npages = min(length, self.vpns.stop - vpn)
            self.run(touch_sequential, protocol, vpn, npages, write, self.now)
        elif kind == "mem":
            self.run(protocol.memory_touch, vpn, write, self.now)
        elif kind == "compute":
            page = self.mapped[offset % len(self.mapped)]
            self.run(self.compute.touch_runs, [page], [0], write, self.now)
        else:
            self.run(protocol.boundary_sync)

    def state(self):
        protocol = self.protocol
        return {
            "costs": self.costs,
            "state_of": [protocol.state_of(vpn) for vpn in self.vpns],
            "t_mm": [
                (vpn, pte.present, pte.writable, pte.dirty)
                for vpn, pte in protocol.t_mm.owned_entries()
            ],
            "cache": [
                (vpn, entry.writable, entry.dirty)
                for vpn, entry in self.compute.cache.resident_items()
            ],
            "memory_pool": list(self.compute.pool._resident.items()),
            "stats": self.platform.stats.as_dict(),
            "swmr_checks": self.swmr_checks,
            "online_sync_ps": protocol.online_sync_ps,
            "events": list(self.platform.tracer.events),
        }


def setup_as_is(protocol, resident):
    return protocol.setup(resident)


def sequential_as_is(protocol, vpn, npages, write, now):
    return protocol.touch_sequential(vpn, npages, write, now)


def assert_same(mode, pool, traced, warmup, unmapped, ops, setups, sequentials):
    """Play the example on two layouts, the first with ``setups[0]`` and
    ``sequentials[0]``, the second with the others; compare every step."""
    layouts = [Layout(mode, pool, traced) for _ in range(2)]
    for layout, setup in zip(layouts, setups):
        layout.warm(warmup)
        layout.setup(setup, layout.resident(unmapped))
    assert layouts[0].state() == layouts[1].state()
    for op in ops:
        for layout, touch_sequential in zip(layouts, sequentials):
            layout.step(op, touch_sequential)
        assert layouts[0].state() == layouts[1].state(), op
    for layout in layouts:
        layout.protocol.finish()
    assert_held_ptes_intact()


#: About the number of vpns in ``Layout.vpns``.
SPAN = 2 * REGION_PAGES + 2 * GAP_PAGES + 3
WARMUP = st.lists(st.tuples(st.integers(0, 2 * REGION_PAGES - 1), st.booleans()), max_size=20)
UNMAPPED = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 12), st.booleans()), max_size=4
)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["seq", "seq", "seq", "mem", "compute", "sync"]),
        st.integers(0, SPAN - 1),
        st.integers(1, SPAN),
        st.booleans(),
    ),
    max_size=10,
)
COMMON = dict(
    mode=st.sampled_from(MODES),
    pool=st.sampled_from(sorted(POOL_PAGES)),
    traced=st.booleans(),
    warmup=WARMUP,
    ops=OPS,
)


@settings(max_examples=120, deadline=None)
@given(**COMMON)
def test_memory_side_stream_matches_per_page_loop(mode, pool, traced, warmup, ops):
    assert_same(
        mode, pool, traced, warmup, [], ops,
        setups=(setup_as_is, setup_as_is),
        sequentials=(sequential_as_is, reference_protocol.touch_sequential),
    )


@settings(max_examples=120, deadline=None)
@given(unmapped=UNMAPPED, **COMMON)
def test_setup_matches_eager_reference(mode, pool, traced, warmup, unmapped, ops):
    assert_same(
        mode, pool, traced, warmup, unmapped, ops,
        setups=(setup_as_is, reference_protocol.setup),
        sequentials=(sequential_as_is, sequential_as_is),
    )


def test_streams_over_held_pages_the_gap_and_a_late_region():
    """A read and then a write stream over every vpn of the layout: they
    meet pages the compute pool holds read-only and writable, cross the
    freed gap, end in the region allocated after setup, and on the small
    pool spill, in every mode."""
    warmup = [(1, False), (2, True), (5, True), (17, False), (20, True)]
    ops = [("seq", 0, SPAN, False), ("seq", 0, SPAN, True), ("sync", 0, 1, False)]
    for mode in MODES:
        for pool in POOL_PAGES:
            for setups, sequentials in (
                ((setup_as_is, setup_as_is), (sequential_as_is, reference_protocol.touch_sequential)),
                ((setup_as_is, reference_protocol.setup), (sequential_as_is, sequential_as_is)),
            ):
                assert_same(mode, pool, False, warmup, [(0, 0, True), (3, 12, False)], ops,
                            setups, sequentials)
