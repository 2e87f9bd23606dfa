"""Property test: batch and closed-form fault charging is exact.

``ComputeKernel`` admits each prefetch batch in one cache operation and,
without a protocol, charges runs of uncached stream pages in closed form.
Here it is compared with the per-page kernel kept in
``tests/reference_kernel.py``, on two identical platforms fed the same
random and sequential accesses: the returned costs (integer picoseconds)
must be equal, the counters and ``fault`` trace events identical, and the
compute cache (LRU order and flags) and the memory pool (LRU order) the
same. The cases cover a cache smaller than a
prefetch batch, streams over cached pages (including ones the stream
evicts before reaching them), and no protocol or a live MESI, PSO or WEAK
one, with the sanitizers armed (so any SWMR violation fails the example).

Each case runs with the tracer on and off, and on a memory pool that
spills the region to storage and on one that holds all of it. In the
latter every page stays dirty, so a protocol-less stream over uncached
pages is charged per run. In the former it is charged per run only up to
the pool's first absent page and only if no victim is dirty, and per
batch after that. The tracer must change no path, so both settings must
agree with the reference, ``fault`` events included when it is on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddc import make_platform
from repro.sim.config import DdcConfig
from repro.sim.units import KIB
from repro.teleport.coherence import CoherenceProtocol
from repro.teleport.flags import ConsistencyMode
from tests import reference_kernel

N_PAGES = 48
PAGE_ELEMENTS = 4 * KIB // 8
#: Compute-cache sizes in pages: below, near and above a prefetch batch.
CACHE_PAGES = [3, 9, 20]
#: Memory-pool sizes in pages: one the region spills from, one that holds it.
POOL_PAGES = [24, 64]
#: (tracing, pool pages): the settings under which a stream may take a
#: different path.
SETTINGS = [(tracing, pool_pages) for tracing in (True, False) for pool_pages in POOL_PAGES]
MODES = [None, ConsistencyMode.MESI, ConsistencyMode.PSO, ConsistencyMode.WEAK]


class NewKernel:
    """The kernel under test, with the reference's call signatures."""

    @staticmethod
    def touch_random(kernel, vpn, write, now):
        """A one-access run: its fault cost plus ``dram_random_ps``."""
        return kernel.touch_runs([vpn], [0], write, now)

    @staticmethod
    def touch_sequential(kernel, vpn, npages, write, now):
        return kernel.touch_sequential(vpn, npages, write, now)


class Reference:
    """The per-page reference kernel; a random touch also pays
    ``dram_random_ps``, as ``touch_runs`` charges it."""

    @staticmethod
    def touch_random(kernel, vpn, write, now):
        fault = reference_kernel.touch_random(kernel, vpn, write, now)
        return fault + kernel.config.dram_random_ps

    touch_sequential = staticmethod(reference_kernel.touch_sequential)


def play(impl, cache_pages, degree, mode, warmup, ops, tracing=True, pool_pages=24):
    """Run ``warmup`` without a protocol, attach one (if ``mode``), then run
    ``ops``; return everything the two kernels must agree on."""
    config = DdcConfig(
        compute_cache_bytes=cache_pages * 4 * KIB,
        memory_pool_bytes=pool_pages * 4 * KIB,
        prefetch_degree=degree,
        sanitizers=True,
    )
    platform = make_platform("teleport", config)
    if tracing:
        platform.tracer.enable(kinds={"fault"})
    process = platform.new_process()
    region = process.alloc_array("data", np.zeros(N_PAGES * PAGE_ELEMENTS))
    compute = platform.kernel_for(process)
    base = region.start_vpn
    costs = []
    now = 0

    def run(steps):
        nonlocal now
        for kind, page, length, write in steps:
            vpn = base + page
            if kind == "seq":
                npages = min(length, N_PAGES - page)
                cost = impl.touch_sequential(compute, vpn, npages, write, now)
            elif kind == "mem" and compute.protocol is not None:
                cost = compute.protocol.memory_touch(vpn, write, now)
            else:
                cost = impl.touch_random(compute, vpn, write, now)
            costs.append(cost)
            now += cost

    run(warmup)
    if mode is not None:
        protocol = CoherenceProtocol(platform, process, mode)
        protocol.setup(compute.resident_snapshot())
        compute.protocol = protocol
    run(ops)
    state = {
        "costs": costs,
        "stats": platform.stats.as_dict(),
        "cache": [
            (vpn, entry.writable, entry.dirty) for vpn, entry in compute.cache.resident_items()
        ],
        "memory_pool": list(compute.pool._resident.items()),
    }
    if tracing:
        state["events"] = list(platform.tracer.events)
    if compute.protocol is not None:
        state["t_mm"] = sorted(
            (vpn, pte.present, pte.writable, pte.dirty)
            for vpn, pte in compute.protocol.t_mm.owned_entries()
        )
    return state


OPS = st.lists(
    st.tuples(
        st.sampled_from(["seq", "seq", "rand", "mem"]),
        st.integers(0, N_PAGES - 1),
        st.integers(1, N_PAGES),
        st.booleans(),
    ),
    max_size=12,
)


def assert_same(cache_pages, degree, mode, warmup, ops, tracing=True, pool_pages=24):
    expected = play(Reference, cache_pages, degree, mode, warmup, ops, tracing, pool_pages)
    actual = play(NewKernel, cache_pages, degree, mode, warmup, ops, tracing, pool_pages)
    # Bit-equal, not approximately equal.
    assert actual["costs"] == expected["costs"]
    assert actual == expected


@settings(max_examples=80, deadline=None)
@given(
    cache_pages=st.sampled_from(CACHE_PAGES),
    degree=st.sampled_from([4, 8]),
    mode=st.sampled_from(MODES),
    warmup=OPS,
    ops=OPS,
    setting=st.sampled_from(SETTINGS),
)
def test_batched_faults_match_per_page_kernel(cache_pages, degree, mode, warmup, ops, setting):
    assert_same(cache_pages, degree, mode, warmup, ops, *setting)


def test_stream_evicts_cached_page_before_reaching_it():
    """Page 10 is cached at the LRU front; a write stream from page 0
    evicts it (dirty) on the way and then faults it in again."""
    warmup = [("rand", 10, 1, True), ("rand", 30, 1, False), ("rand", 31, 1, True)]
    ops = [("seq", 0, 24, True)]
    for cache_pages in CACHE_PAGES:
        for setting in SETTINGS:
            assert_same(cache_pages, 8, None, warmup, ops, *setting)


def test_closed_form_run_spills_memory_pool():
    """A whole-region write stream on a cold cache: every page is in the
    closed form, and the memory pool spills to storage on the way."""
    state = play(NewKernel, 9, 8, None, [], [("seq", 0, N_PAGES, True)])
    assert state["stats"]["storage_faults"] > 0
    assert state["stats"]["dirty_writebacks"] == N_PAGES - 9
    for tracing in (True, False):
        assert_same(9, 8, None, [], [("seq", 0, N_PAGES, True)], tracing)


def test_closed_form_run_in_a_pool_that_holds_the_region():
    """The same streams on a pool that never spills: every run is charged
    in one closed form (read and write streams, over a warm cache holding
    dirty pages), and the pool's LRU order and dirty bits still match."""
    warmup = [("rand", 40, 1, True), ("rand", 41, 1, False), ("seq", 20, 6, True)]
    ops = [("seq", 0, N_PAGES, True), ("seq", 0, N_PAGES, False), ("seq", 5, 30, True)]
    state = play(NewKernel, 9, 8, None, warmup, ops, pool_pages=64)
    assert state["stats"]["storage_faults"] == 0
    assert all(dirty for _vpn, dirty in state["memory_pool"])
    for tracing in (True, False):
        assert_same(9, 8, None, warmup, ops, tracing, pool_pages=64)


def test_run_whose_resident_prefix_ends_mid_batch():
    """A read stream over uncached pages on a spilled pool that holds only
    the run's first 6 pages: with batches of 4, the first batch is charged
    per run and the second, which faults page 6 in, per batch."""
    warmup = [("rand", page, 1, False) for page in (0, 1, 2, 3, 4, 5, 40, 41, 42)]
    ops = [("seq", 0, 12, False)]
    for tracing in (True, False):
        assert_same(3, 4, None, warmup, ops, tracing)


def test_mesi_batch_that_evicts_its_own_page_keeps_swmr():
    """A batch whose earlier insert evicts a later page of it: the evict
    hook gives the memory pool write access back, so the later page's
    fetch hook must run after that eviction, just before its own insert.
    With the sanitizers armed, the write batch raises no violation, and
    the evicted-then-refetched page ends up cached writable with ``t_mm``
    no longer mapping it."""
    warmup = []
    ops = [("seq", 0, 4, False), ("seq", 0, 2, True)]
    state = play(NewKernel, 3, 4, ConsistencyMode.MESI, warmup, ops)
    assert "violation" not in state
    cached = {vpn: writable for vpn, writable, _dirty in state["cache"]}
    mapped = {vpn: present for vpn, present, _writable, _dirty in state["t_mm"]}
    for vpn, writable in cached.items():
        if writable:
            assert not mapped.get(vpn, False)
    for setting in SETTINGS:
        assert_same(3, 4, ConsistencyMode.MESI, warmup, ops, *setting)
