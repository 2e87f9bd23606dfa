"""Property test: the run-collapsed random-access path is exact.

``ExecutionContext._random_cost`` sends each run of repeated pages
through the pool machinery once and charges the repeats as row-buffer
hits. Here it is compared with the plain per-access loop (kept below as
the reference) on two identical platforms: the returned cost (integer
picoseconds) must be equal, the counters, trace events and t_mm PTEs identical and the
caches in the same LRU order, for the local pool, the compute pool (with
and without a live protocol) and the memory pool under MESI, PSO and WEAK.

Each pool's ``touch_runs`` serves a batch's run heads in one loop over
live state. A dense batch (more heads than pages spanned) goes to
``touch_dense``, which the local swap and the memory side serve once per
distinct page when no page can be evicted within it, and the compute
cache (no protocol, tracer off) classifies head by head by replaying its
LRU at C speed; dense batches are drawn against pools that spill, hold
the region, or have room, and for the compute cache over windows that fit
it and windows of up to 40 pages that overflow it. Every batch is played
with the tracer on and off, and in both runs the per-head calls raise on
any head the loop should have served inline.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ddc import Pool, make_platform
from repro.ddc.context import ExecutionContext, _page_runs
from repro.ddc.kernels import ComputeKernel
from repro.ddc.thread import SimThread
from repro.errors import PushdownUserError
from repro.mem.storage import SwapDevice
from repro.sim.config import DdcConfig
from repro.sim.units import KIB
from repro.teleport.coherence import CoherenceProtocol
from repro.teleport.flags import ConsistencyMode
from tests import reference_kernel

N_PAGES = 48
PAGE_ELEMENTS = 4 * KIB // 8
#: Small enough that the streams below evict from every pool.
CONFIG = dict(
    compute_cache_bytes=12 * 4 * KIB,
    memory_pool_bytes=32 * 4 * KIB,
    local_ram_bytes=16 * 4 * KIB,
)
#: The memory pool and the local DRAM: ``spills`` (CONFIG's, smaller than
#: the region, so a dense batch takes the per-head path), ``holds`` (the
#: whole region, with room for any batch's pages) and ``room`` (as large,
#: but a freed region displaced the data region's first pages, so a dense
#: batch faults without evicting).
LARGE_POOLS = dict(memory_pool_bytes=64 * 4 * KIB, local_ram_bytes=64 * 4 * KIB)
POOLS = {"spills": {}, "holds": LARGE_POOLS, "room": LARGE_POOLS}
DISPLACING_PAGES = 40


def reference_cost(ctx, vpns, write):
    """The per-access loop: every access goes through the pool machinery;
    a compute-pool miss through the per-page reference kernel."""
    config = ctx.config
    cost = 0
    prev = None
    now = ctx.now
    for vpn in vpns:
        if ctx.pool is Pool.LOCAL:
            cost += ctx.platform.swap.touch(vpn, dirty=write)
        elif ctx.pool is Pool.COMPUTE:
            cost += reference_kernel.touch_random(ctx.pager, vpn, write, now + cost)
        else:
            cost += ctx.pager.memory_touch(vpn, write, now + cost)
        cost += config.dram_line_ps if vpn == prev else config.dram_random_ps
        prev = vpn
    if ctx.pool is Pool.MEMORY:
        ctx.stats.memory_side_page_touches += len(vpns)
    return cost


def collapsed_cost(ctx, vpns, write):
    return ctx._random_cost(vpns, write)


RUNS = st.lists(st.tuples(st.integers(0, N_PAGES - 1), st.integers(1, 6)), min_size=1, max_size=20)
BATCHES = st.lists(st.tuples(RUNS, st.booleans()), min_size=1, max_size=6)


def window_runs(window, min_size=1):
    first, width = window
    return st.lists(
        st.tuples(st.integers(first, first + width - 1), st.integers(1, 3)),
        min_size=min_size, max_size=200,
    )


#: Up to about 200 heads over a window of at most 8 pages: mostly dense
#: batches (more heads than pages spanned).
DENSE_RUNS = st.tuples(st.integers(0, N_PAGES - 8), st.integers(1, 8)).flatmap(window_runs)
DENSE_BATCHES = st.lists(st.tuples(DENSE_RUNS, st.booleans()), min_size=1, max_size=4)
WARMUP = st.lists(st.tuples(st.integers(0, N_PAGES - 1), st.booleans()), max_size=24)


def expand(runs, start_vpn):
    return np.array(
        [start_vpn + page for page, length in runs for _ in range(length)], dtype=np.int64
    )


def play(kind, where, mode, warmup, batches, cost_fn, line_ns=4.0, traced=False,
         fault_ns=2500.0, pool="spills"):
    """Run warm-up accesses, then ``batches`` through ``cost_fn``; return
    everything the two paths must agree on. ``traced`` turns the tracer
    on; ``pool`` names the memory pool's and local DRAM's size in POOLS."""
    config = DdcConfig(
        dram_line_ns=line_ns, fault_software_ns=fault_ns, **dict(CONFIG, **POOLS[pool])
    )
    platform = make_platform(kind, config)
    if traced:
        platform.tracer.enable()
    process = platform.new_process()
    region = process.alloc_array("data", np.zeros(N_PAGES * PAGE_ELEMENTS))
    if pool == "room":
        process.free(process.alloc_array("displacing", np.zeros(DISPLACING_PAGES * PAGE_ELEMENTS)))
    ctx = platform.main_context(process)
    for page, write in warmup:
        ctx.touch_page(region.start_vpn + page, write=write)
    costs = []
    t_mm = []

    def run_batches(c):
        protocol = c.pager if c.pool is Pool.MEMORY else getattr(c.pager, "protocol", None)
        for runs, write in batches:
            cost = cost_fn(c, expand(runs, region.start_vpn), write)
            costs.append(cost)
            c.charge_ps(cost)
            if protocol is not None and protocol.t_mm is not None:
                # The temporary context's PTEs after each batch, in the
                # order they were made (a later batch may overwrite a
                # wrong bit; the pushdown's end drops them).
                t_mm.append([
                    (vpn, pte.present, pte.writable, pte.dirty)
                    for vpn, pte in protocol.t_mm.owned_entries()
                ])

    if where == "memory":
        ctx.pushdown(run_batches, consistency=mode)
    elif where == "memory without t_mm":
        # A protocol with no temporary context: every memory-side touch
        # is a plain access of the memory pool.
        protocol = CoherenceProtocol(platform, process, mode)
        run_batches(ExecutionContext(platform, SimThread(process, pool=Pool.MEMORY), protocol))
    elif where == "compute+protocol":
        compute = platform.kernel_for(process)
        protocol = CoherenceProtocol(platform, process, mode)
        protocol.setup(compute.resident_snapshot())
        compute.protocol = protocol
        run_batches(ctx)
    else:
        run_batches(ctx)

    state = {
        "costs": costs, "now": ctx.now, "stats": platform.stats.as_dict(), "t_mm": t_mm,
        "events": list(platform.tracer.events),
    }
    if kind == "local":
        state["swap"] = list(platform.swap._resident.items())
    else:
        compute = platform.kernel_for(process)
        state["cache"] = [
            (vpn, entry.writable, entry.dirty) for vpn, entry in compute.cache.resident_items()
        ]
        state["memory_pool"] = list(compute.pool._resident.items())
    return state


@contextmanager
def heads_served_inline():
    """Make the per-head calls of the pools' ``touch_runs`` fail on a head
    the loop must serve itself: a swap or compute-cache hit, or a
    memory-side touch that changes nothing but a dirty bit (a page in
    memory-pool DRAM whose ``t_mm`` PTE is present, and writable for a
    write or in WEAK/OFF)."""
    fault_in = SwapDevice._fault_in
    fetch = ComputeKernel._fetch
    memory_touch = CoherenceProtocol.memory_touch

    def checked_fault_in(self, vpn, dirty):
        assert vpn not in self, f"a hit on page {vpn} went through SwapDevice._fault_in"
        return fault_in(self, vpn, dirty)

    def checked_fetch(self, vpn, npages, write):
        assert vpn not in self.cache, f"a hit on page {vpn} went through ComputeKernel._fetch"
        return fetch(self, vpn, npages, write)

    def checked_memory_touch(self, vpn, write, now):
        pte = None if self.t_mm is None else self.t_mm.peek(vpn)
        relaxed = self.mode in (ConsistencyMode.WEAK, ConsistencyMode.OFF)
        quiet = (
            vpn in self.pool
            and pte is not None
            and pte.present
            and (pte.writable or not (write or relaxed))
        )
        assert not quiet, f"a quiet touch of page {vpn} went through memory_touch"
        return memory_touch(self, vpn, write, now)

    with mock.patch.object(SwapDevice, "_fault_in", checked_fault_in), \
            mock.patch.object(ComputeKernel, "_fetch", checked_fetch), \
            mock.patch.object(CoherenceProtocol, "memory_touch", checked_memory_touch):
        yield


def assert_exact(kind, where, mode, warmup, batches, line_ns=4.0, fault_ns=2500.0,
                 pool="spills"):
    """Play ``batches`` through the per-access loop with the tracer on, and
    through ``_random_cost`` under :func:`heads_served_inline` with the
    tracer on and off; all must agree bit for bit, trace events included.
    Returns the untraced state."""
    args = (kind, where, mode, warmup, batches)
    expected = play(*args, reference_cost, line_ns, traced=True, fault_ns=fault_ns, pool=pool)
    with heads_served_inline():
        traced = play(*args, collapsed_cost, line_ns, traced=True, fault_ns=fault_ns, pool=pool)
        untraced = play(*args, collapsed_cost, line_ns, fault_ns=fault_ns, pool=pool)
    # Bit-equal, not approximately equal.
    assert traced["costs"] == expected["costs"]
    assert traced == expected
    assert untraced == dict(expected, events=[])
    return untraced


#: Fault software costs: a whole number of ns, and one (2 499 900 ps) that
#: float ns could not add exactly.
FAULT_NS = [2500.0, 2499.9]

SCENARIOS = [
    ("local", "local", None),
    ("ddc", "compute", None),
    ("teleport", "compute+protocol", ConsistencyMode.MESI),
    ("teleport", "compute+protocol", ConsistencyMode.PSO),
    ("teleport", "memory", ConsistencyMode.MESI),
    ("teleport", "memory", ConsistencyMode.PSO),
    ("teleport", "memory", ConsistencyMode.WEAK),
]


@settings(max_examples=40, deadline=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    warmup=WARMUP,
    batches=BATCHES,
    # 4.1 ns has no exact binary form: added in float ns, k-1 repeats
    # charged in one step would differ from k-1 additions. In ps both are
    # exactly (k-1) * 4100.
    line_ns=st.sampled_from([4.0, 4.1]),
    fault_ns=st.sampled_from(FAULT_NS),
)
def test_collapsed_runs_match_per_access_loop(scenario, warmup, batches, line_ns, fault_ns):
    kind, where, mode = scenario
    args = (kind, where, mode, warmup, batches)
    expected = play(*args, reference_cost, line_ns, fault_ns=fault_ns)
    with heads_served_inline():
        actual = play(*args, collapsed_cost, line_ns, fault_ns=fault_ns)
    # Bit-equal, not approximately equal.
    assert actual["costs"] == expected["costs"]
    assert actual == expected


@settings(max_examples=40, deadline=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    warmup=WARMUP,
    batches=BATCHES,
    line_ns=st.sampled_from([4.0, 4.1]),
    fault_ns=st.sampled_from(FAULT_NS),
)
# Page 3 is cached writable by the compute pool, so its first read in the
# pushdown downgrades that copy; its second read, after one of page 20
# (resident in the memory pool, so no true fault), must then be served
# inline.
@example(
    scenario=("teleport", "memory", ConsistencyMode.MESI),
    warmup=[(3, True)],
    batches=[([(3, 1), (20, 1), (3, 1)], False)],
    line_ns=4.0,
    fault_ns=2500.0,
)
def test_batch_path_matches_traced_per_head_path(scenario, warmup, batches, line_ns, fault_ns):
    """Turning the tracer on changes nothing but the events, and the
    events are the per-access loop's, with every head that the loop must
    serve inline still served inline."""
    kind, where, mode = scenario
    assert_exact(kind, where, mode, warmup, batches, line_ns, fault_ns)


def test_repeats_count_as_compute_cache_hits():
    state = assert_exact("ddc", "compute", None, [], [([(3, 5)], True)])
    assert state["stats"]["cache_hits"] == 4


def test_spilled_miss_adds_write_back_after_remote_fault():
    """Compute-pool misses on pages the memory pool spilled (random
    storage faults), each evicting a dirty page: a miss costs storage +
    remote fault + write-back. One miss per batch, at a fault cost that
    float ns could not add exactly."""
    warmup = [(page, True) for page in range(20, 32)]
    batches = [([(0, 1)], False), ([(2, 1)], False), ([(4, 2)], False)]
    state = assert_exact("ddc", "compute", None, warmup, batches, fault_ns=2499.9)
    assert state["stats"]["storage_faults"] == 3
    assert state["stats"]["dirty_writebacks"] == 3


def every_head_through_fault_in(self, heads, repeats, write, now, span=None):
    return sum(self._fault_in(vpn, write) for vpn in heads)


def every_head_through_fetch(self, heads, repeats, write, now, span=None):
    return sum(self._fetch(vpn, 1, write) for vpn in heads)


def every_head_through_memory_touch(self, heads, repeats, write, now, span=None):
    return sum(self.memory_touch(vpn, write, now) for vpn in heads)


@pytest.mark.parametrize("scenario, pool_class, loop", [
    (("local", "local", None), SwapDevice, every_head_through_fault_in),
    (("ddc", "compute", None), ComputeKernel, every_head_through_fetch),
    (("teleport", "compute+protocol", ConsistencyMode.MESI), ComputeKernel,
     every_head_through_fetch),
    (("teleport", "memory", ConsistencyMode.MESI), CoherenceProtocol,
     every_head_through_memory_touch),
], ids=["local", "compute", "compute+protocol", "memory"])
def test_guard_catches_a_loop_that_serves_no_head_inline(scenario, pool_class, loop):
    """A ``touch_runs`` that sends every head through the per-head call
    fails the guard above: page 3 is a hit (in the memory pool, a quiet
    read) when the batch starts."""
    kind, where, mode = scenario
    warmup = [(3, False)]
    batches = [([(3, 2), (5, 1), (3, 1)], False)]
    with heads_served_inline(), mock.patch.object(pool_class, "touch_runs", loop):
        with pytest.raises((AssertionError, PushdownUserError), match="went through"):
            play(kind, where, mode, warmup, batches, collapsed_cost)


@pytest.mark.parametrize("write", [False, True])
@pytest.mark.parametrize("scenario", [
    ("local", "local", None),
    ("ddc", "compute", None),
    ("teleport", "memory", ConsistencyMode.MESI),
])
def test_large_batch_matches_per_access_loop(scenario, write):
    """One batch of about 40 000 accesses in runs of 1-3 over all pages,
    on the local, compute and memory pools, is as exact as a small one."""
    rng = np.random.default_rng(7)
    pages = rng.integers(0, N_PAGES, 20_000).tolist()
    runs = list(zip(pages, rng.integers(1, 4, 20_000).tolist()))
    assert sum(length for _page, length in runs) > 32_768
    warmup = [(page, page % 3 == 0) for page in range(0, N_PAGES, 2)]
    kind, where, mode = scenario
    assert_exact(kind, where, mode, warmup, [(runs, write)], 4.1)


@pytest.mark.parametrize("line_ns", [4.0, 4.1])
@pytest.mark.parametrize("mode", [ConsistencyMode.MESI, ConsistencyMode.PSO, ConsistencyMode.WEAK])
def test_memory_reads_and_writes_over_shared_and_owned_ptes(mode, line_ns):
    """Within one pushdown: reads and writes of pages whose ``t_mm`` PTE is
    still shared, then of the same pages once owned, around pages the
    compute pool holds (read-only or writable) and pages the memory pool
    spilled."""
    warmup = [(page, page % 3 == 0) for page in range(0, 24, 2)]
    shared = [(page, 1 + page % 3) for page in range(30, 40)]
    cached = [(page, 2) for page in range(0, 24, 4)]
    batches = [
        (shared, False),
        (shared, True),
        (shared, True),
        (shared + cached, False),
        (cached + shared, True),
        ([(page, 1) for page in range(N_PAGES)], False),
        ([(page, 1) for page in range(N_PAGES)], True),
    ]
    assert_exact("teleport", "memory", mode, warmup, batches, line_ns)


#: Every pager, and the memory side with no temporary context.
DENSE_SCENARIOS = SCENARIOS + [("teleport", "memory without t_mm", ConsistencyMode.MESI)]


@settings(max_examples=60, deadline=None)
@given(
    scenario=st.sampled_from(DENSE_SCENARIOS),
    pool=st.sampled_from(sorted(POOLS)),
    warmup=WARMUP,
    batches=DENSE_BATCHES,
    line_ns=st.sampled_from([4.0, 4.1]),
)
def test_dense_batches_match_per_access_loop(scenario, pool, warmup, batches, line_ns):
    """Batches of up to about 200 heads over at most 8 pages, which the
    swap and the memory side serve once per distinct page when no page
    can be evicted within the batch (``holds``, ``room``) and head by head
    otherwise (``spills``), agree with the per-access loop bit for bit,
    with the tracer on and off."""
    kind, where, mode = scenario
    assert_exact(kind, where, mode, warmup, batches, line_ns, pool=pool)


#: Twice as many runs as pages, up to 200, over a window of up to 40 of
#: the 48 pages: dense compute batches, most of which overflow the 12-page
#: cache.
WIDE_DENSE_RUNS = st.tuples(st.integers(0, N_PAGES - 40), st.integers(1, 40)).flatmap(
    lambda window: window_runs(window, min_size=2 * window[1])
)


@settings(max_examples=60, deadline=None)
@given(
    pool=st.sampled_from(sorted(POOLS)),
    warmup=WARMUP,
    batches=st.lists(st.tuples(WIDE_DENSE_RUNS, st.booleans()), min_size=1, max_size=4),
    line_ns=st.sampled_from([4.0, 4.1]),
)
# Page 1, then page 0, is a hit on an entry cached before the second
# batch: the memory pool must not move either.
@example(
    pool="holds",
    warmup=[],
    batches=[([(0, 1), (1, 1), (0, 1)], False), ([(1, 1), (0, 1), (1, 1)], False)],
    line_ns=4.0,
)
# Page 0, cached clean, is hit by a write and then evicted within the
# batch: its victim is dirty.
@example(
    pool="holds",
    warmup=[(0, False)],
    batches=[([(0, 1), (1, 1), (0, 1)] + [(page, 1) for page in range(2, 15)], True)],
    line_ns=4.0,
)
# Page 0, spilled by the memory pool, is faulted back in clean and written
# in the compute cache; a replayed batch over 14 pages the pool holds
# evicts it, and its write-back must dirty the pool's copy (the pool is
# not all_dirty).
@example(
    pool="spills",
    warmup=[(0, True)],
    batches=[([(page, 1) for page in range(17, 31)] * 2, False)],
    line_ns=4.0,
)
def test_dense_compute_batches_over_the_cache_match_per_access_loop(
    pool, warmup, batches, line_ns
):
    """Dense compute batches over windows of up to 40 pages, which
    overflow the 12-page cache, after clean and dirty warm-ups, agree with
    the per-access loop bit for bit, with the tracer on and off."""
    assert_exact("ddc", "compute", None, warmup, batches, line_ns, pool=pool)


DENSE_RUN_LIST = [(page, 1 + page % 3) for _ in range(12) for page in (5, 9, 6, 5, 8, 12, 7)]
#: 57 heads over 19 of the 37 pages spanned: dense, and more pages than the
#: compute cache holds.
OVERFLOWING_RUN_LIST = [(page, 1 + page % 3) for _ in range(3) for page in range(2, 40, 2)]


def no_per_head_loop(self, heads, repeats, write, now, span=None):
    raise AssertionError(f"a dense batch of {len(heads)} heads took the per-head loop")


def dense_cost(ctx, vpns, write):
    """``_random_cost`` of a batch that must not reach the pager's
    per-head loop."""
    with mock.patch.object(type(ctx.pager), "touch_runs", no_per_head_loop):
        return ctx._random_cost(vpns, write)


@pytest.mark.parametrize("scenario, pool, runs", [
    (("local", "local", None), "holds", DENSE_RUN_LIST),
    (("teleport", "memory", ConsistencyMode.MESI), "holds", DENSE_RUN_LIST),
    (("teleport", "memory", ConsistencyMode.MESI), "room", DENSE_RUN_LIST),
    (("teleport", "memory", ConsistencyMode.PSO), "room", DENSE_RUN_LIST),
    (("teleport", "memory", ConsistencyMode.WEAK), "room", DENSE_RUN_LIST),
    (("teleport", "memory without t_mm", ConsistencyMode.MESI), "room", DENSE_RUN_LIST),
    (("ddc", "compute", None), "holds", DENSE_RUN_LIST),
    (("ddc", "compute", None), "holds", OVERFLOWING_RUN_LIST),
], ids=["local", "mesi-holds", "mesi-room", "pso-room", "weak-room", "no-t_mm-room",
        "compute-fits", "compute-overflows"])
def test_dense_batch_skips_the_per_head_loop(scenario, pool, runs):
    """When the pool has room for a dense batch's pages, the batch never
    reaches the per-head loop and still matches the per-access loop. The
    compute pool caches some of the pages, writable or read-only; in the
    ``room`` pool all of them start on storage. The compute cache, whose
    replay runs with the tracer off, needs no room: a batch that fits it
    and one that overflows it both skip the loop."""
    kind, where, mode = scenario
    warmup = [(page, page % 2 == 0) for page in range(4, 14, 3)]
    batches = [(runs, False), (runs, True), (runs[::-1], False)]
    args = (kind, where, mode, warmup, batches)
    traced = where != "compute"
    expected = play(*args, reference_cost, traced=True, pool=pool)
    with heads_served_inline():
        actual = play(*args, dense_cost, traced=traced, pool=pool)
    assert actual == (expected if traced else dict(expected, events=[]))
    if pool == "room":
        assert actual["stats"]["storage_faults"] > 0
    if runs is OVERFLOWING_RUN_LIST:
        assert actual["stats"]["dirty_writebacks"] > 0


@pytest.mark.parametrize("write", [False, True])
@pytest.mark.parametrize("mode", [ConsistencyMode.MESI, ConsistencyMode.PSO, ConsistencyMode.WEAK])
def test_dense_memory_batch_checks_swmr_once_per_head(mode, write):
    """With sanitizers armed, a dense memory-side batch makes one SWMR
    check per head, as the per-head loop does, though it serves each page
    once. CI's micro-sanitize lane pins the count over whole figures, so
    a path that checked once per distinct page must fail here first."""
    vpns = expand(DENSE_RUN_LIST, 0)
    checks = []
    for per_head in (False, True):
        config = DdcConfig(sanitizers=True, **dict(CONFIG, **POOLS["holds"]))
        platform = make_platform("teleport", config)
        process = platform.new_process()
        region = process.alloc_array("data", np.zeros(N_PAGES * PAGE_ELEMENTS))
        ctx = platform.main_context(process)
        for page in (5, 8, 12):
            ctx.touch_page(region.start_vpn + page, write=page != 8)
        batch = vpns + region.start_vpn
        heads, repeats = _page_runs(batch)
        assert len(heads) > heads.max() - heads.min() + 1

        def run(c, per_head=per_head, heads=heads, repeats=repeats, batch=batch):
            suite = c.platform.sanitizers
            before = suite.swmr_checks
            if per_head:
                c.pager.touch_runs(heads.tolist(), repeats.tolist(), write, c.now)
            else:
                dense_cost(c, batch, write)
            return suite.swmr_checks - before

        checks.append(ctx.pushdown(run, consistency=mode))
    assert checks == [len(heads), len(heads)]
