"""Property test: the run-collapsed random-access path is exact.

``ExecutionContext._random_cost_exact`` sends each run of repeated pages
through the pool machinery once and charges the repeats as row-buffer
hits. Here it is compared with the plain per-access loop (kept below as
the reference) on two identical platforms: the returned cost must be
bit-equal, the counters identical and the caches in the same LRU order,
for the local pool, the compute pool (with and without a live protocol)
and the memory pool under MESI, PSO and WEAK.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddc import Pool, make_platform
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


def reference_cost(ctx, vpns, write):
    """The per-access loop: every access goes through the pool machinery;
    a compute-pool miss through the per-page reference kernel."""
    config = ctx.config
    cost = 0.0
    prev = None
    now = ctx.now
    for vpn in vpns:
        if ctx.pool is Pool.LOCAL:
            cost += ctx.platform.swap.touch(vpn, dirty=write)
        elif ctx.pool is Pool.COMPUTE:
            cost += reference_kernel.touch_random(
                ctx.compkernel, ctx.memkernel, vpn, write, now + cost
            )
        else:
            cost += ctx.protocol.memory_touch(vpn, write, now + cost)
        cost += config.dram_line_ns if vpn == prev else config.dram_random_ns
        prev = vpn
    if ctx.pool is Pool.MEMORY:
        ctx.stats.memory_side_page_touches += len(vpns)
    return cost


def collapsed_cost(ctx, vpns, write):
    return ctx._random_cost_exact(vpns, write)


RUNS = st.lists(st.tuples(st.integers(0, N_PAGES - 1), st.integers(1, 6)), min_size=1, max_size=20)
BATCHES = st.lists(st.tuples(RUNS, st.booleans()), min_size=1, max_size=6)
WARMUP = st.lists(st.tuples(st.integers(0, N_PAGES - 1), st.booleans()), max_size=24)


def expand(runs, start_vpn):
    return np.array(
        [start_vpn + page for page, length in runs for _ in range(length)], dtype=np.int64
    )


def play(kind, where, mode, warmup, batches, cost_fn, line_ns=4.0):
    """Run warm-up accesses, then ``batches`` through ``cost_fn``; return
    everything the two paths must agree on."""
    platform = make_platform(kind, DdcConfig(dram_line_ns=line_ns, **CONFIG))
    process = platform.new_process()
    region = process.alloc_array("data", np.zeros(N_PAGES * PAGE_ELEMENTS))
    ctx = platform.main_context(process)
    for page, write in warmup:
        ctx.touch_page(region.start_vpn + page, write=write)
    costs = []

    def run_batches(c):
        for runs, write in batches:
            cost = cost_fn(c, expand(runs, region.start_vpn), write)
            costs.append(cost)
            c.charge_ns(cost)

    if where == "memory":
        ctx.pushdown(run_batches, consistency=mode)
    elif where == "compute+protocol":
        compute, _memory = platform.kernels_for(process)
        protocol = CoherenceProtocol(platform, process, mode)
        protocol.setup(compute.resident_snapshot())
        compute.protocol = protocol
        run_batches(ctx)
    else:
        run_batches(ctx)

    state = {"costs": costs, "now": ctx.now, "stats": platform.stats.as_dict()}
    if kind == "local":
        state["swap"] = list(platform.swap._resident.items())
    else:
        compute, memory = platform.kernels_for(process)
        state["cache"] = [
            (vpn, entry.writable, entry.dirty) for vpn, entry in compute.cache.resident_items()
        ]
        state["memory_pool"] = list(memory.pool._resident.items())
        state["dirty"] = sorted(process.address_space.full_table.dirty_vpns())
        if compute.protocol is not None:
            state["t_mm"] = sorted(
                (vpn, pte.present, pte.writable, pte.dirty)
                for vpn, pte in compute.protocol.t_mm.owned_entries()
            )
    return state


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
    # A line cost that is not a small dyadic number makes every addition
    # round, so charging k-1 repeats in one step would show.
    line_ns=st.sampled_from([4.0, 4.1]),
)
def test_collapsed_runs_match_per_access_loop(scenario, warmup, batches, line_ns):
    kind, where, mode = scenario
    expected = play(kind, where, mode, warmup, batches, reference_cost, line_ns)
    actual = play(kind, where, mode, warmup, batches, collapsed_cost, line_ns)
    # Bit-equal, not approximately equal.
    assert actual["costs"] == expected["costs"]
    assert actual == expected


def test_repeats_count_as_compute_cache_hits():
    states = [
        play("ddc", "compute", None, [], [([(3, 5)], True)], fn)
        for fn in (reference_cost, collapsed_cost)
    ]
    assert states[0]["stats"]["cache_hits"] == 4
    assert states[0] == states[1]
