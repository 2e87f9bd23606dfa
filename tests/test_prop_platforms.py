"""Property-based tests spanning the whole stack.

The library's core promise: the same program computes identical results on
the monolithic baseline, the base DDC, and TELEPORT, while virtual time
differs. We drive random access programs and random query parameters
through all three platforms and compare.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import QueryExecutor
from repro.db.tpch import build_q6, build_qfilter, generate, reference_q6, reference_qfilter
from repro.ddc import make_platform
from repro.errors import AllocationError
from repro.mem.region import AddressSpace
from repro.sim.config import DdcConfig
from repro.sim.units import KIB

N_ELEMENTS = 4096

PROGRAMS = st.lists(
    st.one_of(
        st.tuples(
            st.just("store_slice"),
            st.integers(0, N_ELEMENTS - 64),
            st.integers(1, 64),
            st.floats(-100, 100, allow_nan=False),
        ),
        st.tuples(
            st.just("scatter"),
            st.lists(st.integers(0, N_ELEMENTS - 1), min_size=1, max_size=16),
            st.floats(-100, 100, allow_nan=False),
        ),
        st.tuples(st.just("load"), st.integers(0, N_ELEMENTS - 1)),
    ),
    min_size=1,
    max_size=24,
)


def execute(kind, program, pushdown_steps=()):
    platform = make_platform(kind, DdcConfig(compute_cache_bytes=64 * KIB))
    process = platform.new_process()
    region = process.alloc_array("data", np.zeros(N_ELEMENTS))
    ctx = platform.main_context(process)
    observations = []
    for index, step in enumerate(program):
        def apply_step(c, step=step):
            if step[0] == "store_slice":
                _name, lo, length, value = step
                c.store_slice(region, lo, np.full(length, value))
            elif step[0] == "scatter":
                _name, indices, value = step
                idx = np.array(indices, dtype=np.int64)
                c.scatter(region, idx, np.full(len(idx), value))
            else:
                observations.append(float(c.load_at(region, step[1])))

        if kind == "teleport" and index in pushdown_steps:
            ctx.pushdown(apply_step)
        else:
            apply_step(ctx)
    return region.array.copy(), observations, ctx.now


@given(program=PROGRAMS, data=st.data())
@settings(max_examples=60, deadline=None)
def test_platforms_compute_identical_state(program, data):
    pushdown_steps = data.draw(
        st.sets(st.integers(0, len(program) - 1), max_size=len(program))
    )
    local_state, local_obs, _t = execute("local", program)
    ddc_state, ddc_obs, _t = execute("ddc", program)
    tp_state, tp_obs, _t = execute("teleport", program, pushdown_steps)
    assert (local_state == ddc_state).all()
    assert (local_state == tp_state).all()
    assert local_obs == ddc_obs == tp_obs


@given(program=PROGRAMS)
@settings(max_examples=40, deadline=None)
def test_time_always_advances(program):
    for kind in ("local", "ddc"):
        _state, _obs, elapsed = execute(kind, program)
        assert elapsed > 0


@given(date=st.integers(0, 2600))
@settings(max_examples=20, deadline=None)
def test_qfilter_correct_for_any_date(date):
    dataset = generate(scale_factor=0.5, seed=23)
    platform = make_platform("teleport", DdcConfig(compute_cache_bytes=64 * KIB))
    process = platform.new_process()
    tables = dataset.load_into(process)
    ctx = platform.main_context(process)
    executor = QueryExecutor(ctx, pushdown="all")
    result = executor.execute(build_qfilter(tables, date=date))
    assert result.value == reference_qfilter(dataset, date=date)


@given(date=st.integers(0, 2200))
@settings(max_examples=15, deadline=None)
def test_q6_correct_for_any_date(date):
    dataset = generate(scale_factor=0.5, seed=29)
    platform = make_platform("ddc", DdcConfig(compute_cache_bytes=64 * KIB))
    process = platform.new_process()
    tables = dataset.load_into(process)
    ctx = platform.main_context(process)
    result = QueryExecutor(ctx).execute(build_q6(tables, date=date))
    assert result.value == reference_q6(dataset, date=date)


@given(
    sizes=st.lists(st.integers(1, 40_000), min_size=1, max_size=20),
    frees=st.sets(st.integers(0, 19)),
)
@settings(max_examples=100, deadline=None)
def test_address_space_allocations_never_overlap(sizes, frees):
    space = AddressSpace(4096)
    regions = []
    for index, nbytes in enumerate(sizes):
        region = space.alloc(f"r{index}", nbytes)
        regions.append(region)
    for index in frees:
        if index < len(regions):
            space.free(regions[index])
            regions[index] = None
    live = [region for region in regions if region is not None]
    # Pairwise disjoint vpn ranges.
    spans = sorted((region.start_vpn, region.end_vpn) for region in live)
    for (_s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2
    # The full table maps exactly the live pages.
    mapped = {vpn for region in live for vpn in region.all_vpns()}
    assert len(space.full_table) == len(mapped)
    probed = range(sum(size // 4096 + 2 for size in sizes))
    view = space.full_table.snapshot()
    assert {vpn for vpn in probed if view.maps(vpn, vpn)} == mapped
    # Double free is rejected.
    if live:
        space.free(live[0])
        try:
            space.free(live[0])
            assert False, "double free must raise"
        except AllocationError:
            pass
