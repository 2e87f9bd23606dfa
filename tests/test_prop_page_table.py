"""The page table against its per-page reference, and born entries.

:class:`~repro.mem.page_table.PageTable` maps a fresh region to one shared,
read-only born entry and builds a page's own PTE only when ``get`` or
``ensure`` first returns it. The property test runs random sequences of
region maps and unmaps, full-table updates, snapshots, snapshot updates and
``finish``-style dirty merges on it and on
:class:`tests.reference_page_table.ReferencePageTable`, which builds every
PTE at map time, and requires every observable flag to agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddc import make_platform
from repro.mem.page import PageTableEntry
from repro.mem.page_table import PageTable
from repro.sim.units import MIB
from tests.reference_page_table import ReferencePageTable

VPN_LIMIT = 48
VPNS = st.integers(min_value=0, max_value=VPN_LIMIT - 1)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 6)),
        st.tuples(st.just("free"), st.integers(0, 7)),
        st.tuples(st.just("dirty"), VPNS),
        st.tuples(st.just("ensure"), VPNS),
        st.tuples(st.just("snapshot")),
        st.tuples(
            st.just("snap_get"), VPNS,
            st.sampled_from(["read", "invalidate", "downgrade", "dirty"]),
        ),
        st.tuples(st.just("snap_ensure"), VPNS),
        st.tuples(st.just("finish")),
    ),
    max_size=50,
)


def flags(pte):
    return None if pte is None else (pte.present, pte.writable, pte.dirty)


def table_state(table):
    view = table.snapshot()  # peek reads without building PTEs
    return (
        len(table),
        list(table.vpns()),
        table.dirty_vpns(),
        [flags(view.peek(vpn)) for vpn in table.vpns()],
    )


def snapshot_state(snap):
    """What a snapshot's users read: ``peek`` serves present/writable
    checks only. A shared PTE's dirty bit is not part of the snapshot (the
    reference's aliases later full-table updates, a born entry's does not);
    dirty bits are read from owned copies."""
    return (
        len(snap),
        [None if pte is None else pte.permission
         for pte in map(snap.peek, range(VPN_LIMIT + 8))],
        [(vpn, flags(pte)) for vpn, pte in snap.owned_entries()],
    )


def update(pte, action):
    if action == "invalidate":
        pte.present = False
        pte.writable = False
    elif action == "downgrade":
        pte.writable = False
    elif action == "dirty":
        pte.dirty = True


def finish(table, snap):
    """Merge a snapshot's dirty bits back, as ``CoherenceProtocol.finish``."""
    for vpn, pte in snap.owned_entries():
        if pte.dirty:
            full = table.get(vpn)
            if full is not None:
                full.dirty = True


def apply(op, table, snap, regions, next_vpn):
    """Apply one op to one table; returns (result, snap, next_vpn)."""
    kind = op[0]
    result = None
    if kind == "alloc":
        table.map_range(next_vpn, op[1])
        regions.append((next_vpn, op[1]))
        next_vpn += op[1] + 1  # one guard page, as AddressSpace leaves
    elif kind == "free":
        if regions:
            table.unmap_range(*regions.pop(op[1] % len(regions)))
    elif kind in ("dirty", "ensure"):
        # The full table only ever changes a mapped page's dirty bit.
        pte = table.get(op[1]) if kind == "dirty" else table.ensure(op[1])
        result = flags(pte)
        if pte is not None:
            pte.dirty = True
    elif kind == "snapshot":
        if snap is None:
            snap = table.snapshot()
    elif snap is None:
        pass
    elif kind == "snap_get":
        pte = snap.get(op[1])
        result = flags(pte)
        if pte is not None:
            update(pte, op[2])
    elif kind == "snap_ensure":
        result = flags(snap.ensure(op[1]))
    elif kind == "finish":
        finish(table, snap)
        snap = None
    return result, snap, next_vpn


@given(ops=OPS)
@settings(max_examples=300, deadline=None)
def test_page_table_matches_per_page_reference(ops):
    real, ref = PageTable(), ReferencePageTable()
    real_snap = ref_snap = None
    real_regions, ref_regions = [], []
    real_next = ref_next = 0
    for op in ops:
        real_result, real_snap, real_next = apply(op, real, real_snap, real_regions, real_next)
        ref_result, ref_snap, ref_next = apply(op, ref, ref_snap, ref_regions, ref_next)
        assert real_result == ref_result, op
        assert table_state(real) == table_state(ref), op
        assert (real_snap is None) == (ref_snap is None)
        if real_snap is not None:
            assert snapshot_state(real_snap) == snapshot_state(ref_snap), op


def test_fresh_region_builds_no_pte(monkeypatch):
    platform = make_platform("teleport")
    process = platform.new_process()
    built = []
    init = PageTableEntry.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(PageTableEntry, "__init__", counting_init)
    region = process.alloc("cell", 192 * MIB)
    assert region.npages == 192 * MIB // platform.config.page_size
    assert built == []
    assert process.address_space.full_table.get(region.start_vpn).present
    assert len(built) == 1


def test_born_entry_is_read_only():
    table = PageTable()
    table.map_range(0, 2)
    born = table.snapshot().peek(0)
    assert isinstance(born, PageTableEntry)
    assert born == PageTableEntry(True, True)
    for field, value in (("present", False), ("writable", False), ("dirty", True)):
        with pytest.raises(AttributeError):
            setattr(born, field, value)
    assert flags(table.snapshot().peek(1)) == (True, True, False)
