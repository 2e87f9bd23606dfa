"""Tests for PTEs, the full page table and its snapshots."""

from repro.mem.page import PageTableEntry
from repro.mem.region import AddressSpace

PAGE = 4096


def test_pte_defaults_absent():
    pte = PageTableEntry()
    assert not pte.present
    assert pte.permission == "0"


def test_pte_permission_symbols():
    assert PageTableEntry(present=True, writable=True).permission == "W"
    assert PageTableEntry(present=True, writable=False).permission == "R"
    assert PageTableEntry(present=False).permission == "0"


def test_pte_equality():
    assert PageTableEntry(True, True) == PageTableEntry(True, True)
    assert PageTableEntry(True, True) != PageTableEntry(True, False)


def test_empty_table():
    table = AddressSpace(PAGE).full_table
    assert len(table) == 0
    assert table.snapshot().peek(0) is None


def test_ensure_creates_absent_entry():
    snap = AddressSpace(PAGE).full_table.snapshot()
    pte = snap.ensure(5)
    assert not pte.present
    assert snap.get(5) is pte
    assert [vpn for vpn, _pte in snap.owned_entries()] == [5]


def test_map_range():
    space = AddressSpace(PAGE, base_vpn=10)
    space.alloc("a", 4 * PAGE)
    table = space.full_table
    assert len(table) == 4
    view = table.snapshot()
    assert view.peek(9) is None
    assert view.peek(10).present
    assert view.peek(13).writable
    assert view.peek(14) is None


def test_unmap_range():
    space = AddressSpace(PAGE)
    first = space.alloc("a", 5 * PAGE)
    second = space.alloc("b", 5 * PAGE)
    space.free(first)
    table = space.full_table
    assert len(table) == 5
    assert table.snapshot().peek(first.start_vpn + 2) is None
    assert table.snapshot().peek(second.start_vpn + 2).present


def test_snapshot_copies_on_access():
    space = AddressSpace(PAGE)
    space.alloc("a", 2 * PAGE)
    table = space.full_table
    snap = table.snapshot()
    assert snap.peek(0) == PageTableEntry(True, True)
    assert not snap.owned_entries()  # peek never takes ownership
    copy = snap.get(0)
    assert copy.present and copy.writable
    assert not copy.dirty  # owned copies start clean
    copy.present = False
    assert table.snapshot().peek(0).present
    assert snap.peek(0) is copy
    assert [vpn for vpn, _pte in snap.owned_entries()] == [0]


def test_snapshot_ensure_maps_unmapped_vpn():
    space = AddressSpace(PAGE)
    space.alloc("a", PAGE)
    table = space.full_table
    snap = table.snapshot()
    pte = snap.ensure(7)
    assert not pte.present
    assert snap.get(7) is pte
    assert [vpn for vpn, _pte in snap.owned_entries()] == [7]
    assert snap.peek(7) is pte
    assert table.snapshot().peek(7) is None
