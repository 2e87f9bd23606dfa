"""Tests for PTEs and sparse page tables."""

from repro.mem.page import PageTableEntry
from repro.mem.page_table import PageTable


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
    table = PageTable()
    assert len(table) == 0
    assert table.get(0) is None
    assert 0 not in table


def test_ensure_creates_absent_entry():
    table = PageTable()
    pte = table.ensure(5)
    assert not pte.present
    assert table.get(5) is pte
    assert len(table) == 1


def test_map_range():
    table = PageTable()
    table.map_range(10, 4)
    assert len(table) == 4
    assert table.get(10).present
    assert table.get(13).writable
    assert table.get(14) is None


def test_unmap_range():
    table = PageTable()
    table.map_range(0, 10)
    table.unmap_range(0, 5)
    assert len(table) == 5
    assert table.get(2) is None
    assert table.get(7) is not None


def test_present_and_dirty_vpn_queries():
    table = PageTable()
    table.map_range(0, 3)
    table.ensure(100)  # absent
    table.get(1).dirty = True
    assert table.dirty_vpns() == [1]


def test_snapshot_copies_on_access():
    table = PageTable()
    table.map_range(0, 2)
    table.get(0).dirty = True
    table.get(1).dirty = True
    snap = table.snapshot()
    assert snap.peek(0) is table.get(0)  # peek shares, never copies
    assert not snap.owned_entries()
    copy = snap.get(0)
    assert copy is not table.get(0)
    assert copy.present and copy.writable
    assert not copy.dirty  # owned copies start clean
    copy.present = False
    assert table.get(0).present
    assert snap.peek(0) is copy
    assert [vpn for vpn, _pte in snap.owned_entries()] == [0]
    assert len(snap) == 2


def test_snapshot_ensure_maps_unmapped_vpn():
    table = PageTable()
    table.map_range(0, 1)
    snap = table.snapshot()
    pte = snap.ensure(7)
    assert not pte.present
    assert snap.get(7) is pte
    assert len(snap) == 2
    assert 7 not in table
