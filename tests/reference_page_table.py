"""Per-page reference of the full page table and its snapshot.

This is the page table as it mapped a region: one
:class:`~repro.mem.page.PageTableEntry` per page, built at map time, in a
plain dict. The property tests run it side by side with
:class:`repro.mem.page_table.PageTable`, a view of an address space's live
regions that keeps no per-page state, and its snapshot, which keeps the
region bounds as of the snapshot and builds a page's PTE on first update;
every observable flag must agree. The snapshot here is written per page
too, so the reference shares no table code with what it checks.
"""

from repro.mem import page_table
from repro.mem.page import PageTableEntry


def assert_held_ptes_intact():
    """The two PTEs every held page of a snapshot shares until an update
    copies it still hold their bits."""
    for pte, bits in ((page_table._HELD_READ_ONLY, (True, False, False)),
                      (page_table._HELD_WRITABLE, (False, False, False))):
        assert (pte.present, pte.writable, pte.dirty) == bits


class ReferencePageTable:
    """Eager vpn -> PTE dict."""

    def __init__(self):
        self.entries = {}

    def __len__(self):
        return len(self.entries)

    def get(self, vpn):
        return self.entries.get(vpn)

    def ensure(self, vpn):
        entry = self.entries.get(vpn)
        if entry is None:
            entry = PageTableEntry()
            self.entries[vpn] = entry
        return entry

    def map_range(self, start_vpn, npages):
        for vpn in range(start_vpn, start_vpn + npages):
            self.entries[vpn] = PageTableEntry(True, True, False)

    def unmap_range(self, start_vpn, npages):
        for vpn in range(start_vpn, start_vpn + npages):
            self.entries.pop(vpn, None)

    def vpns(self):
        return self.entries.keys()

    def snapshot(self):
        return ReferenceSnapshot(self.entries)


class ReferenceSnapshot:
    """Copy-on-access view: a PTE is copied (clean) on first get/ensure."""

    def __init__(self, entries):
        self.entries = dict(entries)
        self.owned = {}

    def peek(self, vpn):
        if vpn in self.owned:
            return self.owned[vpn]
        return self.entries.get(vpn)

    def get(self, vpn):
        if vpn not in self.owned:
            shared = self.entries.get(vpn)
            if shared is None:
                return None
            self.owned[vpn] = PageTableEntry(shared.present, shared.writable)
        return self.owned[vpn]

    def ensure(self, vpn):
        if vpn not in self.entries:
            self.entries[vpn] = PageTableEntry()
        return self.get(vpn)

    def owned_entries(self):
        return self.owned.items()
