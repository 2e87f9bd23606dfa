"""Sparse page tables.

The memory pool holds each process's *full* page table; during pushdown a
temporary context works on that table as of the pushdown's start
(Figure 8). The full table is a :class:`PageTable`, a sparse map from
virtual page number (vpn) to :class:`~repro.mem.page.PageTableEntry`; the
temporary context's is a :class:`PageTableSnapshot` taken from it, which
copies a PTE only when the protocol first reads it for update.

A freshly mapped page is *born*: present, writable and clean, the state
almost every page keeps for its whole life. Rather than one PTE per page,
:meth:`PageTable.map_range` maps a region's vpns to one shared, read-only
:data:`_BORN` entry; the table builds a page's own PTE the first time
:meth:`PageTable.get` or :meth:`PageTable.ensure` returns it, since only
those hand out PTEs that may be updated.
"""

from itertools import repeat

from repro.mem.page import PageTableEntry


class _BornEntry(PageTableEntry):
    """The state of a freshly mapped page, shared by every page still in it.

    With no slots of its own, the class attributes below shadow the
    inherited slots, so assigning to any of them raises AttributeError.
    """

    __slots__ = ()
    present = True
    writable = True
    dirty = False

    def __init__(self):
        pass


_BORN = _BornEntry()


class PageTable:
    """Sparse vpn -> PTE mapping; freshly mapped vpns share :data:`_BORN`."""

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries = {}

    def __len__(self):
        return len(self._entries)

    def __contains__(self, vpn):
        return vpn in self._entries

    def get(self, vpn):
        """Return the PTE for ``vpn`` or None if never mapped; a born page
        gets its own PTE here."""
        entry = self._entries.get(vpn)
        if entry is _BORN:
            entry = self._entries[vpn] = PageTableEntry(True, True)
        return entry

    def ensure(self, vpn):
        """Return the PTE for ``vpn``, creating an absent one if needed."""
        entry = self._entries.get(vpn)
        if entry is None:
            entry = PageTableEntry()
            self._entries[vpn] = entry
        elif entry is _BORN:
            entry = self._entries[vpn] = PageTableEntry(True, True)
        return entry

    def map_range(self, start_vpn, npages):
        """Map ``npages`` consecutive pages present, writable and clean,
        without building a PTE per page."""
        self._entries.update(zip(range(start_vpn, start_vpn + npages), repeat(_BORN)))

    def unmap_range(self, start_vpn, npages):
        """Remove mappings for a freed region."""
        for vpn in range(start_vpn, start_vpn + npages):
            self._entries.pop(vpn, None)

    def vpns(self):
        return self._entries.keys()

    def dirty_vpns(self):
        """All vpns whose pages are present and dirty."""
        return [vpn for vpn, pte in self._entries.items() if pte.present and pte.dirty]

    def snapshot(self):
        """Copy-on-access view of this table as of now (the temporary
        context's table)."""
        return PageTableSnapshot(self._entries)

    def __repr__(self):
        return f"PageTable({len(self._entries)} entries)"


class PageTableSnapshot:
    """A page table's mappings as of one instant, copied on access.

    Taking the snapshot copies only the vpn -> PTE map, not the PTEs, so
    regions mapped or unmapped in the source table afterwards do not show
    up here. A PTE is copied into a private *owned* map the first time
    :meth:`get` or :meth:`ensure` returns it; only owned PTEs are ever
    changed. An owned copy starts clean (``dirty=False``), so its dirty bit
    means "dirtied since the snapshot". :meth:`peek` reads without copying
    and may return the shared born entry.

    Born markers are copied with the map and read as present, writable and
    clean, which is exact: the full table never changes a page's present or
    writable bit after mapping, only its dirty bit, and an owned copy
    starts clean either way.
    """

    __slots__ = ("_entries", "_owned")

    def __init__(self, entries):
        self._entries = dict(entries)
        #: vpn -> owned PTE. ``CoherenceProtocol.touch_runs`` reads both
        #: maps directly, as :meth:`peek` does, and adds an owned copy as
        #: :meth:`ensure` would, so that a quiet touch costs it no call.
        self._owned = {}

    def __len__(self):
        return len(self._entries)

    def __contains__(self, vpn):
        return vpn in self._entries

    def peek(self, vpn):
        """The PTE for ``vpn`` (or None) without copying it; read only."""
        entry = self._owned.get(vpn)
        if entry is None:
            return self._entries.get(vpn)
        return entry

    def get(self, vpn):
        """The owned PTE for ``vpn``, copied on first access; None if the
        page was not mapped when the snapshot was taken."""
        entry = self._owned.get(vpn)
        if entry is None:
            shared = self._entries.get(vpn)
            if shared is None:
                return None
            entry = PageTableEntry(shared.present, shared.writable)
            self._owned[vpn] = entry
        return entry

    def ensure(self, vpn):
        """Like :meth:`get`, creating an absent PTE for an unmapped vpn."""
        entry = self._owned.get(vpn)
        if entry is None:
            shared = self._entries.get(vpn)
            if shared is None:
                entry = PageTableEntry()
                self._entries[vpn] = entry
            else:
                entry = PageTableEntry(shared.present, shared.writable)
            self._owned[vpn] = entry
        return entry

    def owned_entries(self):
        """(vpn, PTE) pairs of the PTEs copied so far."""
        return self._owned.items()

    def __repr__(self):
        return f"PageTableSnapshot({len(self._entries)} entries, {len(self._owned)} owned)"
