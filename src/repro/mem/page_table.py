"""The full page table and the temporary context's snapshot of it.

The memory pool holds each process's *full* page table; during pushdown a
temporary context works on that table as of the pushdown's start
(Figure 8). A page is mapped, present and writable from its region's
allocation to its free, and nothing in between changes its PTE, so the
full table is a :class:`PageTable`: a view of the address space's live
regions that keeps no per-page state. The temporary context's table is a
:class:`PageTableSnapshot` of it: the region bounds as of setup, plus an
owned PTE for each page the compute pool held at setup or the protocol
has read for update since.
"""

from bisect import bisect_right

from repro.mem.page import PageTableEntry

#: The PTEs shared by the pages the compute pool held read-only (present,
#: read-only) and writable (absent) at setup; copied on update, never changed.
_HELD_READ_ONLY = PageTableEntry(True, False)
_HELD_WRITABLE = PageTableEntry(False, False)


class PageTable:
    """A process's full page table: every page of a live region is mapped
    present and writable."""

    __slots__ = ("_regions",)

    def __init__(self, regions):
        #: The address space's name -> Region map. Regions are allocated
        #: at rising vpns and never moved, so its values are in vpn order.
        self._regions = regions

    def __len__(self):
        """The number of mapped pages."""
        return sum(region.npages for region in self._regions.values())

    def snapshot(self):
        """This table as of now, copied on access (the temporary context's
        table)."""
        regions = self._regions.values()
        return PageTableSnapshot(
            [region.start_vpn for region in regions], [region.end_vpn for region in regions]
        )

    def __repr__(self):
        return f"PageTable({len(self._regions)} regions, {len(self)} pages)"


class PageTableSnapshot:
    """A page table's mappings as of one instant, copied on access.

    A page is mapped here if it lay in a region live when the snapshot was
    taken, so regions allocated or freed afterwards do not show up. A
    mapped page reads as present, writable and clean until :meth:`get` or
    :meth:`ensure` first returns it; from then on it has its own *owned*
    PTE, and only owned PTEs are ever changed. The pages :meth:`hold`
    names are owned from the start, but share two PTEs that :meth:`get`
    and :meth:`ensure` copy before handing one out. An owned PTE starts
    clean, so its dirty bit means "dirtied since the snapshot".
    :meth:`peek` reads without taking ownership.
    """

    __slots__ = ("_starts", "_ends", "_owned")

    def __init__(self, starts, ends):
        #: The mapped vpn ranges [starts[i], ends[i]), sorted and disjoint.
        self._starts = starts
        self._ends = ends
        #: vpn -> owned PTE. ``CoherenceProtocol._serve_heads`` reads it
        #: directly, as :meth:`peek` does, and adds an owned PTE as
        #: :meth:`ensure` would, so that a quiet touch costs it no call.
        self._owned = {}

    def hold(self, resident):
        """Own the mapped pages of ``resident``, the compute pool's
        (vpn, writable) list, on a fresh snapshot: Figure 8's
        ``Invalidate`` through the shared held PTEs. One ``maps`` call
        checks a list that lies in one region."""
        owned = self._owned = {
            vpn: _HELD_WRITABLE if writable else _HELD_READ_ONLY for vpn, writable in resident
        }
        if owned and not self.maps(min(owned), max(owned)):
            for vpn in [vpn for vpn in owned if not self.maps(vpn, vpn)]:
                del owned[vpn]

    def maps(self, first, last):
        """Whether every vpn in [first, last] was mapped when the snapshot
        was taken."""
        index = bisect_right(self._starts, first)
        return index > 0 and last < self._ends[index - 1]

    def peek(self, vpn):
        """The PTE for ``vpn`` (or None) without taking ownership; read
        only, since a page not yet owned reads as a new PTE each time and
        a held page as a shared one."""
        entry = self._owned.get(vpn)
        if entry is None and self.maps(vpn, vpn):
            return PageTableEntry(True, True)
        return entry

    def get(self, vpn):
        """The owned PTE for ``vpn``, made on first access; None if the
        page was not mapped when the snapshot was taken."""
        entry = self._owned.get(vpn)
        if entry is None and self.maps(vpn, vpn):
            entry = self._owned[vpn] = PageTableEntry(True, True)
        elif entry is _HELD_READ_ONLY or entry is _HELD_WRITABLE:
            entry = self._owned[vpn] = PageTableEntry(entry.present, False)
        return entry

    def ensure(self, vpn):
        """Like :meth:`get`, making an absent PTE for an unmapped vpn."""
        entry = self._owned.get(vpn)
        if entry is None:
            mapped = self.maps(vpn, vpn)
            entry = self._owned[vpn] = PageTableEntry(mapped, mapped)
        elif entry is _HELD_READ_ONLY or entry is _HELD_WRITABLE:
            entry = self._owned[vpn] = PageTableEntry(entry.present, False)
        return entry

    def owned_entries(self):
        """(vpn, PTE) pairs of the PTEs owned so far."""
        return self._owned.items()

    def __repr__(self):
        return f"PageTableSnapshot({len(self._starts)} regions, {len(self._owned)} owned)"
