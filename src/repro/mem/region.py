"""Virtual-memory regions and address spaces.

A :class:`Region` is a contiguous range of virtual pages backed by a real
numpy array — applications compute on the array directly, while the
simulation charges costs for the pages an access touches. A
:class:`AddressSpace` allocates regions and owns the process's full page
table (which, in a DDC, resides in the memory pool).
"""

import numpy as np

from repro.errors import AccessError, AllocationError
from repro.mem.page_table import PageTable


class Region:
    """A contiguous allocation of virtual pages backed by a numpy buffer."""

    __slots__ = ("name", "start_vpn", "npages", "nbytes", "array", "itemsize", "page_size")

    def __init__(self, name, start_vpn, npages, array, page_size):
        self.name = name
        self.start_vpn = start_vpn
        self.npages = npages
        self.array = array
        self.itemsize = int(array.itemsize)
        self.page_size = page_size
        self.nbytes = int(array.nbytes)

    def __len__(self):
        return len(self.array)

    @property
    def end_vpn(self):
        """One past the last vpn of the region."""
        return self.start_vpn + self.npages

    def vpns_of_indices(self, indices):
        """Vectorised vpn lookup for an array of element indices."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self.array)):
            raise AccessError(f"indices out of range for region {self.name!r}")
        return self.start_vpn + (indices * self.itemsize) // self.page_size

    def vpn_range_of_slice(self, lo, hi):
        """(start_vpn, end_vpn) covering elements [lo, hi)."""
        if lo < 0 or hi > len(self.array) or lo > hi:
            raise AccessError(
                f"slice [{lo}, {hi}) out of range for region {self.name!r} "
                f"of length {len(self.array)}"
            )
        if lo == hi:
            return self.start_vpn, self.start_vpn
        # int(): costs derived from numpy vpns are numpy ints, which the clock rejects.
        first = self.start_vpn + (int(lo) * self.itemsize) // self.page_size
        last = self.start_vpn + (int(hi - 1) * self.itemsize) // self.page_size
        return first, last + 1

    def all_vpns(self):
        return range(self.start_vpn, self.end_vpn)

    def __repr__(self):
        return (
            f"Region({self.name!r}, vpns=[{self.start_vpn}, {self.end_vpn}), "
            f"{self.nbytes} bytes)"
        )


class AddressSpace:
    """A process's virtual address space: regions plus the full page table."""

    #: Guard pages left between regions so off-by-one accesses fault loudly.
    _GUARD_PAGES = 1

    def __init__(self, page_size, base_vpn=0):
        self.page_size = page_size
        self.regions = {}
        self.full_table = PageTable(self.regions)
        self._next_vpn = base_vpn

    def alloc_array(self, name, array):
        """Register a numpy array as a region of this address space.

        Its pages are mapped present+writable in the full page table from
        now until :meth:`free`: in a disaggregated OS every allocation is
        forwarded through the memory pool, so fresh pages are memory-pool
        resident. Regions get rising vpns, and a vpn is never reused.
        """
        if name in self.regions:
            raise AllocationError(f"region name {name!r} already allocated")
        array = np.ascontiguousarray(array)
        npages = max(1, (array.nbytes + self.page_size - 1) // self.page_size)
        region = Region(name, self._next_vpn, npages, array, self.page_size)
        self._next_vpn += npages + self._GUARD_PAGES
        self.regions[name] = region
        return region

    def alloc(self, name, nbytes, dtype=np.uint8):
        """Allocate a zero-filled region of ``nbytes``."""
        itemsize = np.dtype(dtype).itemsize
        count = max(1, int(nbytes) // itemsize)
        return self.alloc_array(name, np.zeros(count, dtype=dtype))

    def alloc_like(self, name, count, dtype):
        """Allocate an uninitialised region of ``count`` elements."""
        return self.alloc_array(name, np.zeros(count, dtype=dtype))

    def check_live(self, region):
        """Raise AllocationError unless ``region`` is the live region of its
        name (a handle kept past its free is not, even if the name was
        allocated again)."""
        if self.regions.get(region.name) is not region:
            raise AllocationError(f"region {region.name!r} is not allocated")

    def free(self, region):
        """Release a region; its pages are unmapped everywhere."""
        self.check_live(region)
        del self.regions[region.name]

    def unique_name(self, prefix):
        """Generate an unused region name with the given prefix."""
        candidate = prefix
        suffix = 0
        while candidate in self.regions:
            suffix += 1
            candidate = f"{prefix}.{suffix}"
        return candidate
