"""Process contexts.

A :class:`Process` owns a virtual address space whose backing "truth" lives
in the memory pool (on DDC platforms) or in local DRAM (on the monolithic
baseline). Allocation is forwarded through the owning platform so each
platform can set up residency metadata.
"""

import itertools

from repro.mem.region import AddressSpace

_pids = itertools.count(1)


class Process:
    """A user process running on one of the simulated platforms."""

    def __init__(self, platform, base_vpn=0):
        self.pid = next(_pids)
        self.platform = platform
        self.address_space = AddressSpace(platform.config.page_size, base_vpn)

    def alloc_array(self, name, array):
        """Register a numpy array as a named region of this process."""
        region = self.address_space.alloc_array(name, array)
        self.platform.on_alloc(self, region)
        return region

    def alloc(self, name, nbytes, dtype="uint8"):
        """Allocate a zero-filled region."""
        region = self.address_space.alloc(name, nbytes, dtype=dtype)
        self.platform.on_alloc(self, region)
        return region

    def alloc_like(self, name, count, dtype):
        """Allocate a zero-filled region of ``count`` typed elements."""
        region = self.address_space.alloc_like(name, count, dtype)
        self.platform.on_alloc(self, region)
        return region

    def free(self, region):
        """Release a region."""
        self.address_space.check_live(region)
        self.platform.on_free(self, region)
        self.address_space.free(region)

    def unique_name(self, prefix):
        return self.address_space.unique_name(prefix)

    def __repr__(self):
        return f"Process(pid={self.pid}, regions={len(self.address_space.regions)})"
