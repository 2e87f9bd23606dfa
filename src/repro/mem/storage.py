"""The storage pool (NVMe SSD) as a swap device.

Used in two places: the memory pool spills pages here when its capacity is
exceeded (Figure 15), and the monolithic-Linux baseline swaps here when its
DRAM is exhausted (Figure 1a / Figure 14); there it is the platform's pager,
whose :meth:`SwapDevice.touch_runs` and :meth:`SwapDevice.touch_sequential`
serve every access. The device model distinguishes sequential faults
(readahead amortises latency) from random ones (pay the full device +
software path each time).
"""

from collections import OrderedDict, deque
from itertools import repeat

import numpy as np


class SwapDevice:
    """Cost and residency model of the NVMe storage pool.

    Maintains an exact-LRU set of DRAM-resident pages of capacity
    ``capacity_pages``; everything else is "on storage". Costs are returned
    to the caller, which charges its own clock.
    """

    def __init__(self, config, stats, capacity_pages):
        self.config = config
        self.stats = stats
        self.capacity_pages = max(1, capacity_pages)
        #: vpn -> dirty, in LRU order. ``ComputeKernel.touch_runs`` and
        #: ``CoherenceProtocol._serve_heads`` use it directly, so that a
        #: resident page costs them no call. A page is dirty once anything
        #: wrote it in pool DRAM: a write fault, a compute-pool write-back
        #: (:meth:`write_back`) or a memory-side write, which sets the bit
        #: in place and leaves the page's LRU position as it is.
        self._resident = OrderedDict()
        #: True while every page the pool has admitted is resident and
        #: dirty: it has evicted nothing and admitted nothing clean
        #: (allocation admits pages dirty; only a read fault admits a
        #: clean one). A write-back then changes nothing.
        self.all_dirty = True
        self._last_fault_vpn = None

    def __contains__(self, vpn):
        return vpn in self._resident

    @property
    def resident_pages(self):
        return len(self._resident)

    def admit_new_range(self, start_vpn, npages):
        """Admit ``npages`` freshly allocated (anonymous) pages without a
        device read.

        Used at allocation time: new pages are DRAM-resident and dirty with
        respect to storage. Eviction side effects still apply, but no fault
        is counted and no cost is returned — allocation is setup, and the
        cost of any displaced pages is paid when they fault back in.

        Precondition: none of the pages is resident. Fresh regions never
        overlap one another, since an address space never reuses a vpn and
        each process of a platform has its own vpn range. The victims are
        then those of admitting the pages one at a time: the LRU's oldest
        pages, then the range's own earliest pages (dirty), so pages the
        range itself would evict are never inserted.
        """
        kept = min(npages, self.capacity_pages)
        if kept < npages:
            self.all_dirty = False
        self._evict_down_to(self.capacity_pages - kept)
        self.stats.storage_pages_out += npages - kept
        resident = self._resident
        for vpn in range(start_vpn + npages - kept, start_vpn + npages):
            resident[vpn] = True

    def touch(self, vpn, dirty=False):
        """Access one page; return the fault cost in ps (0 on a DRAM hit)."""
        entry_dirty = self._resident.get(vpn)
        if entry_dirty is not None:
            self._resident.move_to_end(vpn)
            if dirty and not entry_dirty:
                self._resident[vpn] = True
            return 0
        return self._fault_in(vpn, dirty)

    def touch_runs(self, heads, repeats, write, now, span=None):
        """The cost of a batch of random runs of page accesses.

        Each run touches its page (its head) as :meth:`touch` would and
        costs ``dram_random_ps``, plus one ``dram_line_ps`` per repeat. A
        DRAM hit is served inline (LRU move, and the dirty bit for a write)
        and adds no fault cost; a miss goes through :meth:`_fault_in`.
        No cost depends on the batch's start time ``now`` or ``span``.
        """
        resident = self._resident
        get = resident.get
        move_to_end = resident.move_to_end
        config = self.config
        cost = len(heads) * config.dram_random_ps + sum(repeats) * config.dram_line_ps
        for vpn in heads:
            entry_dirty = get(vpn)
            if entry_dirty is None:
                cost += self._fault_in(vpn, write)
            else:
                move_to_end(vpn)
                if write and not entry_dirty:
                    resident[vpn] = True
        return cost

    def touch_dense(self, heads, repeats, write, now):
        """:meth:`touch_runs` for a dense batch, given as two int64 arrays.
        If all its pages are resident, every head is a hit: one C-speed
        pass moves the pages to the MRU end in the order of their last
        heads, and a write sets their dirty bits. Otherwise the heads go
        through :meth:`touch_runs`."""
        pages = heads[distinct_heads(heads, last=True)].tolist()
        resident = self._resident
        if not all(map(resident.__contains__, pages)):
            return self.touch_runs(heads.tolist(), repeats.tolist(), write, now)
        deque(map(resident.move_to_end, pages), maxlen=0)
        if write:
            resident.update(zip(pages, repeat(True)))
        config = self.config
        return len(heads) * config.dram_random_ps + int(repeats.sum()) * config.dram_line_ps

    def touch_sequential(self, start_vpn, npages, write, now):
        """The cost of a sequential pass over ``npages`` pages: their
        faults (:meth:`touch_range`) plus DRAM streaming for each page.
        No cost depends on the stream's start time ``now``."""
        cost = self.touch_range(start_vpn, npages, dirty=write)
        return cost + npages * self.config.dram_page_ps

    def touch_range(self, start_vpn, npages, dirty=False):
        """Access consecutive pages in order; returns total fault cost.

        A resident page is a hit: it moves to MRU, and a write sets its
        dirty bit (nothing here clears one). An absent page faults in a
        readahead window of up to ``ssd_readahead_pages`` pages starting
        at it. The window's pages are accessed in order too: its resident
        pages are hits, and its one fault reads only the pages that are
        absent when the stream reaches them.

        Outside the windows, the hits up to the next absent page are
        served together by :meth:`touch_resident`, with no Python loop per
        page; a wholly resident range is one pass. The compute pool's
        prefetch batches and the local platform's streams take that path
        whenever the pool holds their pages.
        """
        resident = self._resident
        total = 0
        vpn = start_vpn
        end = start_vpn + npages
        while True:
            absent = self.touch_resident(vpn, end, dirty)
            if absent == end:
                return total
            window = range(absent, min(absent + self.config.ssd_readahead_pages, end))
            reads = 0
            for page in window:
                if page in resident:
                    resident.move_to_end(page)
                    if dirty:
                        resident[page] = True
                else:
                    reads += 1
                    total += self._admit(page, dirty)
            sequential = self._last_fault_vpn is not None and absent == self._last_fault_vpn + 1
            total += self.config.ssd_fault_ps(reads, sequential=sequential)
            self.stats.storage_faults += 1
            self.stats.storage_pages_in += reads
            self._last_fault_vpn = window[-1]
            vpn = window.stop

    def touch_resident(self, start_vpn, end_vpn, dirty=False):
        """Serve the pages from ``start_vpn`` up to the first absent one as
        hits; returns that page's vpn, or ``end_vpn`` if [start_vpn,
        end_vpn) is all resident.

        The hits move to MRU in order and, for a write, become dirty;
        nothing else changes, so this is exactly :meth:`touch_range` up to
        its first fault. One pass moves pages until ``move_to_end`` raises
        ``KeyError`` for the absent page, so no page is tested twice and
        no Python code runs per page.
        """
        resident = self._resident
        try:
            deque(map(resident.move_to_end, range(start_vpn, end_vpn)), maxlen=0)
        except KeyError as error:
            absent = error.args[0]
        else:
            absent = end_vpn
        if dirty:
            resident.update(zip(range(start_vpn, absent), repeat(True)))
        return absent

    def write_back(self, vpns):
        """Land the compute pool's write-backs of ``vpns`` in pool DRAM, in
        order; returns the cost of the storage write-backs they displace.

        The compute pool caches only pages it fetched from this pool, so
        the pool admitted each of ``vpns`` before. A resident page becomes
        dirty and keeps its LRU position. An absent page (the pool spilled
        it while the compute pool cached it) is admitted dirty without a
        device read, since the whole page is overwritten.
        """
        if self.all_dirty:
            return 0
        resident = self._resident
        cost = 0
        for vpn in vpns:
            if vpn in resident:
                resident[vpn] = True
            else:
                cost += self._admit(vpn, True)
        return cost

    def _fault_in(self, vpn, dirty):
        sequential = self._last_fault_vpn is not None and vpn == self._last_fault_vpn + 1
        cost = self.config.ssd_fault_ps(1, sequential=sequential)
        self.stats.storage_faults += 1
        self.stats.storage_pages_in += 1
        self._last_fault_vpn = vpn
        cost += self._admit(vpn, dirty)
        return cost

    def _admit(self, vpn, dirty):
        """Insert a page, evicting LRU victims; returns dirty-writeback cost."""
        self._resident[vpn] = dirty
        if not dirty:
            self.all_dirty = False
        return self._evict_down_to(self.capacity_pages)

    def _evict_down_to(self, npages):
        """Evict LRU victims until ``npages`` remain; returns dirty-writeback cost.

        A dirty victim must be flushed to the device before its frame can
        be reused, at the sequential rate (swap-out batches).
        """
        resident = self._resident
        dirty = 0
        if len(resident) > npages:
            self.all_dirty = False
        while len(resident) > npages:
            if resident.popitem(last=False)[1]:
                dirty += 1
        self.stats.storage_pages_out += dirty
        config = self.config
        return config.transfer_ps(dirty * config.page_size, config.ssd_bandwidth_bytes_per_ns)

    def drop_range(self, start_vpn, end_vpn):
        """Forget the pages of [start_vpn, end_vpn) entirely (their region
        was freed), in one C-speed pass; no write-back."""
        deque(map(self._resident.pop, range(start_vpn, end_vpn), repeat(None)), maxlen=0)


def distinct_heads(heads, last=False):
    """The positions in ``heads`` (an int64 array of vpns) of each page's
    first head, or with ``last`` its last one, in increasing order. No
    sort: ``ufunc.at`` keeps each page's least (greatest) position
    whatever order it applies repeated indices in."""
    lo = heads.min()
    unseen = -1 if last else len(heads)
    at = np.full(heads.max() - lo + 1, unseen)
    (np.maximum if last else np.minimum).at(at, heads - lo, np.arange(len(heads)))
    marked = np.zeros(len(heads), dtype=bool)
    marked[at[at != unseen]] = True
    return np.flatnonzero(marked)
