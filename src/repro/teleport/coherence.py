"""The on-demand memory synchronisation protocol (paper Section 4).

State per page is a pair of permissions — (compute pool, memory pool) —
drawn from {absent, R, W}. The compute side's state is the local page cache
(:class:`~repro.mem.cache.PageCache`); the memory side's is the temporary
user context's page table ``t_mm``, prepared by
:func:`CoherenceProtocol.setup` as in Figure 8. Figure 8 borrows the
caller's table, so ``t_mm`` is a copy-on-access snapshot of the process's
full table (:class:`~repro.mem.page_table.PageTableSnapshot`): the bounds
of the regions live at setup, plus a PTE for each page the compute pool
held at setup or the protocol has read for update since. Read-only checks,
and memory-side reads that change no PTE, use ``peek`` and copy nothing.
Nothing flows back to the full table at the end: it keeps no per-page state.

Transitions follow Figure 9:

* compute-pool fault → the fault RPC doubles as the coherence request; the
  memory-side handler removes (write) or downgrades (read) the page from
  ``t_mm`` before replying (:meth:`on_compute_fetch`);
* memory-pool fault → either a *true* fault (page spilled to storage) or a
  pushdown fault that invalidates/downgrades the compute pool's cached
  copy (:meth:`memory_touch`);
* concurrent (R,R)→W upgrades are tie-broken in favour of the memory pool;
  the compute pool satisfies the memory pool's request, waits ``t`` and
  reissues (:meth:`compute_upgrade`).

The protocol preserves the Single-Writer-Multiple-Reader invariant, which
:meth:`check_swmr` asserts (used heavily by the property-based tests).
"""

from itertools import accumulate, repeat

import numpy as np

from repro.errors import CoherenceViolation
from repro.mem.page import PageTableEntry
from repro.mem.storage import distinct_heads
from repro.teleport.flags import ConsistencyMode


class CoherenceProtocol:
    """Two-sided, directory-less page coherence between the pools."""

    def __init__(self, platform, process, mode=ConsistencyMode.MESI):
        self.platform = platform
        self.config = platform.config
        self.stats = platform.stats
        self.network = platform.network
        #: Per-transition SWMR sanitizer (repro.analysis.sanitizers); None
        #: unless the platform was built with sanitizers armed.
        self.sanitizer = platform.sanitizers
        self.mode = mode
        compkernel = platform.kernel_for(process)
        self.compkernel = compkernel
        self.cache = compkernel.cache
        #: The memory pool's DRAM, which the temporary context accesses
        #: directly.
        self.pool = compkernel.pool
        self.full_table = process.address_space.full_table
        self.t_mm = None
        #: Coherence time (ps) accumulated during execution (Figure 20's
        #: "online sync" component).
        self.online_sync_ps = 0
        #: In-flight memory-side write upgrades, for tie-break emulation:
        #: vpn -> completion time of the upgrade round trip.
        self._mem_upgrade_until = {}
        #: Reference count: concurrent pushdowns of one process share the
        #: temporary context (Section 3.2).
        self.refcount = 0

    # ------------------------------------------------------------------
    # Figure 8: temporary-context page table construction
    # ------------------------------------------------------------------
    def setup(self, resident):
        """Build ``t_mm`` from the caller's table and the resident list.

        ``resident`` is the compute pool's transmitted page list:
        (vpn, writable) pairs, one per page, which ``PageTableSnapshot.hold``
        invalidates without a PTE each. Returns the setup cost, which
        still prices one PTE clone per listed page.
        """
        self.t_mm = self.full_table.snapshot()
        self.t_mm.hold(resident)
        if self.sanitizer is not None:
            # The freshly built temporary context must satisfy SWMR.
            self.sanitizer.swmr_transition(self, "setup")
        return self.config.context_base_ps + self.config.pte_clone_ps * len(resident)

    @staticmethod
    def _invalidate(pte, write):
        """Figure 8/9's ``Invalidate``: drop or downgrade a mapping."""
        if write:
            pte.present = False
            pte.writable = False
        else:
            pte.writable = False

    # ------------------------------------------------------------------
    # Figure 9 lines 3-10: memory-side handling of a compute-pool fault
    # ------------------------------------------------------------------
    def on_compute_fetch(self, vpn, write):
        """Bookkeeping when the compute pool faults a page in.

        The fault RPC itself is charged by the compute kernel; here the
        memory-side handler adjusts ``t_mm`` so the invariant holds after
        the reply. Under WEAK/OFF no adjustment is made.
        """
        if self.mode in (ConsistencyMode.WEAK, ConsistencyMode.OFF) or self.t_mm is None:
            return
        pte = self.t_mm.peek(vpn)
        if pte is None or not pte.present:
            return
        if write:
            pte = self.t_mm.get(vpn)
            if self.mode is ConsistencyMode.PSO:
                # PSO relaxation: set read-only instead of removing.
                pte.writable = False
                self.stats.coherence_downgrades += 1
            else:
                self._invalidate(pte, write=True)
                self.stats.coherence_invalidations += 1
        elif pte.writable:
            self.t_mm.get(vpn).writable = False
            self.stats.coherence_downgrades += 1

    # ------------------------------------------------------------------
    # Figure 9 lines 11-25: memory-side page access during pushdown
    # ------------------------------------------------------------------
    def memory_touch(self, vpn, write, now):
        """One page access from the temporary context; returns its cost."""
        cost = self._memory_touch(vpn, write, now)
        if self.sanitizer is not None:
            self.sanitizer.swmr_transition(self, "memory_touch", vpn)
        return cost

    def touch_sequential(self, start_vpn, npages, write, now):
        """The cost of a sequential pass over ``npages`` pages from the
        temporary context: a :meth:`memory_touch` per page, each at ``now``
        plus the cost charged before it (so a write upgrade's tie-break
        window ends when that upgrade does), plus DRAM streaming for each
        page. The pages are served by :meth:`_serve_heads` as heads of
        index 0 with no repeats, so a quiet page skips the call."""
        stop = start_vpn + npages
        mapped = self.t_mm is not None and self.t_mm.maps(start_vpn, stop - 1)
        heads = zip(repeat(0), range(start_vpn, stop))
        cost = self._serve_heads(heads, (0,), mapped, write, now)
        self.stats.memory_side_page_touches += npages
        return cost + npages * self.config.dram_page_ps

    def touch_runs(self, heads, repeats, write, now, span=None):
        """The cost of a batch of random runs of page accesses from the
        temporary context.

        A run costs ``dram_random_ps``, one ``dram_line_ps`` per repeat and
        its first access's (its head's) cost, served by
        :meth:`_serve_heads` in order. Every access of the batch counts as
        a memory-side page touch. ``span``, the lowest and highest head if
        the caller has them, saves a ``min``/``max`` over the list.
        """
        lines_before = list(accumulate(repeats, initial=0))
        t_mm = self.t_mm
        mapped = False
        if t_mm is not None and heads:
            mapped = t_mm.maps(*(span or (min(heads), max(heads))))
        cost = self._serve_heads(enumerate(heads), lines_before, mapped, write, now)
        return self._charge_batch(cost, len(heads), lines_before[-1])

    def touch_dense(self, heads, repeats, write, now):
        """:meth:`touch_runs` for a dense batch, given as two int64 arrays.

        If the memory pool has room for all the batch's pages, no fault can
        evict one. After a page's first head its later heads then change
        nothing: the page stays resident with its dirty bits set and its
        ``t_mm`` PTE (if any) present, and writable after a write, as a
        touch of another page in between changes only that page's PTE,
        cache entry, pool dirty bit and upgrade window. So only each
        page's first head is served, at its own time, and the sanitizer
        checks the other heads. Otherwise the heads go through
        :meth:`touch_runs`.
        """
        firsts = distinct_heads(heads)
        span = int(heads.min()), int(heads.max())
        pool = self.pool
        if pool.resident_pages + len(firsts) > pool.capacity_pages:
            return self.touch_runs(heads.tolist(), repeats.tolist(), write, now, span)
        lines = np.cumsum(repeats)
        indices = firsts.tolist()
        lines_before = dict(zip(indices, (lines[firsts] - repeats[firsts]).tolist()))
        mapped = self.t_mm is not None and self.t_mm.maps(*span)
        cost = self._serve_heads(
            zip(indices, heads[firsts].tolist()), lines_before, mapped, write, now
        )
        if self.sanitizer is not None:
            for vpn in np.delete(heads, firsts).tolist():
                self.sanitizer.swmr_transition(self, "memory_touch", vpn)
        return self._charge_batch(cost, len(heads), int(lines[-1]))

    def _serve_heads(self, indexed_heads, lines_before, mapped, write, now):
        """Serve a batch's (index, vpn) heads in order; returns the cost of
        their memory touches.

        A quiet head is served inline: a page in memory-pool DRAM whose
        ``t_mm`` PTE is present, and writable for a write or in WEAK/OFF.
        An unowned PTE is so if ``mapped``, i.e. if ``t_mm`` mapped the
        batch's lowest to highest head at setup: a batch's heads lie in one
        region, so one lookup tells. (Were they to span regions, each
        unowned head would go through memory_touch: slower, as exact.) On
        such a page :meth:`memory_touch` costs nothing and changes nothing
        but a write's dirty bits, set here: the memory pool's, and the
        owned PTE's (made first if not yet owned, as ``ensure`` does); the
        sanitizer still checks it. Any other head is a :meth:`memory_touch`
        at ``now`` plus the cost so far plus the DRAM time of the runs
        before it: ``index * dram_random_ps + lines_before[index] *
        dram_line_ps``, where ``lines_before[index]`` counts their repeats.
        """
        pool = self.pool
        in_pool = pool._resident
        # While the pool is all dirty, a quiet write has no bit to set;
        # only a memory_touch call in the loop can clear the flag.
        all_dirty = pool.all_dirty
        # Without a temporary context no head is quiet: all go through
        # memory_touch.
        owned = {} if self.t_mm is None else self.t_mm._owned
        owned_get = owned.get
        writable_only = write or self.mode in (ConsistencyMode.WEAK, ConsistencyMode.OFF)
        sanitizer = self.sanitizer
        touch = self.memory_touch
        random_ps = self.config.dram_random_ps
        line_ps = self.config.dram_line_ps
        cost = 0
        for index, vpn in indexed_heads:
            pte = owned_get(vpn)
            if pte is None:
                # Not owned: present and writable if mapped at setup.
                quiet = mapped
            else:
                quiet = pte.present and (pte.writable or not writable_only)
            if quiet and vpn in in_pool:
                if write:
                    if not all_dirty:
                        in_pool[vpn] = True
                    if pte is None:
                        owned[vpn] = PageTableEntry(True, True, True)
                    else:
                        pte.dirty = True
                if sanitizer is not None:
                    sanitizer.swmr_transition(self, "memory_touch", vpn)
            else:
                at = now + cost + index * random_ps + lines_before[index] * line_ps
                cost += touch(vpn, write, at)
                all_dirty = pool.all_dirty
        return cost

    def _charge_batch(self, cost, nheads, lines):
        """Count a batch's accesses and add its DRAM time to ``cost``."""
        self.stats.memory_side_page_touches += nheads + lines
        config = self.config
        return cost + nheads * config.dram_random_ps + lines * config.dram_line_ps

    def _memory_touch(self, vpn, write, now):
        cost = 0
        t_mm = self.t_mm
        # 'True' page fault: the page is not in memory-pool DRAM at all —
        # fault to storage and map it in both mm and t_mm (lines 14-15).
        # If the compute pool still caches the page (the memory pool
        # spilled its own copy), ``t_mm`` already holds the permission the
        # protocol left it, and the access continues as on a resident page.
        if vpn not in self.pool:
            cost += self.pool.touch(vpn, dirty=write)
            if t_mm is not None and vpn not in self.cache:
                pte = t_mm.ensure(vpn)
                pte.present = True
                pte.writable = True
                pte.dirty = pte.dirty or write
                return cost
        elif write:
            # The write lands in pool DRAM: the page is dirty there. Its
            # LRU position stays; only faults and write-backs move it.
            self.pool._resident[vpn] = True
        if t_mm is None:
            # No temporary context (coherence fully off): plain local access.
            return cost
        relaxed = self.mode in (ConsistencyMode.WEAK, ConsistencyMode.OFF)
        if not write:
            # A read of a page t_mm maps (writable, in the relaxed modes)
            # changes no state, so it reads the snapshot without a copy.
            pte = t_mm.peek(vpn)
            if pte is not None and pte.present and (pte.writable or not relaxed):
                return cost
        pte = t_mm.ensure(vpn)
        if relaxed:
            pte.present = True
            pte.writable = True
            pte.dirty = pte.dirty or write
            return cost
        if pte.present and (not write or pte.writable):
            if write:
                pte.dirty = True
            return cost
        # Pushdown fault: the compute pool holds a conflicting copy
        # (lines 16-17 send the request; lines 18-25 handle it there).
        cost += self._request_from_compute(pte, vpn, write, now)
        return cost

    def _request_from_compute(self, pte, vpn, write, now):
        """MemoryOnPageFault's remote leg: invalidate/downgrade the cache."""
        entry = self.cache.peek(vpn)
        if entry is None:
            # The compute pool evicted the page after the resident list was
            # taken; its write-back already returned ownership silently.
            pte.present = True
            pte.writable = True
            pte.dirty = pte.dirty or write
            return 0
        if self.platform.tracer.enabled:
            self.platform.tracer.emit(
                now, "coherence", vpn=vpn, side="memory",
                action="invalidate" if write else "downgrade",
            )
        cost = self.network.coherence_message_ps()  # request
        if write:
            if self.mode is ConsistencyMode.PSO:
                # PSO relaxation: demote the compute copy to read-only
                # instead of removing it (Section 4.2).
                dirty = self.cache.downgrade(vpn)
                self.stats.coherence_downgrades += 1
            else:
                evicted = self.cache.invalidate(vpn)
                self.stats.coherence_invalidations += 1
                dirty = evicted is not None and evicted.dirty
            if dirty:
                self.stats.dirty_writebacks += 1
                cost += self.pool.write_back((vpn,))
            cost += self.network.coherence_message_ps(with_page=dirty)  # reply
            pte.present = True
            pte.writable = True
            pte.dirty = True
            # Record the in-flight upgrade window for tie-break emulation.
            self._mem_upgrade_until[vpn] = now + cost
        else:
            was_dirty = self.cache.downgrade(vpn)
            self.stats.coherence_downgrades += 1
            if was_dirty:
                self.stats.dirty_writebacks += 1
                cost += self.pool.write_back((vpn,))
            cost += self.network.coherence_message_ps(with_page=was_dirty)  # reply
            pte.present = True
            pte.writable = False
        self.online_sync_ps += cost
        return cost

    # ------------------------------------------------------------------
    # Compute-side write upgrade during pushdown (the (R,R) -> W race)
    # ------------------------------------------------------------------
    def compute_upgrade(self, vpn, now):
        """Compute pool upgrades a cached read-only page to writable."""
        if self.mode in (ConsistencyMode.WEAK, ConsistencyMode.OFF) or self.t_mm is None:
            return 0
        cost = 0
        # Tie-break (Section 4.1): if the memory pool has an in-flight
        # write upgrade on this page, the compute pool loses — it satisfies
        # the memory pool, waits t, then reissues its own request.
        if self._mem_upgrade_until.get(vpn, -1) > now:
            self.stats.coherence_tiebreaks += 1
            cost += self.config.contention_backoff_ps
            cost += self.network.coherence_message_ps()  # the wasted round
            del self._mem_upgrade_until[vpn]
            if self.platform.tracer.enabled:
                self.platform.tracer.emit(
                    now, "coherence", vpn=vpn, side="compute", action="tiebreak-loss",
                )
        pte = self.t_mm.peek(vpn)
        if pte is not None and pte.present:
            self._invalidate(self.t_mm.get(vpn), write=self.mode is not ConsistencyMode.PSO)
            if self.mode is ConsistencyMode.PSO:
                self.stats.coherence_downgrades += 1
            else:
                self.stats.coherence_invalidations += 1
            cost += self.network.coherence_message_ps()  # request
            cost += self.network.coherence_message_ps()  # ack
        self.online_sync_ps += cost
        if self.sanitizer is not None:
            self.sanitizer.swmr_transition(self, "compute_upgrade", vpn)
        return cost

    def on_compute_evict(self, vpn):
        """The compute cache evicted a page: ownership returns to memory.

        The write-back (if dirty) is charged by the compute kernel; the
        memory pool silently regains full permission.
        """
        if self.t_mm is None:
            return
        pte = self.t_mm.peek(vpn)
        if pte is not None and not (pte.present and pte.writable):
            pte = self.t_mm.get(vpn)
            pte.present = True
            pte.writable = True
        if self.sanitizer is not None:
            self.sanitizer.swmr_transition(self, "compute_evict", vpn)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def boundary_sync(self):
        """Explicit synchronisation point for the relaxed modes.

        Weak ordering (and PSO) defer write propagation to explicit sync
        points; the end of a pushdown is one. Compute-pool copies of every
        page this pushdown dirtied are invalidated in one batched exchange,
        so the next compute access refetches fresh data. Owned ``t_mm``
        copies start clean, so a page only an earlier pushdown dirtied is
        not stale here. A no-op under MESI (propagation already happened
        per access) and under OFF (synchronisation is entirely the user's
        responsibility via ``syncmem``).
        """
        if self.t_mm is None or self.mode not in (
            ConsistencyMode.WEAK, ConsistencyMode.PSO,
        ):
            return 0
        stale = [
            vpn
            for vpn, pte in self.t_mm.owned_entries()
            if pte.dirty and vpn in self.cache
        ]
        if not stale:
            return 0
        for vpn in stale:
            self.cache.invalidate(vpn)
        self.stats.coherence_invalidations += len(stale)
        # One batched invalidation list each way (RLE-compressed, like the
        # resident-page list of Section 6).
        list_bytes = self.config.page_list_message_bytes(len(stale))
        cost = self.network.coherence_message_ps()
        cost += self.config.transfer_ps(list_bytes)
        cost += self.network.coherence_message_ps()  # ack
        self.online_sync_ps += cost
        return cost

    def finish(self):
        """Drop the temporary context — "no external communication is
        necessary" (Section 4.1).

        Its dirty bits are merged nowhere: the full table keeps no dirty
        bit, as nothing would read one. Whether a page must be written
        back to storage is the memory pool's own LRU's business.
        """
        if self.t_mm is None:
            return
        if self.sanitizer is not None:
            # Full sweep at session end, complementing the O(1)
            # single-page checks done per transition.
            self.sanitizer.swmr_transition(self, "finish")
        self.t_mm = None
        self._mem_upgrade_until.clear()

    # ------------------------------------------------------------------
    # Invariant checking (property tests, Section 4.1 "Correctness")
    # ------------------------------------------------------------------
    def check_swmr(self, vpn=None):
        """Assert Single-Writer-Multiple-Reader across the two pools.

        With ``vpn`` the check is O(1) over that single page — what the
        per-transition sanitizer uses; without it the whole cache is swept
        (property tests and session-end checks). Only meaningful in MESI
        mode; relaxed modes intentionally weaken the invariant.
        """
        if self.t_mm is None or self.mode is not ConsistencyMode.MESI:
            return
        if vpn is not None:
            entry = self.cache.peek(vpn)
            if entry is not None:
                self._check_swmr_pair(vpn, entry)
            return
        for resident_vpn, entry in self.cache.resident_items():
            self._check_swmr_pair(resident_vpn, entry)

    def _check_swmr_pair(self, vpn, entry):
        pte = self.t_mm.peek(vpn)
        if pte is None or not pte.present:
            return
        if entry.writable:
            raise CoherenceViolation(
                f"page {vpn}: writable in compute pool but mapped in t_mm"
            )
        if pte.writable:
            raise CoherenceViolation(
                f"page {vpn}: writable in t_mm but cached in compute pool"
            )

    def state_of(self, vpn):
        """(compute, memory) permission pair for one page, e.g. ('R', 'W')."""
        entry = self.cache.peek(vpn)
        compute = entry.permission if entry is not None else "0"
        if self.t_mm is None:
            return compute, "0"
        pte = self.t_mm.peek(vpn)
        memory = pte.permission if pte is not None else "0"
        return compute, memory
