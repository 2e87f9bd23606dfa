"""Application-facing execution contexts.

An :class:`ExecutionContext` binds a thread to the pager of the pool it is
executing in and exposes the memory/CPU accounting API that all the data
systems in this repository are written against:

* ``compute(ops)`` — charge CPU work (scaled by the executing pool's clock).
* ``touch_seq`` / ``touch_random`` — charge page accesses without data.
* ``load_slice`` / ``store_slice`` / ``gather`` / ``scatter`` — combined
  data access + cost charging on a region's numpy buffer.

The pager is the one component that serves the thread's page accesses:
the local swap device (:class:`~repro.mem.storage.SwapDevice`) on the
monolithic baseline, the process's
:class:`~repro.ddc.kernels.ComputeKernel` in the compute pool, and the
pushdown's :class:`~repro.teleport.coherence.CoherenceProtocol` in the
memory pool. Each has ``touch_runs(heads, repeats, write, now, span)``, its
array form for dense batches ``touch_dense`` (see
:meth:`ExecutionContext._random_cost`) and ``touch_sequential(start_vpn,
npages, write, now)``.

The same application code therefore runs unmodified on the monolithic
baseline, the base DDC, and TELEPORT — mirroring the paper's premise that
disaggregated OSes preserve the application API while changing the cost of
every memory access.
"""

import numpy as np

from repro.ddc.pool import Pool


class ExecutionContext:
    """Cost-charging handle for application code on one thread."""

    def __init__(self, platform, thread, pager):
        self.platform = platform
        self.thread = thread
        self.config = platform.config
        self.stats = platform.stats
        #: Serves this thread's page accesses (see the module docstring).
        self.pager = pager

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    @property
    def pool(self):
        return self.thread.pool

    @property
    def now(self):
        """This thread's virtual time, in picoseconds."""
        return self.thread.clock.now

    def charge_ps(self, ps):
        """Charge raw virtual time (integer picoseconds) to this thread."""
        self.thread.clock.advance(ps)

    def compute(self, ops):
        """Charge ``ops`` simple CPU operations at the executing pool's clock."""
        if ops <= 0:
            return
        if self.pool is Pool.MEMORY:
            ghz = self.config.memory_clock_ghz
        else:
            ghz = self.config.compute_clock_ghz
        self.thread.clock.advance(self.config.cpu_ps(ops, ghz, self.thread.cpu_scale))

    # ------------------------------------------------------------------
    # Cost-only page touches
    # ------------------------------------------------------------------
    def touch_seq(self, region, lo, hi, write=False):
        """Charge a sequential pass over elements [lo, hi) of ``region``."""
        if hi <= lo:
            return
        start_vpn, end_vpn = region.vpn_range_of_slice(lo, hi)
        npages = end_vpn - start_vpn
        if npages <= 0:
            return
        self.thread.clock.advance(self._seq_cost(start_vpn, npages, write))

    def touch_random(self, region, indices, write=False):
        """Charge random-order element accesses at the given indices."""
        vpns = region.vpns_of_indices(indices)
        if len(vpns) == 0:
            return
        self.thread.clock.advance(self._random_cost(vpns, write))

    def touch_page(self, vpn, write=False):
        """Charge a single random page touch by raw vpn (microbenchmarks)."""
        self.thread.clock.advance(self._random_cost([vpn], write))

    def touch_clustered(self, region, indices, write=False):
        """Charge accesses that are clustered in short runs (adjacency
        lists, per-bucket appends): consecutive same-page accesses collapse
        into one page touch, as the hardware would stream them."""
        vpns = np.asarray(region.vpns_of_indices(indices))
        if len(vpns) == 0:
            return
        self.thread.clock.advance(self._random_cost(vpns[_run_bounds(vpns)[:-1]], write))

    # ------------------------------------------------------------------
    # Data access helpers (cost + real data)
    # ------------------------------------------------------------------
    def load_slice(self, region, lo=0, hi=None):
        """Read elements [lo, hi); returns the numpy view."""
        if hi is None:
            hi = len(region)
        self.touch_seq(region, lo, hi, write=False)
        return region.array[lo:hi]

    def store_slice(self, region, lo, values):
        """Write ``values`` at element offset ``lo``."""
        values = np.asarray(values)
        hi = lo + len(values)
        self.touch_seq(region, lo, hi, write=True)
        region.array[lo:hi] = values

    def load_at(self, region, index):
        """Random read of one element."""
        self.touch_random(region, [index], write=False)
        return region.array[index]

    def store_at(self, region, index, value):
        """Random write of one element."""
        self.touch_random(region, [index], write=True)
        region.array[index] = value

    def gather(self, region, indices):
        """Random reads at ``indices``; returns the gathered values."""
        indices = np.asarray(indices, dtype=np.int64)
        self.touch_random(region, indices, write=False)
        return region.array[indices]

    def scatter(self, region, indices, values):
        """Random writes of ``values`` at ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        self.touch_random(region, indices, write=True)
        region.array[indices] = values

    # ------------------------------------------------------------------
    # Placement-specific cost paths
    # ------------------------------------------------------------------
    def _seq_cost(self, start_vpn, npages, write):
        """Cost of a sequential pass over ``npages`` pages: the pager's
        faults plus DRAM streaming for every page."""
        return self.pager.touch_sequential(start_vpn, npages, write, self.now)

    def _random_cost(self, vpns, write):
        """Cost of a batch of random page touches: every access simulated
        exactly, one pager access per run.

        Per-access DRAM cost depends on locality: an access to the same
        page as the previous one is a row-buffer hit (``dram_line_ps``); a
        page change pays full DRAM latency (``dram_random_ps``). Misses
        additionally pay the pool-specific fault path.

        A run of k accesses to one page goes through the pager (swap,
        compute cache, coherence protocol) once, at its head. After that
        access the page is resident, most recently used and, for a write,
        writable and dirty, so each of the k-1 repeats would cost exactly
        ``dram_line_ps`` and change nothing but the compute cache's hit
        counter. The pager's ``touch_runs`` serves the heads in order, in
        one pass over live state, and charges the runs' DRAM time as
        products; time is integer, so the total is the per-access loop's
        exactly.

        A batch is dense when its heads outnumber the pages they span
        (highest minus lowest, plus one), so some page heads several runs.
        It goes to the pager's ``touch_dense`` as two arrays, with no list
        built: a pager whose state guarantees that no page can be evicted
        within the batch serves it once per distinct page, and any other
        serves it as ``touch_runs`` would. The compute cache, with no
        protocol or tracer, classifies every head of it by replaying its
        LRU at C speed. Any other batch goes to ``touch_runs`` as two
        lists, with its lowest and highest head as ``span``.
        """
        now = self.now
        if len(vpns) <= 1:
            return self.pager.touch_runs([int(vpn) for vpn in vpns], [0] * len(vpns), write, now)
        heads, repeats = _page_runs(vpns)
        span = int(heads.min()), int(heads.max())
        if len(heads) > span[1] - span[0] + 1:
            return self.pager.touch_dense(heads, repeats, write, now)
        return self.pager.touch_runs(heads.tolist(), repeats.tolist(), write, now, span)

    # ------------------------------------------------------------------
    # TELEPORT surface (overridden behaviour on TeleportPlatform)
    # ------------------------------------------------------------------
    def pushdown(self, fn, *args, **kwargs):
        """Push ``fn`` down to the memory pool (TELEPORT platforms only).

        On other platforms this executes the function in place, so the same
        application code runs everywhere; the base DDC simply gains nothing.
        """
        runtime = getattr(self.platform, "teleport", None)
        if runtime is None:
            return fn(self, *args)
        return runtime.pushdown(self, fn, *args, **kwargs)

    def syncmem(self, regions=None):
        """Manually flush dirty compute-pool pages (Section 4.2).

        No-op outside the compute pool or on the monolithic baseline.
        """
        if self.pool is not Pool.COMPUTE:
            return
        self.stats.syncmem_calls += 1
        if self.platform.tracer.enabled:
            scope = "all" if regions is None else ",".join(r.name for r in regions)
            self.platform.tracer.emit(self.now, "syncmem", scope=scope)
        if regions is None:
            cost, _count = self.pager.flush_dirty()
        else:
            vpns = [vpn for region in regions for vpn in region.all_vpns()]
            cost, _count = self.pager.flush_dirty(vpns)
        self.thread.clock.advance(cost)

    def __repr__(self):
        return f"ExecutionContext({self.thread.name!r}, pool={self.pool.value})"


def _run_bounds(vpns):
    """The positions in a non-empty vpn array where a run of equal
    consecutive vpns starts, followed by the array's length."""
    n = len(vpns)
    bounds = np.empty(n + 1, dtype=bool)
    bounds[0] = bounds[n] = True
    np.not_equal(vpns[1:], vpns[:-1], out=bounds[1:n])
    return np.flatnonzero(bounds)


def _page_runs(vpns):
    """The runs of equal consecutive vpns in a batch of two or more, as two
    int64 arrays: each run's page (its head), and how many accesses after
    its first one it holds."""
    vpns = np.asarray(vpns)
    bounds = _run_bounds(vpns)
    starts = bounds[:-1]
    return vpns[starts], bounds[1:] - starts - 1
