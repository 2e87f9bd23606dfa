"""The adaptive offload controller: pushdown vs compute-local, per call.

The paper's profitability analysis (Sections 5, 7.6) makes pushdown a
*runtime* decision: the same operator wins pushed down when the compute
pool's cache holds little of the touched data (every access would be a
remote fault), and wins locally when the data is hot (pushdown pays fixed
context/transfer overhead plus coherence traffic against an already-cheap
local run). Figures 12 and 18 chart exactly this crossover, and Figures
21-22 add the third input — memory-pool congestion — that a static choice
cannot see.

:class:`OffloadController` reads those live signals per request:

* **cached-page fraction** of the touched regions, probed against the
  calling process's compute-pool page cache without disturbing LRU order;
* **payload size** of arguments and results, which the pushed call must
  move over the fabric either way;
* **memory-pool queue depth**, via the pool scheduler's deterministic
  wait estimate.

``ALWAYS`` and ``NEVER`` are retained as baselines — they are what every
benchmark before this subsystem hard-coded.
"""

import enum

from repro.teleport.flags import PushdownOptions


class OffloadPolicy(enum.Enum):
    """Who decides where a request's operator runs."""

    NEVER = "never"        # compute-local always (base DDC behaviour)
    ALWAYS = "always"      # pushdown always (static TELEPORT behaviour)
    ADAPTIVE = "adaptive"  # per-call cost comparison


def _vpn_range(entry):
    """VPNs of a touched-region descriptor.

    ``regions`` entries are either a whole :class:`~repro.mem.region.Region`
    or an ``(region, lo, hi)`` element span — chunked workloads (a
    mapreduce split, a table segment) touch only part of a region and
    would otherwise overstate their footprint to the cost model.
    """
    if isinstance(entry, tuple):
        region, lo, hi = entry
        start, end = region.vpn_range_of_slice(lo, hi)
        return range(start, end)
    return entry.all_vpns()


class OffloadRequest:
    """One serving request: an operator, its touched regions, its payload.

    Tenant workload generators ``yield`` these as effects; the serving
    scheduler routes each through the offload decision and, when pushed,
    through the memory pool's admission queue. ``fn(ctx, *args)`` must be
    location-transparent: it receives whichever execution context it ends
    up running under.
    """

    __slots__ = (
        "name", "fn", "args", "regions", "payload_bytes", "options",
        "pushed", "arrival_ps",
    )

    def __init__(self, name, fn, args=(), regions=(), payload_bytes=0,
                 options=None):
        self.name = name
        self.fn = fn
        self.args = tuple(args)
        self.regions = tuple(regions)
        self.payload_bytes = int(payload_bytes)
        self.options = options if options is not None else PushdownOptions.DEFAULT
        #: Filled in by the serving layer (times in ps).
        self.pushed = False
        self.arrival_ps = None

    def touched_pages(self):
        return sum(len(_vpn_range(entry)) for entry in self.regions)

    def __repr__(self):
        return f"OffloadRequest({self.name!r}, pages={self.touched_pages()})"


class OffloadController:
    """Per-call pushdown-vs-local decision from live runtime state."""

    def __init__(self, config, policy=OffloadPolicy.ADAPTIVE):
        self.config = config
        self.policy = policy
        #: Decision counters (reported by the serving benchmark).
        self.pushed = 0
        self.kept_local = 0

    def decide(self, ctx, request, pool=None):
        """True to push the request down, False to run it compute-local."""
        push = self._evaluate(ctx, request, pool)
        if push:
            self.pushed += 1
        else:
            self.kept_local += 1
        return push

    def _evaluate(self, ctx, request, pool):
        if getattr(ctx.platform, "teleport", None) is None:
            return False  # base DDC: there is nothing to push to
        if self.policy is OffloadPolicy.NEVER:
            return False
        if self.policy is OffloadPolicy.ALWAYS:
            return True
        cached = self.cached_pages(ctx, request)
        local = self.estimate_local_ps(ctx, request, cached)
        remote = self.estimate_pushdown_ps(ctx, request, pool, cached)
        return remote < local

    # ------------------------------------------------------------------
    # The two sides of the comparison (deterministic, cheap, cache-safe)
    # ------------------------------------------------------------------
    def cached_pages(self, ctx, request):
        """Touched pages currently resident in the compute-pool cache.

        Uses membership probes only — recency order must not change, or
        the decision itself would perturb the workload it is costing. A
        decision probes once, at C speed, and hands the count to both
        estimates.
        """
        cache = ctx.pager.cache
        return sum(cache.count_cached(_vpn_range(entry)) for entry in request.regions)

    def estimate_local_ps(self, ctx, request, cached=None):
        """Cost of running locally: faulting in every non-resident page.

        Sequential prefetching amortises the round trip over
        ``prefetch_degree`` pages, matching what a compute-local scan
        actually pays; the resident pages stream at DRAM speed.
        ``cached`` is :meth:`cached_pages`, probed here if not given.
        """
        config = self.config
        touched = request.touched_pages()
        if cached is None:
            cached = self.cached_pages(ctx, request)
        misses = touched - cached
        degree = config.prefetch_degree
        miss_cost = misses * (config.remote_fault_ps(degree) / degree)
        return miss_cost + cached * config.dram_page_ps

    def estimate_pushdown_ps(self, ctx, request, pool=None, cached=None):
        """Cost of pushing down: fixed overheads, payload, queue, coherence.

        The memory pool streams the touched region at its own DRAM, so
        data access is not the differentiator — the pushed side pays the
        context setup, the request/response round trip, the argument and
        result payload transfer, the current admission-queue wait, and
        one coherence message per compute-cached page (the temporary
        context must invalidate or downgrade those to access them).
        ``cached`` is :meth:`cached_pages`, probed here if not given.
        """
        config = self.config
        if cached is None:
            cached = self.cached_pages(ctx, request)
        cost = (
            config.context_base_ps
            + config.net_roundtrip_ps()
            + config.net_message_ps(request.payload_bytes)
            + cached * config.coherence_msg_ps
            + request.touched_pages() * config.dram_page_ps
        )
        if pool is not None:
            cost += pool.estimated_wait_ps(ctx.now)
        return cost
