"""Run statistics and pushdown cost breakdowns.

A :class:`Stats` object is shared by everything running under one platform
and counts hardware events: page movements, faults, coherence traffic. The
per-figure benchmarks report these counters (e.g. Figure 10's remote bytes,
Figure 22's coherence messages).
"""

from dataclasses import dataclass, fields

from repro.errors import ConfigError


def percentile(values, p):
    """The ``p``-th percentile of ``values`` (linear interpolation).

    Deterministic and dependency-free: sorts a copy and interpolates
    between the two nearest ranks, matching numpy's default method. The
    serving benchmarks report tail latency with this, so it must behave
    identically on every platform and Python version.
    """
    if not 0 <= p <= 100:
        raise ConfigError(f"percentile must be in [0, 100], got {p}")
    data = sorted(values)
    if not data:
        raise ConfigError("percentile of an empty sequence")
    if len(data) == 1:
        return float(data[0])
    rank = (p / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return float(data[lo]) + (float(data[hi]) - float(data[lo])) * frac


def p50(values):
    """Median latency helper."""
    return percentile(values, 50)


def p99(values):
    """Tail latency helper."""
    return percentile(values, 99)


@dataclass
class Stats:
    """Mutable event counters for one simulated run."""

    # Compute-pool cache behaviour.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    dirty_writebacks: int = 0

    # Pages moved over the fabric.
    remote_pages_in: int = 0
    remote_pages_out: int = 0

    # Storage pool.
    storage_faults: int = 0
    storage_pages_in: int = 0
    storage_pages_out: int = 0

    # Network messages (all kinds).
    rpc_messages: int = 0
    network_bytes: int = 0

    # Coherence protocol (Section 4).
    coherence_messages: int = 0
    coherence_invalidations: int = 0
    coherence_downgrades: int = 0
    coherence_tiebreaks: int = 0

    # TELEPORT activity.
    pushdown_calls: int = 0
    pushdown_cancellations: int = 0
    pushdown_aborts: int = 0
    syncmem_calls: int = 0
    memory_side_page_touches: int = 0

    # Fault injection and recovery (repro.faults, Section 3.2).
    faults_injected: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0
    pushdown_retries: int = 0
    pushdown_timeouts: int = 0
    pushdown_fallbacks: int = 0
    pushdown_dedup_hits: int = 0
    heartbeat_suspicions: int = 0
    heartbeat_recoveries: int = 0
    breaker_trips: int = 0
    breaker_short_circuits: int = 0

    def remote_bytes(self, page_size):
        """Total bytes of page traffic over the fabric."""
        return (self.remote_pages_in + self.remote_pages_out) * page_size

    def merge(self, other):
        """Add another Stats object's counters into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class PushdownBreakdown:
    """Per-component cost of one pushdown call (Figure 19 / Figure 20).

    Components follow the paper's numbering: (1) pre-pushdown sync,
    (2) request transfer, (3) user context setup, (4) function execution
    plus online sync, (5) response transfer, (6) post-pushdown sync.
    """

    pre_sync_ns: float = 0.0
    request_ns: float = 0.0
    queue_wait_ns: float = 0.0
    context_setup_ns: float = 0.0
    function_ns: float = 0.0
    online_sync_ns: float = 0.0
    response_ns: float = 0.0
    post_sync_ns: float = 0.0

    @property
    def total_ns(self):
        return (
            self.pre_sync_ns
            + self.request_ns
            + self.queue_wait_ns
            + self.context_setup_ns
            + self.function_ns
            + self.online_sync_ns
            + self.response_ns
            + self.post_sync_ns
        )

    @property
    def overhead_ns(self):
        """Everything except the user function itself (Figure 20 excludes it)."""
        return self.total_ns - self.function_ns

    def merge(self, other):
        """Accumulate another breakdown (e.g. over many pushdown calls)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}
