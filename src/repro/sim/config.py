"""Hardware and platform configuration.

:class:`DdcConfig` captures every knob of the simulated disaggregated data
center. Defaults mirror the paper's testbed (Section 7): a 56 Gbps / 1.2 us
InfiniBand fabric, 4 KiB pages, a compute pool whose local DRAM is a small
cache of the working set, a large memory pool with a weak controller CPU,
and an NVMe storage pool (3 GB/s sequential).

Sizes are scaled down relative to the paper (we do not materialise 50 GB in
a unit test) but the *ratios* that determine every result shape — cache to
working set, network to DRAM latency, memory-pool to compute-pool clock —
default to the paper's values and are individually adjustable.
"""

from dataclasses import dataclass, replace
from functools import cached_property

from repro.errors import ConfigError
from repro.sim.units import GIB, MIB, to_ps


def _in_ps(*names):
    """A cached property: the sum of the ``names`` fields, durations in ns,
    each in whole picoseconds."""
    return cached_property(lambda self: sum(to_ps(getattr(self, name)) for name in names))


@dataclass(frozen=True)
class DdcConfig:
    """Configuration of the simulated disaggregated data center.

    Frozen: a config is validated once. Its durations are float ns (the
    ``*_ns`` fields); the simulator charges integer picoseconds (see
    :mod:`repro.sim.units`), so each cost constant is derived in ps once and
    cached (the ``*_ps`` attributes), and each computed cost (a transfer,
    CPU work) is rounded to ps once. Use :meth:`with_overrides` for a variant.
    """

    # ------------------------------------------------------------------
    # Memory layout
    # ------------------------------------------------------------------
    #: Page size in bytes. All placement metadata is per page.
    page_size: int = 4096
    #: Compute-pool local DRAM used as a page cache (the paper uses 1 GB for
    #: 50 GB working sets; keep the ~2% ratio when scaling workloads).
    compute_cache_bytes: int = 64 * MIB
    #: Capacity of the memory pool; pages beyond this spill to the storage
    #: pool (Figure 15 sweeps this).
    memory_pool_bytes: int = 64 * GIB
    #: DRAM of the monolithic-Linux baseline; beyond this, pages swap to SSD.
    local_ram_bytes: int = 64 * GIB

    # ------------------------------------------------------------------
    # Network fabric (RDMA over InfiniBand)
    # ------------------------------------------------------------------
    #: One-way message latency in ns (paper: 1.2 us).
    net_latency_ns: float = 1200.0
    #: Link bandwidth in bytes per ns (56 Gbps = 7 bytes/ns).
    net_bandwidth_bytes_per_ns: float = 7.0
    #: Per-message software overhead of the LITE-style RPC layer.
    rpc_software_ns: float = 400.0

    # ------------------------------------------------------------------
    # Paging costs
    # ------------------------------------------------------------------
    #: Cost of touching one locally resident 4 KiB page (DRAM).
    dram_page_ns: float = 250.0
    #: Cost of one random element access to a locally resident page
    #: (DRAM latency; cheaper than streaming the whole page).
    dram_random_ns: float = 100.0
    #: Cost of an element access that stays on the same page as the
    #: previous access (row-buffer / cache-line hit).
    dram_line_ns: float = 4.0
    #: Software cost of a page fault (trap, handler, PTE/TLB update).
    fault_software_ns: float = 2500.0
    #: Sequential prefetch degree of the compute-pool cache (LegoOS-style).
    #: A sequential miss fetches this many pages in one request.
    prefetch_degree: int = 8

    # ------------------------------------------------------------------
    # CPUs
    # ------------------------------------------------------------------
    #: Clock speed of compute-pool cores in GHz (paper: 2.1).
    compute_clock_ghz: float = 2.1
    #: Clock speed of the memory-pool controller cores (Figure 16 sweeps
    #: this down to 0.4 GHz).
    memory_clock_ghz: float = 2.1
    #: Physical cores the memory pool dedicates to pushdown (Figure 17).
    memory_pool_cores: int = 1

    # ------------------------------------------------------------------
    # Storage pool (NVMe SSD)
    # ------------------------------------------------------------------
    #: Sequential SSD bandwidth in bytes per ns (3 GB/s).
    ssd_bandwidth_bytes_per_ns: float = 3.0
    #: Cost of a random 4 KiB swap fault (device latency + swap software
    #: path); dominates when spilling with poor locality.
    ssd_random_fault_ns: float = 90_000.0
    #: Software cost of the swap-in path even for sequential (readahead)
    #: faults — block layer, swap-cache management, and write-back
    #: pressure under thrashing. Paid once per readahead batch.
    ssd_swap_software_ns: float = 50_000.0
    #: Pages brought in per sequential SSD fault (readahead).
    ssd_readahead_pages: int = 16

    # ------------------------------------------------------------------
    # TELEPORT
    # ------------------------------------------------------------------
    #: Number of parallel TELEPORT instances (temporary user contexts) the
    #: memory pool runs; requests queue FIFO beyond this (Figure 17).
    teleport_instances: int = 1
    #: Per-resident-PTE cost of building the temporary context's page table
    #: (clone + Invalidate walk of Figure 8).
    pte_clone_ns: float = 150.0
    #: Fixed cost of instantiating / recycling a temporary user context.
    context_base_ns: float = 20_000.0
    #: Bytes per entry of the resident-page list before compression.
    page_list_entry_bytes: int = 9
    #: Run-length-encoding compression ratio of the resident-page list
    #: (Section 6 reports 20x).
    rle_compression: float = 20.0
    #: Average latency of one coherence protocol message (paper: 1.6 us).
    coherence_msg_ns: float = 1600.0
    #: Time t the compute pool waits before reissuing a write upgrade that
    #: lost a tie-break to the memory pool (Section 4.1).
    contention_backoff_ns: float = 50_000.0
    #: Watchdog timeout after which a wedged pushdown function is killed
    #: and the caller receives an abort (Section 3.2).
    watchdog_timeout_ns: float = 60.0 * 1e9
    #: Interval of the compute-pool heartbeat thread that detects memory
    #: pool failure.
    heartbeat_interval_ns: float = 10.0 * 1e6
    #: Consecutive missed heartbeats before memory-pool loss is *confirmed*
    #: (kernel panic); fewer misses are mere suspicion, recoverable when a
    #: transient partition heals and the lease is renewed.
    heartbeat_miss_threshold: int = 3

    # ------------------------------------------------------------------
    # Fault handling & recovery (repro.faults, Section 3.2)
    # ------------------------------------------------------------------
    #: Total transmissions allowed per pushdown request/response before the
    #: retry layer gives up (first send + retries).
    retry_max_attempts: int = 4
    #: How long the caller waits for an ack before declaring a message lost.
    retransmit_timeout_ns: float = 100_000.0
    #: Backoff before the first retransmission (doubles per retry).
    retry_backoff_ns: float = 50_000.0
    #: Growth factor of the retransmission backoff.
    retry_backoff_multiplier: float = 2.0
    #: Cap on any single retransmission backoff.
    retry_backoff_max_ns: float = 10_000_000.0
    #: Jitter band of the backoff as a fraction (0.2 = +/-20%), drawn from
    #: the fault injector's seeded RNG.
    retry_jitter: float = 0.2
    #: Consecutive pushdown infrastructure failures (timeouts, retry
    #: exhaustion, watchdog aborts) that trip the per-process circuit
    #: breaker; tripped operators run on the compute pool instead.
    breaker_failure_threshold: int = 3
    #: Virtual time the breaker stays open before allowing one probe.
    breaker_cooldown_ns: float = 50_000_000.0
    #: Extra scheduling penalty per runnable context beyond physical cores
    #: (fraction of CPU time; drives Figure 17's diminishing returns).
    context_switch_penalty: float = 0.12

    # ------------------------------------------------------------------
    # Reproducibility
    # ------------------------------------------------------------------
    #: Seed for all data generators in a run.
    seed: int = 2022
    #: Arm the runtime invariant sanitizers (repro.analysis.sanitizers) on
    #: platforms built from this config: per-transition SWMR checks and
    #: pushdown-session leak checks. The test
    #: suite's ``pytest --sanitize`` flag enables them process-wide instead.
    sanitizers: bool = False

    def __post_init__(self):
        positive = {
            "page_size": self.page_size,
            "compute_cache_bytes": self.compute_cache_bytes,
            "memory_pool_bytes": self.memory_pool_bytes,
            "local_ram_bytes": self.local_ram_bytes,
            "net_bandwidth_bytes_per_ns": self.net_bandwidth_bytes_per_ns,
            "dram_page_ns": self.dram_page_ns,
            "compute_clock_ghz": self.compute_clock_ghz,
            "memory_clock_ghz": self.memory_clock_ghz,
            "memory_pool_cores": self.memory_pool_cores,
            "ssd_bandwidth_bytes_per_ns": self.ssd_bandwidth_bytes_per_ns,
            "teleport_instances": self.teleport_instances,
            "rle_compression": self.rle_compression,
        }
        # Each check is written so that NaN fails it.
        for name, value in positive.items():
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        non_negative = {
            "net_latency_ns": self.net_latency_ns,
            "rpc_software_ns": self.rpc_software_ns,
            "fault_software_ns": self.fault_software_ns,
            "pte_clone_ns": self.pte_clone_ns,
            "context_base_ns": self.context_base_ns,
            "coherence_msg_ns": self.coherence_msg_ns,
            "contention_backoff_ns": self.contention_backoff_ns,
            "context_switch_penalty": self.context_switch_penalty,
            "dram_random_ns": self.dram_random_ns,
            "dram_line_ns": self.dram_line_ns,
            "ssd_random_fault_ns": self.ssd_random_fault_ns,
            "ssd_swap_software_ns": self.ssd_swap_software_ns,
        }
        for name, value in non_negative.items():
            if not value >= 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        if not self.prefetch_degree >= 1:
            raise ConfigError("prefetch_degree must be at least 1")
        if not self.ssd_readahead_pages >= 1:
            raise ConfigError("ssd_readahead_pages must be at least 1")
        if not self.heartbeat_miss_threshold >= 1:
            raise ConfigError("heartbeat_miss_threshold must be at least 1")
        if not self.retry_max_attempts >= 1:
            raise ConfigError("retry_max_attempts must be at least 1")
        if not self.breaker_failure_threshold >= 1:
            raise ConfigError("breaker_failure_threshold must be at least 1")
        if not self.retry_backoff_multiplier >= 1.0:
            raise ConfigError("retry_backoff_multiplier must be at least 1")
        if not 0.0 <= self.retry_jitter < 1.0:
            raise ConfigError("retry_jitter must be in [0, 1)")
        for name, value in {
            "retransmit_timeout_ns": self.retransmit_timeout_ns,
            "retry_backoff_ns": self.retry_backoff_ns,
            "retry_backoff_max_ns": self.retry_backoff_max_ns,
            "breaker_cooldown_ns": self.breaker_cooldown_ns,
        }.items():
            if not value >= 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    @property
    def compute_cache_pages(self):
        """Capacity of the compute-local page cache, in pages."""
        return max(1, self.compute_cache_bytes // self.page_size)

    @property
    def memory_pool_pages(self):
        """Capacity of the memory pool, in pages."""
        return max(1, self.memory_pool_bytes // self.page_size)

    @property
    def local_ram_pages(self):
        """Capacity of the monolithic baseline's DRAM, in pages."""
        return max(1, self.local_ram_bytes // self.page_size)

    #: One RDMA message with no payload: latency plus RPC software.
    net_message_base_ps = _in_ps("net_latency_ns", "rpc_software_ns")
    dram_page_ps = _in_ps("dram_page_ns")
    dram_random_ps = _in_ps("dram_random_ns")
    dram_line_ps = _in_ps("dram_line_ns")
    fault_software_ps = _in_ps("fault_software_ns")
    ssd_random_fault_ps = _in_ps("ssd_random_fault_ns")
    ssd_swap_software_ps = _in_ps("ssd_swap_software_ns")
    pte_clone_ps = _in_ps("pte_clone_ns")
    context_base_ps = _in_ps("context_base_ns")
    coherence_msg_ps = _in_ps("coherence_msg_ns")
    contention_backoff_ps = _in_ps("contention_backoff_ns")
    watchdog_timeout_ps = _in_ps("watchdog_timeout_ns")
    heartbeat_interval_ps = _in_ps("heartbeat_interval_ns")
    breaker_cooldown_ps = _in_ps("breaker_cooldown_ns")

    def transfer_ps(self, nbytes, bytes_per_ns=None):
        """Time to move ``nbytes`` at ``bytes_per_ns`` (default: the fabric's
        bandwidth)."""
        if bytes_per_ns is None:
            bytes_per_ns = self.net_bandwidth_bytes_per_ns
        return to_ps(nbytes / bytes_per_ns)

    def net_message_ps(self, nbytes=0):
        """Cost of one RDMA message carrying ``nbytes`` of payload."""
        return self.net_message_base_ps + self.transfer_ps(nbytes)

    def net_roundtrip_ps(self, request_bytes=0, response_bytes=0):
        """Cost of a request/response pair over the fabric."""
        return self.net_message_ps(request_bytes) + self.net_message_ps(response_bytes)

    def remote_fault_ps(self, npages=1):
        """Cost of a compute-pool page fault served by the memory pool.

        One request fetches ``npages`` pages (sequential prefetching): the
        network round trip and transfer are amortised over the batch, but
        the per-page software cost (trap, handler, PTE/TLB update) is paid
        for every page — which is why the paper finds OS-level caching and
        prefetching "on their own insufficient" (Section 1).
        """
        transfer = self.transfer_ps(npages * self.page_size)
        return npages * self.fault_software_ps + 2 * self.net_message_base_ps + transfer

    def page_writeback_ps(self, npages=1):
        """Cost of evicting dirty pages from the compute cache."""
        return self.net_message_base_ps + self.transfer_ps(npages * self.page_size)

    @cached_property
    def single_fault_ps(self):
        """``remote_fault_ps(1)``: one single-page compute-pool fault."""
        return self.remote_fault_ps(1)

    @cached_property
    def single_writeback_ps(self):
        """``page_writeback_ps(1)``: one single-page dirty write-back."""
        return self.page_writeback_ps(1)

    def ssd_fault_ps(self, npages=1, sequential=False):
        """Cost of faulting pages in from (or out to) the storage pool."""
        transfer = self.transfer_ps(npages * self.page_size, self.ssd_bandwidth_bytes_per_ns)
        if sequential:
            return self.ssd_swap_software_ps + transfer
        return self.ssd_random_fault_ps + transfer

    def cpu_ps(self, ops, ghz=None, scale=1.0):
        """Time to execute ``ops`` simple operations at ``ghz`` (cycles @ 1
        op/cycle), stretched by ``scale`` (time sharing, a degraded pool)."""
        clock = self.compute_clock_ghz if ghz is None else ghz
        return to_ps(ops / clock * scale)

    def page_list_message_bytes(self, resident_pages):
        """Size of the RLE-compressed resident-page list (Section 6)."""
        raw = resident_pages * self.page_list_entry_bytes
        return max(64, int(raw / self.rle_compression))

    def with_overrides(self, **kwargs):
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **kwargs)


def scaled_config(working_set_bytes, cache_ratio=0.02, **overrides):
    """Build a config whose compute cache is ``cache_ratio`` of the working set.

    The paper's headline setting is 1 GB of compute-local memory for a
    ~50 GB working set (2%); experiments in this reproduction shrink the
    working set but keep the ratio.
    """
    if not 0 < cache_ratio <= 1:
        raise ConfigError(f"cache_ratio must be in (0, 1], got {cache_ratio}")
    cache_bytes = max(int(working_set_bytes * cache_ratio), 16 * 4096)
    config = DdcConfig(compute_cache_bytes=cache_bytes)
    if overrides:
        config = config.with_overrides(**overrides)
    return config


# Convenience alias used throughout tests and benchmarks.
DEFAULT_CONFIG = DdcConfig()
