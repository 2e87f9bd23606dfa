"""Specification and result types for the two-thread microbenchmark."""

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.units import MIB


@dataclass(frozen=True)
class MicroSpec:
    """Parameters of the two-thread workload (Section 4 / Figure 6).

    The paper's instance uses a 50 GB memory space; the default here is a
    scaled-down space with the same cache-to-space ratio left to the
    caller's config.

    There is no false-sharing switch: coherence is page-granular, so two
    threads writing disjoint variables on one page (Figure 7's false
    sharing) cost exactly what true sharing of that page costs. Figure 7
    is the contended run (``contention_rate > 0``) as it stands.
    """

    #: Size of the memory-intensive thread's space (paper: 50 GB).
    mem_space_bytes: int = 32 * MIB
    #: Random accesses the memory-intensive thread performs.
    n_accesses: int = 120_000
    #: Compute per access (makes the access loop realistic; calibrated so
    #: the base-DDC slowdown of the memory thread lands in the paper's
    #: ~23x band with a 2% cache).
    ops_per_access: int = 350
    #: Total ALU work of the compute-intensive thread — calibrated so the
    #: two threads take equal time locally, as in the paper ("each thread
    #: finishes in 1s").
    compute_ops: int = 67_000_000
    #: Fraction of operations that write a shared page (0 disables).
    contention_rate: float = 0.0
    #: Number of shared pages the contending writes cycle over.
    shared_pages: int = 8
    #: Operations per scheduler step (interleaving granularity).
    step_size: int = 1000

    def __post_init__(self):
        if self.mem_space_bytes <= 0 or self.n_accesses <= 0 or self.compute_ops <= 0:
            raise ConfigError("sizes and op counts must be positive")
        if not 0.0 <= self.contention_rate <= 1.0:
            raise ConfigError(
                f"contention_rate must be in [0, 1], got {self.contention_rate}"
            )
        if self.shared_pages < 1:
            raise ConfigError("need at least one shared page")
        if self.step_size < 1:
            raise ConfigError("step_size must be positive")


@dataclass
class MicroResult:
    """Outcome of one microbenchmark run."""

    mode: str
    total_ns: float
    compute_thread_ns: float
    memory_thread_ns: float
    coherence_messages: int
    coherence_tiebreaks: int
    remote_pages: int
