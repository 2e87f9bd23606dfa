"""Cost-based pushdown optimisation (the paper's Section 5.1 future work).

The paper uses the memory-intensity heuristic (Section 7.4) and leaves "a
DDC-aware query optimizer that captures the resource constraints in
different resource pools" to future work. This module implements a
first-order version of that optimizer: from one profiling run on the
baseline DDC plus the platform's cost constants, it *estimates* each
operator's execution time under pushdown and selects every operator whose
estimated benefit is positive.

The estimate decomposes an operator's measured baseline time into a
remote-paging component (which pushdown eliminates — the data is local to
the memory pool) and a local-work component (which pushdown *rescales* by
the compute-to-memory clock ratio), then adds the per-call pushdown
overhead (request/response round trip plus temporary-context setup). The
model deliberately ignores second-order interactions (cache state carried
between operators); the tests check that it still lands at or near the
best level of Figure 18's sweep.
"""

from dataclasses import dataclass

from repro.errors import ReproError
from repro.sim.units import to_ns


@dataclass
class PlacementEstimate:
    """Estimated costs of running one operator in each pool."""

    label: str
    kind: str
    baseline_ns: float
    pushed_ns: float

    @property
    def benefit_ns(self):
        """Estimated time saved by pushing this operator down."""
        return self.baseline_ns - self.pushed_ns


class CostBasedOptimizer:
    """Chooses a pushdown set from a baseline profile and a cost model."""

    def __init__(self, profiles, config):
        if not profiles:
            raise ReproError("cannot optimise from an empty profile list")
        self.profiles = list(profiles)
        self.config = config

    # ------------------------------------------------------------------
    # The cost model
    # ------------------------------------------------------------------
    def _remote_page_cost_ns(self):
        """Average cost the baseline pays per remote page.

        Between the fully batched (sequential prefetch) and unbatched
        (random fault) extremes.
        """
        config = self.config
        batched = to_ns(config.remote_fault_ps(config.prefetch_degree)) / config.prefetch_degree
        unbatched = to_ns(config.single_fault_ps)
        return (batched + unbatched) / 2.0

    def _pushdown_overhead_ns(self):
        """Fixed per-call cost of shipping an operator to the memory pool."""
        config = self.config
        resident_estimate = config.compute_cache_pages // 2
        request_bytes = config.page_list_message_bytes(resident_estimate)
        return to_ns(
            config.net_roundtrip_ps(request_bytes, 256)
            + config.context_base_ps
            + config.pte_clone_ps * resident_estimate
        )

    def estimate(self, profile):
        """Placement estimate for one profiled operator."""
        config = self.config
        remote_ns = profile.remote_pages * self._remote_page_cost_ns()
        # Never attribute the whole operator to paging: some local work
        # (CPU + DRAM) always remains.
        local_ns = max(profile.time_ns - remote_ns, 0.05 * profile.time_ns)
        clock_ratio = config.compute_clock_ghz / config.memory_clock_ghz
        pushed_ns = local_ns * clock_ratio + self._pushdown_overhead_ns()
        return PlacementEstimate(
            label=profile.label,
            kind=profile.kind,
            baseline_ns=profile.time_ns,
            pushed_ns=pushed_ns,
        )

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def estimates(self):
        """Placement estimates for every profiled operator."""
        return [self.estimate(profile) for profile in self.profiles]

    def choose(self, min_benefit_ns=0.0):
        """Labels of every operator estimated to gain from pushdown."""
        return {
            estimate.label
            for estimate in self.estimates()
            if estimate.benefit_ns > min_benefit_ns
        }

    def estimated_speedup(self, pushdown=None):
        """Predicted whole-query speedup for a pushdown set."""
        pushdown = self.choose() if pushdown is None else pushdown
        baseline = sum(profile.time_ns for profile in self.profiles)
        chosen = 0.0
        for estimate in self.estimates():
            if estimate.label in pushdown:
                chosen += estimate.pushed_ns
            else:
                chosen += estimate.baseline_ns
        if chosen <= 0:
            raise ReproError("estimated plan time must be positive")
        return baseline / chosen
