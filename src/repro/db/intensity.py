"""The memory-intensity metric and pushdown planning (Section 7.4).

The paper's recipe: run a profiling pass on the baseline DDC, compute each
operator's *memory intensity* — remote memory accesses divided by
execution time — and push down operators above a threshold (80 K RM/s on
their testbed) or the top-k most intense ones. Being too aggressive
backfires when the memory pool's CPU is slow (Figure 18), which is exactly
the trade-off the planner lets callers explore.
"""

from repro.errors import ReproError


class IntensityPlanner:
    """Ranks operators by memory intensity and yields pushdown sets."""

    def __init__(self, profiles):
        if not profiles:
            raise ReproError("cannot plan from an empty profile list")
        self.profiles = sorted(profiles, key=lambda p: p.memory_intensity, reverse=True)

    def ranked_labels(self):
        """Operator labels, most memory-intense first."""
        return [profile.name for profile in self.profiles]

    def intensity_of(self, label):
        for profile in self.profiles:
            if profile.name == label:
                return profile.memory_intensity
        raise ReproError(f"no profiled operator labelled {label!r}")

    # ------------------------------------------------------------------
    # Kind-level planning (the paper ranks operator *types*: projection,
    # hash join, ... — Figure 18's levels are counts of those).
    # ------------------------------------------------------------------
    def kind_intensities(self):
        """Aggregate memory intensity per operator kind."""
        pages = {}
        times = {}
        for profile in self.profiles:
            pages[profile.kind] = pages.get(profile.kind, 0) + profile.remote_pages
            times[profile.kind] = times.get(profile.kind, 0.0) + profile.time_ns
        return {
            kind: (pages[kind] / (times[kind] / 1e9) if times[kind] > 0 else 0.0)
            for kind in pages
        }

    def ranked_kinds(self, min_time_share=0.0):
        """Operator kinds, most memory-intense first.

        ``min_time_share`` separates kinds that matter from noise: kinds
        below that share of total query time rank after all kinds above
        it, regardless of their rate — a trivial operator with a high
        RM/s rate is not a viable pushdown candidate (Section 7.4's
        viability discussion).
        """
        intensities = self.kind_intensities()
        total_ns = sum(profile.time_ns for profile in self.profiles) or 1.0
        share = {}
        for profile in self.profiles:
            share[profile.kind] = share.get(profile.kind, 0.0) + profile.time_ns / total_ns
        primary = sorted(
            (kind for kind in intensities if share[kind] >= min_time_share),
            key=intensities.get,
            reverse=True,
        )
        secondary = sorted(
            (kind for kind in intensities if share[kind] < min_time_share),
            key=intensities.get,
            reverse=True,
        )
        return primary + secondary

    def top_kinds(self, k, min_time_share=0.0):
        """Pushdown set: the k most memory-intense operator kinds."""
        if k < 0:
            raise ReproError(f"k must be non-negative, got {k}")
        return set(self.ranked_kinds(min_time_share)[:k])
