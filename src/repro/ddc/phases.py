"""Named-phase execution with profiling and per-phase pushdown.

Shared by the graph engine and the MapReduce engine: both systems execute
named phases (finalize/gather/apply/scatter, map-compute/map-shuffle/
reduce/merge) whose times and remote traffic the paper reports per phase
(Figure 10), and both apply TELEPORT by wrapping selected phases.
"""

from dataclasses import dataclass

from repro.errors import ReproError
from repro.sim.units import SEC, ns_property, to_ns


@dataclass
class PhaseProfile:
    """Accumulated execution profile of one named phase."""

    name: str
    #: Virtual time spent in the phase, in picoseconds.
    time_ps: int = 0
    remote_pages: int = 0
    calls: int = 0
    pushed_down: bool = False

    time_ns = ns_property("time_ps")

    @property
    def time_s(self):
        return self.time_ns / SEC

    def remote_bytes(self, page_size=4096):
        return self.remote_pages * page_size


class PhaseRunner:
    """Runs named phase bodies inline or as pushdowns, profiling each."""

    def __init__(self, ctx, phase_names, pushdown=(), pushdown_options=None):
        self.ctx = ctx
        self.phase_names = tuple(phase_names)
        self.pushdown = (
            set(self.phase_names) if pushdown == "all" else set(pushdown)
        )
        unknown = self.pushdown - set(self.phase_names)
        if unknown:
            raise ReproError(
                f"unknown pushdown phases {sorted(unknown)}; "
                f"expected a subset of {self.phase_names}"
            )
        self.pushdown_options = pushdown_options or {}
        self.profiles = {}

    def run(self, name, body, *args):
        """Execute ``body(ctx, *args)`` as phase ``name``."""
        if name not in self.phase_names:
            raise ReproError(f"unknown phase {name!r}")
        ctx = self.ctx
        push = name in self.pushdown
        stats = ctx.stats
        pages_before = stats.remote_pages_in + stats.remote_pages_out
        t0 = ctx.now
        if push:
            result = ctx.pushdown(body, *args, **self.pushdown_options)
        else:
            result = body(ctx, *args)
        profile = self.profiles.setdefault(name, PhaseProfile(name))
        profile.time_ps += ctx.now - t0
        profile.remote_pages += stats.remote_pages_in + stats.remote_pages_out - pages_before
        profile.calls += 1
        profile.pushed_down = push
        return result

    def profile(self, name):
        if name not in self.profiles:
            raise ReproError(f"phase {name!r} has not run")
        return self.profiles[name]

    def total_time_ns(self):
        return to_ns(sum(profile.time_ps for profile in self.profiles.values()))
