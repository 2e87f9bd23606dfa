"""Named-step execution with profiling and per-step pushdown.

Every data system runs its work as named steps through one
:class:`PhaseRunner`: the DBMS runs each plan operator (its label as the
name, its kind as the kind), the graph engine its finalize/gather/apply/
scatter phases and the MapReduce engine its map-compute/map-shuffle/
reduce/merge phases. The paper applies TELEPORT by "the selective
wrapping of existing function calls", and reports time and remote traffic
per operator and per phase (Figure 10); the runner does both.
"""

from dataclasses import dataclass

from repro.errors import ReproError
from repro.sim.units import SEC, ns_property, to_ns


@dataclass
class PhaseProfile:
    """Accumulated execution profile of one named step."""

    name: str
    kind: str
    #: Virtual time spent in the step, in picoseconds.
    time_ps: int = 0
    remote_pages: int = 0
    remote_bytes: int = 0
    storage_faults: int = 0
    calls: int = 0
    pushed_down: bool = False

    time_ns = ns_property("time_ps")

    @property
    def time_s(self):
        return self.time_ns / SEC

    @property
    def memory_intensity(self):
        """Remote memory accesses per second (the Section 7.4 metric)."""
        if self.time_ps <= 0:
            return 0.0
        return self.remote_pages / self.time_s


def pushdown_selector(pushdown, names=None):
    """Normalise a pushdown spec into a predicate over ``(name, kind)``.

    ``pushdown`` is ``None`` (every step runs inline), ``"all"`` (every
    step is pushed down) or a collection of step names and kinds. With
    ``names``, a collection naming anything else is rejected.
    """
    if pushdown is None:
        return lambda name, kind: False
    if pushdown == "all":
        return lambda name, kind: True
    try:
        wanted = frozenset(pushdown)
    except TypeError:
        raise ReproError(
            f"pushdown must be None, 'all' or a collection of step names and kinds; "
            f"got {pushdown!r}"
        ) from None
    if names is not None and not wanted <= set(names):
        raise ReproError(
            f"unknown pushdown phases {sorted(wanted - set(names))}; "
            f"expected a subset of {tuple(names)}"
        )
    return lambda name, kind: name in wanted or kind in wanted


class PhaseRunner:
    """Runs named steps inline or as pushdowns, profiling each by name.

    ``names`` restricts the step names (an engine's phases); ``None``
    accepts any name (a plan's operator labels).
    """

    def __init__(self, ctx, names=None, pushdown=None):
        self.ctx = ctx
        self.names = None if names is None else tuple(names)
        self._selected = pushdown_selector(pushdown, self.names)
        self.profiles = {}

    def run(self, name, body, *args, kind=None):
        """Execute ``body(ctx, *args)`` as step ``name`` of ``kind``
        (default: the name)."""
        if self.names is not None and name not in self.names:
            raise ReproError(f"unknown phase {name!r}")
        ctx = self.ctx
        kind = name if kind is None else kind
        push = self._selected(name, kind)
        stats = ctx.stats
        pages_before = stats.remote_pages_in + stats.remote_pages_out
        faults_before = stats.storage_faults
        t0 = ctx.now
        result = ctx.pushdown(body, *args) if push else body(ctx, *args)
        pages = stats.remote_pages_in + stats.remote_pages_out - pages_before
        profile = self.profiles.setdefault(name, PhaseProfile(name, kind))
        profile.time_ps += ctx.now - t0
        profile.remote_pages += pages
        profile.remote_bytes += pages * ctx.config.page_size
        profile.storage_faults += stats.storage_faults - faults_before
        profile.calls += 1
        profile.pushed_down = push
        return result

    def total_time_ns(self):
        return to_ns(sum(profile.time_ps for profile in self.profiles.values()))
