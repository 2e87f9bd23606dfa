"""Structured event tracing.

A :class:`Tracer` records simulation events — page faults, coherence
transitions, pushdown lifecycle — as typed records for debugging and
analysis. Tracing is opt-in: platforms ship with a disabled tracer whose
``emit`` is a no-op, so the hot paths pay one attribute check when off.

Usage::

    platform = make_platform("teleport", config)
    platform.tracer.enable(kinds={"pushdown", "coherence"})
    ... run the workload ...
    for event in platform.tracer.events:
        print(event)
    platform.tracer.summary()
"""

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.sim.units import to_ns


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulation event, at virtual time ``at_ns``."""

    at_ns: float
    kind: str
    detail: dict = field(default_factory=dict)

    def __str__(self):
        fields = " ".join(f"{key}={value}" for key, value in sorted(self.detail.items()))
        return f"[{self.at_ns / 1e6:10.3f} ms] {self.kind:12s} {fields}"


class Tracer:
    """Collects :class:`TraceEvent` records when enabled."""

    #: Recognised event kinds.
    KINDS = frozenset({
        "fault",        # compute-pool page fault served remotely (a
                        # sequential stream emits one per prefetch batch)
        "coherence",    # protocol transition (invalidate/downgrade/tiebreak)
        "pushdown",     # pushdown lifecycle (begin/finish/cancel/abort)
        "syncmem",      # manual synchronisation calls
        "sanitizer",    # runtime invariant sanitizer findings
        "sched",        # memory-pool admission queue (enqueue/dispatch/
                        # cancel/complete, emitted by the serving layer)
    })

    def __init__(self, limit=100_000):
        self.enabled = False
        self._kinds = self.KINDS
        self.limit = limit
        self.events = []
        self.dropped = 0

    def enable(self, kinds=None):
        """Start recording; ``kinds`` restricts which events are kept."""
        if kinds is not None:
            kinds = frozenset(kinds)
            unknown = kinds - self.KINDS
            if unknown:
                raise ConfigError(
                    f"unknown trace kinds {sorted(unknown)}; "
                    f"expected a subset of {sorted(self.KINDS)}"
                )
            self._kinds = kinds
        else:
            self._kinds = self.KINDS
        self.enabled = True
        return self

    def disable(self):
        self.enabled = False
        return self

    def clear(self):
        self.events.clear()
        self.dropped = 0
        return self

    def emit(self, at_ps, kind, **detail):
        """Record one event at virtual time ``at_ps`` (picoseconds); no-op
        when disabled or filtered out."""
        if not self.enabled or kind not in self._kinds:
            return
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(TraceEvent(at_ns=to_ns(at_ps), kind=kind, detail=detail))

    def of_kind(self, kind):
        """All recorded events of one kind."""
        return [event for event in self.events if event.kind == kind]

    def summary(self):
        """Event counts per kind."""
        counts = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def __len__(self):
        return len(self.events)
