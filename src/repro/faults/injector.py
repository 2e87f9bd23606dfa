"""The fault injector: answers "does this fault fire right now?".

One :class:`FaultInjector` is installed per TELEPORT runtime
(:meth:`TeleportRuntime.install_faults`). The runtime and the network
consult it at every decision point — request send, response send, message
cost, instance dispatch — passing the current virtual time (in ps; the
plan's windows are in ns). Probabilistic
faults draw from a single seeded RNG; since the simulation is
single-threaded and deterministic, the draw sequence (and therefore every
injected fault) is identical across runs with the same plan and seed.
"""

import math
from collections import Counter

from repro.faults.plan import FaultKind
from repro.sim.rng import make_rng
from repro.sim.units import to_ns, to_ps


def _window_ps(spec):
    """A spec's ``[start, end)`` window in ps; an open end stays infinite."""
    end = spec.end_ns if spec.end_ns == math.inf else to_ps(spec.end_ns)
    return to_ps(spec.start_ns), end


class FaultInjector:
    """Evaluates a :class:`~repro.faults.plan.FaultPlan` against virtual time."""

    def __init__(self, plan, stats=None, seed=None):
        self.plan = plan
        self.rng = make_rng(plan.seed if seed is None else seed)
        self.stats = stats
        #: Number of times each fault kind actually fired.
        self.injected = Counter()

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _fires(self, spec):
        """Decide one armed message-level fault (consumes RNG if p < 1)."""
        if spec.probability >= 1.0:
            return True
        if spec.probability <= 0.0:
            return False
        return float(self.rng.random()) < spec.probability

    def _record(self, kind):
        self.injected[kind] += 1
        if self.stats is not None:
            self.stats.faults_injected += 1

    def _message_blocked(self, now, drop_kinds):
        """Shared logic for request/response delivery decisions."""
        now = to_ns(now)
        for spec in self.plan.specs:
            if spec.kind is FaultKind.PARTITION and spec.active_at(now):
                self._record(FaultKind.PARTITION)
                return True
        for spec in self.plan.specs:
            if spec.kind in drop_kinds and spec.active_at(now) and self._fires(spec):
                self._record(spec.kind)
                return True
        return False

    # ------------------------------------------------------------------
    # Queries (the hook points)
    # ------------------------------------------------------------------
    def request_delivered(self, now):
        """Does a pushdown request sent at ``now`` reach the RPC server?"""
        return not self._message_blocked(
            now, (FaultKind.DROP_REQUEST, FaultKind.RPC_FAULT)
        )

    def response_delivered(self, now):
        """Does a pushdown response sent at ``now`` reach the caller?"""
        return not self._message_blocked(now, (FaultKind.DROP_RESPONSE,))

    def message_delay_ps(self, now):
        """Extra congestion latency for one message sent at ``now``.

        Messages without a known timestamp (``now=None``) only experience
        always-on delay specs (window ``[0, inf)``).
        """
        extra = 0
        for spec in self.plan.of_kind(FaultKind.DELAY):
            if now is None:
                armed = spec.start_ns <= 0.0 and spec.end_ns == math.inf
            else:
                armed = spec.active_at(to_ns(now))
            if armed and self._fires(spec):
                self._record(FaultKind.DELAY)
                extra += to_ps(spec.delay_ns)
        return extra

    def degrade_factor(self, now):
        """Clock-stretch multiplier of the memory pool at ``now`` (>= 1)."""
        factor = 1.0
        now = to_ns(now)
        for spec in self.plan.of_kind(FaultKind.DEGRADE):
            if spec.active_at(now):
                factor *= spec.factor
        if factor != 1.0:
            self._record(FaultKind.DEGRADE)
        return factor

    def partition_window_at(self, now):
        """The (start, end) ps window of the partition covering ``now``, or None."""
        now = to_ns(now)
        for spec in self.plan.of_kind(FaultKind.PARTITION):
            if spec.active_at(now):
                return _window_ps(spec)
        return None

    def partition_windows(self):
        """All declared partition windows as (start, end) ps pairs."""
        return [_window_ps(spec) for spec in self.plan.of_kind(FaultKind.PARTITION)]

    def crash_start_ps(self):
        """Earliest hard-death instant declared by the plan, or None."""
        crashes = self.plan.of_kind(FaultKind.CRASH)
        if not crashes:
            return None
        return to_ps(min(spec.start_ns for spec in crashes))
