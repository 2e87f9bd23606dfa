"""Virtual clocks.

Each simulated thread owns a :class:`VirtualClock`; all costs in the library
are charged by advancing a clock. Parallel execution is modelled by forking
clocks at a common start time and joining on the maximum.
"""

from repro.errors import ConfigError

_INF = float("inf")


class VirtualClock:
    """A monotonically advancing virtual clock, in nanoseconds.

    Time is always finite. NaN compares false against everything and would
    silently poison every timestamp downstream, so the guards are range
    checks that NaN fails, and they reject infinities too.
    """

    __slots__ = ("_now",)

    def __init__(self, start_ns=0.0):
        if not 0 <= start_ns < _INF:
            raise ConfigError(
                f"clock cannot start at negative or non-finite time: {start_ns!r}"
            )
        self._now = float(start_ns)

    @property
    def now(self):
        """Current virtual time in nanoseconds."""
        return self._now

    def advance(self, ns):
        """Charge ``ns`` nanoseconds of work and return the new time."""
        if not 0 <= ns < _INF:
            raise ConfigError(
                f"cannot advance clock by negative or non-finite time: {ns!r}"
            )
        self._now += ns
        return self._now

    def advance_to(self, ns):
        """Move the clock forward to an absolute time (no-op if in the past)."""
        if not -_INF < ns < _INF:
            raise ConfigError(f"cannot advance clock to non-finite time: {ns!r}")
        if ns > self._now:
            self._now = ns
        return self._now

    def fork(self):
        """Create a child clock starting at this clock's current time."""
        return VirtualClock(self._now)

    def join(self, others):
        """Advance this clock to the latest time among ``others``.

        Models a fork/join barrier: the parent resumes when the slowest
        child finishes.
        """
        for clock in others:
            self.advance_to(clock.now)
        return self._now

    def __repr__(self):
        return f"VirtualClock(now={self._now:.1f}ns)"
