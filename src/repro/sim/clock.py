"""Virtual clocks.

Each simulated thread owns a :class:`VirtualClock`; all costs in the library
are charged by advancing a clock. Parallel execution is modelled by forking
clocks at a common start time and joining on the maximum.
"""

from repro.errors import ConfigError


def _reject(ps, what):
    raise ConfigError(f"{what} must be a non-negative int of picoseconds, got {ps!r}")


class VirtualClock:
    """A monotonically advancing virtual clock, in integer picoseconds
    (see :mod:`repro.sim.units`).

    Every time it is given must be an ``int`` (``type()``, not
    ``isinstance()``: a ``bool`` is rejected) and non-negative, so NaN,
    infinities and every other float are rejected by type.
    """

    __slots__ = ("_now",)

    def __init__(self, start_ps=0):
        if type(start_ps) is not int or start_ps < 0:
            _reject(start_ps, "clock start")
        self._now = start_ps

    @property
    def now(self):
        """Current virtual time in picoseconds."""
        return self._now

    def advance(self, ps):
        """Charge ``ps`` picoseconds of work and return the new time."""
        if type(ps) is not int or ps < 0:
            _reject(ps, "clock advance")
        self._now += ps
        return self._now

    def advance_to(self, ps):
        """Move the clock forward to an absolute time (no-op if in the past)."""
        if type(ps) is not int or ps < 0:
            _reject(ps, "clock target")
        if ps > self._now:
            self._now = ps
        return self._now

    def join(self, others):
        """Advance this clock to the latest time among ``others``.

        Models a fork/join barrier: the parent resumes when the slowest
        child finishes.
        """
        for clock in others:
            self.advance_to(clock.now)
        return self._now

    def __repr__(self):
        return f"VirtualClock(now={self._now}ps)"
