"""Unit constants and the virtual time unit.

Sizes are in bytes. Inside the simulator every duration is an integer
count of virtual picoseconds, each cost rounded to it once where it is
computed; integer sums are exact in any order. Configuration inputs and
everything reported (``time_ns``, ``total_ns``, trace timestamps, ...) are
float nanoseconds, converted with :func:`to_ps` and :func:`to_ns`.
"""

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

US = 1_000.0
MS = 1_000_000.0
SEC = 1_000_000_000.0

#: Picoseconds per nanosecond.
PS_PER_NS = 1000


def to_ps(ns):
    """A duration in float ns as whole picoseconds (rounded to nearest)."""
    return round(ns * PS_PER_NS)


def to_ns(ps):
    """Integer picoseconds as float ns, for reporting."""
    return ps / PS_PER_NS


def ns_property(name):
    """A read-only property: the ``name`` attribute, in ps, as float ns."""
    return property(lambda self: to_ns(getattr(self, name)))
