"""Simulated threads.

A :class:`SimThread` is a logical flow of execution with its own virtual
clock. Threads do not run concurrently in the host Python process; the
simulation interleaves them deterministically (smallest clock first) or
runs them to completion and joins on the maximum, depending on the driver.
"""

import itertools

from repro.ddc.pool import Pool
from repro.sim.clock import VirtualClock

_ids = itertools.count()


class SimThread:
    """One simulated thread of a process."""

    __slots__ = ("tid", "name", "process", "pool", "clock", "cpu_scale")

    def __init__(self, process, name=None, pool=Pool.COMPUTE, start_ps=0):
        self.tid = next(_ids)
        self.name = name or f"thread-{self.tid}"
        self.process = process
        self.pool = pool
        self.clock = VirtualClock(start_ps)
        #: CPU slowdown factor (>= 1.0) from oversubscribing memory-pool
        #: cores; set by the TELEPORT RPC server (Figure 17).
        self.cpu_scale = 1.0

    def __repr__(self):
        return f"SimThread({self.name!r}, pool={self.pool.value}, now={self.clock.now}ps)"
