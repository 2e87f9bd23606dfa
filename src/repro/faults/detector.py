"""Heartbeat failure detection with lease-based recovery (Section 3.2).

The compute pool's heartbeat thread pings the memory pool every
``heartbeat_interval_ns``. Heartbeats are modelled on a global schedule
(multiples of the interval, in virtual ps); a partition or crash window
swallows every heartbeat it covers. The detector distinguishes:

* **suspicion** — at least one heartbeat missed, fewer than ``k``
  (``heartbeat_miss_threshold``): pushdown syscalls stall until the
  partition heals and one lease-renewal round trip succeeds;
* **confirmed loss** — ``k`` consecutive heartbeats missed: main memory is
  gone, so TELEPORT triggers a :class:`~repro.errors.KernelPanic`. The
  detection latency (blocking until the ``k``-th miss) is charged exactly
  once, to the first syscall that observes the failure; later syscalls see
  an already-confirmed panic and are not re-charged.
"""

from repro.errors import KernelPanic
from repro.sim.units import to_ns


class HeartbeatDetector:
    """Deterministic k-miss failure detector over virtual time."""

    def __init__(self, config, stats):
        self.config = config
        self.interval = config.heartbeat_interval_ps
        self.k = config.heartbeat_miss_threshold
        self.stats = stats
        self._crash_ps = None
        self._confirmed_ps = None
        self._detection_charged = False
        self._recovered_windows = set()

    # ------------------------------------------------------------------
    # State changes
    # ------------------------------------------------------------------
    def crash(self, at_ps=0):
        """Declare hard memory-pool death at ``at_ps``."""
        if self._crash_ps is None or at_ps < self._crash_ps:
            self._crash_ps = at_ps

    @property
    def pool_dead(self):
        """True once loss has been confirmed by ``k`` missed heartbeats."""
        return self._confirmed_ps is not None

    # ------------------------------------------------------------------
    # Heartbeat schedule arithmetic
    # ------------------------------------------------------------------
    def _first_missed(self, start_ps):
        """First heartbeat instant strictly after ``start_ps``."""
        return (start_ps // self.interval + 1) * self.interval

    def _confirm_instant(self, unreachable_since):
        """When the k-th consecutive heartbeat goes missing."""
        return self._first_missed(unreachable_since) + (self.k - 1) * self.interval

    # ------------------------------------------------------------------
    # The poll (called from every pushdown syscall)
    # ------------------------------------------------------------------
    def poll(self, ctx, injector=None):
        """Check pool health at ``ctx.now``; stall, recover, or panic.

        Raises :class:`KernelPanic` on confirmed loss; on transient
        partitions with at least one missed heartbeat, blocks the caller
        until the lease is renewed after the partition heals.
        """
        now = ctx.now
        crash = self._effective_crash(injector)
        if crash is not None and now >= crash:
            confirm = self._confirm_instant(crash)
            if not self._detection_charged:
                # The syscall blocks until the k-th miss confirms the loss;
                # this latency is paid once, by the detecting caller.
                self._detection_charged = True
                self._confirmed_ps = confirm
                ctx.thread.clock.advance_to(confirm)
            raise KernelPanic(
                f"memory pool unreachable: {self.k} heartbeats missed "
                f"(confirmed at {to_ns(confirm):.0f}ns)"
            )
        if injector is None:
            return
        window = injector.partition_window_at(now)
        if window is None:
            return
        start, end = window
        first_miss = self._first_missed(start)
        if now < first_miss:
            # No heartbeat missed yet: the OS does not know; the request
            # path's retransmission layer absorbs the drops.
            return
        # Suspicion: stall until the partition heals, then renew the lease.
        if window not in self._recovered_windows:
            self._recovered_windows.add(window)
            self.stats.heartbeat_suspicions += 1
            self.stats.heartbeat_recoveries += 1
        ctx.thread.clock.advance_to(end)
        ctx.charge_ps(self.config.net_roundtrip_ps(64, 64))

    def _effective_crash(self, injector):
        """Earliest instant after which the pool never answers again."""
        crash = self._crash_ps
        if injector is not None:
            declared = injector.crash_start_ps()
            if declared is not None and (crash is None or declared < crash):
                crash = declared
            # A partition long enough to swallow k heartbeats is
            # indistinguishable from death: loss is confirmed before the
            # partition would have healed.
            for start, end in injector.partition_windows():
                if self._confirm_instant(start) < end:
                    if crash is None or start < crash:
                        crash = start
        return crash
