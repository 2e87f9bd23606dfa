"""Per-process circuit breaker around the pushdown path.

After ``breaker_failure_threshold`` consecutive infrastructure failures
(timeouts, retransmission exhaustion, watchdog aborts), the breaker opens:
further pushdown calls are routed to the compute pool without paying a
doomed round trip. After ``breaker_cooldown_ns`` of virtual time one probe
call is allowed through (half-open); its success closes the breaker, its
failure re-opens it for another cooldown. User-code exceptions inside the
pushed function do *not* count — they indicate an application bug, not an
unhealthy memory pool.
"""


class CircuitBreaker:
    """Closed / open / half-open breaker over virtual time."""

    def __init__(self, config, stats):
        self.threshold = config.breaker_failure_threshold
        self.cooldown_ps = config.breaker_cooldown_ps
        self.stats = stats
        self.failures = 0
        self.opened_at = None
        self._probing = False

    @property
    def state(self):
        if self.opened_at is None:
            return "closed"
        return "half-open" if self._probing else "open"

    def allow(self, now):
        """May a pushdown attempt go to the memory pool at ``now``?"""
        if self.opened_at is None:
            return True
        if self._probing:
            # A probe is already in flight (its record_* call will land
            # before the next allow() in the single-threaded simulation).
            return False
        if now - self.opened_at >= self.cooldown_ps:
            self._probing = True
            return True
        return False

    def record_success(self, now):
        """The attempt completed: close the breaker, reset the count."""
        self.failures = 0
        self.opened_at = None
        self._probing = False

    def record_failure(self, now):
        """An infrastructure failure: maybe trip (or re-trip) the breaker."""
        self.failures += 1
        if self._probing:
            # The probe failed: back to open with a fresh cooldown.
            self._probing = False
            self.opened_at = now
            self.stats.breaker_trips += 1
        elif self.opened_at is None and self.failures >= self.threshold:
            self.opened_at = now
            self.stats.breaker_trips += 1
