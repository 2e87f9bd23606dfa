"""Runtime invariant sanitizers.

Two always-valid invariants of the simulation, checked continuously when
enabled (they are assumptions everywhere else, so a violation is always a
library bug):

* **SWMR sanitizer** — the Single-Writer-Multiple-Reader invariant of the
  coherence protocol (paper Figures 8–9), promoted from the per-test
  ``CoherenceProtocol.check_swmr`` spot check to a check after *every*
  protocol transition.
* **Leak sanitizer** — a finished :class:`PushdownSession` leaves nothing
  behind: once the protocol refcount hits zero, the temporary context's
  page table ``t_mm`` is torn down, the in-flight upgrade map is empty,
  and the compute kernel no longer points at the protocol.

Enablement:

* per platform via ``DdcConfig(sanitizers=True)``;
* process-wide via :func:`enable` / :func:`disable` (what the test
  suite's ``pytest --sanitize`` option uses);
* scoped via the :func:`sanitized` context manager.

All violations raise :class:`~repro.errors.SanitizerViolation`. Virtual
time needs no sanitizer: :class:`~repro.sim.clock.VirtualClock` accepts
only non-negative ``int`` picoseconds, so NaN, infinities and every other
float are rejected by type.
"""

import contextlib

from repro.errors import CoherenceViolation, SanitizerViolation


class SanitizerSuite:
    """One set of sanitizer check counters and checks."""

    def __init__(self):
        self.swmr_checks = 0
        self.leak_checks = 0
        self.violations = 0

    # ------------------------------------------------------------------
    # Per-transition SWMR
    # ------------------------------------------------------------------
    def swmr_transition(self, protocol, transition, vpn=None):
        """Re-assert SWMR after one coherence-protocol transition.

        ``vpn`` scopes the check to one page (O(1), used on the per-access
        transitions); without it the whole cache is swept (session
        boundaries).
        """
        self.swmr_checks += 1
        try:
            protocol.check_swmr(vpn)
        except CoherenceViolation as exc:
            self.violations += 1
            tracer = protocol.platform.tracer
            if tracer.enabled:
                tracer.emit(
                    0, "sanitizer", check="swmr", transition=transition, vpn=vpn,
                )
            raise SanitizerViolation(
                f"SWMR violated after transition {transition!r}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Session-end leaks
    # ------------------------------------------------------------------
    def check_protocol_teardown(self, protocol, compkernel):
        """After a refcount-zero release, nothing of the session survives."""
        self.leak_checks += 1
        if protocol.t_mm is not None:
            self._violate(
                "leaked temporary context: t_mm survived a refcount-zero release"
            )
        if protocol._mem_upgrade_until:
            self._violate(
                f"leaked in-flight upgrade map: "
                f"{len(protocol._mem_upgrade_until)} entries at teardown"
            )
        if compkernel.protocol is protocol:
            self._violate(
                "leaked protocol attachment: compute kernel still references "
                "the finished protocol"
            )

    def check_session_end(self, runtime, process):
        """At PushdownSession end: no zero-refcount protocol may linger armed."""
        self.leak_checks += 1
        protocol = runtime._protocols.get(process.pid)
        if protocol is None or protocol.refcount > 0:
            return  # released, or legitimately shared with a live session
        if protocol.t_mm is not None or protocol._mem_upgrade_until:
            self._violate(
                f"session ended but protocol for pid {process.pid} was not "
                f"torn down (refcount={protocol.refcount}, "
                f"t_mm={'set' if protocol.t_mm is not None else 'None'}, "
                f"in-flight upgrades={len(protocol._mem_upgrade_until)})"
            )

    def _violate(self, message):
        self.violations += 1
        raise SanitizerViolation(message)


#: Process-global suite (``pytest --sanitize`` / :func:`enable`).
_GLOBAL_SUITE = None


def enable():
    """Enable sanitizers process-wide; returns the active suite."""
    global _GLOBAL_SUITE
    if _GLOBAL_SUITE is None:
        _GLOBAL_SUITE = SanitizerSuite()
    return _GLOBAL_SUITE


def disable():
    """Disable the process-wide suite (platform-local suites are untouched)."""
    global _GLOBAL_SUITE
    _GLOBAL_SUITE = None


def active():
    """The process-wide suite, or None."""
    return _GLOBAL_SUITE


@contextlib.contextmanager
def sanitized():
    """Context manager: sanitizers on inside, previous state restored after."""
    previous_suite = _GLOBAL_SUITE
    suite = enable()
    try:
        yield suite
    finally:
        globals()["_GLOBAL_SUITE"] = previous_suite


def suite_for(config):
    """The suite a new platform should use, or None.

    The process-wide suite wins (so ``pytest --sanitize`` covers every
    platform any test builds); otherwise ``config.sanitizers`` opts a
    single platform in with its own suite.
    """
    if _GLOBAL_SUITE is not None:
        return _GLOBAL_SUITE
    if getattr(config, "sanitizers", False):
        return SanitizerSuite()
    return None
