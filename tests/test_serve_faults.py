"""Fault matrix for the serving layer: failures while queued.

A pushdown that fails *while waiting in the admission queue* must take
the same retry/fallback/degradation paths as in-flight failures: expired timeouts follow the caller's ``TimeoutAction`` and
count toward the per-process circuit breaker; a memory-pool panic
surfaces as :class:`KernelPanic` at the would-be dispatch.
"""

import pytest

from repro.errors import KernelPanic, PushdownTimeout
from repro.serve.offload import OffloadPolicy, OffloadRequest
from repro.serve.pool import QueuePolicy
from repro.serve.tenant import Server
from repro.sim.config import DdcConfig
from repro.teleport.flags import PushdownOptions, TimeoutAction

pytestmark = pytest.mark.faults

OCCUPY_OPS = 50_000_000  # holds the single slot for tens of virtual ms
VICTIM_TIMEOUT_NS = 1e5  # expires long before the slot frees


def occupant(ops=OCCUPY_OPS):
    """A tenant whose single pushed request monopolises the slot."""

    def build(ctx):
        def body(ectx):
            ectx.compute(ops)
            return "occupied"

        def gen():
            yield OffloadRequest("occupy", body)

        return gen()

    return build


def _server():
    return Server(DdcConfig(), offload=OffloadPolicy.ALWAYS,
                  queue_policy=QueuePolicy.FIFO)


def _quick_body(ectx):
    ectx.compute(1000)
    return "local"


def test_queued_timeout_raises_cancelled():
    """RAISE: the queued wait expires -> PushdownTimeout(cancelled=True)."""
    caught = []

    def victim(ctx):
        def gen():
            try:
                yield OffloadRequest("v", _quick_body, options=PushdownOptions(
                    timeout_ns=VICTIM_TIMEOUT_NS,
                    on_timeout=TimeoutAction.RAISE,
                ))
            except PushdownTimeout as exc:
                caught.append(exc)
        return gen()

    server = _server()
    server.admit("long", occupant(), arrival_ns=0.0)
    server.admit("victim", victim, arrival_ns=10.0)
    server.run()
    assert len(caught) == 1
    # try_cancel trivially succeeds on a queued request: it never started.
    assert caught[0].cancelled is True
    stats = server.platform.stats
    assert stats.pushdown_timeouts == 1
    assert stats.pushdown_cancellations == 1
    assert stats.pushdown_fallbacks == 0
    share = server.pool.shares["victim"]
    assert share.cancelled == 1
    assert share.completed == 0
    # The wait was charged to the victim, not absorbed by the pool.
    assert share.queue_delay_ns == pytest.approx(VICTIM_TIMEOUT_NS)


def test_queued_timeout_fallback_runs_locally():
    """FALLBACK: cancel succeeds -> automatic compute-local re-execution."""
    results = []

    def victim(ctx):
        def gen():
            value = yield OffloadRequest(
                "v", _quick_body, options=PushdownOptions(
                    timeout_ns=VICTIM_TIMEOUT_NS,
                    on_timeout=TimeoutAction.FALLBACK,
                ))
            results.append(value)
        return gen()

    server = _server()
    server.admit("long", occupant(), arrival_ns=0.0)
    server.admit("victim", victim, arrival_ns=10.0)
    report = server.run()
    assert results == ["local"]
    stats = server.platform.stats
    assert stats.pushdown_timeouts == 1
    assert stats.pushdown_fallbacks == 1
    # The fallback result is recorded as a completed request.
    victim_records = [r for r in report.records if r.tenant == "victim"]
    assert len(victim_records) == 1
    assert victim_records[0].latency_ns >= VICTIM_TIMEOUT_NS


def test_wait_action_queued_request_never_expires():
    """WAIT ignores the deadline: the request rides out the backlog."""
    results = []

    def victim(ctx):
        def gen():
            value = yield OffloadRequest(
                "v", _quick_body, options=PushdownOptions(
                    timeout_ns=VICTIM_TIMEOUT_NS,
                    on_timeout=TimeoutAction.WAIT,
                ))
            results.append(value)
        return gen()

    server = _server()
    server.admit("long", occupant(), arrival_ns=0.0)
    server.admit("victim", victim, arrival_ns=10.0)
    server.run()
    assert results == ["local"]
    stats = server.platform.stats
    assert stats.pushdown_timeouts == 0
    assert stats.pushdown_cancellations == 0
    assert server.pool.shares["victim"].completed == 1


def test_repeated_queued_timeouts_trip_breaker():
    """Queue-expiry failures count toward the per-process circuit breaker."""
    server = _server()
    threshold = server.config.breaker_failure_threshold
    caught = []

    def victim(ctx):
        def gen():
            for index in range(threshold):
                try:
                    yield OffloadRequest(
                        f"v{index}", _quick_body, options=PushdownOptions(
                            timeout_ns=VICTIM_TIMEOUT_NS,
                            on_timeout=TimeoutAction.RAISE,
                        ))
                except PushdownTimeout as exc:
                    caught.append(exc)
        return gen()

    server.admit("long", occupant(), arrival_ns=0.0)
    server.admit("victim", victim, arrival_ns=10.0)
    server.run()
    assert len(caught) == threshold
    victim_tenant = next(t for t in server.tenants if t.name == "victim")
    breaker = server.platform.teleport.breaker_for(
        victim_tenant.ctx.thread.process
    )
    assert breaker.failures >= threshold
    assert breaker.state == "open"
    assert server.platform.stats.breaker_trips >= 1


def test_memory_pool_panic_surfaces_at_dispatch():
    """A pool lost while requests sit queued panics the dispatched caller."""
    server = _server()
    server.admit("t", occupant(ops=1000), arrival_ns=0.0)
    server.platform.teleport.fail_memory_pool(0.0)
    with pytest.raises(KernelPanic):
        server.run()


def test_panic_while_queued_fails_every_waiter():
    """Both the dispatched request and later waiters see the dead pool."""
    failures = []

    def tenant(name):
        def build(ctx):
            def gen():
                try:
                    yield OffloadRequest(f"{name}-r", _quick_body)
                except KernelPanic as exc:
                    failures.append((name, exc))
            return gen()
        return build

    server = _server()
    server.admit("a", tenant("a"), arrival_ns=0.0)
    server.admit("b", tenant("b"), arrival_ns=10.0)
    server.platform.teleport.fail_memory_pool(0.0)
    server.run()  # tenants absorb the panic; the server itself survives
    # Delivery order follows virtual time (detection delay differs per
    # caller), but every waiter sees the dead pool.
    assert sorted(name for name, _ in failures) == ["a", "b"]
