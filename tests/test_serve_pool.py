"""Tests for the memory-pool pushdown scheduler (repro.serve.pool)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddc.platform import make_platform
from repro.errors import ConfigError
from repro.serve.offload import OffloadPolicy, OffloadRequest
from repro.serve.pool import PoolScheduler, QueuePolicy, TenantShare
from repro.serve.tenant import Server
from repro.sim.config import DdcConfig
from repro.sim.units import to_ns


def compute_tenant(n_requests, ops):
    """Closed-loop tenant: fixed-cost compute requests, one outstanding."""

    def build(ctx):
        def body(ectx):
            ectx.compute(ops)
            return ops

        def requests():
            for index in range(n_requests):
                yield OffloadRequest(f"r{index}", body)

        return requests()

    return build


def batch_tenant(n_requests, ops):
    """Open tenant: submits all requests at once (fork-join batch), so it
    keeps the admission queue backlogged — the shape where policies bite."""

    def build(ctx):
        def body(ectx):
            ectx.compute(ops)
            return ops

        def requests():
            results = yield [
                OffloadRequest(f"r{index}", body) for index in range(n_requests)
            ]
            return results

        return requests()

    return build


def serve(tenants, queue_policy, instances=1, trace=False):
    """Run compute tenants under ALWAYS offload so every request queues."""
    server = Server(DdcConfig(teleport_instances=instances),
                    offload=OffloadPolicy.ALWAYS, queue_policy=queue_policy)
    if trace:
        server.platform.tracer.enable(kinds={"sched"})
    for name, workload, kwargs in tenants:
        server.admit(name, workload, **kwargs)
    return server, server.run()


# ----------------------------------------------------------------------
# Construction and accounting
# ----------------------------------------------------------------------
def test_pool_requires_teleport_platform():
    with pytest.raises(ConfigError, match="no TELEPORT runtime"):
        PoolScheduler(make_platform("ddc"))


def test_pool_slots_are_teleport_instances():
    platform = make_platform("teleport", DdcConfig(teleport_instances=4))
    pool = PoolScheduler(platform)
    assert pool.rpc is platform.teleport.rpc
    assert pool.rpc.instances == 4
    assert pool.rpc.busy(0) == 0


def occupy_instance(rpc, until_ps):
    """Hold the earliest free TELEPORT instance busy until ``until_ps``."""
    index = rpc.plan(0)[0]
    rpc.commit(index)
    rpc.complete(index, until_ps)


def test_tenant_share_validates_weight():
    with pytest.raises(ConfigError):
        TenantShare("t", weight=0.0)


def test_slots_bound_concurrency_and_charge_queue_delay():
    """With one slot, overlapping requests serialise; waiters are charged."""
    tenants = [
        ("a", compute_tenant(3, 400_000), dict(arrival_ns=0.0)),
        ("b", compute_tenant(3, 400_000), dict(arrival_ns=0.0)),
        ("c", compute_tenant(3, 400_000), dict(arrival_ns=0.0)),
    ]
    server, report = serve(tenants, QueuePolicy.FIFO)
    shares = server.pool.shares
    assert all(share.completed == 3 for share in shares.values())
    # Everyone but the first dispatch waited for the single slot.
    assert sum(share.queue_delay_ns for share in shares.values()) > 0
    # Slot time never overlaps: total service fits within the makespan.
    total_service = sum(share.service_ns for share in shares.values())
    assert total_service <= report.makespan_ns + 1e-6


def test_more_slots_reduce_queueing():
    tenants = [
        (name, compute_tenant(3, 400_000), dict(arrival_ns=0.0))
        for name in ("a", "b", "c")
    ]
    server1, _ = serve(tenants, QueuePolicy.FIFO, instances=1)
    server3, _ = serve(tenants, QueuePolicy.FIFO, instances=3)
    delay1 = sum(s.queue_delay_ns for s in server1.pool.shares.values())
    delay3 = sum(s.queue_delay_ns for s in server3.pool.shares.values())
    assert delay1 > 0
    # One closed-loop request per tenant fits on three instances at once.
    assert delay3 == 0.0


def test_all_waiting_happens_in_the_pool_queue():
    """The pool's slots are the RPC instances: a request is dispatched only
    onto a free instance, so no pushdown ever waits at the RPC server."""
    tenants = [
        (name, compute_tenant(3, 400_000), dict(arrival_ns=0.0))
        for name in ("a", "b", "c")
    ]
    for instances in (1, 3):
        server, _ = serve(tenants, QueuePolicy.FIFO, instances=instances)
        runtime = server.platform.teleport
        assert runtime.rpc.instances == instances
        assert len(runtime.breakdowns) == 9
        assert all(b.queue_wait_ns == 0 for b in runtime.breakdowns)


def test_sched_trace_events_emitted():
    tenants = [
        ("a", compute_tenant(2, 200_000), dict(arrival_ns=0.0)),
        ("b", compute_tenant(2, 200_000), dict(arrival_ns=0.0)),
    ]
    server, _report = serve(tenants, QueuePolicy.FIFO, trace=True)
    events = server.platform.tracer.of_kind("sched")
    phases = [event.detail["phase"] for event in events]
    assert phases.count("enqueue") == 4
    assert phases.count("dispatch") == 4
    assert phases.count("complete") == 4
    # Dispatches never precede their enqueue in the recorded order.
    assert phases.index("enqueue") < phases.index("dispatch")


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def _dispatch_sequence(server):
    return [
        event.detail["tenant"]
        for event in server.platform.tracer.of_kind("sched")
        if event.detail["phase"] == "dispatch"
    ]


def test_fifo_dispatches_in_arrival_order():
    tenants = [
        ("a", compute_tenant(1, 100_000), dict(arrival_ns=0.0)),
        ("b", compute_tenant(1, 100_000), dict(arrival_ns=10.0)),
        ("c", compute_tenant(1, 100_000), dict(arrival_ns=20.0)),
    ]
    server, _ = serve(tenants, QueuePolicy.FIFO, trace=True)
    assert _dispatch_sequence(server) == ["a", "b", "c"]


def test_strict_priority_preempts_queue_order():
    """High-priority requests overtake an earlier-arrived backlog."""
    tenants = [
        ("low", batch_tenant(4, 300_000), dict(arrival_ns=0.0, priority=0)),
        ("high", batch_tenant(4, 300_000), dict(arrival_ns=5.0, priority=5)),
    ]
    server, _ = serve(tenants, QueuePolicy.PRIORITY, trace=True)
    sequence = _dispatch_sequence(server)
    # The first low request seizes the idle slot before "high" arrives;
    # from then on every queued high request beats the queued lows.
    assert sequence == ["low"] + ["high"] * 4 + ["low"] * 3


def test_fifo_ignores_priority():
    tenants = [
        ("low", batch_tenant(3, 300_000), dict(arrival_ns=0.0, priority=0)),
        ("high", batch_tenant(3, 300_000), dict(arrival_ns=5.0, priority=5)),
    ]
    server, _ = serve(tenants, QueuePolicy.FIFO, trace=True)
    assert _dispatch_sequence(server) == ["low"] * 3 + ["high"] * 3


# ----------------------------------------------------------------------
# Weighted fair share: property tests
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(weights=st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                        min_size=2, max_size=4))
def test_fair_share_never_starves(weights):
    """Every backlogged tenant keeps making progress under fair share.

    Each tenant submits its whole batch at t=0, so all stay backlogged
    until their last dispatch. With equal-cost requests, a tenant of
    weight w is due one dispatch per ``sum(weights) / w`` dispatches; no
    tenant may wait much longer than that while it still has queued work.
    """
    n_requests = 6
    tenants = [
        (f"t{i}", batch_tenant(n_requests, 200_000),
         dict(arrival_ns=0.0, weight=w))
        for i, w in enumerate(weights)
    ]
    server, _ = serve(tenants, QueuePolicy.FAIR, trace=True)
    sequence = _dispatch_sequence(server)
    assert len(sequence) == n_requests * len(weights)
    for i, w in enumerate(weights):
        name = f"t{i}"
        positions = [pos for pos, t in enumerate(sequence) if t == name]
        assert len(positions) == n_requests  # completed everything
        # Bounded gap between consecutive dispatches while this tenant is
        # still backlogged: at worst the other tenants are due
        # ~sum(weights)/w turns per turn of this tenant, plus slack of one
        # full round for arrival ties.
        bound = sum(weights) / w + len(weights) + 1
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        assert all(gap <= bound for gap in gaps), (weights, name, gaps)


@settings(max_examples=10, deadline=None)
@given(heavy=st.sampled_from([2.0, 3.0, 4.0]))
def test_fair_share_long_run_shares_converge(heavy):
    """Attained normalized service stays balanced across tenants.

    Both tenants submit their full batch at t=0 and stay backlogged;
    least-attained-normalized-service dispatch keeps ``count / weight``
    within one round of proportional at every prefix.
    """
    n_requests = 12
    ops = 200_000
    tenants = [
        ("heavy", batch_tenant(n_requests, ops),
         dict(arrival_ns=0.0, weight=heavy)),
        ("light", batch_tenant(n_requests, ops),
         dict(arrival_ns=0.0, weight=1.0)),
    ]
    server, _ = serve(tenants, QueuePolicy.FAIR, trace=True)
    sequence = _dispatch_sequence(server)
    assert len(sequence) == 2 * n_requests
    # Measure while both tenants are still backlogged: stop once either
    # side has exhausted its requests.
    heavy_seen = light_seen = 0
    for name in sequence:
        if name == "heavy":
            heavy_seen += 1
        else:
            light_seen += 1
        if heavy_seen == n_requests or light_seen == n_requests:
            break
        # Requests are equal-cost, so dispatch counts stand in for
        # attained service: normalized counts track within one turn.
        assert abs(heavy_seen / heavy - light_seen / 1.0) <= 1.0 + 1.0 / heavy, (
            heavy, sequence
        )
    # Over the contended phase the heavy tenant received ~heavy× the
    # light tenant's dispatches.
    assert heavy_seen >= light_seen
    assert heavy_seen >= int(heavy * light_seen) - 1


# ----------------------------------------------------------------------
# A direct ctx.pushdown bypasses the admission queue
# ----------------------------------------------------------------------
def test_direct_pushdown_waits_at_rpc_server():
    """A direct call queues FIFO at the RPC server, not in the pool."""
    platform = make_platform("teleport")
    pool = PoolScheduler(platform)
    ctx = platform.main_context()
    busy_until = 5_000_000_000  # 5 ms, in ps
    occupy_instance(pool.rpc, busy_until)

    def fn(ectx):
        ectx.compute(1000)
        return "done"

    assert ctx.pushdown(fn) == "done"
    assert ctx.now > busy_until
    (breakdown,) = platform.teleport.breakdowns
    # The request reaches the server after pre-sync and its transfer.
    arrival_ns = breakdown.pre_sync_ns + breakdown.request_ns
    assert breakdown.queue_wait_ns == pytest.approx(to_ns(busy_until) - arrival_ns)
    assert pool.shares == {}
    assert pool.queue == []


def test_direct_back_to_back_pushdowns_do_not_wait():
    """Sequential pushdowns from one caller find the instance free again."""
    platform = make_platform("teleport")
    PoolScheduler(platform)
    ctx = platform.main_context()

    def fn(ectx):
        ectx.compute(1000)
        return 1

    assert ctx.pushdown(fn) == 1
    assert ctx.pushdown(fn) == 1
    breakdowns = platform.teleport.breakdowns
    assert len(breakdowns) == 2
    assert all(b.queue_wait_ns == 0 for b in breakdowns)
