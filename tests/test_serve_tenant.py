"""Tests for the serving Server's request lifecycle (repro.serve.tenant).

Every yielded request — alone or in a fork-join batch, local or pushed —
runs on its own thread forked at the yield and ends in one ``done``
callback; the tenant resumes once, at the latest member's completion or
at the first failure.
"""

import numpy as np
import pytest

from repro.errors import AccessError
from repro.serve.offload import OffloadPolicy, OffloadRequest
from repro.serve.tenant import Server
from repro.sim.config import DdcConfig

OPS = 2_000_000  # one request: 0.9757 ms on the default config


def _compute(ectx):
    ectx.compute(OPS)
    return OPS


def _server(offload, **config):
    return Server(DdcConfig(**config), offload=offload)


def _tenant(server, effects, seen):
    """Admit a tenant yielding ``effects`` in turn; ``seen`` collects
    ``(now, value or exception)`` at each resumption."""

    def build(ctx):
        region = ctx.thread.process.alloc_array("data", np.arange(1024))

        def overrun(ectx):
            return ectx.load_slice(region, 0, len(region) + 1)

        def gen():
            for effect in effects(overrun):
                try:
                    value = yield effect
                except AccessError as exc:
                    value = exc
                seen.append((ctx.now, value))

        return gen()

    return server.admit("t", build)


@pytest.mark.parametrize("offload", [OffloadPolicy.NEVER, OffloadPolicy.ALWAYS])
def test_request_error_reaches_tenant_local_or_pushed(offload):
    """The same AccessError reaches the generator wherever the body ran,
    and the server itself runs to completion."""
    server = _server(offload)
    seen = []
    _tenant(server, lambda overrun: [
        OffloadRequest("bad", overrun), OffloadRequest("ok", _compute),
    ], seen)
    report = server.run()
    (_, error), (_, value) = seen
    assert isinstance(error, AccessError)
    assert value == OPS
    assert [r.name for r in report.records] == ["ok"]


def test_failed_local_member_stops_the_batch():
    """A local member's error resumes the task once; no later member starts."""
    started = []

    def late(ectx):
        started.append(ectx.now)
        return "late"

    server = _server(OffloadPolicy.NEVER)
    seen = []
    _tenant(server, lambda overrun: [
        [OffloadRequest("bad", overrun), OffloadRequest("late", late)],
        OffloadRequest("after", _compute),
    ], seen)
    server.run()
    assert started == []
    (_, error), (_, value) = seen
    assert isinstance(error, AccessError)
    assert value == OPS


def _completion_ps(members, **config):
    server = _server(OffloadPolicy.ALWAYS, **config)
    seen = []
    requests = [OffloadRequest(f"r{i}", _compute) for i in range(members)]
    tenant = _tenant(server, lambda overrun: [requests], seen)
    server.run()
    (_, results), = seen
    assert results == [OPS] * members
    return tenant.completion_ps


def test_batch_members_hold_instances_concurrently():
    """With two instances and two cores, a 2-member batch takes exactly as
    long as one request: its members do not share the tenant's clock."""
    config = dict(teleport_instances=2, memory_pool_cores=2)
    assert _completion_ps(2, **config) == _completion_ps(1, **config)


def test_batch_members_queue_for_one_instance(monkeypatch):
    """With one instance the second member dispatches when the first frees
    it, at the RPC server's ``last_end_ps``."""
    server = _server(OffloadPolicy.ALWAYS)
    ends = []
    rpc = server.pool.rpc
    complete = rpc.complete

    def record(index, end_ps):
        complete(index, end_ps)
        ends.append(rpc.last_end_ps)

    monkeypatch.setattr(rpc, "complete", record)
    seen = []
    tenant = _tenant(server, lambda overrun: [
        [OffloadRequest("r0", _compute), OffloadRequest("r1", _compute)],
    ], seen)
    server.run()
    assert len(ends) == 2
    # Both arrived at 0; only the second waited, until the first's end,
    # and then ran exactly as long as a request alone.
    assert tenant.share.queue_delay_ps == ends[0]
    assert tenant.completion_ps == ends[0] + _completion_ps(1)


def test_sibling_after_failure_leaves_tenant_clock():
    """The task resumes at the first failure; a sibling completing later
    is recorded but does not move the tenant's clock."""
    server = _server(OffloadPolicy.ALWAYS, teleport_instances=2,
                     memory_pool_cores=2)
    seen = []
    tenant = _tenant(server, lambda overrun: [
        [OffloadRequest("bad", overrun), OffloadRequest("slow", _compute)],
    ], seen)
    server.run()
    (caught_at, error), = seen
    assert isinstance(error, AccessError)
    (slow,) = tenant.records
    assert caught_at < slow.completed_ps
    assert tenant.finished_ps == caught_at
