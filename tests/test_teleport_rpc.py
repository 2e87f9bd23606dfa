"""Tests for the RPC server and instance pool (Figure 17 machinery)."""

import pytest

from repro.errors import ConfigError
from repro.sim.config import DdcConfig
from repro.teleport.rpc import RpcServer


def make_server(instances=1, cores=1, penalty=0.12):
    config = DdcConfig(
        teleport_instances=instances,
        memory_pool_cores=cores,
        context_switch_penalty=penalty,
    )
    return RpcServer(config)


def test_requires_at_least_one_instance():
    config = DdcConfig()
    # The config is frozen; set the field directly to bypass its validation.
    object.__setattr__(config, "teleport_instances", 0)
    with pytest.raises(ConfigError):
        RpcServer(config)


def test_free_instance_starts_immediately():
    server = make_server()
    _index, start, scale = server.plan(arrival_ps=100)
    assert start == 100
    assert scale == 1.0


def test_busy_instance_queues_fifo():
    server = make_server(instances=1)
    index, start, _scale = server.plan(0)
    server.commit(index)
    server.complete(index, 500)
    _index2, start2, _scale2 = server.plan(10)
    assert start2 == 500


def test_two_instances_run_two_requests_concurrently():
    server = make_server(instances=2, cores=2)
    i1, s1, _ = server.plan(0)
    server.commit(i1)
    i2, s2, _ = server.plan(0)
    server.commit(i2)
    assert i1 != i2
    assert s1 == s2 == 0


def test_oversubscription_stretches_cpu():
    server = make_server(instances=3, cores=2)
    for _ in range(2):
        index, _start, scale = server.plan(0)
        server.commit(index)
        assert scale == 1.0
    _index, _start, scale = server.plan(0)
    assert scale > 1.0


def test_oversubscription_scale_formula():
    server = make_server(instances=4, cores=2, penalty=0.1)
    # 4 busy on 2 cores: oversub 2.0 times (1 + 0.1 * 2) = 2.4
    assert server._cpu_scale(4) == pytest.approx(2.4)
    assert server._cpu_scale(2) == 1.0


def test_plan_without_commit_leaves_state_unchanged():
    server = make_server(instances=1)
    server.plan(0)
    _index, start, _scale = server.plan(0)
    assert start == 0
    assert server.dispatched == 0


def test_cancel_queued_counts():
    server = make_server()
    server.cancel_queued()
    assert server.cancelled == 1


def test_earliest_free_tracks_completions():
    server = make_server(instances=2)
    i1, _s, _ = server.plan(0)
    server.commit(i1)
    assert server.earliest_free_ps() == 0
    i2, _s, _ = server.plan(0)
    server.commit(i2)
    assert server.earliest_free_ps() == float("inf")
    server.complete(i1, 300)
    assert server.earliest_free_ps() == 300
