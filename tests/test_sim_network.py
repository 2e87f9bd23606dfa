"""Tests for the RDMA fabric cost model."""

import pytest

from repro.sim.config import DdcConfig
from repro.sim.network import Network
from repro.sim.stats import Stats


@pytest.fixture
def net():
    stats = Stats()
    return Network(DdcConfig(), stats), stats


def test_message_cost_includes_latency_and_bandwidth(net):
    network, _stats = net
    config = network.config
    empty = network.message_ps(0)
    assert empty == config.net_message_base_ps == 1_600_000
    big = network.message_ps(7000)
    assert big == empty + 1_000_000  # 7000 B at 7 B/ns is 1000 ns


def test_messages_are_counted(net):
    network, stats = net
    network.message_ps(100)
    network.message_ps(50)
    assert stats.rpc_messages == 2
    assert stats.network_bytes == 150


def test_roundtrip_counts_two_messages(net):
    network, stats = net
    network.roundtrip_ps(10, 20)
    assert stats.rpc_messages == 2
    assert stats.network_bytes == 30


def test_pages_in_batched_cheaper_than_unbatched(net):
    network, stats = net
    batched = network.pages_in_ps(8, batched=True)
    unbatched = network.pages_in_ps(8, batched=False)
    assert batched < unbatched
    assert stats.remote_pages_in == 16


def test_pages_out_counts_traffic(net):
    network, stats = net
    network.pages_out_ps(3)
    assert stats.remote_pages_out == 3
    assert stats.network_bytes == 3 * 4096


def test_coherence_message_close_to_raw_latency(net):
    # Paper Section 7.6: average protocol message latency 1.6us vs the
    # network's raw 1.2us.
    network, stats = net
    cost = network.coherence_message_ps()
    assert cost == 1_600_000
    assert stats.coherence_messages == 1


def test_coherence_message_with_page_costs_more(net):
    network, _stats = net
    assert network.coherence_message_ps(with_page=True) > network.coherence_message_ps()


def test_unbatched_pages_count_the_traffic_of_single_page_calls(net):
    """``pages_in_ps``/``pages_out_ps`` with ``batched=False`` charge and
    count exactly what n single-page calls would."""
    network, stats = net
    reference = Network(network.config, Stats())
    single_in = sum(reference.pages_in_ps(1) for _ in range(5))
    single_out = sum(reference.pages_out_ps(1) for _ in range(3))
    assert network.pages_in_ps(5, batched=False) == single_in
    assert network.pages_out_ps(3, batched=False) == single_out
    assert stats == reference.stats
