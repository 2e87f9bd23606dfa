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


def test_pages_in_batched_cheaper_than_unbatched(net):
    network, stats = net
    batched = network.pages_in_ps(8, batch=8)
    unbatched = network.pages_in_ps(8, batch=1)
    assert batched < unbatched
    assert stats.remote_pages_in == 16


def test_pages_out_counts_traffic(net):
    network, stats = net
    network.pages_out_ps(3, batch=3)
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
    """``pages_in_ps``/``pages_out_ps`` with ``batch=1`` charge and
    count exactly what n single-page calls would."""
    network, stats = net
    reference = Network(network.config, Stats())
    single_in = sum(reference.pages_in_ps(1, batch=1) for _ in range(5))
    single_out = sum(reference.pages_out_ps(1, batch=1) for _ in range(3))
    assert network.pages_in_ps(5, batch=1) == single_in
    assert network.pages_out_ps(3, batch=1) == single_out
    assert stats == reference.stats


@pytest.mark.parametrize("npages, batch", [(16, 8), (21, 8), (5, 8), (7, 1), (9, 9)])
def test_batches_charge_what_one_call_per_request_would(net, npages, batch):
    """``npages // batch`` full requests plus a remainder cost and count
    exactly what one ``batch=size`` call per request would."""
    network, stats = net
    reference = Network(network.config, Stats())
    full, rest = divmod(npages, batch)
    sizes = [batch] * full + ([rest] if rest else [])
    expected_in = sum(reference.pages_in_ps(size, batch=size) for size in sizes)
    expected_out = sum(reference.pages_out_ps(size, batch=size) for size in sizes)
    assert network.pages_in_ps(npages, batch=batch) == expected_in
    assert network.pages_out_ps(npages, batch=batch) == expected_out
    assert stats == reference.stats
    assert stats.rpc_messages == 3 * len(sizes)


def test_single_page_batches_are_the_unbatched_charge(net):
    """``batch=1``: one single-page fault (a request/response pair) or one
    single-page write-back (one message) per page."""
    network, stats = net
    config = network.config
    assert network.pages_in_ps(6, batch=1) == 6 * config.single_fault_ps
    assert stats.rpc_messages == 12
    assert network.pages_out_ps(4, batch=1) == 4 * config.single_writeback_ps
    assert stats.rpc_messages == 16
    assert stats.remote_pages_in == 6 and stats.remote_pages_out == 4
    assert stats.network_bytes == 10 * config.page_size


def test_zero_pages_charge_nothing(net):
    network, stats = net
    assert network.pages_in_ps(0, batch=8) == 0
    assert network.pages_in_ps(0, batch=1) == 0
    assert network.pages_out_ps(0, batch=1) == 0
    assert stats == Stats()
