"""Tests for the DDC configuration and its derived cost helpers."""

import pytest

from repro.errors import ConfigError
from repro.sim.config import DdcConfig, scaled_config
from repro.sim.units import GIB, MIB


def test_defaults_match_the_paper_testbed():
    config = DdcConfig()
    assert config.page_size == 4096
    assert config.net_latency_ns == pytest.approx(1200.0)  # 1.2 us
    assert config.net_bandwidth_bytes_per_ns == pytest.approx(7.0)  # 56 Gbps
    assert config.compute_clock_ghz == pytest.approx(2.1)
    assert config.ssd_bandwidth_bytes_per_ns == pytest.approx(3.0)  # 3 GB/s


def test_cache_pages_derived_from_bytes():
    config = DdcConfig(compute_cache_bytes=1 * MIB)
    assert config.compute_cache_pages == 256


def test_remote_fault_batching_amortises_latency():
    config = DdcConfig()
    one = config.remote_fault_ps(1)
    eight = config.remote_fault_ps(8)
    assert eight < 8 * one
    # But still strictly more than one fault (the pages must move).
    assert eight > one


def test_remote_fault_much_slower_than_dram():
    config = DdcConfig()
    assert config.remote_fault_ps(1) > 10 * config.dram_page_ps


def test_ssd_fault_slower_than_remote_memory():
    # The premise of Figure 1a: remote memory beats SSD spill.
    config = DdcConfig()
    assert config.ssd_fault_ps(1, sequential=False) > config.remote_fault_ps(1)


def test_ssd_sequential_cheaper_than_random():
    config = DdcConfig()
    assert config.ssd_fault_ps(4, sequential=True) < config.ssd_fault_ps(4, sequential=False)


def test_cpu_ns_scales_with_clock():
    config = DdcConfig()
    assert config.cpu_ps(2100) == 1_000_000
    assert config.cpu_ps(2100, ghz=1.05) == 2_000_000
    assert config.cpu_ps(2100, scale=1.5) == 1_500_000
    # Rounded once, to the nearest ps: 1000 ops at 2.1 GHz is 476.190476... ns.
    assert config.cpu_ps(1000) == 476_190


DEFAULT_PS = {
    "net_message_base_ps": 1_600_000,
    "dram_page_ps": 250_000,
    "dram_random_ps": 100_000,
    "dram_line_ps": 4_000,
    "fault_software_ps": 2_500_000,
    "ssd_random_fault_ps": 90_000_000,
    "ssd_swap_software_ps": 50_000_000,
    "pte_clone_ps": 150_000,
    "context_base_ps": 20_000_000,
    "coherence_msg_ps": 1_600_000,
    "contention_backoff_ps": 50_000_000,
    "watchdog_timeout_ps": 60_000_000_000_000,
    "heartbeat_interval_ps": 10_000_000_000,
    "breaker_cooldown_ps": 50_000_000_000,
    # 4096 B at 7 B/ns is 585.142857... ns.
    "single_fault_ps": 2_500_000 + 2 * 1_600_000 + 585_143,
    "single_writeback_ps": 1_600_000 + 585_143,
}


@pytest.mark.parametrize("name", sorted(DEFAULT_PS))
def test_ps_constants_are_exact_for_the_defaults(name):
    value = getattr(DdcConfig(), name)
    assert type(value) is int
    assert value == DEFAULT_PS[name]


def test_ps_constants_are_exact_for_a_line_cost_that_float_adds_round():
    """4.1 ns has no exact binary form; its ps constant is exactly 4100,
    so k repeats cost exactly k * 4100 ps."""
    config = DdcConfig(dram_line_ns=4.1)
    assert config.dram_line_ps == 4100
    assert type(config.dram_line_ps) is int
    assert config.with_overrides(dram_line_ns=4.0).dram_line_ps == 4000


def test_page_list_message_compression():
    config = DdcConfig()
    resident = 262_144  # 1 GiB of 4 KiB pages
    compressed = config.page_list_message_bytes(resident)
    assert compressed == pytest.approx(resident * 9 / 20.0, rel=0.01)


def test_page_list_message_has_floor():
    config = DdcConfig()
    assert config.page_list_message_bytes(0) == 64


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        DdcConfig(page_size=0)
    with pytest.raises(ConfigError):
        DdcConfig(net_latency_ns=-1)
    with pytest.raises(ConfigError):
        DdcConfig(prefetch_degree=0)
    with pytest.raises(ConfigError):
        DdcConfig(memory_pool_cores=0)


@pytest.mark.parametrize(
    "field", ["dram_random_ns", "dram_line_ns", "ssd_random_fault_ns", "ssd_swap_software_ns"]
)
def test_negative_latencies_rejected(field):
    """The batch cost path skips a hit's ``+ 0.0``, which is exact only
    because no cost is negative."""
    with pytest.raises(ConfigError, match=field):
        DdcConfig(**{field: -1})
    assert getattr(DdcConfig(**{field: 0}), field) == 0


@pytest.mark.parametrize("field", [
    "page_size", "net_bandwidth_bytes_per_ns", "memory_clock_ghz", "pte_clone_ns",
    "dram_line_ns", "prefetch_degree", "retry_backoff_multiplier", "retry_backoff_ns",
])
def test_nan_rejected(field):
    """NaN fails every comparison, so a plain ``value <= 0`` guard lets it
    through; each check must be written so that NaN fails it."""
    with pytest.raises(ConfigError, match=field):
        DdcConfig(**{field: float("nan")})


def test_with_overrides_returns_new_config():
    config = DdcConfig()
    throttled = config.with_overrides(memory_clock_ghz=0.4)
    assert throttled.memory_clock_ghz == pytest.approx(0.4)
    assert config.memory_clock_ghz == pytest.approx(2.1)


def test_scaled_config_keeps_cache_ratio():
    config = scaled_config(working_set_bytes=1 * GIB, cache_ratio=0.02)
    assert config.compute_cache_bytes == pytest.approx(0.02 * GIB, rel=0.01)


def test_scaled_config_rejects_bad_ratio():
    with pytest.raises(ConfigError):
        scaled_config(1 * GIB, cache_ratio=0.0)
    with pytest.raises(ConfigError):
        scaled_config(1 * GIB, cache_ratio=1.5)


def test_scaled_config_passes_overrides():
    config = scaled_config(1 * GIB, memory_clock_ghz=1.0)
    assert config.memory_clock_ghz == pytest.approx(1.0)
