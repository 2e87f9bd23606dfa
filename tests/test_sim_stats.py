"""Tests for statistics counters and pushdown breakdowns."""

import numpy as np
import pytest

from repro.db import PhysicalPlan, QueryExecutor
from repro.db.expr import Col
from repro.db.operators import Aggregate, Projection, Selection
from repro.db.table import Table
from repro.ddc import make_platform
from repro.errors import ConfigError
from repro.sim.config import DdcConfig
from repro.sim.units import KIB
from repro.sim.stats import (
    PushdownBreakdown,
    Stats,
    p50,
    p99,
    percentile,
)


def test_stats_start_at_zero():
    stats = Stats()
    assert stats.cache_hits == 0
    assert stats.coherence_messages == 0
    assert stats.pushdown_calls == 0


def test_operator_profiles_sum_to_the_platform_totals():
    """Each operator's profile counts the remote pages (both directions)
    and storage faults accrued while it ran, pushed down or not, so a
    query's profiles sum to what the platform accrued over the query. The
    memory pool holds under half the table, so the query faults to
    storage."""
    platform = make_platform("teleport", DdcConfig(
        compute_cache_bytes=64 * KIB, memory_pool_bytes=128 * KIB,
    ))
    process = platform.new_process()
    rows = 20_000
    table = Table.create(process, "t", {
        "key": np.arange(rows, dtype=np.int64),
        "value": np.random.default_rng(3).random(rows),
    })
    plan = PhysicalPlan("spilling", [
        Selection(table, Col("value") < 0.5, out="sel"),
        Projection(table["value"], out="v", candidates="sel"),
        Aggregate("v", "sum", out="result"),
    ], result="result")
    ctx = platform.main_context(process)
    stats = platform.stats
    before = stats.as_dict()
    result = QueryExecutor(ctx, pushdown={"projection:v"}).execute(plan)
    accrued = {name: value - before[name] for name, value in stats.as_dict().items()}
    assert accrued["remote_pages_in"] > 0 and accrued["remote_pages_out"] > 0
    assert accrued["storage_faults"] > 0
    profiles = result.profiles
    assert [profile.pushed_down for profile in profiles] == [False, True, False]
    assert sum(profile.remote_pages for profile in profiles) == (
        accrued["remote_pages_in"] + accrued["remote_pages_out"]
    )
    assert sum(profile.storage_faults for profile in profiles) == accrued["storage_faults"]


def test_remote_bytes_counts_both_directions():
    stats = Stats(remote_pages_in=3, remote_pages_out=2)
    assert stats.remote_bytes(4096) == 5 * 4096


def test_merge_adds_counters():
    a = Stats(cache_hits=1, storage_faults=2)
    b = Stats(cache_hits=10, coherence_messages=4)
    a.merge(b)
    assert a.cache_hits == 11
    assert a.storage_faults == 2
    assert a.coherence_messages == 4


def test_as_dict_round_trip():
    stats = Stats(cache_misses=7)
    assert stats.as_dict()["cache_misses"] == 7


def test_breakdown_total_sums_components():
    breakdown = PushdownBreakdown(
        pre_sync_ns=1, request_ns=2, queue_wait_ns=3, context_setup_ns=4,
        function_ns=5, online_sync_ns=6, response_ns=7, post_sync_ns=8,
    )
    assert breakdown.total_ns == pytest.approx(36)


def test_breakdown_overhead_excludes_function():
    breakdown = PushdownBreakdown(function_ns=100, request_ns=5, response_ns=5)
    assert breakdown.overhead_ns == pytest.approx(10)


def test_breakdown_merge_accumulates():
    total = PushdownBreakdown()
    total.merge(PushdownBreakdown(pre_sync_ns=10, function_ns=1))
    total.merge(PushdownBreakdown(pre_sync_ns=5, response_ns=2))
    assert total.pre_sync_ns == pytest.approx(15)
    assert total.function_ns == pytest.approx(1)
    assert total.response_ns == pytest.approx(2)


# ----------------------------------------------------------------------
# Percentiles (serving-latency reporting helpers)
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_ranks():
    data = [10, 20, 30, 40]
    assert percentile(data, 0) == 10.0
    assert percentile(data, 100) == 40.0
    assert percentile(data, 50) == pytest.approx(25.0)
    assert percentile(data, 25) == pytest.approx(17.5)


def test_percentile_matches_numpy_default():
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(7)
    data = rng.integers(0, 1_000_000, size=101).tolist()
    for p in (0, 1, 12.5, 50, 90, 99, 100):
        assert percentile(data, p) == pytest.approx(np.percentile(data, p))


def test_percentile_ignores_input_order():
    data = [5, 1, 9, 3, 7]
    assert percentile(data, 50) == percentile(sorted(data), 50)


def test_percentile_single_value():
    assert percentile([42], 99) == 42.0


def test_percentile_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        percentile([], 50)
    with pytest.raises(ConfigError):
        percentile([1, 2], -1)
    with pytest.raises(ConfigError):
        percentile([1, 2], 101)


def test_p50_p99_shorthands():
    data = list(range(1, 101))
    assert p50(data) == percentile(data, 50)
    assert p99(data) == percentile(data, 99)
    assert p99(data) > p50(data)
