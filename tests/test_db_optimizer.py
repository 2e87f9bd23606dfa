"""Tests for the cost-based pushdown optimizer (Section 5.1 future work)."""

import pytest

from repro.db import CostBasedOptimizer, QueryExecutor
from repro.db.tpch import build_q9, generate
from repro.ddc import make_platform
from repro.errors import ReproError
from repro.sim.config import scaled_config


@pytest.fixture(scope="module")
def profiled():
    """Q9 profiles from a baseline-DDC run, plus the dataset."""
    dataset = generate(scale_factor=4, seed=11)
    config = scaled_config(dataset.nbytes, cache_ratio=0.02)
    platform = make_platform("ddc", config)
    process = platform.new_process()
    tables = dataset.load_into(process)
    ctx = platform.main_context(process)
    result = QueryExecutor(ctx).execute(build_q9(tables))
    return dataset, config, result


def run_with_pushdown(dataset, config, pushdown):
    platform = make_platform("teleport", config)
    process = platform.new_process()
    tables = dataset.load_into(process)
    ctx = platform.main_context(process)
    return QueryExecutor(ctx, pushdown=pushdown).execute(build_q9(tables))


class TestEstimates:
    def test_one_estimate_per_operator(self, profiled):
        _dataset, config, result = profiled
        optimizer = CostBasedOptimizer(result.profiles, config)
        estimates = optimizer.estimates()
        assert len(estimates) == len(result.profiles)
        assert {e.label for e in estimates} == {p.name for p in result.profiles}

    def test_memory_bound_operators_show_positive_benefit(self, profiled):
        _dataset, config, result = profiled
        optimizer = CostBasedOptimizer(result.profiles, config)
        by_label = {e.label: e for e in optimizer.estimates()}
        # The heavy hash join (random probing over remote memory) must be
        # estimated as profitable to push.
        heaviest = max(result.profiles, key=lambda p: p.remote_bytes)
        assert by_label[heaviest.name].benefit_ns > 0

    def test_pushed_estimate_includes_overhead(self, profiled):
        _dataset, config, result = profiled
        optimizer = CostBasedOptimizer(result.profiles, config)
        for estimate in optimizer.estimates():
            assert estimate.pushed_ns >= optimizer._pushdown_overhead_ns()

    def test_throttled_clock_shrinks_choice(self, profiled):
        """At a weaker memory pool, fewer operators are worth pushing."""
        _dataset, config, result = profiled
        normal = CostBasedOptimizer(result.profiles, config).choose()
        throttled_config = config.with_overrides(memory_clock_ghz=0.2)
        throttled = CostBasedOptimizer(result.profiles, throttled_config).choose()
        assert throttled <= normal
        assert len(throttled) < len(normal)

    def test_min_benefit_filters(self, profiled):
        _dataset, config, result = profiled
        optimizer = CostBasedOptimizer(result.profiles, config)
        everything = optimizer.choose(min_benefit_ns=0.0)
        strict = optimizer.choose(min_benefit_ns=float("inf"))
        assert strict == set()
        assert len(everything) > 0

    def test_empty_profiles_rejected(self, profiled):
        _dataset, config, _result = profiled
        with pytest.raises(ReproError):
            CostBasedOptimizer([], config)


class TestDecisionQuality:
    def test_optimizer_beats_no_pushdown(self, profiled):
        dataset, config, baseline = profiled
        optimizer = CostBasedOptimizer(baseline.profiles, config)
        chosen = run_with_pushdown(dataset, config, optimizer.choose())
        none = run_with_pushdown(dataset, config, None)
        assert chosen.time_ns < none.time_ns / 2

    def test_optimizer_close_to_push_all(self, profiled):
        dataset, config, baseline = profiled
        optimizer = CostBasedOptimizer(baseline.profiles, config)
        chosen = run_with_pushdown(dataset, config, optimizer.choose())
        everything = run_with_pushdown(dataset, config, "all")
        # First-order model: within 35% of the exhaustive choice.
        assert chosen.time_ns < everything.time_ns * 1.35

    def test_estimated_speedup_directionally_correct(self, profiled):
        dataset, config, baseline = profiled
        optimizer = CostBasedOptimizer(baseline.profiles, config)
        predicted = optimizer.estimated_speedup()
        chosen = run_with_pushdown(dataset, config, optimizer.choose())
        measured = baseline.time_ns / chosen.time_ns
        assert predicted > 1.0
        assert measured > 1.0
        # Prediction within a factor of ~3 of the measurement.
        assert predicted / measured < 3.0 and measured / predicted < 3.0

    def test_results_unchanged_by_optimizer_choice(self, profiled):
        dataset, config, baseline = profiled
        optimizer = CostBasedOptimizer(baseline.profiles, config)
        chosen = run_with_pushdown(dataset, config, optimizer.choose())
        assert dict(chosen.value) == pytest.approx(dict(baseline.value))
