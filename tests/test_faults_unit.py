"""Unit tests for the fault-injection building blocks (repro.faults)."""

import math

import pytest

from repro.errors import ConfigError, KernelPanic
from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    HeartbeatDetector,
    RetryPolicy,
    crash,
    degrade,
    delay_messages,
    drop_requests,
    drop_responses,
    partition,
    rpc_faults,
)
from repro.sim.config import DdcConfig
from repro.sim.stats import Stats


class TestFaultSpec:
    def test_defaults_always_on(self):
        spec = drop_requests()
        assert spec.active_at(0.0)
        assert spec.active_at(1e15)

    def test_window_is_half_open(self):
        spec = partition(100.0, 200.0)
        assert not spec.active_at(99.9)
        assert spec.active_at(100.0)
        assert spec.active_at(199.9)
        assert not spec.active_at(200.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="not a kind")
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.DROP_REQUEST, start_ns=-1.0)
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.DROP_REQUEST, start_ns=5.0, end_ns=5.0)
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.DROP_REQUEST, probability=1.5)
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.DELAY)  # needs delay_ns > 0
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.DEGRADE, factor=0.5)

    @pytest.mark.parametrize("field", ["start_ns", "end_ns", "delay_ns", "factor"])
    def test_nan_rejected(self, field):
        """A NaN bound would make a window that never arms."""
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.DELAY, **{"delay_ns": 1.0, field: float("nan")})

    def test_plan_rejects_non_specs(self):
        with pytest.raises(ConfigError):
            FaultPlan(specs=("drop",))

    def test_plan_of_kind(self):
        plan = FaultPlan(specs=(drop_requests(), degrade(2.0), drop_requests(0.5)))
        assert len(plan.of_kind(FaultKind.DROP_REQUEST)) == 2
        assert len(plan.of_kind(FaultKind.PARTITION)) == 0


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            backoff_base_ns=100.0, backoff_multiplier=2.0,
            backoff_max_ns=350.0, jitter=0.0,
        )
        assert policy.backoff_ns(1) == pytest.approx(100.0)
        assert policy.backoff_ns(2) == pytest.approx(200.0)
        assert policy.backoff_ns(3) == pytest.approx(350.0)  # capped, not 400
        assert policy.backoff_ns(10) == pytest.approx(350.0)

    def test_jitter_band_and_determinism(self):
        from repro.sim.rng import make_rng

        policy = RetryPolicy(backoff_base_ns=1000.0, jitter=0.2)
        values = [policy.backoff_ns(1, make_rng(7)) for _ in range(5)]
        # Same seed -> same draw -> identical jittered backoff.
        assert len(set(values)) == 1
        assert 800.0 <= values[0] <= 1200.0
        spread = {round(policy.backoff_ns(1, make_rng(s)), 3) for s in range(20)}
        assert len(spread) > 1  # different seeds actually move the value

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.0)

    def test_from_config_round_trips(self):
        config = DdcConfig(retry_max_attempts=7, retry_backoff_ns=123.0)
        policy = RetryPolicy.from_config(config)
        assert policy.max_attempts == 7
        assert policy.backoff_base_ns == 123.0


class TestFaultInjector:
    def test_deterministic_probability_sequence(self):
        plan = FaultPlan(specs=(drop_requests(0.5),), seed=11)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        seq_a = [a.request_delivered(i * 1_000) for i in range(50)]
        seq_b = [b.request_delivered(i * 1_000) for i in range(50)]
        assert seq_a == seq_b
        assert True in seq_a and False in seq_a

    def test_certain_faults_do_not_consume_rng(self):
        plan = FaultPlan(specs=(drop_requests(1.0, end_ns=10.0), drop_requests(0.5)))
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        # Inside the certain window 'a' must not draw; afterwards the two
        # injectors' RNG streams must still be aligned.
        assert not a.request_delivered(5_000)
        assert not b.request_delivered(5_000)
        assert [a.request_delivered(20_000) for _ in range(20)] == [
            b.request_delivered(20_000) for _ in range(20)
        ]

    def test_partition_blocks_both_directions(self):
        injector = FaultInjector(FaultPlan(specs=(partition(100.0, 200.0),)))
        # The injector is asked at virtual ps; the plan's windows are ns.
        assert injector.request_delivered(50_000)
        assert not injector.request_delivered(150_000)
        assert not injector.response_delivered(150_000)
        assert injector.response_delivered(250_000)
        assert injector.partition_window_at(150_000) == (100_000, 200_000)
        assert injector.partition_window_at(250_000) is None

    def test_delay_only_in_window(self):
        injector = FaultInjector(
            FaultPlan(specs=(delay_messages(500.0, start_ns=100.0, end_ns=200.0),))
        )
        assert injector.message_delay_ps(50_000) == 0
        assert injector.message_delay_ps(150_000) == 500_000
        # Untimestamped messages only see always-on delays.
        assert injector.message_delay_ps(None) == 0
        always = FaultInjector(FaultPlan(specs=(delay_messages(300.0),)))
        assert always.message_delay_ps(None) == 300_000

    def test_degrade_factor_multiplies(self):
        injector = FaultInjector(
            FaultPlan(specs=(degrade(2.0, end_ns=100.0), degrade(3.0, end_ns=50.0)))
        )
        assert injector.degrade_factor(25_000) == pytest.approx(6.0)
        assert injector.degrade_factor(75_000) == pytest.approx(2.0)
        assert injector.degrade_factor(150_000) == pytest.approx(1.0)

    def test_injection_counter_and_stats(self):
        stats = Stats()
        injector = FaultInjector(FaultPlan(specs=(drop_requests(),)), stats=stats)
        injector.request_delivered(0)
        injector.request_delivered(1_000)
        assert injector.injected[FaultKind.DROP_REQUEST] == 2
        assert stats.faults_injected == 2

    def test_crash_start(self):
        injector = FaultInjector(FaultPlan(specs=(crash(5000.0),)))
        assert injector.crash_start_ps() == 5_000_000
        assert FaultInjector(FaultPlan()).crash_start_ps() is None

    def test_rpc_fault_blocks_requests_only(self):
        injector = FaultInjector(FaultPlan(specs=(rpc_faults(),)))
        assert not injector.request_delivered(0)
        assert injector.response_delivered(0)

    def test_drop_response_blocks_responses_only(self):
        injector = FaultInjector(FaultPlan(specs=(drop_responses(),)))
        assert injector.request_delivered(0)
        assert not injector.response_delivered(0)


class TestCircuitBreaker:
    def _breaker(self, threshold=3, cooldown=1000.0):
        config = DdcConfig(
            breaker_failure_threshold=threshold, breaker_cooldown_ns=cooldown
        )
        return CircuitBreaker(config, Stats())

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = self._breaker(threshold=3)
        breaker.record_failure(0)
        breaker.record_failure(1_000)
        assert breaker.state == "closed"
        breaker.record_failure(2_000)
        assert breaker.state == "open"
        assert not breaker.allow(2_500)
        assert breaker.stats.breaker_trips == 1

    def test_success_resets_the_count(self):
        breaker = self._breaker(threshold=2)
        breaker.record_failure(0)
        breaker.record_success(1_000)
        breaker.record_failure(2_000)
        assert breaker.state == "closed"

    def test_probe_after_cooldown_closes_on_success(self):
        breaker = self._breaker(threshold=1, cooldown=1000.0)
        breaker.record_failure(0)
        assert not breaker.allow(500_000)
        assert breaker.allow(1_000_000)  # the half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow(1_001_000)  # only one probe at a time
        breaker.record_success(1_500_000)
        assert breaker.state == "closed"
        assert breaker.allow(1_501_000)

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        breaker = self._breaker(threshold=1, cooldown=1000.0)
        breaker.record_failure(0)
        assert breaker.allow(1_000_000)
        breaker.record_failure(1_200_000)
        assert breaker.state == "open"
        assert not breaker.allow(2_000_000)  # cooldown restarted at 1200 ns
        assert breaker.allow(2_200_000)
        assert breaker.stats.breaker_trips == 2


class TestHeartbeatDetector:
    def _detector(self, k=3, interval=1000.0):
        config = DdcConfig(
            heartbeat_miss_threshold=k, heartbeat_interval_ns=interval
        )
        return HeartbeatDetector(config, Stats()), config

    def test_confirm_instant_math(self):
        detector, _config = self._detector(k=3, interval=1000.0)
        # In ps. Crash at 0: misses at 1000, 2000, 3000 ns -> confirmed at 3000.
        assert detector._confirm_instant(0) == 3_000_000
        # Crash at 1500 ns: misses at 2000, 3000, 4000 -> confirmed at 4000.
        assert detector._confirm_instant(1_500_000) == 4_000_000
        # Crash exactly on a heartbeat instant: that beat still succeeded.
        assert detector._confirm_instant(2_000_000) == 5_000_000

    def test_long_partition_is_confirmed_loss(self):
        detector, _config = self._detector(k=3, interval=1000.0)
        injector = FaultInjector(FaultPlan(specs=(partition(500.0, 4000.0),)))
        # Confirm instant for unreachable-since-500 is 3500 < 4000 (heal).
        assert detector._effective_crash(injector) == 500_000

    def test_short_partition_is_not_a_crash(self):
        detector, _config = self._detector(k=3, interval=1000.0)
        injector = FaultInjector(FaultPlan(specs=(partition(500.0, 3000.0),)))
        assert detector._effective_crash(injector) is None

    def test_pool_dead_only_after_confirmation(self):
        detector, _config = self._detector()
        assert not detector.pool_dead
        detector.crash(0)
        assert not detector.pool_dead  # declared, not yet confirmed

        class _Ctx:
            def __init__(self):
                from repro.sim.clock import VirtualClock

                class _Thread:
                    clock = VirtualClock()

                self.thread = _Thread()

            @property
            def now(self):
                return self.thread.clock.now

            def charge_ps(self, ps):
                self.thread.clock.advance(ps)

        ctx = _Ctx()
        with pytest.raises(KernelPanic):
            detector.poll(ctx)
        assert detector.pool_dead
        assert ctx.now == 3 * 1_000_000  # k * interval, in ps
