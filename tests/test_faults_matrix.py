"""The fault matrix: injected faults x recovery mechanisms (Section 3.2).

Every scenario asserts three things:

* **correctness** — recovered runs produce the same results as fault-free
  runs (retransmission and fallback are transparent to the application);
* **determinism** — the same plan and seed yield identical virtual-time
  outcomes and statistics across runs;
* **protocol cleanliness** — after every fault path, no coherence protocol
  survives with a non-zero refcount and the compute kernel holds no
  protocol pointer (the SWMR invariant cannot leak past a failure).
"""

import pytest

from repro.ddc import make_platform
from repro.errors import KernelPanic, PushdownRetryExhausted, PushdownTimeout
from repro.faults import (
    FaultKind,
    FaultPlan,
    crash,
    degrade,
    delay_messages,
    drop_requests,
    drop_responses,
    partition,
    rpc_faults,
)
from repro.sim.config import DdcConfig
from repro.sim.units import MIB, to_ns, to_ps
from repro.teleport.flags import TimeoutAction

from tests.conftest import alloc_floats

pytestmark = pytest.mark.faults


def make_env(plan=None, seed=None):
    """Fresh platform + process + 50k-float region + main context."""
    platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
    process = platform.new_process()
    region = alloc_floats(process, "data", 50_000)
    ctx = platform.main_context(process)
    injector = None
    if plan is not None:
        if seed is not None:
            plan = FaultPlan(specs=plan.specs, seed=seed)
        injector = platform.inject_faults(plan)
    return platform, process, region, ctx, injector


def sum_slice(c, region, lo, hi):
    return float(c.load_slice(region, lo, hi).sum())


def run_sums(ctx, region, n=3, **kwargs):
    return [
        ctx.pushdown(sum_slice, region, i * 1000, (i + 1) * 1000, **kwargs)
        for i in range(n)
    ]


def expected_sums(region, n=3):
    return [float(region.array[i * 1000 : (i + 1) * 1000].sum()) for i in range(n)]


def assert_clean(platform, process):
    """No orphaned coherence state: the SWMR machinery is fully released."""
    compkernel = platform.kernel_for(process)
    assert compkernel.protocol is None
    protocol = platform.teleport._protocols.get(process.pid)
    assert protocol is None or protocol.refcount == 0


# ----------------------------------------------------------------------
# Drops and transient RPC failures x retransmission
# ----------------------------------------------------------------------
class TestRetransmission:
    def test_probabilistic_request_drops_are_transparent(self):
        plan = FaultPlan(specs=(drop_requests(0.5),))
        platform, process, region, ctx, _inj = make_env(plan)
        baseline_platform, _p, baseline_region, baseline_ctx, _ = make_env()
        results = run_sums(ctx, region)
        baseline = run_sums(baseline_ctx, baseline_region)
        assert results == pytest.approx(baseline)
        assert platform.stats.pushdown_retries > 0
        assert platform.stats.messages_dropped > 0
        # Retries cost virtual time but never correctness.
        assert ctx.now > baseline_ctx.now
        assert_clean(platform, process)

    def test_rpc_faults_retried_like_request_drops(self):
        plan = FaultPlan(specs=(rpc_faults(0.5),))
        platform, process, region, ctx, injector = make_env(plan)
        results = run_sums(ctx, region)
        assert results == pytest.approx(expected_sums(region))
        assert injector.injected[FaultKind.RPC_FAULT] > 0
        assert_clean(platform, process)

    def test_certain_request_loss_exhausts_retries(self):
        plan = FaultPlan(specs=(drop_requests(1.0),))
        platform, process, region, ctx, _inj = make_env(plan)
        policy = platform.teleport.retry_policy
        with pytest.raises(PushdownRetryExhausted):
            ctx.pushdown(sum_slice, region, 0, 1000)
        assert platform.stats.messages_dropped == policy.max_attempts
        assert platform.stats.pushdown_retries == policy.max_attempts - 1
        # The request never reached the server: nothing executed.
        assert platform.teleport.rpc.dispatched == 0
        assert_clean(platform, process)

    def test_response_drops_replayed_at_most_once(self):
        plan = FaultPlan(specs=(drop_responses(0.5),))
        platform, process, region, ctx, _inj = make_env(plan)
        results = run_sums(ctx, region, n=4)
        assert results == pytest.approx(expected_sums(region, n=4))
        assert platform.stats.pushdown_dedup_hits > 0
        # At-most-once: retransmitted requests are answered from the
        # completion record, never re-executed.
        counts = platform.teleport.rpc.execution_counts()
        assert counts and all(count == 1 for count in counts.values())
        assert_clean(platform, process)

    def test_certain_response_loss_executes_exactly_once(self):
        plan = FaultPlan(specs=(drop_responses(1.0),))
        platform, process, region, ctx, _inj = make_env(plan)
        with pytest.raises(PushdownRetryExhausted):
            ctx.pushdown(sum_slice, region, 0, 1000)
        # The function ran exactly once; only its result is lost.
        counts = platform.teleport.rpc.execution_counts()
        assert list(counts.values()) == [1]
        assert len(platform.teleport.breakdowns) == 1
        assert_clean(platform, process)


# ----------------------------------------------------------------------
# Delay and degradation x transparent completion
# ----------------------------------------------------------------------
class TestDelayAndDegrade:
    def test_congestion_delay_slows_but_preserves_results(self):
        plan = FaultPlan(specs=(delay_messages(5000.0),))
        platform, process, region, ctx, _inj = make_env(plan)
        _bp, _p, baseline_region, baseline_ctx, _ = make_env()
        results = run_sums(ctx, region)
        assert results == pytest.approx(run_sums(baseline_ctx, baseline_region))
        assert platform.stats.messages_delayed > 0
        assert ctx.now > baseline_ctx.now
        assert_clean(platform, process)

    def test_degraded_pool_stretches_function_time(self):
        plan = FaultPlan(specs=(degrade(3.0),))
        platform, process, region, ctx, _inj = make_env(plan)
        clean_platform, _p, clean_region, clean_ctx, _ = make_env()
        # Pure CPU work: the degrade factor stretches the pool's clock, not
        # the (unscaled) coherence and page-transfer costs.
        fn = lambda c: (c.compute(1_000_000), 7)[1]
        assert ctx.pushdown(fn) == clean_ctx.pushdown(fn) == 7
        degraded = platform.teleport.breakdowns[-1].function_ns
        clean = clean_platform.teleport.breakdowns[-1].function_ns
        assert degraded == pytest.approx(3.0 * clean)
        assert_clean(platform, process)


# ----------------------------------------------------------------------
# Partitions x the three detection tiers
# ----------------------------------------------------------------------
class TestPartitions:
    def test_short_partition_absorbed_by_retransmission(self):
        """A partition too short to miss a heartbeat is invisible to the
        OS; the retry layer rides it out."""
        plan = FaultPlan(specs=(partition(0.0, 300_000.0),))
        platform, process, region, ctx, _inj = make_env(plan)
        result = ctx.pushdown(sum_slice, region, 0, 1000)
        assert result == pytest.approx(expected_sums(region, 1)[0])
        assert platform.stats.pushdown_retries > 0
        assert platform.stats.heartbeat_suspicions == 0
        assert to_ns(ctx.now) > 300_000.0  # waited out the partition
        assert_clean(platform, process)

    def test_suspected_partition_stalls_until_lease_renewal(self):
        """Missing one heartbeat (but fewer than k) raises suspicion: the
        syscall stalls until the partition heals and the lease renews."""
        interval = DdcConfig().heartbeat_interval_ns  # 10ms
        plan = FaultPlan(specs=(partition(0.9 * interval, 2.5 * interval),))
        platform, process, region, ctx, _inj = make_env(plan)
        ctx.charge_ps(to_ps(1.1 * interval))  # inside the window, 1 heartbeat missed
        result = ctx.pushdown(sum_slice, region, 0, 1000)
        assert result == pytest.approx(expected_sums(region, 1)[0])
        assert platform.stats.heartbeat_suspicions == 1
        assert platform.stats.heartbeat_recoveries == 1
        assert to_ns(ctx.now) > 2.5 * interval  # stalled through the window
        assert_clean(platform, process)

    def test_long_partition_confirmed_as_loss(self):
        """k consecutive missed heartbeats are indistinguishable from
        death: kernel panic, charged exactly the detection latency."""
        config = DdcConfig()
        k, interval = config.heartbeat_miss_threshold, config.heartbeat_interval_ns
        plan = FaultPlan(specs=(partition(0.0, (k + 1) * interval),))
        platform, process, region, ctx, _inj = make_env(plan)
        with pytest.raises(KernelPanic):
            ctx.pushdown(sum_slice, region, 0, 1000)
        assert ctx.now == k * config.heartbeat_interval_ps
        assert_clean(platform, process)

    def test_planned_crash_panics_after_k_misses(self):
        config = DdcConfig()
        k, interval = config.heartbeat_miss_threshold, config.heartbeat_interval_ns
        plan = FaultPlan(specs=(crash(0.0),))
        platform, process, region, ctx, _inj = make_env(plan)
        with pytest.raises(KernelPanic):
            ctx.pushdown(sum_slice, region, 0, 1000)
        assert ctx.now == k * config.heartbeat_interval_ps
        assert platform.teleport.detector.pool_dead
        assert_clean(platform, process)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_breaker_opens_then_probes_then_closes(self):
        config = DdcConfig(compute_cache_bytes=1 * MIB)
        platform = make_platform("teleport", config)
        process = platform.new_process()
        region = alloc_floats(process, "data", 50_000)
        ctx = platform.main_context(process)
        # Requests are lost until t=10ms.
        platform.inject_faults(FaultPlan(specs=(drop_requests(1.0, end_ns=10e6),)))
        breaker = platform.teleport.breaker_for(process)

        for _ in range(config.breaker_failure_threshold):
            with pytest.raises(PushdownRetryExhausted):
                ctx.pushdown(sum_slice, region, 0, 1000)
        assert breaker.state == "open"
        assert platform.stats.breaker_trips == 1

        # While open, calls run locally without paying a doomed round trip.
        dispatched_before = platform.teleport.rpc.dispatched
        result = ctx.pushdown(sum_slice, region, 0, 1000)
        assert result == pytest.approx(expected_sums(region, 1)[0])
        assert platform.stats.breaker_short_circuits == 1
        assert platform.teleport.rpc.dispatched == dispatched_before

        # Past the cooldown (and the fault window) one probe goes through,
        # succeeds, and closes the breaker.
        ctx.charge_ps(to_ps(config.breaker_cooldown_ns + 10e6))
        probe = ctx.pushdown(sum_slice, region, 0, 1000)
        assert probe == pytest.approx(expected_sums(region, 1)[0])
        assert breaker.state == "closed"
        assert platform.teleport.rpc.dispatched == dispatched_before + 1
        assert_clean(platform, process)

    def test_user_bugs_do_not_trip_the_breaker(self):
        from repro.errors import RemotePushdownFault

        platform, process, region, ctx, _inj = make_env()
        breaker = platform.teleport.breaker_for(process)
        for _ in range(10):
            with pytest.raises(RemotePushdownFault):
                ctx.pushdown(lambda c: 1 / 0)
        assert breaker.state == "closed"
        assert platform.stats.breaker_trips == 0


# ----------------------------------------------------------------------
# Determinism: same plan + seed -> identical outcomes
# ----------------------------------------------------------------------
class TestDeterminism:
    PLAN = FaultPlan(
        specs=(
            drop_requests(0.4, end_ns=5e6),
            drop_responses(0.3, end_ns=5e6),
            delay_messages(2000.0, probability=0.5),
        )
    )

    def _run(self, seed):
        platform, process, region, ctx, injector = make_env(self.PLAN, seed=seed)
        results = run_sums(ctx, region, n=5)
        assert_clean(platform, process)
        return results, ctx.now, platform.stats.as_dict(), dict(injector.injected)

    def test_same_seed_identical_outcomes(self):
        first = self._run(seed=123)
        second = self._run(seed=123)
        assert first[0] == second[0]  # results
        assert first[1] == second[1]  # virtual end time, exactly
        assert first[2] == second[2]  # every statistic
        assert first[3] == second[3]  # every injected fault

    def test_different_seed_same_results_different_timing(self):
        first = self._run(seed=123)
        second = self._run(seed=321)
        assert first[0] == pytest.approx(second[0])  # correctness regardless
        assert first[1] != second[1]  # but a different fault history


# ----------------------------------------------------------------------
# The acceptance scenario: all three recovery tiers, end to end
# ----------------------------------------------------------------------
class TestThreeTierScenario:
    def _scenario(self):
        """Tier 1 (retransmission) -> tier 2 (timeout/cancel/fallback) ->
        tier 3 (confirmed loss). Returns everything comparable."""
        config = DdcConfig(compute_cache_bytes=1 * MIB)
        platform = make_platform("teleport", config)
        process = platform.new_process()
        region = alloc_floats(process, "data", 50_000)
        ctx = platform.main_context(process)
        injector = platform.inject_faults(
            FaultPlan(specs=(drop_requests(0.5, end_ns=2e6),), seed=2)
        )

        # Tier 1: lossy fabric -> retransmission recovers transparently.
        tier1 = run_sums(ctx, region)
        tier1_retries = platform.stats.pushdown_retries
        assert tier1_retries > 0

        # Tier 2: mid-execution timeout -> try_cancel succeeds -> automatic
        # local fallback produces the correct result anyway.
        def slow_sum(c, r):
            c.compute(10_000_000)  # ~4.8ms at the memory pool
            return sum_slice(c, r, 0, 1000)

        tier2 = ctx.pushdown(
            slow_sum, region, timeout_ns=1e6, on_timeout=TimeoutAction.FALLBACK
        )
        assert platform.stats.pushdown_timeouts >= 1
        assert platform.stats.pushdown_fallbacks >= 1

        # Tier 3: hard death -> panic only after k missed heartbeats, all
        # protocol state released.
        platform.teleport.fail_memory_pool(at_ns=to_ns(ctx.now))
        before_panic = ctx.now
        with pytest.raises(KernelPanic):
            ctx.pushdown(sum_slice, region, 0, 1000)
        detection = ctx.now - before_panic
        assert_clean(platform, process)

        # At-most-once held throughout.
        counts = platform.teleport.rpc.execution_counts()
        assert all(count == 1 for count in counts.values())
        return tier1, tier2, ctx.now, detection, platform.stats.as_dict()

    def test_all_tiers_recover_correctly(self):
        config = DdcConfig()
        k, interval = config.heartbeat_miss_threshold, config.heartbeat_interval_ps
        platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
        region_probe = alloc_floats(platform.new_process(), "probe", 50_000)
        expected = [
            float(region_probe.array[i * 1000 : (i + 1) * 1000].sum()) for i in range(3)
        ]
        tier1, tier2, _now, detection, stats = self._scenario()
        assert tier1 == pytest.approx(expected)
        assert tier2 == pytest.approx(expected[0])
        # Detection latency is bounded by the k-miss window (the crash falls
        # between two heartbeats, so it is at most k+1 intervals).
        assert detection <= (k + 1) * interval
        assert detection >= (k - 1) * interval
        # Every injected fault is accounted in the statistics.
        assert stats["faults_injected"] == stats["messages_dropped"]

    def test_scenario_is_deterministic(self):
        first = self._scenario()
        second = self._scenario()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]  # exact virtual end time
        assert first[4] == second[4]  # every statistic
