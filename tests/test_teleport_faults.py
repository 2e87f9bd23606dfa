"""Tests for exception and fault handling (Section 3.2)."""

import pytest

from repro.ddc import make_platform
from repro.errors import (
    AccessError,
    KernelPanic,
    PushdownAborted,
    PushdownRetryExhausted,
    PushdownTimeout,
    RemotePushdownFault,
)
from repro.faults import FaultPlan, drop_responses
from repro.sim.config import DdcConfig
from repro.sim.units import MIB, to_ns, to_ps
from repro.teleport.flags import PushdownOptions, TimeoutAction

from tests.conftest import alloc_floats

pytestmark = pytest.mark.faults


@pytest.fixture
def env():
    platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
    process = platform.new_process()
    region = alloc_floats(process, "data", 100_000)
    ctx = platform.main_context(process)
    return platform, process, region, ctx


class TestExceptionPropagation:
    def test_exception_rethrown_at_caller(self, env):
        _platform, _process, _region, ctx = env

        def buggy(mctx):
            raise ValueError("boom")

        with pytest.raises(RemotePushdownFault) as excinfo:
            ctx.pushdown(buggy)
        assert isinstance(excinfo.value.original, ValueError)
        assert "boom" in str(excinfo.value)

    def test_segfault_style_errors_also_propagate(self, env):
        _platform, _process, _region, ctx = env

        def segfault(mctx):
            return [][5]  # IndexError, the Python analogue

        with pytest.raises(RemotePushdownFault) as excinfo:
            ctx.pushdown(segfault)
        assert isinstance(excinfo.value.original, IndexError)

    def test_caller_still_charged_for_failed_pushdown(self, env):
        _platform, _process, _region, ctx = env
        before = ctx.now
        with pytest.raises(RemotePushdownFault):
            ctx.pushdown(lambda mctx: 1 / 0)
        assert ctx.now > before

    def test_runtime_usable_after_exception(self, env):
        _platform, _process, region, ctx = env
        with pytest.raises(RemotePushdownFault):
            ctx.pushdown(lambda mctx: 1 / 0)
        result = ctx.pushdown(lambda mctx: float(mctx.load_slice(region, 0, 100).sum()))
        assert result == pytest.approx(float(region.array[:100].sum()))


class TestTimeoutAndCancel:
    def test_queued_request_cancelled_on_timeout(self, env):
        platform, process, region, ctx = env
        # Occupy the single instance far into the future.
        platform.teleport.rpc.commit(platform.teleport.rpc.plan(0.0)[0])
        with pytest.raises(PushdownTimeout) as excinfo:
            ctx.pushdown(lambda mctx: None, timeout_ns=1e6)
        assert excinfo.value.cancelled
        assert platform.stats.pushdown_cancellations == 1

    def test_cancelled_caller_can_run_locally(self, env):
        platform, _process, region, ctx = env
        platform.teleport.rpc.commit(platform.teleport.rpc.plan(0.0)[0])

        def fn(c, r):
            return float(c.load_slice(r, 0, 100).sum())

        try:
            result = ctx.pushdown(fn, region, timeout_ns=1e6)
        except PushdownTimeout as timeout:
            assert timeout.cancelled
            result = fn(ctx, region)  # fall back to compute-pool execution
        assert result == pytest.approx(float(region.array[:100].sum()))

    def test_midexec_timeout_cancels_running_function(self, env):
        """A timeout that expires mid-execution issues try_cancel; the
        cancel arrives while the function is still running, so cancellation
        succeeds (Section 3.2)."""
        platform, _process, _region, ctx = env
        with pytest.raises(PushdownTimeout) as excinfo:
            ctx.pushdown(
                lambda c: (c.compute(10_000_000), 42)[1], timeout_ns=1e6
            )
        assert excinfo.value.cancelled
        assert platform.stats.pushdown_timeouts == 1
        assert platform.stats.pushdown_cancellations == 1
        # The caller is charged through the timeout instant plus the cancel
        # round trip — never the full 10ms the function would have taken.
        assert to_ns(ctx.now) >= 1e6
        assert to_ns(ctx.now) < 10e6

    def test_midexec_timeout_wait_action_accepts_late_result(self, env):
        platform, _process, _region, ctx = env
        result = ctx.pushdown(
            lambda c: (c.compute(10_000_000), 42)[1],
            timeout_ns=1e6,
            on_timeout=TimeoutAction.WAIT,
        )
        assert result == 42
        assert platform.stats.pushdown_cancellations == 0
        # The caller waited for the full remote execution (~4.8ms at the
        # memory pool's clock), far past the 1ms timeout.
        assert to_ns(ctx.now) > 4e6

    def test_midexec_timeout_fallback_reexecutes_locally(self, env):
        platform, _process, region, ctx = env

        def fn(c):
            c.compute(10_000_000)
            return float(c.load_slice(region, 0, 100).sum())

        result = ctx.pushdown(fn, timeout_ns=1e6, on_timeout=TimeoutAction.FALLBACK)
        assert result == pytest.approx(float(region.array[:100].sum()))
        assert platform.stats.pushdown_cancellations == 1
        assert platform.stats.pushdown_fallbacks == 1

    def test_cancel_fails_when_function_finishes_first(self, env):
        """try_cancel loses the race: the function completes just after the
        timeout but before the cancel message arrives."""
        platform, _process, _region, ctx = env
        session = platform.teleport.begin_session(
            ctx, PushdownOptions(timeout_ns=1e6)
        )
        # Finish a whisker past the timeout — the in-flight cancel cannot
        # beat the completion.
        session.mem_thread.clock.advance_to(to_ps(1e6 + 10.0))
        with pytest.raises(PushdownTimeout) as excinfo:
            session.finish()
        assert not excinfo.value.cancelled
        assert platform.stats.pushdown_timeouts == 1
        assert platform.stats.pushdown_cancellations == 0

    def test_fallback_accepts_late_result_when_cancel_fails(self, env):
        """The late response is sent at the function's end, while the
        cancel exchange is in flight: the caller resumes when the later of
        the two lands (here the cancel ack), not after both in turn."""
        platform, _process, _region, ctx = env
        session = platform.teleport.begin_session(
            ctx, PushdownOptions(timeout_ns=1e6, on_timeout=TimeoutAction.FALLBACK)
        )
        end_ps = to_ps(1e6 + 10.0)
        session.mem_thread.clock.advance_to(end_ps)
        session.finish()  # no raise: the late remote result is accepted
        assert platform.stats.pushdown_timeouts == 1
        assert session.breakdown.response_ns == 1_636.571
        assert ctx.now - end_ps == to_ps(3_208.286)

    def test_timeout_paths_release_coherence_protocol(self, env):
        platform, process, _region, ctx = env
        with pytest.raises(PushdownTimeout):
            ctx.pushdown(lambda c: c.compute(10_000_000), timeout_ns=1e6)
        compkernel = platform.kernel_for(process)
        assert compkernel.protocol is None
        protocol = platform.teleport._protocols.get(process.pid)
        assert protocol is None or protocol.refcount == 0


class TestTeardown:
    """Every end of a dispatched pushdown is torn down the same way."""

    def test_lost_response_runs_the_session_end_leak_check(self):
        platform = make_platform(
            "teleport", DdcConfig(compute_cache_bytes=1 * MIB, sanitizers=True)
        )
        ctx = platform.main_context(platform.new_process())
        suite = platform.sanitizers
        before = suite.leak_checks
        ctx.pushdown(lambda mctx: None)
        completed = suite.leak_checks - before
        platform.inject_faults(FaultPlan(specs=(drop_responses(1.0),)))
        before = suite.leak_checks
        with pytest.raises(PushdownRetryExhausted):
            ctx.pushdown(lambda mctx: None)
        assert suite.leak_checks - before == completed == 2

    def test_abandoned_function_charges_the_caller_for_its_work(self, env):
        """A function that computes and then raises a simulation error
        still cost its caller the time it ran."""
        platform, _process, region, ctx = env

        def fails_late(mctx):
            mctx.compute(1_000_000)
            mctx.load_slice(region, 0, len(region) + 1)

        before = ctx.now
        with pytest.raises(AccessError):
            ctx.pushdown(fails_late)
        function_ns = platform.teleport.breakdowns[-1].function_ns
        assert function_ns > 0
        assert to_ns(ctx.now - before) >= function_ns


class TestWatchdog:
    def test_wedged_function_killed(self, env):
        platform, _process, _region, ctx = env
        watchdog = platform.config.watchdog_timeout_ps

        def wedged(mctx):
            mctx.charge_ps(watchdog * 2)

        with pytest.raises(PushdownAborted):
            ctx.pushdown(wedged)
        assert platform.stats.pushdown_aborts == 1
        # Work after the kill never happened.
        assert platform.teleport.breakdowns[-1].function_ns == to_ns(watchdog)

    def test_abort_frees_the_instance(self, env):
        platform, _process, region, ctx = env
        watchdog = platform.config.watchdog_timeout_ps
        with pytest.raises(PushdownAborted):
            ctx.pushdown(lambda mctx: mctx.charge_ps(watchdog * 2))
        # The next pushdown runs without queueing behind the zombie.
        result = ctx.pushdown(lambda mctx: "alive")
        assert result == "alive"
        assert platform.teleport.breakdowns[-1].queue_wait_ns < to_ns(watchdog)


class TestMemoryPoolFailure:
    def test_failure_triggers_kernel_panic(self, env):
        platform, _process, _region, ctx = env
        platform.teleport.fail_memory_pool()
        with pytest.raises(KernelPanic):
            ctx.pushdown(lambda mctx: None)

    def test_detection_waits_for_k_missed_heartbeats(self, env):
        """Loss is confirmed only after ``heartbeat_miss_threshold``
        consecutive misses; the detection latency is charged to the first
        syscall that observes the failure."""
        platform, _process, _region, ctx = env
        platform.teleport.fail_memory_pool()
        k = platform.config.heartbeat_miss_threshold
        interval = platform.config.heartbeat_interval_ps
        before = ctx.now
        with pytest.raises(KernelPanic):
            ctx.pushdown(lambda mctx: None)
        assert ctx.now - before == k * interval

    def test_detection_latency_charged_only_once(self, env):
        """Later syscalls see the already-confirmed panic and are not
        re-charged the detection latency (satellite fix: the old code
        charged every caller a full heartbeat interval)."""
        platform, _process, _region, ctx = env
        platform.teleport.fail_memory_pool()
        with pytest.raises(KernelPanic):
            ctx.pushdown(lambda mctx: None)
        after_first = ctx.now
        with pytest.raises(KernelPanic):
            ctx.pushdown(lambda mctx: None)
        assert ctx.now == after_first

    def test_confirmed_loss_releases_all_protocols(self, env):
        """No orphaned coherence state survives a kernel panic."""
        platform, process, _region, ctx = env
        # Leave a session in flight so a live protocol exists at panic time.
        session = platform.teleport.begin_session(ctx, PushdownOptions())
        assert platform.teleport._protocols[process.pid].refcount == 1
        platform.teleport.fail_memory_pool(at_ns=to_ns(ctx.now))
        with pytest.raises(KernelPanic):
            ctx.pushdown(lambda mctx: None)
        compkernel = platform.kernel_for(process)
        assert compkernel.protocol is None
        assert platform.teleport._protocols == {}
        assert session.protocol.refcount == 0
