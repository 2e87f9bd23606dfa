"""Exception and fault handling around pushdown (paper Section 3.2).

Shows every failure path of the syscall: remote exceptions rethrown at
the caller, timeouts with successful cancellation and compute-side
fallback, the watchdog killing wedged functions, and the kernel panic on
memory-pool loss — plus the event tracer watching it all.

The second half arms the deterministic fault injector (repro.faults):
lossy fabric ridden out by retransmission, mid-execution try_cancel with
automatic local fallback, the per-process circuit breaker, and heartbeat
suspicion/recovery across a transient partition.

Run:  python examples/fault_handling.py
"""

import numpy as np

from repro.ddc import make_platform
from repro.errors import (
    KernelPanic,
    PushdownAborted,
    PushdownRetryExhausted,
    PushdownTimeout,
    RemotePushdownFault,
)
from repro.faults import FaultPlan, drop_requests, partition
from repro.sim.config import scaled_config
from repro.sim.units import MIB, to_ns, to_ps
from repro.teleport import TimeoutAction


def fresh_platform():
    platform = make_platform("teleport", scaled_config(16 * MIB))
    platform.tracer.enable(kinds={"pushdown"})
    process = platform.new_process()
    region = process.alloc_array(
        "data", np.random.default_rng(3).random(2 * MIB)
    )
    ctx = platform.main_context(process)
    return platform, region, ctx


def remote_exception():
    _platform, region, ctx = fresh_platform()

    def buggy(mctx):
        raise ValueError("division of the indivisible")

    try:
        ctx.pushdown(buggy)
    except RemotePushdownFault as fault:
        print(f"1. remote exception rethrown at caller: {fault}")
        print(f"   original type preserved: {type(fault.original).__name__}")


def timeout_and_fallback():
    platform, region, ctx = fresh_platform()
    # Wedge the single TELEPORT instance so our request queues.
    index, _start, _scale = platform.teleport.rpc.plan(0.0)
    platform.teleport.rpc.commit(index)

    def summarize(c, r):
        values = c.load_slice(r)
        c.compute(len(values))
        return float(values.sum())

    try:
        result = ctx.pushdown(summarize, region, timeout_ns=2e6)
    except PushdownTimeout as timeout:
        print(f"2. pushdown timed out in the queue (cancelled={timeout.cancelled})")
        result = summarize(ctx, region)  # the paper's fallback: run locally
        print(f"   fell back to compute-pool execution, result {result:.2f}")


def watchdog_kill():
    platform, _region, ctx = fresh_platform()
    watchdog = platform.config.watchdog_timeout_ps

    def wedged(mctx):
        mctx.charge_ps(watchdog * 3)  # never returns in time

    try:
        ctx.pushdown(wedged)
    except PushdownAborted:
        print("3. wedged function killed by the memory pool's watchdog")
    follow_up = ctx.pushdown(lambda mctx: "instance reusable")
    print(f"   next pushdown fine: {follow_up!r}")


def memory_pool_loss():
    platform, _region, ctx = fresh_platform()
    platform.teleport.fail_memory_pool()
    try:
        ctx.pushdown(lambda mctx: None)
    except KernelPanic as panic:
        print(f"4. heartbeat detected memory-pool loss -> {panic}")
    print("   (main memory is gone; the paper panics too)")


def summarize(c, r):
    values = c.load_slice(r, 0, 1000)
    c.compute(len(values))
    return float(values.sum())


def lossy_fabric_retransmission():
    platform, region, ctx = fresh_platform()
    # Half of all pushdown requests vanish until t=5ms; the seed makes
    # the exact loss pattern — and therefore the run — reproducible.
    platform.inject_faults(
        FaultPlan(specs=(drop_requests(0.5, end_ns=5e6),), seed=2)
    )
    result = ctx.pushdown(summarize, region)
    stats = platform.stats
    print(
        f"5. lossy fabric: {stats.messages_dropped} drop(s), "
        f"{stats.pushdown_retries} retransmission(s), result {result:.2f} "
        "(identical to the fault-free run, just later)"
    )


def midexec_cancel_and_fallback():
    platform, region, ctx = fresh_platform()

    def slow_summarize(c, r):
        c.compute(50_000_000)  # far past the 1ms timeout
        return summarize(c, r)

    # TimeoutAction.FALLBACK: on expiry the caller issues try_cancel; the
    # cancel lands while the function is still running, so the runtime
    # re-executes it locally — no exception reaches the application.
    result = ctx.pushdown(
        slow_summarize, region, timeout_ns=1e6, on_timeout=TimeoutAction.FALLBACK
    )
    print(
        f"6. mid-execution timeout: try_cancel succeeded "
        f"({platform.stats.pushdown_cancellations} cancellation), "
        f"automatic local fallback returned {result:.2f}"
    )


def circuit_breaker():
    platform, region, ctx = fresh_platform()
    platform.inject_faults(FaultPlan(specs=(drop_requests(1.0, end_ns=10e6),)))
    threshold = platform.config.breaker_failure_threshold
    for _ in range(threshold):
        try:
            ctx.pushdown(summarize, region)
        except PushdownRetryExhausted:
            pass
    breaker = platform.teleport.breaker_for(ctx.thread.process)
    result = ctx.pushdown(summarize, region)  # served locally, no round trip
    print(
        f"7. circuit breaker {breaker.state} after {threshold} consecutive "
        f"failures; call served from the compute pool ({result:.2f})"
    )
    # After the cooldown (and the fault window) a probe closes it again.
    ctx.charge_ps(to_ps(platform.config.breaker_cooldown_ns + 10e6))
    ctx.pushdown(summarize, region)
    print(f"   probe succeeded after cooldown -> breaker {breaker.state}")


def partition_suspicion_and_recovery():
    platform, region, ctx = fresh_platform()
    interval = platform.config.heartbeat_interval_ns
    # The partition swallows one heartbeat (fewer than the k=3 needed to
    # confirm loss): the syscall stalls until the lease renews.
    platform.inject_faults(
        FaultPlan(specs=(partition(0.9 * interval, 2.5 * interval),))
    )
    ctx.charge_ps(to_ps(1.1 * interval))  # one heartbeat already missed
    result = ctx.pushdown(summarize, region)
    print(
        f"8. transient partition: {platform.stats.heartbeat_suspicions} "
        f"suspicion, {platform.stats.heartbeat_recoveries} lease recovery, "
        f"result {result:.2f} at t={to_ns(ctx.now) / 1e6:.1f}ms (no panic)"
    )


def main():
    remote_exception()
    timeout_and_fallback()
    watchdog_kill()
    memory_pool_loss()
    lossy_fabric_retransmission()
    midexec_cancel_and_fallback()
    circuit_breaker()
    partition_suspicion_and_recovery()
    print("\nall failure paths exercised; see platform.tracer for the event log")


if __name__ == "__main__":
    main()
