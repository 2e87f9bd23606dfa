"""The TELEPORT runtime: the ``pushdown`` syscall end to end (Section 3.2).

A pushdown call walks the numbered steps of Figure 5: the caller stalls,
the request crosses the fabric to the memory pool's RPC server, a TELEPORT
instance instantiates a temporary user context that borrows the caller's
page table, the function runs against local data with on-demand coherence,
and the completion flows back.

:class:`PushdownSession` exposes the same flow in two halves (begin /
finish) so the interleaved microbenchmark scheduler can step the pushed
function concurrently with compute-pool threads.

Fault handling (the rest of Section 3.2) layers on top:

* an optional :class:`~repro.faults.injector.FaultInjector` drops, delays
  or partitions messages and degrades or kills the memory pool;
* a retry layer retransmits lost requests/responses with bounded
  exponential backoff, using idempotent request IDs for at-most-once
  execution, every cost charged to the caller's virtual clock;
* ``timeout_ns`` now also fires *mid-execution* with ``try_cancel``
  semantics — cancellation succeeds iff the function is still running
  when the cancel arrives; :class:`~repro.teleport.flags.TimeoutAction`
  picks between raising, waiting, and automatic local fallback;
* a per-process :class:`~repro.faults.breaker.CircuitBreaker` stops
  pushing down after consecutive infrastructure failures and routes
  operators to the compute pool until a probe succeeds;
* a :class:`~repro.faults.detector.HeartbeatDetector` replaces the old
  instant-panic boolean: suspicion after missed heartbeats, lease-based
  recovery from transient partitions, kernel panic only on confirmed
  loss — with every coherence protocol released on the way down.
"""

from repro.ddc.context import ExecutionContext
from repro.ddc.pool import Pool
from repro.ddc.thread import SimThread
from repro.errors import (
    KernelPanic,
    PushdownAborted,
    PushdownRetryExhausted,
    PushdownTimeout,
    PushdownUserError,
    ReproError,
)
from repro.faults.breaker import CircuitBreaker
from repro.faults.detector import HeartbeatDetector
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy
from repro.sim.stats import PushdownBreakdown
from repro.sim.units import to_ns, to_ps
from repro.teleport.coherence import CoherenceProtocol
from repro.teleport.flags import (
    ConsistencyMode,
    PushdownOptions,
    SyncMethod,
    TimeoutAction,
)
from repro.teleport.rpc import RpcServer

#: Nominal payload of the pushdown request/response envelope (fn pointer,
#: argument vector pointer, flags / return value, exception record).
_ENVELOPE_BYTES = 256
#: Payload of control messages: try_cancel, lease probes, retransmitted
#: request-ID-only resends.
_CONTROL_BYTES = 64


class TeleportRuntime:
    """Per-platform TELEPORT state: RPC server, protocols, breakdowns."""

    def __init__(self, platform):
        self.platform = platform
        self.config = platform.config
        self.stats = platform.stats
        self.network = platform.network
        self.rpc = RpcServer(platform.config)
        #: One :class:`PushdownBreakdown` per completed call (Figure 20).
        self.breakdowns = []
        self._protocols = {}
        #: Optional fault injector (see :meth:`install_faults`).
        self.injector = None
        self.retry_policy = RetryPolicy.from_config(self.config)
        self.detector = HeartbeatDetector(self.config, self.stats)
        self._breakers = {}
        self._request_counter = 0
        #: Optional :class:`~repro.serve.pool.PoolScheduler`; when installed
        #: every ``pushdown()`` waits in its admission queue for a free
        #: instance of :attr:`rpc`.
        self.pool_scheduler = None

    # ------------------------------------------------------------------
    # Failure injection (Section 3.2, exception and fault handling)
    # ------------------------------------------------------------------
    def install_faults(self, plan):
        """Arm a :class:`~repro.faults.plan.FaultPlan` on this runtime.

        The injector hooks into the network (message delays) and the
        pushdown path (drops, partitions, degradation, death); returns it
        for inspection of per-kind injection counts.
        """
        injector = FaultInjector(plan, stats=self.stats)
        self.injector = injector
        self.network.injector = injector
        return injector

    def fail_memory_pool(self, at_ns=0.0):
        """Simulate a network/memory hardware failure of the memory pool
        at ``at_ns`` (virtual ns).

        The heartbeat detector confirms the loss only after
        ``heartbeat_miss_threshold`` missed heartbeats; the detection
        latency is charged to the first syscall that observes it.
        """
        self.detector.crash(to_ps(at_ns))

    def _check_memory_pool(self, ctx):
        try:
            self.detector.poll(ctx, self.injector)
        except KernelPanic:
            # Main memory is lost: no orphaned coherence state may survive.
            self.release_all_protocols()
            raise

    def release_all_protocols(self):
        """Force-release every coherence protocol (confirmed pool loss)."""
        for protocol in self._protocols.values():
            protocol.refcount = 0
            protocol.finish()
            protocol.compkernel.protocol = None
        self._protocols.clear()

    def next_request_id(self):
        """Fresh idempotent request ID for the retry layer."""
        self._request_counter += 1
        return self._request_counter

    def breaker_for(self, process):
        """The per-process circuit breaker guarding the pushdown path."""
        breaker = self._breakers.get(process.pid)
        if breaker is None:
            breaker = CircuitBreaker(self.config, self.stats)
            self._breakers[process.pid] = breaker
        return breaker

    # ------------------------------------------------------------------
    # The syscall
    # ------------------------------------------------------------------
    def pushdown(self, ctx, fn, *args, consistency=None, sync=None, timeout_ns=None,
                 sync_regions=None, options=None, on_timeout=None, verify=False):
        """Ship ``fn(*args)`` to the memory pool; block until it completes.

        ``fn`` receives a memory-side :class:`ExecutionContext` as its first
        argument and may access any region of the caller's address space.
        Exceptions raised by ``fn`` are rethrown at the caller wrapped in
        :class:`PushdownUserError` (original attached as ``__cause__``).

        ``verify=True`` statically verifies ``fn`` first via
        :func:`repro.analysis.verifier.assert_pushdownable`, raising
        :class:`~repro.errors.PushdownVerificationError` if it uses
        non-pushdownable constructs (wall clock, unseeded RNG, I/O, host
        concurrency, global mutation, compute-local captures).

        Recovery behaviour: lost messages are retransmitted (bounded,
        backed off, charged to the caller); expired timeouts follow the
        ``on_timeout`` :class:`TimeoutAction`; consecutive infrastructure
        failures trip the per-process circuit breaker, which routes calls
        to the compute pool until a probe succeeds. User errors never
        trip the breaker — a buggy function stays buggy wherever it runs.

        When a serving :class:`~repro.serve.pool.PoolScheduler` is
        installed, the call first passes admission control: it waits (in
        virtual time) for a free memory-pool execution slot instead of
        executing instantly.
        """
        scheduler = self.pool_scheduler
        if scheduler is not None and not scheduler.dispatching:
            options = _resolve_options(
                options, consistency, sync, timeout_ns, sync_regions, on_timeout
            )
            return scheduler.run_inline(ctx, fn, args, options, verify)
        if verify:
            # Imported lazily: the analysis layer sits above the runtime.
            from repro.analysis.verifier import assert_pushdownable

            assert_pushdownable(fn)
        options = _resolve_options(
            options, consistency, sync, timeout_ns, sync_regions, on_timeout
        )
        breaker = self.breaker_for(ctx.thread.process)
        if not breaker.allow(ctx.now):
            # Circuit open: run on the compute pool without paying a
            # doomed round trip.
            self.stats.breaker_short_circuits += 1
            self.stats.pushdown_fallbacks += 1
            if self.platform.tracer.enabled:
                self.platform.tracer.emit(ctx.now, "pushdown", phase="breaker-fallback")
            return fn(ctx, *args)
        try:
            session = self.begin_session(ctx, options)
        except PushdownRetryExhausted as exc:
            return self.fail(ctx, ctx.now, exc, options, fn, args)
        if session.cancelled:
            return self.fail(ctx, ctx.now, PushdownTimeout(
                f"pushdown cancelled after {options.timeout_ns:.0f}ns in queue",
                cancelled=True,
            ), options, fn, args)
        error = None
        result = None
        try:
            result = fn(session.mctx, *args)
        except ReproError:
            session.abandon()
            raise
        except Exception as exc:  # user-function failure: rethrow at caller
            error = exc
        try:
            session.finish()
        except (PushdownTimeout, PushdownRetryExhausted) as exc:
            # A timeout after a failed cancel, or a lost response: the
            # function already ran once, so it is never re-run locally.
            return self.fail(ctx, ctx.now, exc, options)
        if session.fallback_pending:
            # Mid-execution timeout, try_cancel succeeded: the paper's
            # recipe is to re-run the (idempotent) function locally.
            return self.fail(ctx, ctx.now, None, options, fn, args)
        if session.aborted:
            return self.fail(ctx, ctx.now, PushdownAborted(
                f"pushdown function exceeded the {self.config.watchdog_timeout_ns:.0f}ns watchdog"
            ), options)
        breaker.record_success(ctx.now)
        if error is not None:
            raise PushdownUserError(error) from error
        return result

    def fail(self, ctx, at_ps, error, options, fn=None, args=()):
        """The one path from a timed-out, cancelled or failed pushdown to
        its outcome.

        Counts the failure against the caller's circuit breaker at
        ``at_ps``. Then, if the caller chose ``TimeoutAction.FALLBACK``
        and passed ``fn``, re-runs ``fn`` compute-local and returns its
        result; otherwise raises ``error``. Callers whose function already
        ran once on the memory pool pass no ``fn``, so it never runs twice.
        """
        self.breaker_for(ctx.thread.process).record_failure(at_ps)
        if fn is not None and options.on_timeout is TimeoutAction.FALLBACK:
            self.stats.pushdown_fallbacks += 1
            return fn(ctx, *args)
        raise error

    # ------------------------------------------------------------------
    # Session API (two-phase pushdown, used by the interleaved scheduler)
    # ------------------------------------------------------------------
    def begin_session(self, ctx, options=PushdownOptions.DEFAULT):
        self._check_memory_pool(ctx)
        self.stats.pushdown_calls += 1
        if self.platform.tracer.enabled:
            self.platform.tracer.emit(
                ctx.now, "pushdown", phase="begin",
                sync=options.sync.value, consistency=options.consistency.value,
            )
        return PushdownSession(self, ctx, options)

    # ------------------------------------------------------------------
    # Protocol sharing for concurrent pushdowns of one process
    # ------------------------------------------------------------------
    def acquire_protocol(self, process, mode):
        protocol = self._protocols.get(process.pid)
        if protocol is None or protocol.refcount == 0:
            protocol = CoherenceProtocol(self.platform, process, mode)
            self._protocols[process.pid] = protocol
        protocol.refcount += 1
        return protocol

    def release_protocol(self, process):
        protocol = self._protocols.get(process.pid)
        if protocol is None:
            return
        protocol.refcount -= 1
        if protocol.refcount <= 0:
            protocol.finish()
            compkernel, _memkernel = self.platform.kernels_for(process)
            compkernel.protocol = None
            sanitizers = self.platform.sanitizers
            if sanitizers is not None:
                sanitizers.check_protocol_teardown(protocol, compkernel)


class PushdownSession:
    """One in-flight pushdown: request, context setup, execution, reply."""

    def __init__(self, runtime, ctx, options):
        self.runtime = runtime
        self.caller = ctx
        self.options = options
        self.config = runtime.config
        self.breakdown = PushdownBreakdown()
        self.cancelled = False
        self.aborted = False
        self.fallback_pending = False
        self._finished = False
        process = ctx.thread.process
        platform = runtime.platform
        compkernel, memkernel = platform.kernels_for(process)
        self._compkernel = compkernel
        self._process = process
        call_ps = ctx.now
        self._call_ps = call_ps
        self._timeout_ps = None if options.timeout_ns is None else to_ps(options.timeout_ns)

        # --- (1) pre-pushdown synchronisation --------------------------
        pre_cost, resident, refetch = self._pre_sync(compkernel)
        self.breakdown.pre_sync_ns = to_ns(pre_cost)
        ctx.charge_ps(pre_cost)
        self._refetch_vpns = refetch

        # --- (2) request transfer (RLE-compressed resident list), with
        #         bounded retransmission of lost requests ----------------
        request_bytes = _ENVELOPE_BYTES + self.config.page_list_message_bytes(len(resident))
        request_cost = runtime.network.message_ps(request_bytes, now=ctx.now)
        ctx.charge_ps(request_cost)
        total_request_cost = request_cost
        injector = runtime.injector
        if injector is not None:
            policy = runtime.retry_policy
            attempts = 1
            while not injector.request_delivered(ctx.now):
                runtime.stats.messages_dropped += 1
                if attempts >= policy.max_attempts:
                    self.breakdown.request_ns = to_ns(total_request_cost)
                    raise PushdownRetryExhausted(
                        f"pushdown request lost {attempts} times; giving up"
                    )
                attempts += 1
                runtime.stats.pushdown_retries += 1
                # Retransmission timer + seeded-jitter backoff, all charged
                # to the caller's virtual clock.
                wait = to_ps(policy.retransmit_timeout_ns + policy.backoff_ns(
                    attempts - 1, injector.rng
                ))
                ctx.charge_ps(wait)
                retry_cost = runtime.network.message_ps(request_bytes, now=ctx.now)
                ctx.charge_ps(retry_cost)
                total_request_cost += wait + retry_cost
        self.breakdown.request_ns = to_ns(total_request_cost)
        self._request_id = runtime.next_request_id()

        # --- (3) dispatch / queueing at the RPC server ------------------
        arrival = ctx.now
        index, start_ps, cpu_scale = runtime.rpc.plan(arrival)
        self.breakdown.queue_wait_ns = to_ns(start_ps - arrival)
        timeout = self._timeout_ps
        if (
            timeout is not None
            and options.on_timeout is not TimeoutAction.WAIT
            and start_ps - call_ps > timeout
        ):
            # try_cancel succeeds: the request had not started executing,
            # so it is simply removed from the workqueue (Section 3.2).
            runtime.rpc.cancel_queued()
            runtime.stats.pushdown_timeouts += 1
            runtime.stats.pushdown_cancellations += 1
            ctx.thread.clock.advance_to(call_ps + timeout)
            ctx.charge_ps(self.config.net_roundtrip_ps(_CONTROL_BYTES, _CONTROL_BYTES))
            self.cancelled = True
            if runtime.platform.tracer.enabled:
                runtime.platform.tracer.emit(ctx.now, "pushdown", phase="cancelled")
            return
        runtime.rpc.commit(index, self._request_id)
        self._instance = index

        # --- (4) temporary user context setup (Figure 8) ----------------
        mode = options.consistency
        if options.sync is not SyncMethod.ON_DEMAND:
            # The eager ablations pre-synchronise instead of running the
            # online protocol.
            mode = ConsistencyMode.OFF
        protocol = runtime.acquire_protocol(process, mode)
        if protocol.refcount == 1:
            setup_cost = protocol.setup(resident)
        else:
            # Joining an existing shared context: only a kernel thread is
            # created; the page table is already prepared.
            setup_cost = self.config.context_base_ps
        compkernel.protocol = protocol
        self.protocol = protocol
        self.breakdown.context_setup_ns = to_ns(setup_cost)

        # --- (5) the temporary context's execution thread ---------------
        if injector is not None:
            # A degraded memory pool (thermal throttle, noisy neighbour)
            # stretches the pushed function's clock.
            cpu_scale *= injector.degrade_factor(start_ps)
        mem_thread = SimThread(
            process, name=f"{ctx.thread.name}/pushdown", pool=Pool.MEMORY,
            start_ps=start_ps + setup_cost,
        )
        mem_thread.cpu_scale = cpu_scale
        self.mem_thread = mem_thread
        self._exec_start = mem_thread.clock.now
        self._online_sync_base = protocol.online_sync_ps
        self.mctx = ExecutionContext(
            runtime.platform, mem_thread, memkernel=memkernel,
            compkernel=compkernel, protocol=protocol,
        )

    def _pre_sync(self, compkernel):
        """Returns (cost, resident_list, refetch_vpns) per the sync method."""
        sync = self.options.sync
        if sync is SyncMethod.ON_DEMAND:
            return 0, compkernel.resident_snapshot(), []
        if sync is SyncMethod.EAGER:
            refetch = [vpn for vpn, _writable in compkernel.resident_snapshot()]
            flush_cost, _count = compkernel.flush_dirty()
            evict_cost = compkernel.evict_all()
            return flush_cost + evict_cost, [], refetch
        if sync is SyncMethod.EAGER_REGIONS:
            cost = compkernel.evict_regions(self.options.sync_regions)
            return cost, [], []
        raise ReproError(f"unknown sync method {sync!r}")

    def finish(self, check_invariant=False):
        """Complete the pushdown: reply, post-sync, unblock the caller."""
        if self.cancelled or self._finished:
            return
        self._finished = True
        runtime = self.runtime
        protocol = self.protocol
        caller_clock = self.caller.thread.clock
        exec_end = self.mem_thread.clock.now
        exec_total = exec_end - self._exec_start
        online = protocol.online_sync_ps - self._online_sync_base
        self.breakdown.online_sync_ns = to_ns(online)
        self.breakdown.function_ns = to_ns(max(0, exec_total - online))

        # --- caller-side timeout that expired mid-execution --------------
        # (Section 3.2: the caller issues try_cancel; cancellation succeeds
        # iff the function is still running when the cancel arrives.)
        timeout = self._timeout_ps
        if (
            timeout is not None
            and self.options.on_timeout is not TimeoutAction.WAIT
            and exec_end > self._call_ps + timeout
        ):
            timeout_instant = self._call_ps + timeout
            runtime.stats.pushdown_timeouts += 1
            cancel_send = runtime.network.message_ps(_CONTROL_BYTES, now=timeout_instant)
            cancel_arrival = timeout_instant + cancel_send
            cancel_ack = runtime.network.message_ps(_CONTROL_BYTES, now=cancel_arrival)
            caller_clock.advance_to(timeout_instant)
            caller_clock.advance(cancel_send + cancel_ack)
            if cancel_arrival < exec_end:
                # Cancel succeeded: the temporary context is killed at the
                # cancel's arrival; work after that instant never happened.
                self.breakdown.function_ns = to_ns(max(
                    0, (cancel_arrival - self._exec_start) - online
                ))
                runtime.stats.pushdown_cancellations += 1
                post = self._teardown(cancel_arrival, check_invariant)
                caller_clock.advance(post)
                if runtime.platform.tracer.enabled:
                    runtime.platform.tracer.emit(
                        caller_clock.now, "pushdown", phase="cancelled-running"
                    )
                if self.options.on_timeout is TimeoutAction.FALLBACK:
                    self.fallback_pending = True
                    return
                raise PushdownTimeout(
                    f"pushdown timed out after {self.options.timeout_ns:.0f}ns mid-execution "
                    "(try_cancel succeeded; safe to re-run locally)",
                    cancelled=True,
                )
            if self.options.on_timeout is TimeoutAction.RAISE:
                # Cancel failed: the function completed first. Under RAISE
                # the late result is discarded.
                post = self._teardown(exec_end, check_invariant)
                caller_clock.advance_to(exec_end)
                caller_clock.advance(post)
                if runtime.platform.tracer.enabled:
                    runtime.platform.tracer.emit(
                        caller_clock.now, "pushdown", phase="timeout"
                    )
                raise PushdownTimeout(
                    f"pushdown timed out after {self.options.timeout_ns:.0f}ns mid-execution "
                    "(try_cancel failed: function already complete)",
                    cancelled=False,
                )
            # TimeoutAction.FALLBACK with a failed cancel: accept the late
            # remote result — fall through to normal completion.

        # Watchdog: buggy code that fails to complete is killed so it does
        # not block other pushdown requests (Section 3.2).
        if exec_total > self.config.watchdog_timeout_ps:
            self.aborted = True
            runtime.stats.pushdown_aborts += 1
            exec_end = self._exec_start + self.config.watchdog_timeout_ps
        runtime.rpc.complete(self._instance, exec_end)
        if check_invariant:
            protocol.check_swmr()

        # --- (6/7) completion notification + response transfer, with
        #           retransmission of lost responses ----------------------
        response_cost = runtime.network.message_ps(_ENVELOPE_BYTES, now=exec_end)
        injector = runtime.injector
        if injector is not None:
            policy = runtime.retry_policy
            attempts = 1
            t = exec_end + response_cost
            while not injector.response_delivered(t):
                runtime.stats.messages_dropped += 1
                if attempts >= policy.max_attempts:
                    # The reply never arrived. The function executed exactly
                    # once (at-most-once), but its result is lost.
                    self.breakdown.response_ns = to_ns(response_cost)
                    post = protocol.boundary_sync()
                    self.breakdown.post_sync_ns = to_ns(post)
                    runtime.release_protocol(self._process)
                    caller_clock.advance_to(t)
                    caller_clock.advance(post)
                    runtime.breakdowns.append(self.breakdown)
                    raise PushdownRetryExhausted(
                        f"pushdown response lost {attempts} times; result discarded"
                    )
                attempts += 1
                runtime.stats.pushdown_retries += 1
                wait = to_ps(policy.retransmit_timeout_ns + policy.backoff_ns(
                    attempts - 1, injector.rng
                ))
                # The caller retransmits the request ID; the server answers
                # from its completion record without re-executing.
                resend = runtime.network.message_ps(_CONTROL_BYTES, now=t + wait)
                runtime.rpc.replay_response(self._request_id)
                runtime.stats.pushdown_dedup_hits += 1
                redo = runtime.network.message_ps(
                    _ENVELOPE_BYTES, now=t + wait + resend
                )
                response_cost += wait + resend + redo
                t = exec_end + response_cost
        self.breakdown.response_ns = to_ns(response_cost)

        # --- (8) post-pushdown synchronisation ---------------------------
        # Relaxed consistency propagates writes at this explicit boundary.
        post_cost = protocol.boundary_sync()
        runtime.release_protocol(self._process)
        if self.options.sync is SyncMethod.EAGER and self._refetch_vpns:
            # Page-by-page refetch of everything the cache used to hold —
            # the strawman cost the on-demand protocol avoids (Figure 20).
            post_cost += runtime.network.pages_in_ps(len(self._refetch_vpns), batch=1)
            for vpn in self._refetch_vpns:
                self._compkernel.cache.insert(vpn, writable=False)
        self.breakdown.post_sync_ns = to_ns(post_cost)

        caller_clock.advance_to(exec_end)
        caller_clock.advance(response_cost + post_cost)
        runtime.breakdowns.append(self.breakdown)
        if runtime.platform.tracer.enabled:
            runtime.platform.tracer.emit(
                caller_clock.now, "pushdown",
                phase="aborted" if self.aborted else "finish",
                function_ms=round(self.breakdown.function_ns / 1e6, 3),
            )
        sanitizers = runtime.platform.sanitizers
        if sanitizers is not None:
            sanitizers.check_session_end(runtime, self._process)

    def _teardown(self, end_ps, check_invariant=False):
        """Free the instance and release coherence state; returns the
        boundary-sync cost. Shared by every abort path so no path can leak
        relaxed-consistency dirty state or protocol refcounts."""
        runtime = self.runtime
        runtime.rpc.complete(self._instance, end_ps)
        if check_invariant:
            self.protocol.check_swmr()
        post = self.protocol.boundary_sync()
        self.breakdown.post_sync_ns = to_ns(post)
        runtime.release_protocol(self._process)
        runtime.breakdowns.append(self.breakdown)
        sanitizers = runtime.platform.sanitizers
        if sanitizers is not None:
            sanitizers.check_session_end(runtime, self._process)
        return post

    def abandon(self):
        """Tear down after a simulation-level error inside ``fn``.

        Unlike the old fire-and-forget version this records the partial
        breakdown (Figure 20 would otherwise undercount) and runs the
        boundary synchronisation, so relaxed-consistency (PSO/weak) dirty
        state cannot leak past an abandoned session.
        """
        if self.cancelled or self._finished:
            return
        self._finished = True
        exec_end = self.mem_thread.clock.now
        exec_total = exec_end - self._exec_start
        online = self.protocol.online_sync_ps - self._online_sync_base
        self.breakdown.online_sync_ns = to_ns(online)
        self.breakdown.function_ns = to_ns(max(0, exec_total - online))
        self._teardown(exec_end)


def _resolve_options(options, consistency, sync, timeout_ns, sync_regions, on_timeout=None):
    if options is not None:
        return options
    return PushdownOptions(
        consistency=consistency or ConsistencyMode.MESI,
        sync=sync or SyncMethod.ON_DEMAND,
        timeout_ns=timeout_ns,
        sync_regions=tuple(sync_regions or ()),
        on_timeout=on_timeout or TimeoutAction.RAISE,
    )
