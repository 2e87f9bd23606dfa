"""The TELEPORT runtime: the ``pushdown`` syscall end to end (Section 3.2).

A pushdown call walks the numbered steps of Figure 5: the caller stalls,
the request crosses the fabric to the memory pool's RPC server, a TELEPORT
instance instantiates a temporary user context that borrows the caller's
page table, the function runs against local data with on-demand coherence,
and the completion flows back.

:class:`PushdownSession` exposes the same flow in two halves (begin /
finish) so the interleaved microbenchmark scheduler can step the pushed
function concurrently with compute-pool threads.

A pushdown has one lifecycle (Section 3.2), and each way it fails is one
exception. Before dispatch, ``begin_session`` raises
:class:`~repro.errors.PushdownRetryExhausted` (request lost),
:class:`~repro.errors.PushdownTimeout` (cancelled in the RPC queue) or
:class:`~repro.errors.KernelPanic` (memory pool confirmed lost, every
protocol released). After dispatch, ``finish`` raises ``PushdownTimeout``
(mid-run; ``cancelled`` iff try_cancel discarded the function's work),
:class:`~repro.errors.PushdownAborted` (watchdog) or
``PushdownRetryExhausted`` (response lost). One loop retransmits lost
requests and responses, with bounded backoff and idempotent request IDs
(at-most-once), charged to the caller's virtual clock. Every end after
dispatch, ``abandon`` included, goes through one teardown. ``pushdown``
hands each exception to :meth:`TeleportRuntime.fail`, which counts it
against the per-process circuit breaker and falls back to the compute pool
only if the function's work never happened: it never runs twice.
"""

from repro.ddc.context import ExecutionContext
from repro.ddc.pool import Pool
from repro.ddc.thread import SimThread
from repro.errors import (
    KernelPanic,
    PushdownAborted,
    PushdownError,
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
        except PushdownError as exc:
            # Lost or cancelled before reaching an instance: fn never ran.
            return self.fail(ctx, ctx.now, exc, options, fn, args)
        error = result = None
        try:
            result = fn(session.mctx, *args)
        except ReproError:
            session.abandon()
            raise
        except Exception as exc:  # user-function failure: rethrow at caller
            error = exc
        try:
            session.finish()
        except PushdownError as exc:
            # A successful try_cancel discarded fn's work, so it may re-run
            # locally; after any other end it ran once and never runs twice.
            discarded = isinstance(exc, PushdownTimeout) and exc.cancelled
            return self.fail(ctx, ctx.now, exc, options, fn if discarded else None, args)
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
        """Send a pushdown request and dispatch it; returns the running
        :class:`PushdownSession`.

        Raises :class:`~repro.errors.KernelPanic` on a lost memory pool,
        :class:`PushdownRetryExhausted` when the request kept getting lost
        and :class:`PushdownTimeout` (``cancelled=True``) when it was
        cancelled in the RPC queue. In each case the function never ran.
        """
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
            compkernel = protocol.compkernel
            compkernel.protocol = None
            sanitizers = self.platform.sanitizers
            if sanitizers is not None:
                sanitizers.check_protocol_teardown(protocol, compkernel)


class PushdownSession:
    """One in-flight pushdown: request, context setup, execution, reply.

    Constructing a session sends the request; it raises if the request
    never reaches an instance. Once dispatched, every end — :meth:`finish`
    or :meth:`abandon` — goes through :meth:`_end`.
    """

    def __init__(self, runtime, ctx, options):
        self.runtime = runtime
        self.caller = ctx
        self.options = options
        self.config = runtime.config
        self.breakdown = PushdownBreakdown()
        self._finished = False
        process = ctx.thread.process
        platform = runtime.platform
        compkernel = platform.kernel_for(process)
        self._compkernel = compkernel
        self._process = process
        self._deadline_ps = options.deadline_ps(ctx.now)

        # --- (1) pre-pushdown synchronisation --------------------------
        pre_cost, resident, refetch = self._pre_sync(compkernel)
        self.breakdown.pre_sync_ns = to_ns(pre_cost)
        ctx.charge_ps(pre_cost)
        self._refetch_vpns = refetch

        # --- (2) request transfer (RLE-compressed resident list) --------
        request_bytes = _ENVELOPE_BYTES + self.config.page_list_message_bytes(len(resident))

        def send(now):
            return runtime.network.message_ps(request_bytes, now=now)

        request_cost, delivered = self._transmit(
            ctx.now, send, send, FaultInjector.request_delivered
        )
        ctx.charge_ps(request_cost)
        self.breakdown.request_ns = to_ns(request_cost)
        if not delivered:
            raise PushdownRetryExhausted(
                f"pushdown request lost {runtime.retry_policy.max_attempts} times; giving up"
            )
        self._request_id = runtime.next_request_id()

        # --- (3) dispatch / queueing at the RPC server ------------------
        arrival = ctx.now
        index, start_ps, cpu_scale = runtime.rpc.plan(arrival)
        self.breakdown.queue_wait_ns = to_ns(start_ps - arrival)
        deadline = self._deadline_ps
        if deadline is not None and start_ps > deadline:
            # try_cancel succeeds: the request had not started executing,
            # so it is simply removed from the workqueue (Section 3.2).
            runtime.rpc.cancel_queued()
            runtime.stats.pushdown_timeouts += 1
            runtime.stats.pushdown_cancellations += 1
            ctx.thread.clock.advance_to(deadline)
            ctx.charge_ps(self.config.net_roundtrip_ps(_CONTROL_BYTES, _CONTROL_BYTES))
            if platform.tracer.enabled:
                platform.tracer.emit(ctx.now, "pushdown", phase="cancelled")
            raise PushdownTimeout(
                f"pushdown cancelled after {options.timeout_ns:.0f}ns in queue",
                cancelled=True,
            )
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
        if runtime.injector is not None:
            # A degraded memory pool (thermal throttle, noisy neighbour)
            # stretches the pushed function's clock.
            cpu_scale *= runtime.injector.degrade_factor(start_ps)
        mem_thread = SimThread(
            process, name=f"{ctx.thread.name}/pushdown", pool=Pool.MEMORY,
            start_ps=start_ps + setup_cost,
        )
        mem_thread.cpu_scale = cpu_scale
        self.mem_thread = mem_thread
        self._exec_start = mem_thread.clock.now
        self._online_sync_base = protocol.online_sync_ps
        self.mctx = ExecutionContext(platform, mem_thread, protocol)

    def _pre_sync(self, compkernel):
        """Returns (cost, resident_list, refetch_vpns) per the sync method."""
        sync = self.options.sync
        if sync is SyncMethod.ON_DEMAND:
            return 0, compkernel.resident_snapshot(), []
        if sync is SyncMethod.EAGER:
            refetch = [vpn for vpn, _writable in compkernel.resident_snapshot()]
            return compkernel.evict_all(), [], refetch
        if sync is SyncMethod.EAGER_REGIONS:
            cost = compkernel.evict_regions(self.options.sync_regions)
            return cost, [], []
        raise ReproError(f"unknown sync method {sync!r}")

    def _transmit(self, at_ps, send, resend, delivered):
        """Send one message at ``at_ps``, retransmitting it while the
        fabric loses it, at most ``max_attempts`` times in all.

        ``send(now)`` and ``resend(now)`` price the first transmission and
        each retransmission; a retransmission waits out the retransmit
        timer plus a seeded-jitter backoff first. ``delivered`` is the
        injector's verdict for a message that lands at a given instant.
        Returns ``(elapsed_ps, delivered)``: the time from ``at_ps`` until
        the message landed, or until the last loss once the attempts ran out.
        """
        runtime = self.runtime
        elapsed = send(at_ps)
        injector = runtime.injector
        if injector is None:
            return elapsed, True
        policy = runtime.retry_policy
        attempt = 1
        while not delivered(injector, at_ps + elapsed):
            runtime.stats.messages_dropped += 1
            if attempt == policy.max_attempts:
                return elapsed, False
            runtime.stats.pushdown_retries += 1
            elapsed += to_ps(policy.retransmit_timeout_ns + policy.backoff_ns(
                attempt, injector.rng
            ))
            elapsed += resend(at_ps + elapsed)
            attempt += 1
        return elapsed, True

    def finish(self):
        """Complete the pushdown: reply, post-sync, unblock the caller.

        Raises, after the session is torn down, if the pushdown did not
        complete: :class:`PushdownTimeout` when the caller's timeout expired
        mid-run (``cancelled`` says whether try_cancel discarded the
        function's work), :class:`PushdownAborted` when the watchdog killed
        the function, :class:`PushdownRetryExhausted` when its response
        was lost. A second call does nothing.
        """
        if self._finished:
            return
        runtime = self.runtime
        exec_end = self.mem_thread.clock.now
        deadline = self._deadline_ps
        if deadline is not None and exec_end > deadline:
            # Section 3.2: at its deadline the caller issues try_cancel,
            # which succeeds iff the function is still running when the
            # cancel arrives.
            runtime.stats.pushdown_timeouts += 1
            cancel_send = runtime.network.message_ps(_CONTROL_BYTES, now=deadline)
            cancel_arrival = deadline + cancel_send
            cancel_ack = runtime.network.message_ps(_CONTROL_BYTES, now=cancel_arrival)
            caller_clock = self.caller.thread.clock
            caller_clock.advance_to(deadline)
            caller_clock.advance(cancel_send + cancel_ack)
            if cancel_arrival < exec_end:
                # The temporary context is killed at the cancel's arrival;
                # work after that instant never happened.
                runtime.stats.pushdown_cancellations += 1
                self._end(cancel_arrival, "cancelled-running")
                raise PushdownTimeout(
                    f"pushdown timed out after {self.options.timeout_ns:.0f}ns mid-execution "
                    "(try_cancel succeeded; safe to re-run locally)",
                    cancelled=True,
                )
            if self.options.on_timeout is TimeoutAction.RAISE:
                # Cancel failed: the function completed first. Under RAISE
                # the late result is discarded.
                self._end(exec_end, "timeout")
                raise PushdownTimeout(
                    f"pushdown timed out after {self.options.timeout_ns:.0f}ns mid-execution "
                    "(try_cancel failed: function already complete)",
                    cancelled=False,
                )
            # TimeoutAction.FALLBACK with a failed cancel: accept the late
            # remote result, which lands in parallel with the cancel
            # exchange.

        # Watchdog: buggy code that fails to complete is killed so it does
        # not block other pushdown requests (Section 3.2).
        watchdog = self.config.watchdog_timeout_ps
        aborted = exec_end - self._exec_start > watchdog
        if aborted:
            runtime.stats.pushdown_aborts += 1
            exec_end = self._exec_start + watchdog

        # --- (6/7) completion notification + response transfer ----------
        network = runtime.network

        def resend(now):
            # The caller retransmits the request ID; the server answers
            # from its completion record without re-executing.
            control = network.message_ps(_CONTROL_BYTES, now=now)
            runtime.rpc.replay_response(self._request_id)
            runtime.stats.pushdown_dedup_hits += 1
            return control + network.message_ps(_ENVELOPE_BYTES, now=now + control)

        reply, delivered = self._transmit(
            exec_end, lambda now: network.message_ps(_ENVELOPE_BYTES, now=now),
            resend, FaultInjector.response_delivered,
        )
        if not delivered:
            # The function executed exactly once (at-most-once), but its
            # result is lost.
            self._end(exec_end, "response-lost", reply)
            raise PushdownRetryExhausted(
                f"pushdown response lost {runtime.retry_policy.max_attempts} times; "
                "result discarded"
            )
        self._end(exec_end, "aborted" if aborted else "finish", reply)
        if aborted:
            raise PushdownAborted(
                f"pushdown function exceeded the {self.config.watchdog_timeout_ns:.0f}ns watchdog"
            )

    def abandon(self):
        """Tear down after a simulation-level error inside ``fn``: the
        caller resumes at the function's end plus the post-sync, and the
        partial breakdown is recorded. A no-op once the session ended."""
        if not self._finished:
            self._end(self.mem_thread.clock.now, "abandoned")

    def _end(self, end_ps, phase, reply_ps=0):
        """The one teardown of a dispatched session, however it ended.

        The function's work ends at ``end_ps``, where its instance frees.
        The response, sent then, lands ``reply_ps`` later. The caller
        resumes at the later of that instant and its own time (a failed
        try_cancel's ack may land after the response), plus the post-sync.
        Every end runs the boundary sync and the session-end leak check, so
        no path can leak relaxed-consistency dirty state or a protocol
        refcount.
        """
        self._finished = True
        runtime = self.runtime
        protocol = self.protocol
        breakdown = self.breakdown
        online = protocol.online_sync_ps - self._online_sync_base
        breakdown.online_sync_ns = to_ns(online)
        breakdown.function_ns = to_ns(max(0, end_ps - self._exec_start - online))
        breakdown.response_ns = to_ns(reply_ps)
        runtime.rpc.complete(self._instance, end_ps)

        # --- (8) post-pushdown synchronisation ---------------------------
        # Relaxed consistency propagates writes at this explicit boundary.
        post_cost = protocol.boundary_sync()
        runtime.release_protocol(self._process)
        if self._refetch_vpns:
            # Page-by-page refetch of everything the cache used to hold —
            # the strawman cost the on-demand protocol avoids (Figure 20).
            post_cost += runtime.network.pages_in_ps(len(self._refetch_vpns), batch=1)
            for vpn in self._refetch_vpns:
                self._compkernel.cache.insert(vpn, writable=False)
        breakdown.post_sync_ns = to_ns(post_cost)

        caller_clock = self.caller.thread.clock
        caller_clock.advance_to(end_ps + reply_ps)
        caller_clock.advance(post_cost)
        runtime.breakdowns.append(breakdown)
        platform = runtime.platform
        if platform.tracer.enabled:
            platform.tracer.emit(
                caller_clock.now, "pushdown", phase=phase,
                function_ms=round(breakdown.function_ns / 1e6, 3),
            )
        if platform.sanitizers is not None:
            platform.sanitizers.check_session_end(runtime, self._process)


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
