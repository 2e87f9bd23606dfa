"""The memory-pool pushdown scheduler: admission queue and policies.

The paper's runtime serialises concurrent pushdowns on the memory pool's
TELEPORT instances (Figure 17); under serving load that contention is
the first-order effect (Figures 21-22 and DRackSim both turn on it). This
module makes it explicit:

* **bounded execution slots** — the RPC server's TELEPORT instances
  (``config.teleport_instances``) are the slots; a pushdown holds one
  from dispatch until its memory-side execution ends. The scheduler keeps
  no copy of them: it reads when they free up from
  :class:`~repro.teleport.rpc.RpcServer`;
* **an admission queue** — a request the serving
  :class:`~repro.serve.tenant.Server` submits waits in virtual time until
  a slot frees; queueing delay is accounted per tenant;
* **pluggable policies** — FIFO, weighted fair share (least attained
  normalised service first), and strict priority decide which queued
  request a freed slot serves next;
* **trace visibility** — enqueue/dispatch/cancel/complete events of kind
  ``"sched"`` when tracing is enabled.

The policies genuinely reorder: a dispatch at virtual time T fires only
once every tenant has reached T, so every request arriving before T is
already queued. A direct ``ctx.pushdown`` never passes through here; it
waits FIFO at the RPC server, as on any TELEPORT platform.

Requests that fail *while queued* take the runtime's one failure path,
:meth:`~repro.teleport.runtime.TeleportRuntime.fail`: an expired
``timeout_ns`` follows the caller's :class:`TimeoutAction` (raise with
``cancelled=True``, or automatic local fallback) and counts toward the
per-process circuit breaker; a memory-pool panic surfaces as
:class:`~repro.errors.KernelPanic` at the would-be dispatch, after the
runtime has released every coherence protocol.
"""

import dataclasses
import enum

from repro.errors import ConfigError, PushdownTimeout, ReproError
from repro.sim.units import ns_property, to_ns


def _remaining_timeout(options, waited_ps):
    """The caller's timeout budget net of the queueing delay already paid.

    A request that waited in the admission queue must not get a fresh
    full timeout at dispatch — the deadline is measured from submission.
    """
    if options is None or options.timeout_ns is None or waited_ps <= 0:
        return options
    return dataclasses.replace(
        options, timeout_ns=max(0.0, options.timeout_ns - to_ns(waited_ps))
    )


class QueuePolicy(enum.Enum):
    """How the admission queue orders dispatches."""

    #: First come, first served (by arrival time, then submission order).
    FIFO = "fifo"
    #: Weighted fair share: dispatch the eligible request of the tenant
    #: with the least attained service normalised by weight.
    FAIR = "fair"
    #: Strict priority: higher ``priority`` always dispatches first; FIFO
    #: within a priority level.
    PRIORITY = "priority"


class TenantShare:
    """Per-tenant scheduling state and accounting."""

    __slots__ = (
        "name", "weight", "priority",
        "dispatched", "completed", "cancelled",
        "queue_delay_ps", "service_ps",
    )

    def __init__(self, name, weight=1.0, priority=0):
        if weight <= 0:
            raise ConfigError(f"tenant {name!r}: weight must be positive")
        self.name = name
        self.weight = float(weight)
        self.priority = int(priority)
        self.dispatched = 0
        self.completed = 0
        self.cancelled = 0
        #: Total virtual time (ps) this tenant's requests spent queued.
        self.queue_delay_ps = 0
        #: Total memory-pool slot time (ps) this tenant consumed.
        self.service_ps = 0

    queue_delay_ns = ns_property("queue_delay_ps")
    service_ns = ns_property("service_ps")

    def __repr__(self):
        return (
            f"TenantShare({self.name!r}, weight={self.weight}, "
            f"service={self.service_ns:.0f}ns)"
        )


class QueuedRequest:
    """One pushdown waiting in (or flowing through) the admission queue."""

    __slots__ = (
        "ctx", "fn", "args", "options", "share", "name", "done",
        "arrival_ps", "seq",
    )

    def __init__(self, ctx, fn, args, options, share, name, done):
        self.ctx = ctx
        self.fn = fn
        self.args = tuple(args)
        self.options = options
        self.share = share
        self.name = name
        #: ``done(ctx, result, error)``, called once when the request
        #: completes, falls back, or fails.
        self.done = done
        self.arrival_ps = ctx.now
        self.seq = -1  # assigned by the pool; deterministic tie-break

    def expiry_ps(self):
        """When this request's queued wait times out (None: never)."""
        if self.options is None:
            return None
        return self.options.deadline_ps(self.arrival_ps)


class PoolScheduler:
    """Admission queue in front of one memory pool's TELEPORT instances.

    Acts as the serving scheduler's event source: ``next_event_ps``/
    ``fire`` interleave queue dispatches with tenant task steps in
    virtual-time order.
    """

    def __init__(self, platform, policy=QueuePolicy.FIFO):
        runtime = getattr(platform, "teleport", None)
        if runtime is None:
            raise ConfigError(
                f"platform kind {platform.kind!r} has no TELEPORT runtime to schedule"
            )
        self.platform = platform
        self.config = platform.config
        self.stats = platform.stats
        self.runtime = runtime
        #: The slots: when each TELEPORT instance frees up.
        self.rpc = runtime.rpc
        self.policy = policy
        self.queue = []
        self.shares = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def register(self, name, weight=1.0, priority=0):
        """Register a tenant; returns its :class:`TenantShare`."""
        if name in self.shares:
            raise ConfigError(f"tenant {name!r} already registered")
        share = TenantShare(name, weight=weight, priority=priority)
        self.shares[name] = share
        return share

    # ------------------------------------------------------------------
    # Live state the offload controller reads
    # ------------------------------------------------------------------
    def estimated_wait_ps(self, now):
        """Deterministic estimate of the queueing delay a new arrival pays."""
        backlog = max(0, self.rpc.earliest_free_ps() - now)
        if self.queue:
            backlog += len(self.queue) * self._mean_service_ps()
        return backlog

    def _mean_service_ps(self):
        completed = sum(share.completed for share in self.shares.values())
        if completed == 0:
            return self.config.context_base_ps
        total = sum(share.service_ps for share in self.shares.values())
        return total / completed

    # ------------------------------------------------------------------
    # The queue
    # ------------------------------------------------------------------
    def submit(self, request):
        """Queue a request; a later :meth:`fire` settles it."""
        request.seq = self._seq
        self._seq += 1
        self.queue.append(request)
        self._emit(
            request.arrival_ps, "enqueue", tenant=request.share.name,
            request=request.name, depth=len(self.queue),
        )

    def next_event_ps(self):
        """Virtual time of the earliest pending dispatch or queue expiry."""
        if not self.queue:
            return None
        earliest_arrival = min(r.arrival_ps for r in self.queue)
        event = max(self.rpc.earliest_free_ps(), earliest_arrival)
        for request in self.queue:
            expiry = request.expiry_ps()
            if expiry is not None and expiry < event:
                event = expiry
        return event

    def fire(self, now):
        """Handle the event at ``now``: cancel expired waits, dispatch one."""
        expired = sorted(
            (r for r in self.queue
             if r.expiry_ps() is not None and r.expiry_ps() <= now),
            key=lambda r: (r.expiry_ps(), r.seq),
        )
        for request in expired:
            self.queue.remove(request)
            self._deliver(request, self._cancel_queued)
        if not self.queue:
            return
        eligible = [r for r in self.queue if r.arrival_ps <= now]
        if not eligible or self.rpc.earliest_free_ps() > now:
            return
        request = self._pick(eligible)
        self.queue.remove(request)
        self._deliver(request, self._execute, now)

    def _deliver(self, request, run, *args):
        """Settle a queued request with ``run(request, *args)`` and hand
        the outcome to its ``done`` callback."""
        try:
            result = run(request, *args)
        except ReproError as exc:
            request.done(request.ctx, None, exc)
        else:
            request.done(request.ctx, result, None)

    def _execute(self, request, start_ps):
        """Dispatch ``request`` at ``start_ps`` onto the earliest free
        instance and run it; returns its result or raises its ReproError.

        The tenant is charged the instance time the RPC server recorded at
        completion. A call that never occupied an instance (breaker
        short-circuit, cancelled in the RPC queue) is charged none.
        """
        share = request.share
        ctx = request.ctx
        waited = start_ps - request.arrival_ps
        share.dispatched += 1
        share.queue_delay_ps += waited
        ctx.thread.clock.advance_to(start_ps)
        self._emit(
            start_ps, "dispatch", tenant=share.name, request=request.name,
            wait_ms=round(to_ns(waited) / 1e6, 6), depth=len(self.queue),
        )
        rpc = self.rpc
        dispatched = rpc.dispatched
        end_ps = None
        try:
            result = self.runtime.pushdown(
                ctx, request.fn, *request.args,
                options=_remaining_timeout(request.options, waited),
            )
        except ReproError as exc:
            self._emit(
                ctx.now, "complete", tenant=share.name, request=request.name,
                outcome=type(exc).__name__,
            )
            raise
        finally:
            if rpc.dispatched > dispatched:
                end_ps = rpc.last_end_ps
                share.service_ps += end_ps - start_ps
        share.completed += 1
        service = (end_ps if end_ps is not None else ctx.now) - start_ps
        self._emit(
            ctx.now, "complete", tenant=share.name, request=request.name,
            outcome="ok", service_ms=round(to_ns(service) / 1e6, 6),
        )
        return result

    def _cancel_queued(self, request):
        """A queued request timed out before reaching an instance (Section
        3.2: try_cancel trivially succeeds — the function never started).

        Charges the wait to the tenant, then returns the compute-local
        fallback's result or raises ``PushdownTimeout(cancelled=True)``.
        """
        share = request.share
        options = request.options
        expiry = request.expiry_ps()
        share.cancelled += 1
        share.queue_delay_ps += expiry - request.arrival_ps
        request.ctx.thread.clock.advance_to(expiry)
        self.stats.pushdown_timeouts += 1
        self.stats.pushdown_cancellations += 1
        self._emit(
            expiry, "cancel", tenant=share.name, request=request.name,
            waited_ms=round(options.timeout_ns / 1e6, 6),
        )
        return self.runtime.fail(request.ctx, expiry, PushdownTimeout(
            f"pushdown cancelled after {options.timeout_ns:.0f}ns in the "
            "memory-pool admission queue",
            cancelled=True,
        ), options, request.fn, request.args)

    def _pick(self, eligible):
        """The policy's choice among requests whose arrival has passed."""
        if self.policy is QueuePolicy.FIFO:
            key = lambda r: (r.arrival_ps, r.seq)
        elif self.policy is QueuePolicy.PRIORITY:
            key = lambda r: (-r.share.priority, r.arrival_ps, r.seq)
        elif self.policy is QueuePolicy.FAIR:
            key = lambda r: (r.share.service_ps / r.share.weight, r.arrival_ps, r.seq)
        else:
            raise ReproError(f"unknown queue policy {self.policy!r}")
        return min(eligible, key=key)

    def _emit(self, at_ps, phase, **detail):
        tracer = self.platform.tracer
        if tracer.enabled:
            tracer.emit(at_ps, "sched", phase=phase, **detail)

    def __repr__(self):
        return (
            f"PoolScheduler(slots={self.rpc.instances}, "
            f"policy={self.policy.value}, queued={len(self.queue)})"
        )
