"""The session/tenant manager: many clients, one disaggregated platform.

A :class:`Server` admits concurrent tenants — each a workload generator
with its own process, thread, and virtual clock — onto one shared
platform, and drives them with the deterministic serving scheduler. Every
request a tenant yields passes through the adaptive offload controller
(push down vs run compute-local) and, when pushed, through the memory
pool's admission queue. Each request runs on its own thread of the
tenant's process, so the requests of one yielded batch overlap in virtual
time; completion latencies are recorded per request on the virtual clock.

Usage::

    server = Server(config, offload=OffloadPolicy.ADAPTIVE,
                    queue_policy=QueuePolicy.FAIR)
    server.admit("sql-hot", sql_workload(...), arrival_ns=0, weight=2.0)
    server.admit("graph-cold", graph_workload(...), arrival_ns=1e6)
    report = server.run()
    print(report.latency_table())
"""

from repro.ddc.platform import make_platform
from repro.errors import ConfigError, ReproError
from repro.serve.offload import OffloadController, OffloadPolicy, OffloadRequest
from repro.serve.pool import PoolScheduler, QueuedRequest, QueuePolicy
from repro.serve.scheduler import Scheduler, Task
from repro.sim.stats import p50 as _p50, p99 as _p99
from repro.sim.units import ns_property, to_ns, to_ps


class RequestRecord:
    """Latency record of one completed serving request (times in ps)."""

    __slots__ = ("name", "tenant", "arrival_ps", "completed_ps", "pushed")

    def __init__(self, name, tenant, arrival_ps, completed_ps, pushed):
        self.name = name
        self.tenant = tenant
        self.arrival_ps = arrival_ps
        self.completed_ps = completed_ps
        self.pushed = pushed

    @property
    def latency_ns(self):
        return to_ns(self.completed_ps - self.arrival_ps)

    def __repr__(self):
        return (
            f"RequestRecord({self.tenant}/{self.name}, "
            f"{self.latency_ns / 1e6:.3f}ms, {'pushed' if self.pushed else 'local'})"
        )


class Tenant:
    """One admitted client: its process, context, share, and records."""

    __slots__ = (
        "name", "ctx", "task", "share", "records",
        "arrival_ps", "finished_ps",
    )

    def __init__(self, name, ctx, arrival_ps):
        self.name = name
        self.ctx = ctx
        self.task = None
        self.share = None
        self.records = []
        self.arrival_ps = arrival_ps
        self.finished_ps = None

    @property
    def completion_ps(self):
        """Time from this tenant's arrival to its last request finishing."""
        if self.finished_ps is None:
            raise ReproError(f"tenant {self.name!r} has not finished")
        return self.finished_ps - self.arrival_ps

    completion_ns = ns_property("completion_ps")


class Server:
    """Admits tenants onto one shared platform and runs them to completion."""

    def __init__(self, config=None, kind="teleport",
                 offload=OffloadPolicy.ADAPTIVE,
                 queue_policy=QueuePolicy.FIFO):
        if kind not in ("ddc", "teleport"):
            raise ConfigError(
                f"serving needs a disaggregated platform, not {kind!r}"
            )
        self.platform = make_platform(kind, config)
        config = self.platform.config
        self.config = config
        self.pool = None
        if kind == "teleport":
            self.pool = PoolScheduler(self.platform, policy=queue_policy)
        self.controller = OffloadController(config, policy=offload)
        self.scheduler = Scheduler(
            effect_handler=self._handle_effect, event_source=self.pool
        )
        self.tenants = []
        self._ran = False

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, name, workload, arrival_ns=0.0, weight=1.0, priority=0):
        """Admit a tenant.

        ``arrival_ns`` is the tenant's arrival in virtual ns.
        ``workload(ctx)`` is called now (setup runs on the tenant's own
        clock) and must return a generator that yields
        :class:`~repro.serve.offload.OffloadRequest` effects, one per
        serving request. Returns the :class:`Tenant`.
        """
        if self._ran:
            raise ReproError("server already ran; admit tenants before run()")
        if any(t.name == name for t in self.tenants):
            raise ConfigError(f"tenant {name!r} already admitted")
        ctx = self.platform.main_context(name=name)
        tenant = Tenant(name, ctx, to_ps(arrival_ns))
        if self.pool is not None:
            tenant.share = self.pool.register(name, weight=weight,
                                              priority=priority)
        gen = workload(ctx)
        tenant.task = self.scheduler.add(Task(
            name, ctx.thread.clock, gen, arrival_ps=tenant.arrival_ps,
            on_complete=self._tenant_done, payload=tenant,
        ))
        self.tenants.append(tenant)
        return tenant

    def _tenant_done(self, task, at_ps):
        task.payload.finished_ps = at_ps

    # ------------------------------------------------------------------
    # The offload decision, applied per yielded request
    # ------------------------------------------------------------------
    def _handle_effect(self, scheduler, task, effect):
        """Start every member of a yielded batch; resume the task once.

        A single :class:`OffloadRequest` is a batch of one whose result is
        delivered bare; a list/tuple is a fork-join batch. Each member,
        local or pushed, runs on its own thread of the tenant's process,
        forked at the yield, so a batch's members overlap in virtual time
        and a tenant can hold several memory-pool slots at once. Every
        member ends in one ``done`` callback. The task resumes at the
        latest member's completion with the results, or at the first
        failure with that error; siblings that finish after a failure do
        not move the tenant's clock, and no member starts after a local
        one has failed.
        """
        is_batch = isinstance(effect, (list, tuple))
        batch = list(effect) if is_batch else [effect]
        if not batch:
            raise ReproError(f"tenant {task.name!r} yielded an empty batch")
        for request in batch:
            if not isinstance(request, OffloadRequest):
                raise ReproError(
                    f"tenant {task.name!r} yielded {request!r}; serving "
                    "tasks must yield OffloadRequest effects (or batches)"
                )
        tenant = task.payload
        ctx = tenant.ctx
        platform = self.platform
        process = ctx.thread.process
        results = [None] * len(batch)
        pending = len(batch)
        failed = False

        def make_done(index, request):
            def done(mctx, result, error):
                nonlocal pending, failed
                if error is None:
                    results[index] = result
                    self._record(tenant, request, mctx.now)
                    pending -= 1
                if failed:
                    return
                task.clock.advance_to(mctx.now)
                if error is not None:
                    failed = True
                    scheduler.throw(task, error)
                elif pending == 0:
                    scheduler.resume(task, results if is_batch else results[0])
            return done

        scheduler.block(task)
        for index, request in enumerate(batch):
            if failed:
                break
            request.arrival_ps = ctx.now
            request.pushed = self.controller.decide(ctx, request, self.pool)
            mctx = platform.context_for(
                platform.spawn_thread(process, name=request.name, start_ps=ctx.now)
            )
            done = make_done(index, request)
            if request.pushed:
                self.pool.submit(QueuedRequest(
                    mctx, request.fn, request.args, request.options,
                    tenant.share, request.name, done,
                ))
                continue
            try:
                result = request.fn(mctx, *request.args)
            except ReproError as exc:
                done(mctx, None, exc)
            else:
                done(mctx, result, None)

    def _record(self, tenant, effect, completed_ps):
        tenant.records.append(RequestRecord(
            effect.name, tenant.name, effect.arrival_ps, completed_ps,
            effect.pushed,
        ))

    # ------------------------------------------------------------------
    # Running and reporting
    # ------------------------------------------------------------------
    def run(self):
        """Drive every tenant to completion; returns a :class:`ServeReport`."""
        if self._ran:
            raise ReproError("server already ran")
        self._ran = True
        if not self.tenants:
            raise ConfigError("no tenants admitted")
        self.scheduler.run()
        return ServeReport(self)


class ServeReport:
    """Throughput, latency percentiles, and accounting of one serving run."""

    def __init__(self, server):
        self.server = server
        self.tenants = list(server.tenants)
        self.records = [
            record for tenant in self.tenants for record in tenant.records
        ]
        self.makespan_ns = to_ns(max(
            (t.finished_ps for t in self.tenants if t.finished_ps is not None),
            default=0,
        ))
        #: Sum over tenants of (finish - arrival): the benchmark's headline.
        self.total_completion_ns = to_ns(sum(t.completion_ps for t in self.tenants))
        self.pushed = sum(1 for r in self.records if r.pushed)
        self.kept_local = len(self.records) - self.pushed

    @property
    def throughput_rps(self):
        """Completed requests per simulated second."""
        if self.makespan_ns <= 0:
            return 0.0
        return len(self.records) / (self.makespan_ns / 1e9)

    def latencies_ns(self, tenant=None):
        return [
            r.latency_ns for r in self.records
            if tenant is None or r.tenant == tenant
        ]

    def latency_table(self):
        """Deterministic per-tenant latency table (byte-stable across runs)."""
        lines = [
            f"{'tenant':<14} {'n':>4} {'pushed':>6} {'p50_ms':>12} "
            f"{'p99_ms':>12} {'mean_ms':>12} {'total_ms':>12}"
        ]
        for tenant in self.tenants:
            latencies = self.latencies_ns(tenant.name)
            if not latencies:
                continue
            pushed = sum(1 for r in tenant.records if r.pushed)
            lines.append(
                f"{tenant.name:<14} {len(latencies):>4} {pushed:>6} "
                f"{_p50(latencies) / 1e6:>12.6f} {_p99(latencies) / 1e6:>12.6f} "
                f"{sum(latencies) / len(latencies) / 1e6:>12.6f} "
                f"{tenant.completion_ns / 1e6:>12.6f}"
            )
        lines.append(
            f"{'ALL':<14} {len(self.records):>4} {self.pushed:>6} "
            f"{_p50(self.latencies_ns()) / 1e6:>12.6f} "
            f"{_p99(self.latencies_ns()) / 1e6:>12.6f} "
            f"{sum(self.latencies_ns()) / len(self.records) / 1e6:>12.6f} "
            f"{self.total_completion_ns / 1e6:>12.6f}"
        )
        return "\n".join(lines) + "\n"

    def queue_delays_ns(self):
        """Per-tenant queueing delay charged by the pool scheduler."""
        pool = self.server.pool
        if pool is None:
            return {}
        return {
            name: share.queue_delay_ns for name, share in pool.shares.items()
        }
