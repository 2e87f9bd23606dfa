"""The query executor: runs plans, profiles operators, applies pushdown.

This is where TELEPORT meets the DBMS (Section 5.1): each operator can be
run inline in the compute pool or wrapped in a single ``pushdown`` call —
"applying TELEPORT only involved the selective wrapping of existing
function calls". Which operators are wrapped is the executor's
``pushdown`` argument: nothing (base execution), everything, an explicit
set of labels/kinds, or a planner-provided predicate.
"""

from dataclasses import dataclass

from repro.db.plan import PhysicalPlan
from repro.errors import ReproError
from repro.sim.units import SEC, to_ns


@dataclass
class OperatorProfile:
    """Measured execution profile of one operator instance."""

    label: str
    kind: str
    time_ns: float
    remote_pages: int
    remote_bytes: int
    storage_faults: int
    pushed_down: bool

    @property
    def time_s(self):
        return self.time_ns / SEC

    @property
    def memory_intensity(self):
        """Remote memory accesses per second (the Section 7.4 metric)."""
        if self.time_ns <= 0:
            return 0.0
        return self.remote_pages / self.time_s


@dataclass
class QueryResult:
    """Outcome of executing a plan."""

    plan_name: str
    value: object
    time_ns: float
    profiles: list
    env: dict

    def breakdown_by_kind(self):
        """Total time per operator kind (Figure 10 style)."""
        kinds = {}
        for profile in self.profiles:
            kinds[profile.kind] = kinds.get(profile.kind, 0.0) + profile.time_ns
        return kinds


class QueryExecutor:
    """Runs physical plans on an execution context."""

    def __init__(self, ctx, pushdown=None, pushdown_options=None):
        self.ctx = ctx
        self._predicate = _pushdown_predicate(pushdown)
        self.pushdown_options = pushdown_options or {}

    def execute(self, plan, env=None):
        """Execute ``plan``; returns a :class:`QueryResult`."""
        if not isinstance(plan, PhysicalPlan):
            raise ReproError(f"expected a PhysicalPlan, got {type(plan).__name__}")
        ctx = self.ctx
        env = dict(env or {})
        profiles = []
        start = ctx.now
        stats = ctx.stats
        for op in plan.operators:
            pages_before = stats.remote_pages_in + stats.remote_pages_out
            faults_before = stats.storage_faults
            t0 = ctx.now
            push = self._predicate(op)
            if push:
                value = ctx.pushdown(op.run, env, **self.pushdown_options)
            else:
                value = op.run(ctx, env)
            if op.out is not None:
                env[op.out] = value
            remote_pages = stats.remote_pages_in + stats.remote_pages_out - pages_before
            profiles.append(
                OperatorProfile(
                    label=op.label,
                    kind=op.kind,
                    time_ns=to_ns(ctx.now - t0),
                    remote_pages=remote_pages,
                    remote_bytes=remote_pages * ctx.config.page_size,
                    storage_faults=stats.storage_faults - faults_before,
                    pushed_down=push,
                )
            )
        value = env.get(plan.result) if plan.result is not None else None
        return QueryResult(
            plan_name=plan.name,
            value=value,
            time_ns=to_ns(ctx.now - start),
            profiles=profiles,
            env=env,
        )


def _pushdown_predicate(pushdown):
    """Normalise the pushdown spec into a predicate over operators."""
    if pushdown is None or pushdown is False:
        return lambda op: False
    if pushdown == "all" or pushdown is True:
        return lambda op: True
    if callable(pushdown):
        return pushdown
    try:
        wanted = set(pushdown)
    except TypeError:
        raise ReproError(
            f"pushdown must be None, 'all', a set of labels/kinds, or a callable; "
            f"got {pushdown!r}"
        ) from None
    return lambda op: op.label in wanted or op.kind in wanted or op.out in wanted
