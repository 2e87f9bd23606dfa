"""The query executor: runs plans, profiles operators, applies pushdown.

This is where TELEPORT meets the DBMS (Section 5.1): each operator can be
run inline in the compute pool or wrapped in a single ``pushdown`` call —
"applying TELEPORT only involved the selective wrapping of existing
function calls". Each operator runs as one step of a
:class:`~repro.ddc.phases.PhaseRunner` (its label as the name, its kind as
the kind), which profiles it and wraps the ones the executor's
``pushdown`` selects: nothing (base execution), everything, or an
explicit set of labels/kinds.
"""

from dataclasses import dataclass

from repro.db.plan import PhysicalPlan
from repro.ddc.phases import PhaseRunner
from repro.errors import ReproError
from repro.sim.units import to_ns


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

    def __init__(self, ctx, pushdown=None):
        self.ctx = ctx
        self.steps = PhaseRunner(ctx, pushdown=pushdown)

    def execute(self, plan, env=None):
        """Execute ``plan``; returns a :class:`QueryResult`."""
        if not isinstance(plan, PhysicalPlan):
            raise ReproError(f"expected a PhysicalPlan, got {type(plan).__name__}")
        ctx = self.ctx
        env = dict(env or {})
        steps = self.steps
        steps.profiles.clear()
        start = ctx.now
        for op in plan.operators:
            value = steps.run(op.label, op.run, env, kind=op.kind)
            if op.out is not None:
                env[op.out] = value
        value = env.get(plan.result) if plan.result is not None else None
        return QueryResult(
            plan_name=plan.name,
            value=value,
            time_ns=to_ns(ctx.now - start),
            profiles=list(steps.profiles.values()),
            env=env,
        )
