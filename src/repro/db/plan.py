"""Physical query plans."""

from repro.errors import ReproError


class PhysicalPlan:
    """An ordered list of operators with a designated result key.

    Operators execute in order (operator-at-a-time), reading from and
    writing to a shared environment. The plan is deliberately simple — the
    paper's pushdown decisions are per-operator, and this is the unit the
    executor and intensity planner work with.
    """

    def __init__(self, name, operators, result, description=""):
        if not operators:
            raise ReproError(f"plan {name!r} has no operators")
        labels = [op.label for op in operators]
        if len(set(labels)) != len(labels):
            raise ReproError(f"plan {name!r} has duplicate operator labels: {labels}")
        self.name = name
        self.operators = list(operators)
        self.result = result
        self.description = description

    def __len__(self):
        return len(self.operators)

    def explain(self, pushdown=None):
        """Human-readable plan listing (EXPLAIN).

        ``pushdown`` — the executor's pushdown spec — marks which
        operators would run in the memory pool.
        """
        from repro.db.executor import _pushdown_predicate

        predicate = _pushdown_predicate(pushdown)
        lines = [f"plan {self.name!r} -> {self.result!r}"]
        if self.description:
            lines.append(f"  -- {self.description.strip()}")
        for index, op in enumerate(self.operators, start=1):
            place = "memory pool " if predicate(op) else "compute pool"
            out = f" -> {op.out}" if op.out is not None else ""
            lines.append(f"  {index:3d}. [{place}] {op.label}{out}")
        return "\n".join(lines)

    def __repr__(self):
        return f"PhysicalPlan({self.name!r}, {len(self.operators)} operators)"
