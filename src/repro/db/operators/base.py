"""Operator base class and plan-environment plumbing."""

import numpy as np

from repro.db.table import Table
from repro.db.vector import Vector
from repro.errors import ReproError


class Operator:
    """One physical operator of a plan.

    Subclasses implement :meth:`run`, which does the real computation over
    numpy data while charging costs through the execution context. The
    executor stores the return value under ``self.out`` in the environment.
    """

    #: Operator kind for breakdowns (Figure 10 groups by this).
    kind = "operator"

    def __init__(self, out=None, label=None):
        self.out = out
        self.label = label or f"{self.kind}:{out or 'sink'}"

    def run(self, ctx, env):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.label!r})"


class JoinResult:
    """Matching row positions produced by a join.

    ``build`` / ``probe`` are vectors of positions into the respective join
    inputs; downstream projections gather payload columns through them.
    """

    def __init__(self, build, probe):
        self.build = build
        self.probe = probe
        self.length = len(build)

    def __repr__(self):
        return f"JoinResult({self.length} matches)"


def resolve(env, key):
    """Resolve an environment reference.

    Plain keys index the environment directly; dotted keys traverse one
    attribute (e.g. ``"j1.probe"`` is the probe side of join ``j1``).
    """
    if not isinstance(key, str):
        return key  # already a concrete object (Column, Vector, ...)
    base, dot, attr = key.partition(".")
    try:
        value = env[base]
    except KeyError:
        raise ReproError(f"plan references unknown result {base!r}") from None
    if dot:
        value = getattr(value, attr, None)
        if value is None:
            raise ReproError(f"{base!r} has no attribute {attr!r}")
    return value


def read_source(ctx, env, source, candidates_key=None):
    """Read a column/vector, optionally through a candidate list.

    ``source`` is a Vector/Column or an environment key to one; the
    candidate list, if given, selects positions (MonetDB's candidate
    lists). Returns (values, positions_or_None).
    """
    vector = resolve(env, source)
    if isinstance(vector, Table):
        raise ReproError(
            f"operator source {source!r} resolved to a table; name a column instead"
        )
    if candidates_key is None:
        return vector.read(ctx), None
    candidates = resolve(env, candidates_key)
    positions = candidates.read(ctx)
    return vector.gather(ctx, positions), positions


def materialize(ctx, name, values):
    """Materialise values as a fresh Vector in the calling process."""
    process = ctx.thread.process
    return Vector.materialize(ctx, process, name, np.asarray(values))
