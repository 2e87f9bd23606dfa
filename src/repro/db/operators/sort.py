"""Sort-permutation and Top-N operators."""

import math

import numpy as np

from repro.db.operators.base import Operator, materialize, resolve
from repro.db.operators.groupby import GroupResult


class SortPermutation(Operator):
    """Materialise the permutation that orders a vector.

    Downstream projections gather the result columns through the
    permutation — the physical shape of ORDER BY over a projection query.
    """

    kind = "sort"

    def __init__(self, source, out, descending=False, limit=None):
        super().__init__(out=out, label=f"sortperm:{out}")
        self.source = source
        self.descending = descending
        self.limit = limit

    def run(self, ctx, env):
        vector = resolve(env, self.source)
        values = np.asarray(vector.read(ctx))
        n = len(values)
        ctx.compute(int(3 * n * max(1.0, math.log2(max(2, n)))))
        order = np.argsort(values, kind="stable")
        if self.descending:
            order = order[::-1]
        if self.limit is not None:
            order = order[: self.limit]
        return materialize(ctx, self.out, np.ascontiguousarray(order.astype(np.int64)))


class TopN(Operator):
    """Top-N of a grouped result by aggregate value (e.g. Q3's top 10).

    Returns a plain list of (key, value) pairs — a result-set-sized object
    handed back to the client, not a materialised vector.
    """

    kind = "topn"

    def __init__(self, source, n, out):
        super().__init__(out=out, label=f"topn:{n}")
        self.source = source
        self.n = n

    def run(self, ctx, env):
        grouped = resolve(env, self.source)
        if isinstance(grouped, GroupResult):
            keys = grouped.keys.read(ctx)
            values = grouped.values.read(ctx)
        else:
            values = np.asarray(grouped.read(ctx))
            keys = np.arange(len(values))
        n = len(values)
        ctx.compute(int(2 * n * max(1.0, math.log2(max(2, self.n + 1)))))
        take = min(self.n, n)
        order = np.argsort(values, kind="stable")[::-1][:take]
        return [(int(keys[i]), float(values[i])) for i in order]
