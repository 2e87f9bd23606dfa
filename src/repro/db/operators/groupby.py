"""Hash group-by aggregation.

Groups integer keys and aggregates a value vector per group. The grouping
hash table is a real region whose slots are touched with random writes
(the access pattern that matters under disaggregation); the group results
are computed exactly with numpy and materialised as key/value vectors.
"""

import numpy as np

from repro.db.operators.base import Operator, materialize, resolve
from repro.db.operators.hashjoin import hash_slots
from repro.errors import ReproError

_REDUCERS = {
    "sum": lambda values, inverse, n: np.bincount(inverse, weights=values, minlength=n),
    "count": lambda values, inverse, n: np.bincount(inverse, minlength=n).astype(np.float64),
    "min": None,  # handled specially below
    "max": None,
}


class GroupResult:
    """Grouped aggregates: aligned key and value vectors."""

    def __init__(self, keys, values):
        self.keys = keys
        self.values = values
        self.length = len(keys)

    def as_dict(self, ctx):
        """Read the result back as {group key: aggregate}."""
        keys = self.keys.read(ctx)
        values = self.values.read(ctx)
        return dict(zip(keys.tolist(), values.tolist()))

    def __repr__(self):
        return f"GroupResult({self.length} groups)"


class GroupAggregate(Operator):
    kind = "group"

    def __init__(self, keys, values, func, out):
        if func not in _REDUCERS:
            raise ReproError(f"unknown group aggregate {func!r}")
        super().__init__(out=out, label=f"group:{out}")
        self.keys = keys
        self.values = values
        self.func = func

    def run(self, ctx, env):
        key_vec = resolve(env, self.keys)
        value_vec = resolve(env, self.values)
        keys = np.asarray(key_vec.read(ctx))
        values = np.asarray(value_vec.read(ctx), dtype=np.float64)
        if len(keys) != len(values):
            raise ReproError(
                f"{self.label}: keys ({len(keys)}) and values ({len(values)}) differ"
            )
        rows = len(keys)
        group_keys, inverse = (
            np.unique(keys, return_inverse=True) if rows else (np.empty(0, np.int64), None)
        )
        ngroups = len(group_keys)

        # The grouping hash table: one random slot write per input row.
        if rows:
            process = ctx.thread.process
            nslots = max(64, 1 << int(np.ceil(np.log2(max(1, 2 * ngroups)))))
            table = process.alloc_like(
                process.unique_name(f"{self.out}.gidx"), nslots * 2, np.int64
            )
            try:
                slots = hash_slots(keys, nslots) * 2
                ctx.touch_random(table, slots, write=True)
            finally:
                process.free(table)
            # Hash aggregation is CPU-dense: hash, probe, compare keys,
            # accumulate — which is why group is the *least* attractive
            # Q9 operator to push at a low memory-pool clock (Fig. 18).
            ctx.compute(rows * 22)

        aggregates = self._reduce(values, inverse, ngroups)
        return GroupResult(
            keys=materialize(ctx, f"{self.out}.keys", group_keys),
            values=materialize(ctx, f"{self.out}.values", aggregates),
        )

    def _reduce(self, values, inverse, ngroups):
        if ngroups == 0:
            return np.empty(0, dtype=np.float64)
        if self.func in ("sum", "count"):
            return _REDUCERS[self.func](values, inverse, ngroups)
        fill = np.inf if self.func == "min" else -np.inf
        out = np.full(ngroups, fill)
        ufunc = np.minimum if self.func == "min" else np.maximum
        ufunc.at(out, inverse, values)
        return out
