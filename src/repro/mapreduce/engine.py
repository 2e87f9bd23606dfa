"""The MapReduce engine: map-compute, map-shuffle, reduce, merge.

A record is a key counted once; the value bytes it ships to its reducer
are simulated from ``job.value_bytes_per_record`` and never materialised.
The shuffle inserts every emitted record into the destination reduce
task's keyed buffer (Phoenix keeps per-reducer sorted keyval arrays),
which is a scattered-write pattern over the intermediate buffers — the
reason map-shuffle dominates map time in a DDC (95%, Section 5.3) and the
piece worth TELEPORTing.
"""

import numpy as np

from repro.ddc.phases import PhaseRunner
from repro.db.operators.hashjoin import hash_slots
from repro.errors import ReproError


class MapReduceEngine:
    """Runs MapReduce jobs over a token corpus in simulated memory."""

    PHASES = ("map_compute", "map_shuffle", "reduce", "merge")

    def __init__(self, ctx, corpus, n_map_tasks=8, n_reducers=8,
                 pushdown=(), pushdown_options=None):
        if n_map_tasks < 1 or n_reducers < 1:
            raise ReproError("need at least one map task and one reducer")
        self.ctx = ctx
        self.process = ctx.thread.process
        self.n_map_tasks = n_map_tasks
        self.n_reducers = n_reducers
        self._phases = PhaseRunner(ctx, self.PHASES, pushdown, pushdown_options)
        # Loading the input is setup (it sits in the memory pool).
        self.corpus = self.process.alloc_array(
            self.process.unique_name("mr.input"), np.asarray(corpus, np.int32)
        )
        self._buffers = None
        self._buffer_slots = 0

    # ------------------------------------------------------------------
    # Phase plumbing
    # ------------------------------------------------------------------
    @property
    def profiles(self):
        return self._phases.profiles

    def profile(self, name):
        return self._phases.profile(name)

    def total_time_ns(self):
        return self._phases.total_time_ns()

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def run(self, job):
        """Execute ``job``; returns its merged result."""
        n = len(self.corpus)
        bounds = np.linspace(0, n, self.n_map_tasks + 1).astype(np.int64)
        emitted = []
        self._buffers = None
        try:
            for task in range(self.n_map_tasks):
                lo, hi = int(bounds[task]), int(bounds[task + 1])
                keys = self._phases.run(
                    "map_compute", self._map_compute_body, job, lo, hi
                )
                emitted.append(
                    self._phases.run("map_shuffle", self._map_shuffle_body, job, keys)
                )

            partials = [
                self._phases.run(
                    "reduce", self._reduce_body, job, reducer,
                    np.concatenate([buffers[reducer] for buffers in emitted]),
                )
                for reducer in range(self.n_reducers)
            ]
            return self._phases.run("merge", self._merge_body, job, partials)
        finally:
            self._release_buffers()

    # ------------------------------------------------------------------
    # Intermediate buffers: one persistent keyed buffer per reduce task,
    # live for the whole job (as in Phoenix). Their aggregate size tracks
    # the shuffle volume, which is what makes map-shuffle thrash a small
    # compute-local cache.
    # ------------------------------------------------------------------
    def _ensure_buffers(self, job, first_emit_count):
        if self._buffers is not None:
            return
        total_estimate = max(self.n_reducers, first_emit_count * self.n_map_tasks)
        per_reducer = max(64, 2 * total_estimate // self.n_reducers)
        nslots = 1 << int(np.ceil(np.log2(per_reducer)))
        self._buffers = [
            self.process.alloc_like(
                self.process.unique_name(f"mr.buf.{reducer}"), nslots * 2, np.int64
            )
            for reducer in range(self.n_reducers)
        ]
        self._buffer_slots = nslots
        # Value payload areas: records append their value bytes here (a
        # count for WordCount, the whole matching line for Grep).
        payload_elems = max(64, per_reducer * max(1, job.value_bytes_per_record // 8))
        self._payloads = [
            self.process.alloc_like(
                self.process.unique_name(f"mr.val.{reducer}"), payload_elems, np.int64
            )
            for reducer in range(self.n_reducers)
        ]
        self._cursors = [0] * self.n_reducers

    def _release_buffers(self):
        if self._buffers:
            for region in self._buffers:
                self.process.free(region)
            for region in self._payloads:
                self.process.free(region)
        self._buffers = None
        self._payloads = None

    # ------------------------------------------------------------------
    # Phase bodies
    # ------------------------------------------------------------------
    def _map_compute_body(self, ctx, job, lo, hi):
        """Apply the user map function to one input chunk; returns its keys."""
        tokens = ctx.load_slice(self.corpus, lo, hi)
        ctx.compute((hi - lo) * job.map_ops_per_token)
        return job.map_compute(tokens)

    def _map_shuffle_body(self, ctx, job, keys):
        """Scatter emitted records into the reduce tasks' keyed buffers.

        Phoenix inserts every record into the destination reduce task's
        keyed array: one scattered write per record over buffers that stay
        live for the entire job.
        """
        n = len(keys)
        partitions = (
            hash_slots(keys.astype(np.int64), self.n_reducers) if n else np.empty(0, np.int64)
        )
        ctx.compute(n * 4)
        self._ensure_buffers(job, n)
        elems_per_record = max(1, job.value_bytes_per_record // 8)
        buffers = []
        for reducer in range(self.n_reducers):
            mask = partitions == reducer
            r_keys = keys[mask]
            buffers.append(r_keys)
            if len(r_keys) == 0:
                continue
            # Keyed-index inserts: one scattered write per record.
            slots = hash_slots(r_keys.astype(np.int64), self._buffer_slots) * 2
            ctx.touch_random(self._buffers[reducer], slots, write=True)
            # Value payload appends: the record bodies stream into the
            # reducer's buffer (lines for Grep, counts for WordCount).
            payload = self._payloads[reducer]
            cursor = self._cursors[reducer]
            end = min(cursor + len(r_keys) * elems_per_record, len(payload.array))
            if end > cursor:
                ctx.touch_seq(payload, cursor, end, write=True)
                self._cursors[reducer] = end
        return buffers

    def _reduce_body(self, ctx, job, reducer, keys):
        """Count one reduce task's records; returns ``(distinct_keys, counts)``."""
        # The reducer streams its shuffled buffer back in.
        if self._buffers is not None:
            index = self._buffers[reducer]
            ctx.touch_seq(index, 0, len(index.array), write=False)
            filled = self._cursors[reducer]
            if filled:
                ctx.touch_seq(self._payloads[reducer], 0, filled, write=False)
        ctx.compute(len(keys) * job.reduce_ops_per_record)
        return job.reduce(keys)

    def _merge_body(self, ctx, job, partials):
        """Merge the reducers' partial results, charged per distinct key."""
        total = sum(len(keys) for keys, _counts in partials)
        ctx.compute(total * 2)
        return job.merge(partials)
