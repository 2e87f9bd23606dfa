"""The memory pool's RPC server and TELEPORT instance pool (Section 3.2).

The server maintains a pool of TELEPORT instances, each of which can host
one temporary user context at a time. Requests are dispatched FIFO to the
first free instance; when every instance is busy, requests queue (with a
single instance, concurrent pushdowns serialise, the paper's default).

These instances are the memory pool's only model of its execution slots:
the serving layer's admission queue (:mod:`repro.serve.pool`) reads when
they free up from here.

When more instances run than the memory pool has physical cores, execution
stretches due to time sharing plus a context-switching penalty — the source
of Figure 17's diminishing returns.

For the retry layer the server also keeps per-request-ID execution records:
a retransmitted request whose ID was already executed is answered from the
completion record instead of running the function again, which is what
makes retransmission safe (at-most-once execution).
"""

import math

from repro.errors import ConfigError, ReproError


class RpcServer:
    """Dispatch state of the memory pool's pushdown instances."""

    def __init__(self, config):
        if config.teleport_instances < 1:
            raise ConfigError("need at least one TELEPORT instance")
        self.config = config
        self._free_at = [0.0] * config.teleport_instances
        self.dispatched = 0
        self.cancelled = 0
        #: End time passed to the most recent :meth:`complete`.
        self.last_end_ns = None
        #: request_id -> number of times the function actually executed
        #: (the at-most-once invariant says every value stays <= 1).
        self._executions = {}
        #: Retransmitted requests answered from the completion record.
        self.dedup_replies = 0

    @property
    def instances(self):
        return len(self._free_at)

    def plan(self, arrival_ns):
        """Plan dispatch of a request arriving at ``arrival_ns``.

        Returns ``(instance_index, start_ns, cpu_scale)`` without
        committing, so the caller can still cancel a request that would
        wait in the queue past its timeout (Section 3.2).
        """
        index = min(range(len(self._free_at)), key=self._free_at.__getitem__)
        start_ns = max(arrival_ns, self._free_at[index])
        return index, start_ns, self._cpu_scale(self.busy(start_ns) + 1)

    def commit(self, index, request_id=None):
        """Occupy an instance (it stays busy until :meth:`complete`).

        ``request_id`` records that this ID's function is now executing —
        duplicate deliveries of the same ID must use
        :meth:`replay_response` instead of committing again.
        """
        self._free_at[index] = math.inf
        self.dispatched += 1
        if request_id is not None:
            self._executions[request_id] = self._executions.get(request_id, 0) + 1

    def complete(self, index, end_ns):
        """Mark an instance free at ``end_ns``.

        Completing an instance that is not busy is a bookkeeping bug
        (e.g. ``finish`` and ``abandon`` both tearing the session down),
        so it raises instead of silently rewriting the schedule.
        """
        if not math.isinf(self._free_at[index]):
            raise ReproError(
                f"TELEPORT instance {index} completed twice "
                f"(already free at {self._free_at[index]:.0f}ns)"
            )
        self._free_at[index] = end_ns
        self.last_end_ns = end_ns

    def cancel_queued(self):
        """Record a request removed from the workqueue before starting."""
        self.cancelled += 1

    def replay_response(self, request_id):
        """Serve a retransmitted request from the completion record.

        The function is *not* re-executed: the server recognises the
        duplicate ID and resends the stored reply (at-most-once).
        """
        if self._executions.get(request_id, 0) < 1:
            raise ReproError(f"no completion record for request {request_id!r}")
        self.dedup_replies += 1

    def execution_count(self, request_id):
        """How many times a request ID's function actually ran."""
        return self._executions.get(request_id, 0)

    def execution_counts(self):
        """Copy of the full request-ID -> execution-count map."""
        return dict(self._executions)

    def earliest_free_ns(self):
        return min(self._free_at)

    def busy(self, now):
        """Instances still occupied at ``now``."""
        return sum(1 for t in self._free_at if t > now)

    def _cpu_scale(self, busy):
        cores = self.config.memory_pool_cores
        if busy <= cores:
            return 1.0
        oversub = busy / cores
        return oversub * (1.0 + self.config.context_switch_penalty * (busy - cores))
