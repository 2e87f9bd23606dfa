"""Pushdown flags: consistency relaxations and synchronisation methods.

These correspond to the optional ``flags`` parameter of the ``pushdown``
syscall (Section 3.1) and the relaxations of Section 4.2.
"""

import enum
from dataclasses import dataclass

from repro.sim.units import to_ps


class ConsistencyMode(enum.Enum):
    """How coherence is maintained during pushdown."""

    #: Default: MESI-style write-invalidate protocol (Section 4.1). The
    #: Single-Writer-Multiple-Reader invariant holds at all times.
    MESI = "mesi"
    #: Partial Store Ordering relaxation: when the other pool requests
    #: write permission, demote the holder to read-only instead of removing
    #: the page. Write serialisation per location is kept; write
    #: propagation is relaxed (Section 4.2).
    PSO = "pso"
    #: Weak ordering: no per-access coherence traffic; data is synchronised
    #: only at explicit points (pushdown boundaries / syncmem). Avoids
    #: contention between writers entirely (Section 7.6).
    WEAK = "weak"
    #: Coherence disabled: the user manually synchronises with syncmem
    #: (used e.g. to handle false sharing, Figure 7).
    OFF = "off"


class SyncMethod(enum.Enum):
    """How compute-pool state is synchronised around a pushdown."""

    #: Default: transfer nothing up front; keep the pools coherent with
    #: on-demand page-fault-driven synchronisation (Section 4.1).
    ON_DEMAND = "on_demand"
    #: Strawman (Figure 20): flush every dirty page and clear the compute
    #: cache before pushdown; page-by-page refetch everything afterwards.
    EAGER = "eager"
    #: Figure 6's per-thread ablation: flush + evict only the regions the
    #: pushed thread uses (``sync_regions``); no online coherence.
    EAGER_REGIONS = "eager_regions"


class TimeoutAction(enum.Enum):
    """What the caller does when ``timeout_ns`` expires (Section 3.2).

    On expiry the caller issues ``try_cancel``. Cancellation *succeeds* if
    the request was still queued or the function was still running when the
    cancel arrived, and *fails* if the function completed first.
    """

    #: Default: raise :class:`~repro.errors.PushdownTimeout`, with
    #: ``cancelled`` reporting the try_cancel outcome. The caller decides
    #: whether to re-run the function locally.
    RAISE = "raise"
    #: Cancel success -> automatically re-execute the function on the
    #: compute pool (requires an idempotent function, as does the paper's
    #: cancel-then-run-locally recipe); cancel failure -> accept the late
    #: remote result.
    FALLBACK = "fallback"
    #: Never cancel: ignore the expiry and wait for the remote result.
    WAIT = "wait"


@dataclass(frozen=True)
class PushdownOptions:
    """Bundle of per-call pushdown options (the syscall's ``flags``)."""

    consistency: ConsistencyMode = ConsistencyMode.MESI
    sync: SyncMethod = SyncMethod.ON_DEMAND
    #: Caller-side timeout; None blocks indefinitely (the paper's default).
    timeout_ns: float | None = None
    #: Regions to flush/evict for SyncMethod.EAGER_REGIONS.
    sync_regions: tuple = ()
    #: Reaction to an expired timeout (try_cancel semantics).
    on_timeout: TimeoutAction = TimeoutAction.RAISE

    DEFAULT = None  # set below

    def deadline_ps(self, start_ps):
        """When a call made at ``start_ps`` times out: the instant the
        caller issues try_cancel, or None if it never does (no timeout, or
        ``TimeoutAction.WAIT``)."""
        if self.timeout_ns is None or self.on_timeout is TimeoutAction.WAIT:
            return None
        return start_ps + to_ps(self.timeout_ns)


# Frozen default instance, analogous to passing flags=0 to the syscall.
PushdownOptions.DEFAULT = PushdownOptions()
