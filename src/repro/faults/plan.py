"""Fault plans: declarative, reproducible descriptions of what goes wrong.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries plus a seed.
Each spec names a fault kind, a virtual-time window during which it is
armed, and (for message-level faults) a per-message probability drawn from
the plan's seeded RNG. Because the simulation itself is deterministic, the
same plan and seed always produce the same sequence of injected faults,
the same virtual-time outcomes, and the same statistics — which is what
makes the fault matrix testable at all.

The kinds mirror the failure sources of paper Section 3.2:

* ``DROP_REQUEST`` / ``DROP_RESPONSE`` — a pushdown request or reply is
  lost on the fabric; the caller's retransmission timer fires.
* ``RPC_FAULT`` — the memory pool's RPC server transiently rejects the
  request (indistinguishable from a request drop to the caller).
* ``DELAY`` — fabric congestion: messages in the window pay extra latency.
* ``DEGRADE`` — the memory pool's controller CPU is slowed by ``factor``
  (thermal throttling, a noisy neighbour) for the window's duration.
* ``PARTITION`` — a transient network partition: no message crosses the
  fabric during the window; heartbeats inside it are missed.
* ``CRASH`` — hard memory-pool death at ``start_ns``; heartbeats are
  missed forever after, so loss is eventually confirmed (kernel panic).
"""

import enum
import math
from dataclasses import dataclass, field

from repro.errors import ConfigError


class FaultKind(enum.Enum):
    """What a :class:`FaultSpec` injects."""

    DROP_REQUEST = "drop_request"
    DROP_RESPONSE = "drop_response"
    RPC_FAULT = "rpc_fault"
    DELAY = "delay"
    DEGRADE = "degrade"
    PARTITION = "partition"
    CRASH = "crash"


@dataclass(frozen=True)
class FaultSpec:
    """One fault source, armed during ``[start_ns, end_ns)``."""

    kind: FaultKind
    start_ns: float = 0.0
    end_ns: float = math.inf
    #: Per-message probability that an armed message-level fault fires.
    #: Structural faults (PARTITION, DEGRADE, CRASH) ignore it.
    probability: float = 1.0
    #: Extra one-way latency added by a DELAY fault.
    delay_ns: float = 0.0
    #: Clock-stretch multiplier of a DEGRADE fault (2.0 = half speed).
    factor: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, FaultKind):
            raise ConfigError(f"kind must be a FaultKind, got {self.kind!r}")
        # Each check is written so that NaN fails it.
        if not self.start_ns >= 0:
            raise ConfigError(f"start_ns must be non-negative, got {self.start_ns}")
        if not self.end_ns > self.start_ns:
            raise ConfigError(
                f"fault window is empty: [{self.start_ns}, {self.end_ns})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"probability must be in [0, 1], got {self.probability}")
        if not self.delay_ns >= 0:
            raise ConfigError(f"delay_ns must be non-negative, got {self.delay_ns}")
        if not self.factor >= 1.0:
            raise ConfigError(f"degrade factor must be >= 1, got {self.factor}")
        if self.kind is FaultKind.DELAY and self.delay_ns <= 0:
            raise ConfigError("DELAY faults need a positive delay_ns")

    def active_at(self, now):
        """True if the spec is armed at virtual time ``now``."""
        return self.start_ns <= now < self.end_ns


@dataclass
class FaultPlan:
    """A reproducible set of fault specs plus the RNG seed that drives them."""

    specs: tuple = ()
    seed: int = 2022

    def __post_init__(self):
        self.specs = tuple(self.specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigError(f"FaultPlan entries must be FaultSpec, got {spec!r}")

    def of_kind(self, kind):
        """All specs of one kind, in declaration order."""
        return tuple(spec for spec in self.specs if spec.kind is kind)


# ----------------------------------------------------------------------
# Convenience constructors (the usual way plans are written)
# ----------------------------------------------------------------------
def drop_requests(probability=1.0, start_ns=0.0, end_ns=math.inf):
    """Lose pushdown request messages with ``probability`` in the window."""
    return FaultSpec(FaultKind.DROP_REQUEST, start_ns, end_ns, probability)


def drop_responses(probability=1.0, start_ns=0.0, end_ns=math.inf):
    """Lose pushdown response messages with ``probability`` in the window."""
    return FaultSpec(FaultKind.DROP_RESPONSE, start_ns, end_ns, probability)


def rpc_faults(probability=1.0, start_ns=0.0, end_ns=math.inf):
    """Transient RPC-server failures (retryable, like a request drop)."""
    return FaultSpec(FaultKind.RPC_FAULT, start_ns, end_ns, probability)


def delay_messages(delay_ns, probability=1.0, start_ns=0.0, end_ns=math.inf):
    """Add ``delay_ns`` of congestion latency to messages in the window."""
    return FaultSpec(
        FaultKind.DELAY, start_ns, end_ns, probability, delay_ns=delay_ns
    )


def degrade(factor, start_ns=0.0, end_ns=math.inf):
    """Stretch the memory pool's clock by ``factor`` during the window."""
    return FaultSpec(FaultKind.DEGRADE, start_ns, end_ns, factor=factor)


def partition(start_ns, end_ns):
    """Transient network partition: nothing crosses the fabric in the window."""
    return FaultSpec(FaultKind.PARTITION, start_ns, end_ns)


def crash(at_ns=0.0):
    """Hard memory-pool death at ``at_ns`` (never recovers)."""
    return FaultSpec(FaultKind.CRASH, at_ns if at_ns > 0 else 0.0, math.inf)
