"""Inside the coherence protocol.

Drives the MESI-style page protocol (paper Section 4) directly: a
compute-pool thread and a pushed-down memory-pool thread interleave over a
shared address space while we watch per-page permission states, protocol
messages, tie-breaks, and the effect of the relaxations.

Run:  python examples/coherence_demo.py
"""

import numpy as np

from repro.ddc import make_platform
from repro.micro import MicroSpec, run_micro
from repro.sim.config import scaled_config
from repro.sim.units import MIB
from repro.teleport.coherence import CoherenceProtocol
from repro.teleport.flags import ConsistencyMode


def protocol_walkthrough():
    """Single-page walkthrough of the state machine."""
    platform = make_platform("teleport", scaled_config(8 * MIB))
    process = platform.new_process()
    region = process.alloc_array("shared", np.zeros(4096))
    compute = platform.kernel_for(process)
    vpn = region.start_vpn

    # The compute pool holds the page writable (dirty) before pushdown.
    compute.cache.insert(vpn, writable=True, dirty=True)
    protocol = CoherenceProtocol(platform, process, ConsistencyMode.MESI)
    protocol.setup(compute.resident_snapshot())
    compute.protocol = protocol  # route compute-side faults through it

    def show(step):
        comp, mem = protocol.state_of(vpn)
        print(f"  {step:52s} (compute={comp}, memory={mem})")

    print("state walkthrough for one page (W = writable, R = read-only):")
    show("after setup: compute had it writable")
    protocol.memory_touch(vpn, write=False, now=0.0)
    show("memory pool reads -> compute downgraded, page shared")
    protocol.check_swmr()
    protocol.memory_touch(vpn, write=True, now=10_000.0)
    show("memory pool writes -> compute invalidated")
    protocol.check_swmr()
    compute.touch_runs([vpn], [0], write=True, now=20_000.0)
    show("compute pool writes back -> memory side invalidated")
    protocol.check_swmr()
    print(f"  protocol messages exchanged: {platform.stats.coherence_messages}")


def contention_sweep():
    """The Figure 21/22 effect, in miniature."""
    spec_base = dict(
        mem_space_bytes=32 * MIB,
        n_accesses=10_000,
        ops_per_access=350,
        compute_ops=5_600_000,
        step_size=500,
    )
    config = scaled_config(32 * MIB, cache_ratio=0.02)
    print("\ncontention sweep (execution time and protocol messages):")
    print(f"  {'rate':>9s} {'default':>22s} {'weak-ordering relaxed':>24s}")
    for rate in (0.0001, 0.001, 0.01, 0.05):
        spec = MicroSpec(contention_rate=rate, **spec_base)
        default = run_micro(spec, config, "teleport_coherence")
        relaxed = run_micro(spec, config, "teleport_relaxed")
        print(
            f"  {rate:9.4f} "
            f"{default.total_ns / 1e6:9.2f} ms / {default.coherence_messages:4d} msg "
            f"{relaxed.total_ns / 1e6:10.2f} ms / {relaxed.coherence_messages:4d} msg"
        )
    print("  -> the default protocol pays per contended write; the")
    print("     relaxation trades consistency for flat cost (Section 4.2)")


if __name__ == "__main__":
    protocol_walkthrough()
    contention_sweep()
