"""Per-page reference of the temporary context's setup and memory-side
streams.

This is the coherence protocol as it did both one page at a time:
``setup`` took its own copy of each resident page's PTE and invalidated
or downgraded it (Figure 8), and a memory-side sequential pass made one
:meth:`~repro.teleport.coherence.CoherenceProtocol.memory_touch` per
page. The property tests and the figure-scale check run these side by
side with :class:`repro.teleport.coherence.CoherenceProtocol`, whose
shared held PTEs and quiet-page path must agree with them exactly.
"""


def setup(protocol, resident):
    """Build ``t_mm`` with one owned PTE per mapped resident page."""
    protocol.t_mm = protocol.full_table.snapshot()
    for vpn, writable in resident:
        pte = protocol.t_mm.get(vpn)
        if pte is not None:
            protocol._invalidate(pte, write=writable)
    if protocol.sanitizer is not None:
        protocol.sanitizer.swmr_transition(protocol, "setup")
    config = protocol.config
    return config.context_base_ps + config.pte_clone_ps * len(resident)


def touch_sequential(protocol, start_vpn, npages, write, now):
    """A memory-side sequential pass: one ``memory_touch`` per page."""
    cost = 0
    for vpn in range(start_vpn, start_vpn + npages):
        cost += protocol.memory_touch(vpn, write, now + cost)
    protocol.stats.memory_side_page_touches += npages
    return cost + npages * protocol.config.dram_page_ps
