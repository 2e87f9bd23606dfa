"""Property test: range admission of fresh pages into the swap device's LRU
against admitting them one page at a time."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.storage import SwapDevice
from repro.sim.config import DdcConfig
from repro.sim.stats import Stats

CONFIG = DdcConfig()


def admit_page_by_page(device, start_vpn, npages):
    """Reference: each page inserted dirty, then LRU victims evicted down to
    capacity, counting a page-out per dirty victim."""
    resident = device._resident
    for vpn in range(start_vpn, start_vpn + npages):
        resident[vpn] = True
        while len(resident) > device.capacity_pages:
            _victim, dirty = resident.popitem(last=False)
            if dirty:
                device.stats.storage_pages_out += 1


def prefilled(capacity, touches):
    """A device whose LRU holds a mix of clean and dirty pages."""
    device = SwapDevice(CONFIG, Stats(), capacity)
    for vpn, dirty in touches:
        device.touch(vpn, dirty=dirty)
    return device


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 24),
    touches=st.lists(st.tuples(st.integers(0, 60), st.booleans()), max_size=40),
    start_vpn=st.integers(0, 80),
    npages=st.integers(1, 60),
)
# Fresh range longer than the LRU: it evicts every old page, then its own first pages.
@example(capacity=4, touches=[(0, True), (1, False), (2, True)], start_vpn=10, npages=9)
# Range overlapping resident pages, some clean and some dirty.
@example(capacity=5, touches=[(3, False), (4, True), (9, False)], start_vpn=2, npages=6)
def test_admit_new_range_matches_page_by_page(capacity, touches, start_vpn, npages):
    device = prefilled(capacity, touches)
    reference = prefilled(capacity, touches)

    device.admit_new_range(start_vpn, npages)
    admit_page_by_page(reference, start_vpn, npages)

    assert list(device._resident.items()) == list(reference._resident.items())
    assert device.stats.as_dict() == reference.stats.as_dict()
