"""Property tests of the swap device's range paths against page-by-page
references: range admission of fresh pages into the LRU, and a sequential
stream with readahead."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.storage import SwapDevice
from repro.sim.config import DdcConfig
from repro.sim.stats import Stats

CONFIG = DdcConfig()

#: Pages the prefill touches; fresh ranges start above them.
TOUCHED_VPNS = st.integers(0, 60)


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


def prefilled(capacity, touches, config=CONFIG):
    """A device whose LRU holds a mix of clean and dirty pages."""
    device = SwapDevice(config, Stats(), capacity)
    for vpn, dirty in touches:
        device.touch(vpn, dirty=dirty)
    return device


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 24),
    touches=st.lists(st.tuples(TOUCHED_VPNS, st.booleans()), max_size=40),
    start_vpn=st.integers(61, 80),
    npages=st.integers(1, 60),
)
# Fresh range longer than the LRU: it evicts every old page, then its own first pages.
@example(capacity=4, touches=[(0, True), (1, False), (2, True)], start_vpn=10, npages=9)
def test_admit_new_range_matches_page_by_page(capacity, touches, start_vpn, npages):
    device = prefilled(capacity, touches)
    reference = prefilled(capacity, touches)

    device.admit_new_range(start_vpn, npages)
    admit_page_by_page(reference, start_vpn, npages)

    assert list(device._resident.items()) == list(reference._resident.items())
    assert device.stats.as_dict() == reference.stats.as_dict()


def touch_range_page_by_page(device, start_vpn, npages, dirty):
    """Reference on a list LRU: the stream's pages one at a time, in order.

    A resident page is a hit: it moves to MRU and a write dirties it. An
    absent page is read; if it lies past the current readahead window, it
    opens a new window (one fault) of ``ssd_readahead_pages`` pages. Each
    read evicts the LRU page once the device is over capacity, and a dirty
    victim is written back. Returns (cost, LRU items, last fault vpn).
    """
    config = device.config
    order = list(device._resident)
    dirty_of = dict(device._resident)
    end = start_vpn + npages
    cost = 0
    windows = []  # [first vpn, pages read]
    for vpn in range(start_vpn, end):
        if vpn in dirty_of:
            order.remove(vpn)
            order.append(vpn)
            dirty_of[vpn] = dirty_of[vpn] or dirty
            continue
        if not windows or vpn >= min(windows[-1][0] + config.ssd_readahead_pages, end):
            windows.append([vpn, 0])
        windows[-1][1] += 1
        order.append(vpn)
        dirty_of[vpn] = dirty
        if len(order) > device.capacity_pages:
            if dirty_of.pop(order.pop(0)):
                device.stats.storage_pages_out += 1
                cost += config.transfer_ps(config.page_size, config.ssd_bandwidth_bytes_per_ns)
    last = device._last_fault_vpn
    for first, reads in windows:
        sequential = last is not None and first == last + 1
        cost += config.ssd_fault_ps(reads, sequential=sequential)
        device.stats.storage_faults += 1
        device.stats.storage_pages_in += reads
        last = min(first + config.ssd_readahead_pages, end) - 1
    return cost, [(vpn, dirty_of[vpn]) for vpn in order], last


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 24),
    readahead=st.integers(1, 8),
    touches=st.lists(st.tuples(TOUCHED_VPNS, st.booleans()), max_size=40),
    start_vpn=st.integers(0, 70),
    npages=st.integers(0, 40),
    dirty=st.booleans(),
)
# A read window covering a dirty resident page (it stays dirty and is not read).
@example(capacity=100, readahead=4, touches=[(2, True)], start_vpn=0, npages=4, dirty=False)
# A window longer than the LRU evicts its own resident page before reaching it.
@example(capacity=2, readahead=4, touches=[(2, False)], start_vpn=0, npages=4, dirty=True)
def test_touch_range_matches_page_by_page(capacity, readahead, touches, start_vpn, npages, dirty):
    config = DdcConfig(ssd_readahead_pages=readahead)
    device = prefilled(capacity, touches, config)
    reference = prefilled(capacity, touches, config)

    cost = device.touch_range(start_vpn, npages, dirty=dirty)
    expected_cost, expected_lru, expected_last = touch_range_page_by_page(
        reference, start_vpn, npages, dirty
    )

    assert cost == expected_cost
    assert list(device._resident.items()) == expected_lru
    assert device.stats.as_dict() == reference.stats.as_dict()
    assert device._last_fault_vpn == expected_last


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    readahead=st.integers(1, 8),
    start_vpn=st.integers(0, 40),
    npages=st.integers(1, 30),
    others=st.lists(TOUCHED_VPNS, max_size=20),
    last_absent=st.booleans(),
    slack=st.sampled_from([0, 1, 8]),
    dirty=st.booleans(),
)
# Only the last page is absent and the device is full: its fault evicts the
# oldest page outside the range.
@example(data=None, readahead=4, start_vpn=0, npages=4, others=[9], last_absent=True,
         slack=0, dirty=False)
def test_touch_range_over_resident_pages_matches_page_by_page(
    data, readahead, start_vpn, npages, others, last_absent, slack, dirty
):
    """A range the device holds whole, or all but its last page, prefilled
    in a drawn LRU order with drawn dirty bits (clean and dirty streams):
    the hits are served in one pass, and everything must match the
    page-by-page reference."""
    span = range(start_vpn, start_vpn + npages)
    pages = sorted((set(span) | set(others)) - ({span[-1]} if last_absent else set()))
    if data is None:
        order, bits = pages, [True] * len(pages)
    else:
        order = data.draw(st.permutations(pages))
        bits = data.draw(st.lists(st.booleans(), min_size=len(pages), max_size=len(pages)))
    touches = list(zip(order, bits))
    config = DdcConfig(ssd_readahead_pages=readahead)
    capacity = len(pages) + slack
    device = prefilled(capacity, touches, config)
    reference = prefilled(capacity, touches, config)
    assert device.resident_pages == len(pages)

    cost = device.touch_range(start_vpn, npages, dirty=dirty)
    expected_cost, expected_lru, expected_last = touch_range_page_by_page(
        reference, start_vpn, npages, dirty
    )

    assert cost == expected_cost
    assert list(device._resident.items()) == expected_lru
    assert device.stats.as_dict() == reference.stats.as_dict()
    assert device._last_fault_vpn == expected_last
