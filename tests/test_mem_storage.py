"""Tests for the NVMe swap device model."""

import pytest

from repro.mem.storage import SwapDevice
from repro.sim.config import DdcConfig
from repro.sim.stats import Stats


def make_device(capacity_pages, **overrides):
    config = DdcConfig(**overrides) if overrides else DdcConfig()
    stats = Stats()
    return SwapDevice(config, stats, capacity_pages), stats


def test_admit_new_makes_page_resident_for_free():
    device, stats = make_device(10)
    device.admit_new_range(1, 1)
    assert 1 in device
    assert stats.storage_faults == 0
    assert device.touch(1) == 0.0


def test_touch_miss_pays_fault():
    device, stats = make_device(10)
    cost = device.touch(5)
    assert cost > 0
    assert stats.storage_faults == 1
    assert 5 in device


def test_touch_hit_is_free():
    device, stats = make_device(10)
    device.touch(5)
    assert device.touch(5) == 0.0
    assert stats.storage_faults == 1


def test_sequential_faults_cheaper_than_random():
    seq_device, _ = make_device(100)
    seq_cost = sum(seq_device.touch(v) for v in range(10))
    rand_device, _ = make_device(100)
    rand_cost = sum(rand_device.touch(v) for v in [0, 50, 3, 77, 20, 91, 5, 63, 40, 11])
    assert seq_cost < rand_cost


def test_lru_eviction_when_over_capacity():
    device, _ = make_device(2)
    device.touch(1)
    device.touch(2)
    device.touch(3)
    assert 1 not in device
    assert 2 in device and 3 in device


def test_dirty_eviction_charged_and_counted():
    device, stats = make_device(1)
    device.touch(1, dirty=True)
    cost = device.touch(2)
    # Fault cost plus the write-back of dirty victim 1.
    plain_device, _ = make_device(10)
    plain_device.touch(0)  # align sequential detection
    baseline = plain_device.touch(2)
    assert cost > 0
    assert stats.storage_pages_out == 1


def test_touch_range_uses_readahead():
    device, stats = make_device(1000)
    cost_range = device.touch_range(0, 64)
    other, other_stats = make_device(1000)
    cost_single = sum(other.touch(v) for v in range(64))
    assert cost_range <= cost_single
    assert stats.storage_pages_in == 64
    # Readahead means far fewer fault events than pages.
    assert stats.storage_faults < 64


def test_touch_range_hits_are_free():
    device, stats = make_device(1000)
    device.touch_range(0, 16)
    faults_before = stats.storage_faults
    assert device.touch_range(0, 16) == 0.0
    assert stats.storage_faults == faults_before


def test_touch_range_serves_resident_window_pages_as_hits():
    # Page 2 is resident and dirty when a read stream's readahead window
    # [0, 4) covers it: it is a hit in stream order, stays dirty and is not
    # read again.
    device, stats = make_device(100, ssd_readahead_pages=4)
    device.touch(2, dirty=True)
    device.touch_range(0, 4)
    assert list(device._resident.items()) == [(0, False), (1, False), (2, True), (3, False)]
    assert stats.storage_pages_in == 4
    assert stats.storage_faults == 2


def test_resident_pages_bounded_by_capacity():
    device, _ = make_device(8)
    device.touch_range(0, 100)
    assert device.resident_pages <= 8


def test_capacity_minimum_is_one():
    device, _ = make_device(0)
    assert device.capacity_pages == 1


def test_write_back_dirties_resident_page_in_place():
    device, stats = make_device(3)
    for vpn in (1, 2, 3):
        device.touch(vpn)
    assert device.write_back([2]) == 0
    assert list(device._resident.items()) == [(1, False), (2, True), (3, False)]
    assert stats.storage_faults == 3


def test_write_back_admits_absent_page_dirty_without_a_read():
    device, stats = make_device(2)
    device.touch(9)
    device.touch(1, dirty=True)
    device.touch(2)  # spills page 9, clean
    cost = device.write_back([9])
    # Page 9 is admitted dirty at MRU, displacing dirty page 1 to storage.
    assert list(device._resident.items()) == [(2, False), (9, True)]
    assert cost > 0
    assert (stats.storage_faults, stats.storage_pages_in, stats.storage_pages_out) == (3, 3, 1)


def test_all_dirty_until_a_clean_admission_or_a_spill():
    device, _stats = make_device(4)
    device.admit_new_range(0, 3)
    device.touch(5, dirty=True)
    assert device.all_dirty
    # Every admitted page is resident and dirty: a write-back is a no-op.
    assert device.write_back([0, 5]) == 0
    assert list(device._resident.items()) == [(0, True), (1, True), (2, True), (5, True)]
    device.touch(7)  # a read fault admits page 7 clean
    assert not device.all_dirty
    allocated, _ = make_device(4)
    allocated.admit_new_range(0, 5)  # page 0 never fits
    assert not allocated.all_dirty
    written, _ = make_device(2)
    for vpn in (1, 2, 3):
        written.touch(vpn, dirty=True)  # page 1 spills, dirty
    assert not written.all_dirty
    written.write_back([1])
    assert list(written._resident.items()) == [(3, True), (1, True)]
