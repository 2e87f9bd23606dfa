"""Per-page reference of the swap device's sequential stream.

This is :meth:`repro.mem.storage.SwapDevice.touch_range` as it would run
one page at a time: a resident page is a hit (it moves to MRU, and a
write dirties it), and an absent page past the current readahead window
opens a new window, one fault, whose absent pages are read in order. The
figure-scale check patches it in for the device's method, whose batched
hits (:meth:`~repro.mem.storage.SwapDevice.touch_resident`) must agree
with it exactly.
"""


def touch_range(device, start_vpn, npages, dirty=False):
    """Access consecutive pages in order; returns total fault cost."""
    resident = device._resident
    config = device.config
    end = start_vpn + npages
    total = 0
    windows = []  # [first vpn, pages read], in stream order
    for vpn in range(start_vpn, end):
        if vpn in resident:
            resident.move_to_end(vpn)
            if dirty:
                resident[vpn] = True
            continue
        if not windows or vpn >= min(windows[-1][0] + config.ssd_readahead_pages, end):
            windows.append([vpn, 0])
        windows[-1][1] += 1
        total += device._admit(vpn, dirty)
    for first, reads in windows:
        last = device._last_fault_vpn
        total += config.ssd_fault_ps(reads, sequential=last is not None and first == last + 1)
        device.stats.storage_faults += 1
        device.stats.storage_pages_in += reads
        device._last_fault_vpn = min(first + config.ssd_readahead_pages, end) - 1
    return total
