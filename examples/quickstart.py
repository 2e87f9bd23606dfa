"""Quickstart: the pushdown primitive in five minutes.

Allocates a large array in a simulated disaggregated data center, runs a
memory-bound aggregation from the compute pool (paying remote paging), and
then TELEPORTs the same function to the memory pool with one call —
``ctx.pushdown(fn, ...)`` — exactly the usage model of the paper's
``pushdown(fn, arg, flags)`` syscall.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.ddc import make_platform
from repro.sim.config import scaled_config
from repro.sim.units import MIB, MS, to_ns


def filtered_sum(ctx, region, threshold):
    """The function we will push down: scan, filter, aggregate.

    ``ctx`` is wherever the code runs — the compute pool, the memory
    pool (inside a pushdown), or a plain server. Same code, three homes.
    """
    values = ctx.load_slice(region)          # charged sequential read
    ctx.compute(len(values) * 3)             # predicate + accumulate
    return float(values[values > threshold].sum())


def run(kind, use_pushdown):
    # 64 MiB working set, compute-local cache at the paper's ~2% ratio.
    config = scaled_config(64 * MIB, cache_ratio=0.02)
    platform = make_platform(kind, config)
    process = platform.new_process()
    data = np.random.default_rng(7).random(8 * MIB)  # 64 MiB of float64
    region = process.alloc_array("data", data)
    ctx = platform.main_context(process)

    start = ctx.now
    if use_pushdown:
        result = ctx.pushdown(filtered_sum, region, 0.5)
    else:
        result = filtered_sum(ctx, region, 0.5)
    return result, to_ns(ctx.now - start) / MS


def main():
    rows = [
        ("monolithic server (all-local baseline)", "local", False),
        ("base DDC (paging to the memory pool)", "ddc", False),
        ("TELEPORT (one pushdown call)", "teleport", True),
    ]
    print(f"{'configuration':45s} {'result':>14s} {'sim time':>12s}")
    results = set()
    times = {}
    for label, kind, push in rows:
        value, elapsed_ms = run(kind, push)
        results.add(round(value, 6))
        times[kind] = elapsed_ms
        print(f"{label:45s} {value:14.2f} {elapsed_ms:9.2f} ms")
    assert len(results) == 1, "all platforms must compute the same answer"
    print()
    print(f"DDC slowdown over local : {times['ddc'] / times['local']:.1f}x")
    print(f"TELEPORT speedup vs DDC : {times['ddc'] / times['teleport']:.1f}x")


if __name__ == "__main__":
    main()
