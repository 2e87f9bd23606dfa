"""Tests for the adaptive offload controller (repro.serve.offload)."""

import numpy as np
import pytest

from repro.ddc.platform import make_platform
from repro.serve.offload import OffloadController, OffloadPolicy, OffloadRequest
from repro.sim.config import DdcConfig


def _platform_with_region(kind="teleport", n=65_536, config=None):
    platform = make_platform(kind, config)
    ctx = platform.main_context()
    data = np.arange(n, dtype=np.float64)
    region = ctx.thread.process.alloc_array("data", data)
    return platform, ctx, region


def _scan(ectx, region):
    ectx.load_slice(region)
    return len(region)


def test_static_policies_ignore_cost_model():
    platform, ctx, region = _platform_with_region()
    request = OffloadRequest("r", _scan, args=(region,), regions=(region,))
    always = OffloadController(platform.config, OffloadPolicy.ALWAYS)
    never = OffloadController(platform.config, OffloadPolicy.NEVER)
    assert always.decide(ctx, request) is True
    assert never.decide(ctx, request) is False
    assert always.pushed == 1 and always.kept_local == 0
    assert never.pushed == 0 and never.kept_local == 1


def test_ddc_platform_never_pushes():
    """Without a TELEPORT runtime there is nothing to push to."""
    platform, ctx, region = _platform_with_region(kind="ddc")
    request = OffloadRequest("r", _scan, args=(region,), regions=(region,))
    controller = OffloadController(platform.config, OffloadPolicy.ALWAYS)
    assert controller.decide(ctx, request) is False


def test_adaptive_pushes_cold_data():
    """Nothing cached: every local access is a remote fault, so push."""
    platform, ctx, region = _platform_with_region()
    request = OffloadRequest("r", _scan, args=(region,), regions=(region,))
    controller = OffloadController(platform.config)
    assert controller.cached_pages(ctx, request) == 0
    assert controller.decide(ctx, request) is True


def test_adaptive_keeps_warm_data_local():
    """Fully cached: local runs at DRAM speed, pushdown pays overhead."""
    platform, ctx, region = _platform_with_region()
    ctx.load_slice(region)  # fault the whole region into the compute cache
    request = OffloadRequest("r", _scan, args=(region,), regions=(region,))
    controller = OffloadController(platform.config)
    assert controller.cached_pages(ctx, request) == request.touched_pages()
    assert controller.decide(ctx, request) is False


def test_cached_probe_does_not_disturb_lru():
    """Costing a request must not change cache recency order."""
    platform, ctx, region = _platform_with_region()
    ctx.load_slice(region)
    cache = ctx.pager.cache
    order_before = list(cache._entries)
    request = OffloadRequest("r", _scan, args=(region,), regions=(region,))
    OffloadController(platform.config).cached_pages(ctx, request)
    assert list(cache._entries) == order_before


def test_queue_depth_steers_decision_local():
    """A congested pool flips an otherwise-push decision to local."""
    platform, ctx, region = _platform_with_region()
    request = OffloadRequest("r", _scan, args=(region,), regions=(region,))
    controller = OffloadController(platform.config)

    class CongestedPool:
        def estimated_wait_ps(self, now):
            return 10**15

    assert controller._evaluate(ctx, request, None) is True
    assert controller._evaluate(ctx, request, CongestedPool()) is False


def test_payload_size_raises_pushdown_estimate():
    platform, ctx, region = _platform_with_region()
    small = OffloadRequest("s", _scan, regions=(region,), payload_bytes=64)
    large = OffloadRequest("l", _scan, regions=(region,),
                           payload_bytes=64 * 1024 * 1024)
    controller = OffloadController(platform.config)
    assert (controller.estimate_pushdown_ps(ctx, large)
            > controller.estimate_pushdown_ps(ctx, small))


def test_region_spans_scale_footprint():
    """(region, lo, hi) spans count only the slice's pages."""
    platform, ctx, region = _platform_with_region()
    whole = OffloadRequest("w", _scan, regions=(region,))
    half = OffloadRequest("h", _scan,
                          regions=((region, 0, len(region) // 2),))
    assert 0 < half.touched_pages() < whole.touched_pages()
    assert half.touched_pages() == pytest.approx(
        whole.touched_pages() / 2, abs=1
    )
