"""Tests for the structured event tracer."""

import numpy as np
import pytest

from repro.ddc import make_platform
from repro.errors import ConfigError, RemotePushdownFault
from repro.sim.config import DdcConfig
from repro.sim.trace import Tracer
from repro.sim.units import KIB, MIB

from tests.conftest import alloc_floats


class TestTracerUnit:
    def test_disabled_by_default(self):
        tracer = Tracer()
        tracer.emit(0.0, "fault", vpn=1)
        assert len(tracer) == 0

    def test_enable_and_emit(self):
        tracer = Tracer().enable()
        tracer.emit(100.0, "fault", vpn=1, write=True)
        assert len(tracer) == 1
        event = tracer.events[0]
        assert event.kind == "fault"
        assert event.detail["vpn"] == 1
        assert "fault" in str(event)

    def test_kind_filter(self):
        tracer = Tracer().enable(kinds={"pushdown"})
        tracer.emit(0.0, "fault", vpn=1)
        tracer.emit(0.0, "pushdown", phase="begin")
        assert tracer.summary() == {"pushdown": 1}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            Tracer().enable(kinds={"quantum"})

    def test_limit_drops_overflow(self):
        tracer = Tracer(limit=2).enable()
        for _ in range(5):
            tracer.emit(0.0, "fault", vpn=1)
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_clear_and_disable(self):
        tracer = Tracer().enable()
        tracer.emit(0.0, "syncmem", scope="all")
        tracer.clear()
        assert len(tracer) == 0
        tracer.disable()
        tracer.emit(0.0, "syncmem", scope="all")
        assert len(tracer) == 0

    def test_of_kind(self):
        tracer = Tracer().enable()
        tracer.emit(0.0, "fault", vpn=1)
        tracer.emit(1.0, "pushdown", phase="begin")
        tracer.emit(2.0, "fault", vpn=2)
        assert [e.detail["vpn"] for e in tracer.of_kind("fault")] == [1, 2]


class TestPlatformIntegration:
    def test_faults_are_traced(self):
        platform = make_platform("ddc", DdcConfig(compute_cache_bytes=64 * KIB))
        platform.tracer.enable(kinds={"fault"})
        process = platform.new_process()
        region = alloc_floats(process, "a", 100_000)
        ctx = platform.main_context(process)
        idx = np.random.default_rng(1).integers(0, 100_000, size=500)
        ctx.touch_random(region, idx)
        assert len(platform.tracer.of_kind("fault")) > 0
        # Events carry causally increasing-ish vpn detail.
        assert all("vpn" in e.detail for e in platform.tracer.events)

    def test_every_miss_is_one_fault_event(self):
        """Random misses and sequential prefetch batches both emit one
        ``fault`` event each; a batch's event says how many pages it
        fetched."""
        platform = make_platform("ddc", DdcConfig(compute_cache_bytes=64 * KIB))
        platform.tracer.enable(kinds={"fault"})
        process = platform.new_process()
        region = alloc_floats(process, "a", 100_000)
        ctx = platform.main_context(process)
        idx = np.random.default_rng(1).integers(0, 100_000, size=200)
        ctx.touch_random(region, idx)
        ctx.touch_seq(region, 0, 40_000, write=True)
        ctx.touch_random(region, idx, write=True)
        ctx.load_slice(region, 30_000, 60_000)
        faults = platform.tracer.of_kind("fault")
        assert len(faults) == platform.stats.cache_misses
        batches = [e.detail for e in faults if "npages" in e.detail]
        assert batches and {e["npages"] for e in batches} <= set(
            range(1, platform.config.prefetch_degree + 1)
        )
        times = [e.at_ns for e in faults]
        assert times == sorted(times)

    def test_pushdown_lifecycle_traced(self):
        platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
        platform.tracer.enable(kinds={"pushdown"})
        process = platform.new_process()
        region = alloc_floats(process, "a", 10_000)
        ctx = platform.main_context(process)
        ctx.pushdown(lambda mctx: float(mctx.load_slice(region).sum()))
        phases = [e.detail["phase"] for e in platform.tracer.of_kind("pushdown")]
        assert phases == ["begin", "finish"]

    def test_failed_pushdown_still_traces_finish(self):
        platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
        platform.tracer.enable(kinds={"pushdown"})
        ctx = platform.main_context()
        with pytest.raises(RemotePushdownFault):
            ctx.pushdown(lambda mctx: 1 / 0)
        phases = [e.detail["phase"] for e in platform.tracer.of_kind("pushdown")]
        assert phases == ["begin", "finish"]

    def test_coherence_transitions_traced(self):
        platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
        platform.tracer.enable(kinds={"coherence"})
        process = platform.new_process()
        region = alloc_floats(process, "a", 10_000)
        ctx = platform.main_context(process)
        ctx.store_slice(region, 0, np.ones(5120))  # dirty pages in cache

        def writer(mctx):
            mctx.store_slice(region, 0, np.zeros(5120))

        ctx.pushdown(writer)
        actions = {e.detail["action"] for e in platform.tracer.of_kind("coherence")}
        assert "invalidate" in actions

    def test_syncmem_traced_with_scope(self):
        platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
        platform.tracer.enable(kinds={"syncmem"})
        process = platform.new_process()
        region = alloc_floats(process, "a", 10_000)
        ctx = platform.main_context(process)
        ctx.touch_seq(region, 0, 10_000, write=True)
        ctx.syncmem([region])
        ctx.syncmem()
        scopes = [e.detail["scope"] for e in platform.tracer.of_kind("syncmem")]
        assert scopes == ["a", "all"]

    def test_tracing_off_means_no_events(self):
        platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
        process = platform.new_process()
        region = alloc_floats(process, "a", 10_000)
        ctx = platform.main_context(process)
        ctx.pushdown(lambda mctx: float(mctx.load_slice(region).sum()))
        assert len(platform.tracer) == 0

    def test_tracing_does_not_change_costs(self):
        def run(traced):
            platform = make_platform("teleport", DdcConfig(compute_cache_bytes=64 * KIB))
            if traced:
                platform.tracer.enable()
            process = platform.new_process()
            region = alloc_floats(process, "a", 50_000)
            ctx = platform.main_context(process)
            # Compute-pool streams around the pushdown: a cold write stream
            # and a read stream over a partly cached region.
            ctx.touch_seq(region, 0, 30_000, write=True)
            ctx.pushdown(lambda mctx: float(mctx.load_slice(region).sum()))
            ctx.load_slice(region, 20_000, 50_000)
            return ctx.now, platform.stats.as_dict()

        assert run(False) == run(True)
