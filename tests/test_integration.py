"""Cross-module integration tests.

These exercise whole workflows end to end: multi-query sessions on one
platform, concurrent pushdowns sharing a temporary context, process
isolation, and mixed workloads sharing a data center.
"""

import numpy as np
import pytest

from repro.db import CostBasedOptimizer, IntensityPlanner, QueryExecutor
from repro.db.tpch import (
    build_q1,
    build_q3,
    build_q6,
    build_q9,
    generate,
    reference_q6,
)
from repro.ddc import Pool, make_platform
from repro.graph import GraphEngine, social_graph, sssp
from repro.mapreduce import MapReduceEngine, WordCountJob, make_corpus
from repro.sim.config import DdcConfig, scaled_config
from repro.sim.units import KIB, MIB
from repro.teleport.flags import PushdownOptions

from tests.conftest import alloc_floats


class TestMultiQuerySession:
    """A client session running the whole benchmark on one platform."""

    def test_query_sequence_accumulates_state_sanely(self):
        dataset = generate(scale_factor=2, seed=31)
        config = scaled_config(dataset.nbytes, cache_ratio=0.02)
        platform = make_platform("teleport", config)
        process = platform.new_process()
        tables = dataset.load_into(process)
        ctx = platform.main_context(process)
        executor = QueryExecutor(ctx, pushdown={"hashjoin", "projection"})

        previous = 0.0
        for build in (build_q1, build_q3, build_q6, build_q9, build_q6):
            result = executor.execute(build(tables))
            assert result.time_ns > 0
            assert ctx.now > previous
            previous = ctx.now
        # The second Q6 benefits from a warm cache relative to a fresh
        # platform running it cold.
        cold_platform = make_platform("teleport", config)
        cold_process = cold_platform.new_process()
        cold_tables = dataset.load_into(cold_process)
        cold_ctx = cold_platform.main_context(cold_process)
        cold = QueryExecutor(cold_ctx).execute(build_q6(cold_tables))
        assert executor.execute(build_q6(tables)).time_ns <= cold.time_ns

    def test_planner_then_optimizer_pipeline(self):
        """Profile -> rank -> choose -> run: the full planning loop."""
        dataset = generate(scale_factor=2, seed=37)
        config = scaled_config(dataset.nbytes, cache_ratio=0.02)

        ddc = make_platform("ddc", config)
        ddc_process = ddc.new_process()
        ddc_tables = dataset.load_into(ddc_process)
        profile = QueryExecutor(ddc.main_context(ddc_process)).execute(
            build_q9(ddc_tables)
        )
        planner = IntensityPlanner(profile.profiles)
        optimizer = CostBasedOptimizer(profile.profiles, config)

        teleport = make_platform("teleport", config)
        tp_process = teleport.new_process()
        tp_tables = dataset.load_into(tp_process)
        for pushdown in (planner.top_kinds(3, min_time_share=0.02), optimizer.choose()):
            ctx = teleport.main_context(tp_process)
            result = QueryExecutor(ctx, pushdown=pushdown).execute(build_q9(tp_tables))
            assert result.time_ns < profile.time_ns


class TestSharedTemporaryContext:
    """Concurrent pushdowns of one process share page table and context
    (Section 3.2, 'Handling concurrent pushdown requests')."""

    def test_sessions_share_protocol(self):
        config = DdcConfig(compute_cache_bytes=1 * MIB, teleport_instances=2,
                           memory_pool_cores=2)
        platform = make_platform("teleport", config)
        process = platform.new_process()
        region = alloc_floats(process, "a", 50_000)
        ctx_a = platform.context_for(platform.spawn_thread(process, name="a"))
        ctx_b = platform.context_for(platform.spawn_thread(process, name="b"))
        ctx_a.touch_seq(region, 0, len(region))  # populate the cache
        runtime = platform.teleport

        session_a = runtime.begin_session(ctx_a, PushdownOptions.DEFAULT)
        session_b = runtime.begin_session(ctx_b, PushdownOptions.DEFAULT)
        assert session_a.protocol is session_b.protocol
        assert session_a.protocol.refcount == 2
        # Joining an existing context skips the page-table preparation.
        assert session_b.breakdown.context_setup_ns < session_a.breakdown.context_setup_ns

        half = len(region) // 2
        total = float(session_a.mctx.load_slice(region, 0, half).sum())
        total += float(session_b.mctx.load_slice(region, half, len(region)).sum())
        session_a.finish()
        assert session_b.protocol.t_mm is not None  # still alive for b
        session_b.finish()
        assert runtime._protocols[process.pid].refcount == 0
        assert total == pytest.approx(float(region.array.sum()))

    def test_separate_processes_do_not_share(self):
        config = DdcConfig(compute_cache_bytes=1 * MIB, teleport_instances=2)
        platform = make_platform("teleport", config)
        proc_a = platform.new_process()
        proc_b = platform.new_process()
        ctx_a = platform.main_context(proc_a)
        ctx_b = platform.main_context(proc_b)
        runtime = platform.teleport
        session_a = runtime.begin_session(ctx_a, PushdownOptions.DEFAULT)
        session_b = runtime.begin_session(ctx_b, PushdownOptions.DEFAULT)
        assert session_a.protocol is not session_b.protocol
        session_a.finish()
        session_b.finish()


class TestProcessIsolation:
    def test_processes_have_private_caches_and_tables(self):
        platform = make_platform("ddc", DdcConfig(compute_cache_bytes=64 * KIB))
        proc_a = platform.new_process()
        proc_b = platform.new_process()
        region_a = alloc_floats(proc_a, "a", 50_000)
        region_b = alloc_floats(proc_b, "b", 50_000, seed=9)
        ctx_a = platform.main_context(proc_a)
        ctx_b = platform.main_context(proc_b)
        ctx_a.touch_seq(region_a, 0, 50_000)
        compute_a = platform.kernel_for(proc_a)
        compute_b = platform.kernel_for(proc_b)
        assert len(compute_a.cache) > 0
        assert len(compute_b.cache) == 0
        ctx_b.touch_seq(region_b, 0, 50_000)
        assert len(compute_b.cache) > 0
        assert proc_a.address_space is not proc_b.address_space
        # Each process's pages lie in its own vpn span, so no vpn is shared.
        span = platform.PROCESS_VPN_SPAN
        spans = [
            {region.start_vpn // span, (region.start_vpn + region.npages - 1) // span}
            for region in (region_a, region_b)
        ]
        assert spans == [{0}, {1}]

    def test_mixed_workloads_share_one_data_center(self):
        """A DBMS process and a graph process on the same platform."""
        config = DdcConfig(compute_cache_bytes=256 * KIB)
        platform = make_platform("teleport", config)

        db_process = platform.new_process()
        dataset = generate(scale_factor=1, seed=41)
        tables = dataset.load_into(db_process)
        db_ctx = platform.main_context(db_process)
        q6 = QueryExecutor(db_ctx, pushdown="all").execute(build_q6(tables))
        assert q6.value == pytest.approx(reference_q6(dataset))

        graph_process = platform.new_process()
        src, dst, weight = social_graph(500, avg_degree=6, seed=43)
        graph_ctx = platform.context_for(platform.spawn_thread(graph_process))
        engine = GraphEngine(graph_ctx, 500, src, dst, weight, pushdown=("scatter",))
        distances = sssp(engine, 0)
        assert np.isfinite(distances[0])

        assert platform.stats.pushdown_calls > 1


class TestMixedSystemPipeline:
    def test_mapreduce_feeds_dbms_style_aggregation(self):
        """WordCount output re-aggregated through the DB operators —
        a pipeline across two of the reproduced systems."""
        from repro.db.operators import Aggregate
        from repro.db.table import Table

        platform = make_platform("teleport", DdcConfig(compute_cache_bytes=256 * KIB))
        ctx = platform.main_context()
        corpus = make_corpus(100_000, vocabulary=1_000, seed=47)
        engine = MapReduceEngine(ctx, corpus, pushdown=("map_shuffle",))
        counts = engine.run(WordCountJob())

        process = ctx.thread.process
        table = Table.create(
            process,
            "word_counts",
            {"count": np.array([counts.get(t, 0) for t in range(1_000)], dtype=np.int64)},
        )
        total = ctx.pushdown(Aggregate(table["count"], "sum", out="t").run, {})
        assert total == len(corpus)

    def test_memory_side_execution_pool_is_memory(self):
        platform = make_platform("teleport", DdcConfig(compute_cache_bytes=64 * KIB))
        ctx = platform.main_context()
        pools = ctx.pushdown(lambda mctx: mctx.pool)
        assert pools is Pool.MEMORY
