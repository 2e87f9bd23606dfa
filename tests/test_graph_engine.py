"""Tests for the graph engine, datagen, and algorithm correctness."""

import networkx as nx
import numpy as np
import pytest

from repro.ddc import make_platform
from repro.errors import ConfigError, ReproError
from repro.graph import (
    GraphEngine,
    connected_components,
    reachability,
    social_graph,
    sssp,
)
from repro.graph.engine import _ranges
from repro.sim.config import DdcConfig
from repro.sim.units import KIB, MIB

N = 600


@pytest.fixture(scope="module")
def edges():
    return social_graph(N, avg_degree=8, seed=11)


@pytest.fixture(scope="module")
def nx_graph(edges):
    src, dst, weight = edges
    graph = nx.DiGraph()
    graph.add_weighted_edges_from(zip(src.tolist(), dst.tolist(), weight.tolist()))
    return graph


def make_engine(edges, kind="local", pushdown=(), config=None):
    src, dst, weight = edges
    platform = make_platform(kind, config or DdcConfig(compute_cache_bytes=1 * MIB))
    ctx = platform.main_context()
    return GraphEngine(ctx, N, src, dst, weight, pushdown=pushdown), platform


class TestDatagen:
    def test_shapes_and_ranges(self, edges):
        src, dst, weight = edges
        assert len(src) == len(dst) == len(weight)
        assert src.min() >= 0 and src.max() < N
        assert dst.min() >= 0 and dst.max() < N

    def test_no_self_loops(self, edges):
        src, dst, _weight = edges
        assert (src != dst).all()

    def test_undirected_graph_is_symmetric(self, edges):
        src, dst, _weight = edges
        forward = set(zip(src.tolist(), dst.tolist()))
        assert all((b, a) in forward for a, b in forward)

    def test_power_law_degrees(self):
        src, dst, _w = social_graph(5000, avg_degree=10, seed=3)
        degrees = np.bincount(dst, minlength=5000)
        # Heavy tail: the hottest vertex sees far more than the average.
        assert degrees.max() > 10 * degrees.mean()

    def test_deterministic(self):
        a = social_graph(100, seed=5)
        b = social_graph(100, seed=5)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            social_graph(1)
        with pytest.raises(ConfigError):
            social_graph(100, avg_degree=0)


class TestEngine:
    def test_finalize_builds_valid_csr(self, edges):
        engine, _platform = make_engine(edges)
        engine.finalize()
        src, dst, _w = edges
        indptr = engine.indptr.array
        indices = engine.indices.array
        assert indptr[0] == 0
        assert indptr[-1] == len(src)
        for vertex in (0, 17, N - 1):
            neighbours = sorted(indices[indptr[vertex]: indptr[vertex + 1]].tolist())
            expected = sorted(dst[src == vertex].tolist())
            assert neighbours == expected

    def test_finalize_is_idempotent(self, edges):
        engine, _platform = make_engine(edges)
        engine.finalize()
        t = engine.total_time_ns()
        engine.finalize()
        assert engine.total_time_ns() == t

    def test_algorithms_require_finalize(self, edges):
        engine, _platform = make_engine(edges)
        with pytest.raises(ReproError):
            engine.expand(engine.ctx, np.array([0]))

    def test_expand_returns_adjacency(self, edges):
        engine, _platform = make_engine(edges)
        engine.finalize()
        src, dst, _w = edges
        sources, neighbours, weights = engine.expand(engine.ctx, np.array([3]))
        assert (sources == 3).all()
        assert sorted(neighbours.tolist()) == sorted(dst[src == 3].tolist())
        assert len(weights) == len(neighbours)

    def test_expand_empty_frontier(self, edges):
        engine, _platform = make_engine(edges)
        engine.finalize()
        sources, neighbours, _w = engine.expand(engine.ctx, np.array([], dtype=np.int64))
        assert len(sources) == 0 and len(neighbours) == 0

    def test_unknown_pushdown_phase_rejected(self, edges):
        with pytest.raises(ReproError):
            make_engine(edges, kind="teleport", pushdown=("mapreduce",))

    def test_mismatched_edges_rejected(self):
        platform = make_platform("local")
        ctx = platform.main_context()
        with pytest.raises(ReproError):
            GraphEngine(ctx, 10, np.array([1, 2]), np.array([3]))

    def test_phase_profiles_recorded(self, edges):
        engine, _platform = make_engine(edges)
        sssp(engine, 0)
        assert {"finalize", "gather", "apply", "scatter"} <= set(engine.profiles)
        assert engine.profile("scatter").calls > 0
        assert engine.profile("finalize").time_ns > 0

    def test_scatter_dominates_finalize_aside(self, edges):
        """Section 5.2: scatter is SSSP's expensive superstep phase."""
        engine, _platform = make_engine(edges, kind="ddc")
        sssp(engine, 0)
        scatter = engine.profile("scatter").time_ns
        gather = engine.profile("gather").time_ns
        assert scatter > gather


class TestAlgorithmCorrectness:
    @pytest.mark.parametrize("kind,pushdown", [
        ("local", ()),
        ("ddc", ()),
        ("teleport", ("finalize", "gather", "scatter")),
    ])
    def test_sssp_matches_networkx(self, edges, nx_graph, kind, pushdown):
        engine, _platform = make_engine(edges, kind=kind, pushdown=pushdown)
        dist = sssp(engine, 0)
        expected = nx.single_source_dijkstra_path_length(nx_graph, 0)
        for vertex in range(N):
            if vertex in expected:
                assert dist[vertex] == pytest.approx(expected[vertex])
            else:
                assert np.isinf(dist[vertex])

    @pytest.mark.parametrize("kind", ["local", "teleport"])
    def test_reachability_matches_networkx(self, edges, nx_graph, kind):
        pushdown = ("scatter",) if kind == "teleport" else ()
        engine, _platform = make_engine(edges, kind=kind, pushdown=pushdown)
        reached = reachability(engine, 0)
        expected = set(nx.descendants(nx_graph, 0)) | {0}
        assert set(np.nonzero(reached)[0].tolist()) == expected

    def test_connected_components_matches_networkx(self, edges, nx_graph):
        engine, _platform = make_engine(edges)
        labels = connected_components(engine)
        for component in nx.connected_components(nx_graph.to_undirected()):
            members = list(component)
            assert len(set(labels[members].tolist())) == 1
        n_components = nx.number_connected_components(nx_graph.to_undirected())
        assert len(set(labels.tolist())) == n_components

    def test_results_identical_across_platforms(self, edges):
        baseline, _p = make_engine(edges, kind="local")
        pushed, _p2 = make_engine(edges, kind="teleport", pushdown="all")
        assert (sssp(baseline, 5) == sssp(pushed, 5)).all()


class TestCostShapes:
    def test_ddc_slower_than_local_and_teleport_recovers(self):
        src, dst, weight = social_graph(4000, avg_degree=10, seed=4)
        config = DdcConfig(compute_cache_bytes=64 * KIB)
        times = {}
        for kind, pushdown in [
            ("local", ()),
            ("ddc", ()),
            ("teleport", ("finalize", "gather", "scatter")),
        ]:
            platform = make_platform(kind, config)
            ctx = platform.main_context()
            engine = GraphEngine(ctx, 4000, src, dst, weight, pushdown=pushdown)
            sssp(engine, 0)
            times[kind] = engine.total_time_ns()
        assert times["ddc"] > 2 * times["local"]
        assert times["teleport"] < times["ddc"] / 1.5

    def test_finalize_dominates_ddc_remote_traffic(self, edges):
        """Figure 10: finalize's shuffle is the remote-traffic hog."""
        config = DdcConfig(compute_cache_bytes=64 * KIB)
        engine, _platform = make_engine(edges, kind="ddc", config=config)
        sssp(engine, 0)
        finalize = engine.profile("finalize")
        apply_profile = engine.profile("apply")
        assert finalize.remote_pages > apply_profile.remote_pages


class TestRanges:
    def test_ranges_concatenates(self):
        got = _ranges(np.array([5, 10]), np.array([2, 3]))
        assert got.tolist() == [5, 6, 10, 11, 12]

    def test_ranges_skips_empty(self):
        got = _ranges(np.array([5, 7, 20]), np.array([1, 0, 2]))
        assert got.tolist() == [5, 20, 21]

    def test_ranges_all_empty(self):
        assert len(_ranges(np.array([1, 2]), np.array([0, 0]))) == 0
