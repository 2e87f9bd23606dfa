"""Shared workload setup for the figure runners, and the one path to a run:
every TPC-H, graph and MapReduce run a figure shows is made by
:func:`tpch_runs` or :func:`engine_run`."""

import contextlib
import dataclasses
from collections import namedtuple

from repro.db import QueryExecutor
from repro.db.tpch import build_q1, build_q3, build_q6, build_q9, build_qfilter, generate
from repro.ddc import make_platform
from repro.errors import ReproError
from repro.graph import GraphEngine, connected_components, reachability, social_graph, sssp
from repro.mapreduce import GrepJob, MapReduceEngine, WordCountJob, make_corpus
from repro.sim.config import scaled_config

#: Operator kinds the TPC-H TELEPORT runs push down — the paper's
#: "subset of the most bandwidth-intensive operators" (Section 7.1).
TPCH_PUSHDOWN = ("selection", "projection", "hashjoin", "aggregation", "group")
#: TELEPORTed phases of the graph and MapReduce engines (Section 5).
GRAPH_PUSHDOWN = ("finalize", "gather", "scatter")
MR_PUSHDOWN = ("map_shuffle",)

#: Per-effort sizing of the workloads.
EFFORT = {
    "quick": {
        "tpch_sf": 6.0,
        "tpch_sf_large": 12.0,
        "graph_vertices": 4_000,
        "graph_degree": 10,
        "corpus_tokens": 400_000,
        # Keep the paper's access:space ratio (~0.4 accesses per page of
        # the space): random accesses touch only a fraction of the cached
        # pages, which is what makes on-demand coherence beat eager
        # eviction (Figure 6).
        "micro_space_mib": 192,
        "micro_accesses": 20_000,
    },
    "full": {
        "tpch_sf": 50.0,
        "tpch_sf_large": 200.0,
        "graph_vertices": 40_000,
        "graph_degree": 16,
        "corpus_tokens": 4_000_000,
        "micro_space_mib": 768,
        "micro_accesses": 80_000,
    },
}

QUERY_BUILDERS = {
    "Q1": build_q1,
    "Q3": build_q3,
    "Q6": build_q6,
    "Q9": build_q9,
    "Qfilter": build_qfilter,
}

GRAPH_ALGOS = {
    "SSSP": lambda engine: sssp(engine, 0),
    "RE": lambda engine: reachability(engine, 0),
    "CC": connected_components,
}

MR_JOBS = {
    "WC": WordCountJob,
    # Grep for the hottest words (a common-word pattern, like grepping
    # Reddit comments for an everyday term): ~30% of tokens match, so the
    # shuffle of matches is substantial — without this, the match buffers
    # fit the scaled cache and the DDC penalty vanishes.
    "Grep": lambda: GrepJob(range(25)),
}

#: A graph or MapReduce run: its time and its phase profiles by name.
PhaseRun = namedtuple("PhaseRun", "time_ns profiles")


def effort_params(effort):
    try:
        return EFFORT[effort]
    except KeyError:
        raise ReproError(f"unknown effort {effort!r}; expected one of {sorted(EFFORT)}") from None


def tpch_dataset(effort, large=False, seed=2022):
    """The TPC-H dataset of an effort. Inside a :func:`shared_runs` scope
    each (scale factor, seed) is generated once, and its arrays are
    read-only, since every run that loads it shares them."""
    params = effort_params(effort)
    sf = params["tpch_sf_large"] if large else params["tpch_sf"]
    scope = _scope
    if scope is None:
        return generate(scale_factor=sf, seed=seed)
    dataset = scope.datasets.get((sf, seed))
    if dataset is None:
        dataset = scope.datasets[sf, seed] = generate(scale_factor=sf, seed=seed)
        for table in dataset.tables.values():
            for array in table.values():
                array.flags.writeable = False
    return dataset


class SharedRuns(dict):
    """The results of the runs made inside one :func:`shared_runs` scope, by
    key, and the TPC-H datasets they load (:attr:`datasets`)."""

    hits = 0  # lookups answered here instead of by a new run

    def __init__(self):
        super().__init__()
        self.datasets = {}


_scope = None


@contextlib.contextmanager
def shared_runs():
    """Make each distinct run once until the scope closes; outside a scope
    every run is made fresh. A scope keeps results (times and profiles),
    never a platform or an engine. A nested scope starts empty."""
    global _scope
    outer, _scope = _scope, SharedRuns()
    try:
        yield _scope
    finally:
        _scope = outer


def _shared(key, make):
    """``make()``'s results, made once per key inside a scope. The key ends
    with the workload sequence; a fresh platform runs a sequence's first n
    workloads as it runs them alone, so each prefix is filed as a run too."""
    scope = _scope
    if scope is None:
        return make()
    if key in scope:
        scope.hits += 1
        return scope[key]
    results = make()
    *head, workloads = key
    for n in range(1, len(workloads) + 1):
        scope[(*head, workloads[:n])] = results[:n]
    return results


def tpch_runs(dataset, kind, queries, cache_ratio=0.02, pushdown=None, config_overrides=None):
    """Run ``queries`` in order, as one session, on one fresh platform loaded
    with ``dataset``; one :class:`~repro.db.QueryResult` per query, without
    its ``env``. Only TELEPORT pushes down (default :data:`TPCH_PUSHDOWN`)."""
    config = scaled_config(dataset.nbytes, cache_ratio, **(config_overrides or {}))
    if kind != "teleport":
        pushdown = None
    elif pushdown != "all":
        pushdown = frozenset(TPCH_PUSHDOWN if pushdown is None else pushdown)

    def make():
        platform = make_platform(kind, config)
        process = platform.new_process()
        tables = dataset.load_into(process)
        executor = QueryExecutor(platform.main_context(process), pushdown=pushdown)
        return tuple(
            dataclasses.replace(executor.execute(QUERY_BUILDERS[query](tables)), env=None)
            for query in queries
        )

    key = (dataset.scale_factor, dataset.seed, kind, config, pushdown, tuple(queries))
    return _shared(key, make)


def engine_run(effort, kind, workload):
    """Run one graph or MapReduce ``workload`` on a fresh platform; a :class:`PhaseRun`."""
    params = effort_params(effort)
    graph = workload in GRAPH_ALGOS
    if graph:
        n = params["graph_vertices"]
        src, dst, weight = social_graph(n, avg_degree=params["graph_degree"], seed=2022)
        nbytes = src.nbytes + dst.nbytes + weight.nbytes + 4 * n * 8
    else:
        corpus = make_corpus(params["corpus_tokens"], vocabulary=50_000, seed=2022)
        nbytes = corpus.nbytes * 4
    config = scaled_config(nbytes, cache_ratio=0.02)
    pushdown = () if kind != "teleport" else GRAPH_PUSHDOWN if graph else MR_PUSHDOWN

    def make():
        ctx = make_platform(kind, config).main_context()
        if graph:
            engine = GraphEngine(ctx, n, src, dst, weight, pushdown=pushdown)
            GRAPH_ALGOS[workload](engine)
        else:
            engine = MapReduceEngine(ctx, corpus, pushdown=pushdown)
            engine.run(MR_JOBS[workload]())
        return (PhaseRun(engine.total_time_ns(), engine.profiles),)

    return _shared((effort, kind, config, pushdown, (workload,)), make)[0]
