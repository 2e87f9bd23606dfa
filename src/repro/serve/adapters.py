"""Workload adapters: SQL, graph, and MapReduce clients for the server.

Each factory returns a *workload builder* — ``build(ctx)`` runs the
tenant's setup (data load, plan compilation, graph finalize) on the
tenant's own virtual clock and returns a generator that yields one
:class:`~repro.serve.offload.OffloadRequest` per serving request. The
request bodies are location-transparent (they take whichever execution
context they end up on), so the same tenant runs unmodified under the
never/always/adaptive offload policies.

The residency knobs (``passes`` for SQL, request count for graph, chunked
single-pass splits for MapReduce) let the benchmark compose hot tenants —
whose working set the compute cache retains, where pushdown only adds
overhead — with cold ones — whose every local access would fault
remotely, the regime Figure 12 shows pushdown winning.
"""

import numpy as np

from repro.db.executor import QueryExecutor
from repro.db.sql.compiler import compile_sql
from repro.db.table import Table
from repro.graph.datagen import social_graph
from repro.graph.engine import GraphEngine
from repro.mapreduce.jobs import WordCountJob
from repro.mapreduce.textgen import make_corpus
from repro.serve.offload import OffloadRequest
from repro.sim.rng import make_rng

#: Nominal serialized size of a scalar/aggregate result row.
_ROW_BYTES = 64


def sql_workload(n_rows=50_000, n_requests=4, seed=2022,
                 sql="SELECT SUM(v) AS total FROM events WHERE v < 500",
                 warm=True, options=None):
    """A tenant running one analytic query ``n_requests`` times.

    ``warm`` scans the table once at setup (on the tenant's clock), so
    the compute cache holds the columns when serving starts — the hot
    profile where compute-local wins and a static always-pushdown policy
    pays context overhead plus coherence invalidations per call. Without
    setup warmth the table is memory-pool resident and a greedy
    controller pushes every pass, since a pushed call never populates
    the compute cache.
    """

    def build(ctx):
        process = ctx.thread.process
        rng = make_rng(seed)
        table = Table.create(process, "events", {
            "id": np.arange(n_rows, dtype=np.int64),
            "v": rng.integers(0, 1000, n_rows).astype(np.int64),
            "grp": rng.integers(0, 64, n_rows).astype(np.int64),
        })
        plan, spec = compile_sql(sql, {"events": table})
        regions = tuple(col.region for col in table.columns.values())
        if warm:
            for column in table.columns.values():
                ctx.load_slice(column.region)

        def body(ectx):
            result = QueryExecutor(ectx).execute(plan)
            return spec.collect(ectx, result)

        def requests():
            for index in range(n_requests):
                yield OffloadRequest(
                    f"sql-{index}", body, regions=regions,
                    payload_bytes=_ROW_BYTES, options=options,
                )

        return requests()

    return build


def graph_workload(n_vertices=4096, avg_degree=8, n_requests=6, hops=2,
                   seed=2022, options=None):
    """A tenant answering k-hop neighbourhood queries over a social graph.

    Each request expands ``hops`` BFS levels from a seeded start vertex;
    the adjacency touched per request is a scattered subset of the CSR,
    so residency depends on how much earlier requests dragged in.
    """

    def build(ctx):
        src, dst, weight = social_graph(n_vertices, avg_degree=avg_degree,
                                        seed=seed)
        engine = GraphEngine(ctx, n_vertices, src, dst, weight)
        engine.finalize()
        starts = make_rng(seed + 1).integers(0, n_vertices, size=n_requests)
        regions = (engine.indptr, engine.indices, engine.weights)

        def body(ectx, start):
            frontier = np.asarray([start], dtype=np.int64)
            visited = 0
            for _hop in range(hops):
                _sources, neighbours, _weights = engine.expand(ectx, frontier)
                if len(neighbours) == 0:
                    break
                frontier = np.unique(neighbours)
                visited += int(len(neighbours))
            return visited

        def requests():
            for index, start in enumerate(starts):
                yield OffloadRequest(
                    f"hop-{index}", body, args=(int(start),), regions=regions,
                    payload_bytes=_ROW_BYTES, options=options,
                )

        return requests()

    return build


def mapreduce_workload(n_tokens=2_000_000, n_splits=8, vocabulary=20_000,
                       seed=2022, options=None):
    """A tenant mapping a corpus once, one request per input split.

    Single-pass over a large corpus is the coldest residency profile: no
    split is ever revisited, so compute-local execution faults in every
    page exactly once — the Figure 10 regime where pushdown wins big.
    Each request returns only its partial reduction (small payload).
    """

    def build(ctx):
        tokens = make_corpus(n_tokens, vocabulary=vocabulary, seed=seed)
        corpus = ctx.thread.process.alloc_array("mr.corpus", tokens)
        job = WordCountJob()
        split = (n_tokens + n_splits - 1) // n_splits

        def body(ectx, lo, hi):
            chunk = ectx.load_slice(corpus, lo, hi)
            ectx.compute((hi - lo) * job.map_ops_per_token)
            keys = job.map_compute(chunk)
            ectx.compute(len(keys) * job.reduce_ops_per_record)
            distinct_keys, _counts = job.reduce(keys)
            return len(distinct_keys)

        def requests():
            for index in range(n_splits):
                lo = index * split
                hi = min(n_tokens, lo + split)
                if hi <= lo:
                    break
                yield OffloadRequest(
                    f"split-{index}", body, args=(lo, hi),
                    regions=((corpus, lo, hi),),
                    payload_bytes=vocabulary * job.value_bytes_per_record // n_splits,
                    options=options,
                )

        return requests()

    return build
