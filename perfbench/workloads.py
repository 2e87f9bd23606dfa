"""The benchmark's three workloads: paper8, contention and serve-mixed.

Every workload is one closed-loop client. ``iteration(seed, watch)`` runs
the workload once: set-up sections run under ``watch.setup()`` and the
measured work under ``watch.timed()`` (see ``run.py``). It returns an
:class:`Outcome` holding the virtual latency of every operation, the answer
checks, the simulated per-layer numbers and the rows of the simulated
digest.

Inputs come only from ``seed``. Sizes are fixed here, not taken from the
library's effort tables, so that a change to those tables does not change
the benchmark.
"""

import gc
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.db import QueryExecutor
from repro.db.tpch import build_q3, build_q6, build_q9, generate, reference_q6
from repro.ddc import make_platform
from repro.graph import GraphEngine, connected_components, reachability, social_graph, sssp
from repro.mapreduce import GrepJob, MapReduceEngine, WordCountJob, make_corpus
from repro.micro import MicroSpec
from repro.micro.workloads import _Runner
from repro.serve.adapters import graph_workload, mapreduce_workload, sql_workload
from repro.serve.offload import OffloadPolicy
from repro.serve.pool import QueuePolicy
from repro.serve.tenant import Server
from repro.sim.config import DdcConfig, scaled_config
from repro.sim.stats import PushdownBreakdown, Stats, percentile
from repro.sim.units import MIB

#: Fig 13 speedups of TELEPORT over the base DDC reported by the paper
#: (the "paper" column of the Fig 13 row in EXPERIMENTS.md).
PAPER_FIG13_SPEEDUP = {
    "Q9": 29.1, "Q3": 3.2, "Q6": 3.8, "SSSP": 3.0,
    "RE": 2.8, "CC": 2.0, "WC": 2.5, "Grep": 4.7,
}

#: Pushdown breakdown components reported, summed, as teleport.* metrics.
BREAKDOWN_MS = {
    "teleport.pre_sync_ms": "pre_sync_ns",
    "teleport.setup_ms": "context_setup_ns",
    "teleport.online_sync_ms": "online_sync_ns",
    "teleport.post_sync_ms": "post_sync_ns",
    "teleport.queue_wait_ms": "queue_wait_ns",
}


@dataclass
class Outcome:
    """What one iteration of a workload produced."""

    #: (operation name, virtual latency in ns), in execution order.
    ops: list = field(default_factory=list)
    #: Virtual completion time of the iteration in ns.
    completion_ns: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    #: Simulated per-layer metrics (name -> number).
    layers: dict = field(default_factory=dict)
    #: Digest rows: name -> exact repr of a simulated number.
    rows: dict = field(default_factory=dict)

    @property
    def failed(self):
        return len(self.failures)

    def percentiles_ms(self):
        """(p50, p90) of the per-operation virtual latency in ms."""
        latencies = [ns / 1e6 for _name, ns in self.ops]
        if not latencies:
            return 0.0, 0.0
        return percentile(latencies, 50), percentile(latencies, 90)


def _canon(value):
    """A form of an answer that compares exactly with ``==``."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return tuple(sorted((_canon(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, np.generic):
        return value.item()
    return value


def _record_platform(outcome, label, platform):
    """Add a platform's Stats and pushdown breakdown sums to the digest."""
    for name, value in platform.stats.as_dict().items():
        outcome.rows[f"stats/{label}/{name}"] = repr(value)
    runtime = getattr(platform, "teleport", None)
    if runtime is not None:
        total = PushdownBreakdown()
        for breakdown in runtime.breakdowns:
            total.merge(breakdown)
        for name, value in total.as_dict().items():
            outcome.rows[f"breakdown/{label}/{name}"] = repr(value)


class SimTotals:
    """Stats and pushdown breakdowns summed over the platforms of one
    iteration, without keeping the platforms (and their data) alive."""

    def __init__(self):
        self.stats = Stats()
        self.breakdown = PushdownBreakdown()
        self.page_size = None

    def add(self, platform):
        self.stats.merge(platform.stats)
        self.page_size = platform.config.page_size
        runtime = getattr(platform, "teleport", None)
        if runtime is not None:
            for item in runtime.breakdowns:
                self.breakdown.merge(item)


def _simulated_layers(totals):
    """Per-layer metrics read from the simulator's own counters."""
    stats, breakdown = totals.stats, totals.breakdown
    page_size = totals.page_size
    lookups = stats.cache_hits + stats.cache_misses
    layers = {
        "teleport.coherence_messages": stats.coherence_messages,
        "teleport.invalidations": stats.coherence_invalidations,
        "teleport.tiebreaks": stats.coherence_tiebreaks,
        "teleport.fallbacks": stats.pushdown_fallbacks + stats.pushdown_timeouts,
        "mem.cache_hit_ratio": stats.cache_hits / lookups if lookups else 0.0,
        "mem.evictions": stats.cache_evictions,
        "mem.dirty_writebacks": stats.dirty_writebacks,
        "mem.storage_faults": stats.storage_faults,
        "sim.remote_mb": stats.remote_bytes(page_size) / 1e6,
        "sim.rpc_messages": stats.rpc_messages,
    }
    for metric, attr in BREAKDOWN_MS.items():
        layers[metric] = getattr(breakdown, attr) / 1e6
    return layers


def _guarded(outcome, label, fn, *args):
    """Run one operation; a raised error counts it as failed."""
    try:
        return True, fn(*args)
    except Exception:  # the benchmark keeps going and reports the failure
        outcome.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
        return False, None


# ----------------------------------------------------------------------
# paper8: the paper's eight workloads on local, ddc and teleport (Fig 13)
# ----------------------------------------------------------------------
class Paper8:
    """Q9, Q3, Q6, SSSP, RE, CC, WC and Grep on each platform: 24 operations."""

    name = "paper8"
    KINDS = ("local", "ddc", "teleport")
    WORKLOADS = ("Q9", "Q3", "Q6", "SSSP", "RE", "CC", "WC", "Grep")
    #: The sizes and pushdown choices of Fig 13 at quick effort.
    TPCH_SF = 6.0
    GRAPH_VERTICES = 4_000
    GRAPH_DEGREE = 10
    CORPUS_TOKENS = 400_000
    VOCABULARY = 50_000
    CACHE_RATIO = 0.02
    TPCH_PUSHDOWN = ("selection", "projection", "hashjoin", "aggregation", "group")
    GRAPH_PUSHDOWN = ("finalize", "gather", "scatter")
    MR_PUSHDOWN = ("map_shuffle",)
    GREP_TOKENS = range(25)
    QUERIES = {"Q9": build_q9, "Q3": build_q3, "Q6": build_q6}
    GRAPH_ALGOS = {
        "SSSP": lambda engine: sssp(engine, 0),
        "RE": lambda engine: reachability(engine, 0),
        "CC": lambda engine: connected_components(engine),
    }
    MR_JOBS = {"WC": WordCountJob, "Grep": lambda: GrepJob(Paper8.GREP_TOKENS)}

    def iteration(self, seed, watch):
        outcome = Outcome()
        with watch.setup():
            dataset = generate(scale_factor=self.TPCH_SF, seed=seed)
            graph = social_graph(self.GRAPH_VERTICES, avg_degree=self.GRAPH_DEGREE, seed=seed)
            corpus = make_corpus(self.CORPUS_TOKENS, vocabulary=self.VOCABULARY, seed=seed)
            cells = {kind: self._prepare(kind, dataset, graph, corpus) for kind in self.KINDS}
        answers = {workload: {} for workload in self.WORKLOADS}
        times = {workload: {} for workload in self.WORKLOADS}
        for kind in self.KINDS:
            for workload, run in cells[kind]["ops"]:
                label = f"{workload}/{kind}"
                outcome.attempted += 1
                with watch.timed():
                    ok, result = _guarded(outcome, label, run)
                if ok:
                    answers[workload][kind], times[workload][kind] = result
                    outcome.ops.append((label, result[1]))
                    outcome.rows[f"op/{label}/virtual_ns"] = repr(result[1])
        self._check(outcome, dataset, corpus, answers)
        totals = SimTotals()
        for kind in self.KINDS:
            for label, platform in cells[kind]["platforms"]:
                _record_platform(outcome, label, platform)
                totals.add(platform)
        outcome.completion_ns = sum(ns for _label, ns in outcome.ops)
        outcome.layers = _simulated_layers(totals)
        for workload in self.WORKLOADS:
            ddc, teleport = times[workload].get("ddc"), times[workload].get("teleport")
            speedup = ddc / teleport if ddc and teleport else 0.0
            outcome.layers[f"model.speedup.{workload}"] = speedup
        return outcome

    def _prepare(self, kind, dataset, graph, corpus):
        """Platforms with their inputs loaded, and one closure per operation."""
        ops = []
        platforms = []
        config = scaled_config(dataset.nbytes, cache_ratio=self.CACHE_RATIO)
        platform = make_platform(kind, config)
        process = platform.new_process()
        tables = dataset.load_into(process)
        executor = QueryExecutor(
            platform.main_context(process),
            pushdown=self.TPCH_PUSHDOWN if kind == "teleport" else None,
        )
        platforms.append((f"tpch/{kind}", platform))
        for query, build in self.QUERIES.items():
            def run_query(build=build):
                result = executor.execute(build(tables))
                return result.value, result.time_ns
            ops.append((query, run_query))

        src, dst, weight = graph
        n = self.GRAPH_VERTICES
        graph_bytes = src.nbytes + dst.nbytes + weight.nbytes + 4 * n * 8
        for name, algorithm in self.GRAPH_ALGOS.items():
            platform = make_platform(kind, scaled_config(graph_bytes, cache_ratio=self.CACHE_RATIO))
            engine = GraphEngine(
                platform.main_context(), n, src, dst, weight,
                pushdown=self.GRAPH_PUSHDOWN if kind == "teleport" else (),
            )
            platforms.append((f"{name}/{kind}", platform))
            def run_graph(engine=engine, algorithm=algorithm):
                answer = algorithm(engine)
                return answer, engine.total_time_ns()
            ops.append((name, run_graph))

        for name, job_factory in self.MR_JOBS.items():
            platform = make_platform(kind, scaled_config(corpus.nbytes * 4, cache_ratio=self.CACHE_RATIO))
            engine = MapReduceEngine(
                platform.main_context(), corpus,
                pushdown=self.MR_PUSHDOWN if kind == "teleport" else (),
            )
            platforms.append((f"{name}/{kind}", platform))
            def run_job(engine=engine, job_factory=job_factory):
                answer = engine.run(job_factory())
                return answer, engine.total_time_ns()
            ops.append((name, run_job))
        return {"ops": ops, "platforms": platforms}

    def _check(self, outcome, dataset, corpus, answers):
        """Pushdown must not change answers; Q6, WC and Grep match numpy."""
        words, counts = np.unique(corpus, return_counts=True)
        word_counts = dict(zip(words.tolist(), counts.tolist()))
        grep_tokens = set(self.GREP_TOKENS)
        references = {
            "Q6": reference_q6(dataset),
            "WC": word_counts,
            "Grep": {w: c for w, c in word_counts.items() if w in grep_tokens},
        }
        for workload, by_kind in answers.items():
            if "local" not in by_kind:
                continue
            expected = _canon(by_kind["local"])
            for kind in ("ddc", "teleport"):
                if kind in by_kind and _canon(by_kind[kind]) != expected:
                    outcome.failures.append(f"{workload}/{kind}: answer differs from local")
            if workload not in references:
                continue
            reference = references[workload]
            if isinstance(reference, float):
                ok = abs(by_kind["local"] - reference) <= 1e-9 * max(1.0, abs(reference))
            else:
                ok = _canon(by_kind["local"]) == _canon(reference)
            if not ok:
                outcome.failures.append(f"{workload}/local: answer differs from numpy reference")


# ----------------------------------------------------------------------
# contention: the two-thread microbenchmark of Figs 21/22
# ----------------------------------------------------------------------
class Contention:
    """Two threads writing shared pages, per mode and contention rate: 20 operations."""

    name = "contention"
    MODES = ("base_ddc", "teleport_coherence", "teleport_pso", "teleport_relaxed")
    RATES = (0.000001, 0.00001, 0.0001, 0.001, 0.01)
    SPACE_MIB = 192
    ACCESSES = 20_000

    def spec(self, rate):
        return MicroSpec(
            mem_space_bytes=self.SPACE_MIB * MIB,
            n_accesses=self.ACCESSES,
            ops_per_access=350,
            compute_ops=int(self.ACCESSES * 267 * 2.1),
            step_size=max(1000, self.ACCESSES // 20),
            contention_rate=rate,
        )

    def iteration(self, seed, watch):
        outcome = Outcome()
        totals = SimTotals()
        for rate in self.RATES:
            spec = self.spec(rate)
            config = scaled_config(spec.mem_space_bytes, cache_ratio=0.02, seed=seed)
            checksums = {}
            for mode in self.MODES:
                label = f"{mode}@{rate:g}"
                outcome.attempted += 1
                # Each cell holds a whole space; drop the last one first.
                gc.collect()
                with watch.setup():
                    runner = _Runner(spec, config, mode)
                with watch.timed():
                    ok, result = _guarded(outcome, label, runner.run)
                if ok:
                    checksums[mode] = runner.results["checksum"]
                    outcome.ops.append((label, result.total_ns))
                    outcome.rows[f"op/{label}/virtual_ns"] = repr(result.total_ns)
                    outcome.rows[f"op/{label}/checksum"] = repr(checksums[mode])
                _record_platform(outcome, label, runner.platform)
                totals.add(runner.platform)
                runner = None
            if len(set(checksums.values())) > 1:
                outcome.failures.append(f"rate {rate:g}: checksums differ across modes {checksums}")
        outcome.completion_ns = sum(ns for _label, ns in outcome.ops)
        outcome.layers = _simulated_layers(totals)
        return outcome


# ----------------------------------------------------------------------
# serve-mixed: the mixed-residency tenant mix under adaptive offload
# ----------------------------------------------------------------------
class ServeMixed:
    """Hot SQL, two cold MapReduce and a k-hop graph tenant on one platform."""

    name = "serve-mixed"
    CACHE_BYTES = 2 * MIB
    SQL_ROWS = 40_000
    SQL_REQUESTS = 80
    MR_TOKENS = 4_800_000
    MR_SPLITS = 120
    GRAPH_VERTICES = 4096
    GRAPH_REQUESTS = 120

    def tenants(self, seed):
        """(name, workload builder, arrival ns, weight, request count)."""
        return [
            ("sql-hot", sql_workload(n_rows=self.SQL_ROWS, n_requests=self.SQL_REQUESTS,
                                     seed=seed), 0.0, 2.0, self.SQL_REQUESTS),
            ("mr-cold", mapreduce_workload(n_tokens=self.MR_TOKENS, n_splits=self.MR_SPLITS,
                                           seed=seed + 1), 1e6, 1.0, self.MR_SPLITS),
            ("mr-burst", mapreduce_workload(n_tokens=self.MR_TOKENS, n_splits=self.MR_SPLITS,
                                            seed=seed + 2), 1.2e6, 0.5, self.MR_SPLITS),
            ("graph", graph_workload(n_vertices=self.GRAPH_VERTICES,
                                     n_requests=self.GRAPH_REQUESTS, seed=seed + 3),
             2e6, 1.0, self.GRAPH_REQUESTS),
        ]

    def iteration(self, seed, watch):
        outcome = Outcome()
        with watch.setup():
            config = DdcConfig(compute_cache_bytes=self.CACHE_BYTES, seed=seed)
            server = Server(config, offload=OffloadPolicy.ADAPTIVE, queue_policy=QueuePolicy.FAIR)
            for name, builder, arrival_ns, weight, requests in self.tenants(seed):
                server.admit(name, builder, arrival_ns=arrival_ns, weight=weight)
                outcome.attempted += requests
        with watch.timed():
            ok, report = _guarded(outcome, "server.run", server.run)
        records = [record for tenant in server.tenants for record in tenant.records]
        missing = outcome.attempted - len(records) - outcome.failed
        outcome.failures.extend(["request did not complete"] * missing)
        for record in records:
            label = f"{record.tenant}/{record.name}"
            outcome.ops.append((label, record.latency_ns))
            outcome.rows[f"op/{label}/virtual_ns"] = repr(record.latency_ns)
            outcome.rows[f"op/{label}/pushed"] = repr(record.pushed)
        _record_platform(outcome, "server", server.platform)
        totals = SimTotals()
        totals.add(server.platform)
        outcome.layers = _simulated_layers(totals)
        if ok:
            outcome.completion_ns = report.total_completion_ns
            delays = report.queue_delays_ns()
            for tenant, delay in delays.items():
                outcome.rows[f"queue_delay/{tenant}"] = repr(delay)
            outcome.layers["serve.pushed_frac"] = report.pushed / len(report.records)
            outcome.layers["serve.queue_wait_ms"] = sum(delays.values()) / 1e6
        outcome.rows["completion_ns"] = repr(outcome.completion_ns)
        return outcome


WORKLOADS = {workload.name: workload for workload in (Paper8, Contention, ServeMixed)}
