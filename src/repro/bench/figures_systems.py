"""Figure runners spanning all three systems (Figures 3, 10, 11, 13)."""

import inspect

from repro.bench.results import FigureResult
from repro.bench.workloads import engine_run, tpch_dataset, tpch_runs
from repro.graph import GraphEngine
from repro.mapreduce import MapReduceEngine
from repro.db.operators import Aggregate, HashJoin, Projection, Selection
from repro.graph import algorithms as graph_algorithms
from repro.sim.units import SEC

WORKLOADS = ("Q9", "Q3", "Q6", "SSSP", "RE", "CC", "WC", "Grep")


def workload_times(effort, kinds):
    """Execution time of each of the paper's eight workloads per platform.

    TPC-H queries share one platform per kind (a session executing the
    benchmark); graph and MapReduce workloads get fresh engines.
    """
    times = {workload: {} for workload in WORKLOADS}
    dataset = tpch_dataset(effort)
    for kind in kinds:
        runs = tpch_runs(dataset, kind, WORKLOADS[:3])
        runs += tuple(engine_run(effort, kind, name) for name in WORKLOADS[3:])
        for workload, run in zip(WORKLOADS, runs):
            times[workload][kind] = run.time_ns
    return times


def run_fig03_ddc_overhead(effort="quick"):
    """Figure 3: DDC overhead vs a monolithic server (paper: 5-52.4x)."""
    times = workload_times(effort, ("local", "ddc"))
    result = FigureResult(
        figure="fig03",
        title="Base-DDC execution time vs local execution",
        columns=["workload", "local_s", "ddc_s", "slowdown"],
    )
    for workload in WORKLOADS:
        local_ns = times[workload]["local"]
        ddc_ns = times[workload]["ddc"]
        result.add(
            workload=workload,
            local_s=local_ns / SEC,
            ddc_s=ddc_ns / SEC,
            slowdown=ddc_ns / local_ns,
        )
    return result


def run_fig13_effectiveness(effort="quick"):
    """Figure 13: all eight workloads normalised to local execution
    (paper speedups over base DDC: 2x to 29.1x)."""
    times = workload_times(effort, ("local", "ddc", "teleport"))
    result = FigureResult(
        figure="fig13",
        title="Execution time normalised to local; TELEPORT speedup over base DDC",
        columns=["workload", "ddc_over_local", "teleport_over_local", "speedup"],
    )
    for workload in WORKLOADS:
        local_ns = times[workload]["local"]
        ddc_ns = times[workload]["ddc"]
        tp_ns = times[workload]["teleport"]
        result.add(
            workload=workload,
            ddc_over_local=ddc_ns / local_ns,
            teleport_over_local=tp_ns / local_ns,
            speedup=ddc_ns / tp_ns,
        )
    return result


def run_fig10_breakdown(effort="quick"):
    """Figure 10: per-operator/phase breakdown of the most expensive query
    in each system, local vs DDC, with remote traffic."""
    result = FigureResult(
        figure="fig10",
        title="Component breakdown: Q9 (DBMS), SSSP (graph), WordCount (MapReduce)",
        columns=["system", "component", "local_s", "ddc_s", "ddc_remote_mb"],
    )
    # --- MonetDB-analogue: Q9 by operator kind -------------------------
    dataset = tpch_dataset(effort)
    local, ddc = (tpch_runs(dataset, kind, ("Q9",))[0] for kind in ("local", "ddc"))
    local_by_kind = local.breakdown_by_kind()
    ddc_by_kind = ddc.breakdown_by_kind()
    remote_by_kind = {}
    for profile in ddc.profiles:
        remote_by_kind[profile.kind] = (
            remote_by_kind.get(profile.kind, 0) + profile.remote_bytes
        )
    for kind in ("projection", "hashjoin", "mergejoin", "expression", "group"):
        result.add(
            system="DBMS/Q9",
            component=kind,
            local_s=local_by_kind.get(kind, 0.0) / SEC,
            ddc_s=ddc_by_kind.get(kind, 0.0) / SEC,
            ddc_remote_mb=remote_by_kind.get(kind, 0) / 1e6,
        )
    # --- PowerGraph-analogue: SSSP by phase; Phoenix-analogue: WordCount by phase
    for system, workload, phases in (
        ("Graph/SSSP", "SSSP", ("finalize", "scatter", "apply", "gather")),
        ("MapReduce/WC", "WC", ("map_compute", "map_shuffle", "reduce", "merge")),
    ):
        local, ddc = (engine_run(effort, kind, workload).profiles for kind in ("local", "ddc"))
        for phase in phases:
            result.add(
                system=system,
                component=phase,
                local_s=local[phase].time_s,
                ddc_s=ddc[phase].time_s,
                ddc_remote_mb=ddc[phase].remote_bytes() / 1e6,
            )
    return result


def run_fig11_code_table(effort="quick"):
    """Figure 11: lines of code of each pushdown-capable component.

    The paper reports how little code each pushdown needs (under 100
    lines); this table measures the same property of this reproduction's
    pushdown functions.
    """
    del effort  # static inventory, no workload
    entries = [
        ("DBMS", "Projection", "Gather a column at candidate positions",
         Projection.run),
        ("DBMS", "Aggregation", "Apply an aggregate function over tuples",
         Aggregate.run),
        ("DBMS", "Selection", "Filter tuples into a candidate list",
         Selection.run),
        ("DBMS", "HashJoin", "Build + probe a hash index",
         HashJoin.run),
        ("Graph", "Finalize", "Partition and shuffle the graph",
         GraphEngine._finalize_body),
        ("Graph", "Scatter/Gather", "Exchange and combine vertex messages",
         graph_algorithms.sssp),
        ("MapReduce", "MapShuffle", "Shuffle key-values to reduce buffers",
         MapReduceEngine._map_shuffle_body),
    ]
    result = FigureResult(
        figure="fig11",
        title="Pushed-down code size per operator (paper: all under 100 LoC)",
        columns=["system", "operator", "functionality", "pushed_loc"],
    )
    for system, operator, functionality, fn in entries:
        source = inspect.getsource(fn)
        loc = sum(
            1
            for line in source.splitlines()
            if line.strip() and not line.strip().startswith("#")
        )
        result.add(
            system=system, operator=operator, functionality=functionality,
            pushed_loc=loc,
        )
    return result

