"""Figure runners for the DBMS experiments (Figures 1, 12, 14, 15, 16, 18)."""

from repro.bench.results import FigureResult, geomean
from repro.bench.workloads import tpch_dataset, tpch_runs
from repro.db import CostBasedOptimizer, IntensityPlanner
from repro.distdb import SPARKSQL, VERTICA, DistributedEngine
from repro.sim.config import scaled_config
from repro.sim.units import SEC

#: The memory-intensive queries of the paper's headline experiments.
HEADLINE_QUERIES = ("Q9", "Q3", "Q6")


def run_fig14_vs_ssd(effort="quick"):
    """Figure 14: remote memory vs NVMe-SSD spill, per query.

    All three systems get the same small local memory (the paper's 1 GB);
    Linux spills to SSD, the DDCs page to the memory pool.
    """
    dataset = tpch_dataset(effort)
    cache_ratio = 0.02
    result = FigureResult(
        figure="fig14",
        title="Query speedups from disaggregated memory vs NVMe SSD",
        columns=["query", "linux_ssd_s", "base_ddc_s", "teleport_s",
                 "ddc_speedup", "teleport_speedup"],
        notes="local memory = 2% of working set on every system",
    )
    # Linux with DRAM limited like the DDC cache: everything else swaps.
    ssd = tpch_runs(
        dataset, "local", HEADLINE_QUERIES, cache_ratio,
        config_overrides={"local_ram_bytes": max(1, int(dataset.nbytes * cache_ratio))},
    )
    ddc = tpch_runs(dataset, "ddc", HEADLINE_QUERIES, cache_ratio)
    teleport = tpch_runs(dataset, "teleport", HEADLINE_QUERIES, cache_ratio)
    for query, *runs in zip(HEADLINE_QUERIES, ssd, ddc, teleport):
        ssd_ns, ddc_ns, tp_ns = (run.time_ns for run in runs)
        result.add(
            query=query,
            linux_ssd_s=ssd_ns / SEC,
            base_ddc_s=ddc_ns / SEC,
            teleport_s=tp_ns / SEC,
            ddc_speedup=ssd_ns / ddc_ns,
            teleport_speedup=ssd_ns / tp_ns,
        )
    return result


def run_fig01a_motivation(effort="quick"):
    """Figure 1a: the benefits of DDCs — geomean speedup over SSD spill."""
    per_query = run_fig14_vs_ssd(effort)
    result = FigureResult(
        figure="fig01a",
        title="Geomean query speedup over NVMe-SSD spill (paper: 9.3x / 39.5x)",
        columns=["system", "speedup"],
    )
    result.add(system="Base DDC", speedup=geomean(per_query.series("ddc_speedup")))
    result.add(system="TELEPORT", speedup=geomean(per_query.series("teleport_speedup")))
    return result


def run_fig01b_cost_of_scaling(effort="quick"):
    """Figure 1b: cost of scaling vs a monolithic server with the same
    resources (paper: SparkSQL 1.2x, Vertica 2.3x, base DDC 5.4x,
    TELEPORT 1.8x)."""
    dataset = tpch_dataset(effort)
    cache_ratio = 0.10  # the paper's 10%-of-working-set setting
    result = FigureResult(
        figure="fig01b",
        title="Average TPC-H cost of scaling (normalized to local execution)",
        columns=["system", "cost_of_scaling"],
    )
    for profile in (SPARKSQL, VERTICA):
        engine = DistributedEngine(profile, n_workers=4)
        result.add(system=profile.name, cost_of_scaling=engine.cost_of_scaling(dataset))

    local, ddc, teleport = (
        tpch_runs(dataset, kind, ("Q1",) + HEADLINE_QUERIES, cache_ratio)
        for kind in ("local", "ddc", "teleport")
    )
    ratios_ddc = [run.time_ns / base.time_ns for run, base in zip(ddc, local)]
    ratios_tp = [run.time_ns / base.time_ns for run, base in zip(teleport, local)]
    result.add(system="MonetDB (Base DDC)", cost_of_scaling=geomean(ratios_ddc))
    result.add(system="MonetDB (TELEPORT)", cost_of_scaling=geomean(ratios_tp))
    return result


def run_fig12_qfilter(effort="quick"):
    """Figure 12: pushing Q_filter's operators down (paper: 2.1-5.5x)."""
    dataset = tpch_dataset(effort)
    profiles = {
        kind: tpch_runs(dataset, kind, ("Qfilter",), pushdown="all")[0].profiles
        for kind in ("local", "ddc", "teleport")
    }
    result = FigureResult(
        figure="fig12",
        title="Q_filter per-operator times (selection + projection + aggregation)",
        columns=["operator", "local_s", "base_ddc_s", "teleport_s", "speedup"],
    )
    for index, profile in enumerate(profiles["local"]):
        ddc_ns = profiles["ddc"][index].time_ns
        tp_ns = profiles["teleport"][index].time_ns
        result.add(
            operator=profile.kind,
            local_s=profile.time_ns / SEC,
            base_ddc_s=ddc_ns / SEC,
            teleport_s=tp_ns / SEC,
            speedup=ddc_ns / tp_ns,
        )
    return result


def run_fig15_memory_sweep(effort="quick"):
    """Figure 15: growing the (total) memory for a working set that far
    exceeds the paper's 1 GB compute-local cache (Q9 at the large scale
    factor). Linux cannot reach the largest size — the paper's N/A bar."""
    dataset = tpch_dataset(effort, large=True)
    fractions = (0.005, 0.03, 0.12, 1.1)
    cache_bytes = max(1, int(dataset.nbytes * 0.02))
    result = FigureResult(
        figure="fig15",
        title="Q9 execution vs total memory size (large scale factor)",
        columns=["memory_fraction", "linux_s", "base_ddc_s", "teleport_s"],
        notes="memory_fraction is total memory / database size; "
        "Linux N/A at the largest size (exceeds server capacity)",
    )
    for index, fraction in enumerate(fractions):
        memory_bytes = max(cache_bytes, int(dataset.nbytes * fraction))
        linux_ns = None
        if index != len(fractions) - 1:
            linux_ns = tpch_runs(
                dataset, "local", ("Q9",), config_overrides={"local_ram_bytes": memory_bytes}
            )[0].time_ns
        pool = {"memory_pool_bytes": memory_bytes, "compute_cache_bytes": cache_bytes}
        ddc = tpch_runs(dataset, "ddc", ("Q9",), config_overrides=pool)[0]
        teleport = tpch_runs(dataset, "teleport", ("Q9",), config_overrides=pool)[0]
        result.add(
            memory_fraction=fraction,
            linux_s=None if linux_ns is None else linux_ns / SEC,
            base_ddc_s=ddc.time_ns / SEC,
            teleport_s=teleport.time_ns / SEC,
        )
    return result


def run_fig16_clock_sweep(effort="quick"):
    """Figure 16: pushdown speedup vs memory-pool CPU clock (paper: 17x at
    0.4 GHz rising to a ~29x plateau above 1.7 GHz)."""
    dataset = tpch_dataset(effort)
    base_ns = tpch_runs(dataset, "ddc", ("Q9",))[0].time_ns
    result = FigureResult(
        figure="fig16",
        title="Q9 pushdown speedup vs memory-pool clock speed",
        columns=["clock_ghz", "teleport_s", "speedup_vs_base_ddc"],
    )
    for clock in (0.4, 0.8, 1.2, 1.7, 2.1):
        tp_ns = tpch_runs(
            dataset, "teleport", ("Q9",), config_overrides={"memory_clock_ghz": clock}
        )[0].time_ns
        result.add(
            clock_ghz=clock,
            teleport_s=tp_ns / SEC,
            speedup_vs_base_ddc=base_ns / tp_ns,
        )
    return result


def run_fig18_pushdown_level(effort="quick"):
    """Figure 18: sweeping how many operators are pushed down under a
    throttled memory pool — being too aggressive backfires."""
    dataset = tpch_dataset(effort)

    # Profile once on the base DDC to rank operator kinds by memory
    # intensity (the paper ranks Q9's 8 operator types this way).
    profiles = tpch_runs(dataset, "ddc", ("Q9",))[0].profiles
    planner = IntensityPlanner(profiles)
    n_kinds = len(planner.kind_intensities())
    levels = [
        ("none", 0),
        ("top 1", 1),
        ("top 4", min(4, n_kinds)),
        ("top 6", min(6, n_kinds)),
        ("all", n_kinds),
    ]
    result = FigureResult(
        figure="fig18",
        title="Q9 vs level of pushdown under a throttled memory pool",
        columns=["throttle", "level", "pushed", "time_s", "speedup_vs_none"],
        notes="operator kinds ranked by profiled memory intensity (Section 7.4)",
    )
    for throttle, label in ((0.5, "50% clock"), (0.25, "75% lower clock")):
        throttled = {"memory_clock_ghz": 2.1 * throttle}
        times = {}
        pushed_counts = {}
        for level_name, k in levels:
            times[level_name] = tpch_runs(
                dataset, "teleport", ("Q9",),
                pushdown=planner.top_kinds(k, min_time_share=0.02),
                config_overrides=throttled,
            )[0].time_ns
            pushed_counts[level_name] = k
        # The cost-based optimizer (future work of Section 5.1) picks its
        # own operator set from the profile and the throttled cost model.
        optimizer = CostBasedOptimizer(profiles, scaled_config(dataset.nbytes, **throttled))
        chosen = optimizer.choose()
        times["cost-based"] = tpch_runs(
            dataset, "teleport", ("Q9",), pushdown=chosen, config_overrides=throttled
        )[0].time_ns
        pushed_counts["cost-based"] = len(chosen)
        for level_name in [name for name, _k in levels] + ["cost-based"]:
            result.add(
                throttle=label,
                level=level_name,
                pushed=pushed_counts[level_name],
                time_s=times[level_name] / SEC,
                speedup_vs_none=times["none"] / times[level_name],
            )
    return result


def run_fig18_intensity_profile(effort="quick"):
    """Companion to Figure 18: the profiled memory-intensity ranking."""
    dataset = tpch_dataset(effort)
    planner = IntensityPlanner(tpch_runs(dataset, "ddc", ("Q9",))[0].profiles)
    result = FigureResult(
        figure="fig18-profile",
        title="Q9 operators ranked by memory intensity (remote pages / s)",
        columns=["rank", "operator", "intensity"],
    )
    for rank, label in enumerate(planner.ranked_labels(), start=1):
        result.add(rank=rank, operator=label, intensity=planner.intensity_of(label))
    return result


__all__ = [
    "HEADLINE_QUERIES",
    "run_fig01a_motivation",
    "run_fig01b_cost_of_scaling",
    "run_fig12_qfilter",
    "run_fig14_vs_ssd",
    "run_fig15_memory_sweep",
    "run_fig16_clock_sweep",
    "run_fig18_intensity_profile",
    "run_fig18_pushdown_level",
]
