"""Ablations of this reproduction's own design choices.

DESIGN.md's calibration notes call out three mechanisms whose settings
shape every result: the sequential prefetcher of the compute-pool cache,
the RLE compression of the resident-page list (Section 6 of the paper
reports 20x), and the choice of coherence mode. Each ablation sweeps one
of them with everything else fixed.
"""

from repro.bench.results import FigureResult
from repro.bench.workloads import effort_params, tpch_dataset, tpch_runs
from repro.ddc import make_platform
from repro.micro import MicroSpec, run_micro, shared_space
from repro.sim.config import scaled_config
from repro.sim.units import MIB, MS, SEC


def run_ablation_prefetch(effort="quick"):
    """Prefetch-degree sweep: how much OS prefetching helps scans.

    The paper's premise (Section 1): OS-level caching and prefetching "on
    their own are insufficient" — prefetching amortises network latency
    but not the per-page fault software cost, so scan-heavy queries stay
    several times slower than local no matter the degree.
    """
    dataset = tpch_dataset(effort)
    local_ns = tpch_runs(dataset, "local", ("Q6",))[0].time_ns
    result = FigureResult(
        figure="ablation-prefetch",
        title="Q6 on the base DDC vs sequential prefetch degree",
        columns=["prefetch_degree", "ddc_s", "slowdown_vs_local"],
        notes="prefetching helps but cannot close the gap (per-page trap cost)",
    )
    for degree in (1, 2, 4, 8, 16):
        ddc_ns = tpch_runs(
            dataset, "ddc", ("Q6",), config_overrides={"prefetch_degree": degree}
        )[0].time_ns
        result.add(
            prefetch_degree=degree,
            ddc_s=ddc_ns / SEC,
            slowdown_vs_local=ddc_ns / local_ns,
        )
    return result


def run_ablation_rle(effort="quick"):
    """Resident-list compression: the Section 6 RLE optimisation.

    Without compression the page list of a well-populated cache would not
    fit a single RDMA message; with the paper's 20x it does. The sweep
    shows the request-transfer component of the pushdown breakdown
    shrinking with the compression ratio.
    """
    params = effort_params(effort)
    space_bytes = params["micro_space_mib"] * MIB
    result = FigureResult(
        figure="ablation-rle",
        title="Pushdown request transfer vs resident-list compression",
        columns=["compression", "request_ms", "total_overhead_ms"],
    )
    for compression in (1.0, 5.0, 20.0, 100.0):
        # A generously sized cache, so the resident list is long enough
        # for its transfer to dominate one message's latency.
        config = scaled_config(space_bytes, cache_ratio=0.25, rle_compression=compression)
        platform = make_platform("teleport", config)
        process = platform.new_process()
        space, _rng = shared_space(config.seed, space_bytes // 8)
        region = process.alloc_array("space", space)
        ctx = platform.main_context(process)
        ctx.touch_seq(region, 0, len(region.array))  # warm the cache
        ctx.pushdown(lambda mctx: None)
        breakdown = platform.teleport.breakdowns[-1]
        result.add(
            compression=compression,
            request_ms=breakdown.request_ns / MS,
            total_overhead_ms=(breakdown.overhead_ns - breakdown.queue_wait_ns) / MS,
        )
    return result


def run_ablation_coherence_modes(effort="quick"):
    """Coherence-mode comparison under writer-writer contention.

    MESI pays per contended write; PSO demotes instead of evicting (fewer
    transfers back); weak ordering defers everything to the boundary.
    """
    params = effort_params(effort)
    spec = MicroSpec(
        mem_space_bytes=params["micro_space_mib"] * MIB,
        n_accesses=params["micro_accesses"],
        ops_per_access=350,
        compute_ops=int(params["micro_accesses"] * 267 * 2.1),
        step_size=max(1000, params["micro_accesses"] // 20),
        contention_rate=0.01,
    )
    config = scaled_config(spec.mem_space_bytes, cache_ratio=0.02)
    result = FigureResult(
        figure="ablation-coherence",
        title="Coherence modes under 1% writer-writer contention",
        columns=["mode", "time_s", "messages", "invalidations"],
    )
    for label, mode in (
        ("MESI (default)", "teleport_coherence"),
        ("PSO relaxation", "teleport_pso"),
        ("weak ordering", "teleport_relaxed"),
    ):
        run = run_micro(spec, config, mode)
        result.add(
            mode=label,
            time_s=run.total_ns / SEC,
            messages=run.coherence_messages,
            invalidations=run.remote_pages,  # proxy: pages moved overall
        )
    return result
