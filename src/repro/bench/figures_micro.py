"""Figure runners for the microbenchmarks (Figures 6, 7, 17, 20, 21, 22)."""

from repro.bench.results import FigureResult
from repro.bench.workloads import effort_params
from repro.ddc import make_platform
from repro.micro import MicroSpec, parallel_aggregation_speedups, run_micro, shared_space
from repro.sim.config import DdcConfig, scaled_config
from repro.sim.units import MIB, MS, SEC
from repro.teleport.flags import SyncMethod


def _micro_spec(effort, **overrides):
    params = effort_params(effort)
    accesses = params["micro_accesses"]
    base = dict(
        mem_space_bytes=params["micro_space_mib"] * MIB,
        n_accesses=accesses,
        ops_per_access=350,
        # Calibrated so both threads take equal time locally.
        compute_ops=int(accesses * 267 * 2.1),
        step_size=max(1000, accesses // 20),
    )
    base.update(overrides)
    return MicroSpec(**base)


def _micro_config(spec, **overrides):
    return scaled_config(spec.mem_space_bytes, cache_ratio=0.02, **overrides)


def run_fig06_sync_ablation(effort="quick"):
    """Figure 6: data synchronisation ablation (paper speedups over base
    DDC: full-process 2.9x, per-thread 3.8x, coherence 11x)."""
    spec = _micro_spec(effort)
    config = _micro_config(spec)
    modes = [
        ("Local execution", "local"),
        ("Base DDC", "base_ddc"),
        ("TELEPORT (per process)", "teleport_process"),
        ("TELEPORT (per thread)", "teleport_thread"),
        ("TELEPORT (coherence)", "teleport_coherence"),
    ]
    results = {mode: run_micro(spec, config, mode) for _label, mode in modes}
    base_ns = results["base_ddc"].total_ns
    figure = FigureResult(
        figure="fig06",
        title="Two-thread microbenchmark across sync approaches",
        columns=["system", "time_s", "speedup_vs_base_ddc"],
    )
    for label, mode in modes:
        figure.add(
            system=label,
            time_s=results[mode].total_ns / SEC,
            speedup_vs_base_ddc=base_ns / results[mode].total_ns,
        )
    return figure


def run_fig07_false_sharing(effort="quick"):
    """Figure 7: manual syncmem vs the coherence protocol under false
    sharing (paper: 4.6x vs 11x over base DDC)."""
    spec = _micro_spec(effort, contention_rate=0.01)
    config = _micro_config(spec)
    modes = [
        ("Local execution", "local"),
        ("Base DDC", "base_ddc"),
        ("TELEPORT (coherence)", "teleport_coherence"),
        ("TELEPORT (syncmem)", "teleport_syncmem"),
    ]
    results = {mode: run_micro(spec, config, mode) for _label, mode in modes}
    base_ns = results["base_ddc"].total_ns
    figure = FigureResult(
        figure="fig07",
        title="False sharing: default coherence vs manual syncmem",
        columns=["system", "time_s", "speedup_vs_base_ddc", "coherence_messages"],
    )
    for label, mode in modes:
        figure.add(
            system=label,
            time_s=results[mode].total_ns / SEC,
            speedup_vs_base_ddc=base_ns / results[mode].total_ns,
            coherence_messages=results[mode].coherence_messages,
        )
    return figure


def run_fig17_parallelism(effort="quick"):
    """Figure 17: speedup from parallel pushdown user contexts (paper:
    rising with diminishing returns past the 2 physical cores)."""
    params = effort_params(effort)
    config = DdcConfig(
        compute_cache_bytes=4 * MIB,
        memory_pool_cores=2,
        compute_clock_ghz=2.1,
        memory_clock_ghz=2.1,
    )
    rows = max(120_000, params["micro_accesses"] * 3)
    speedups = parallel_aggregation_speedups(
        config, contexts=(1, 2, 3, 4), n_threads=8, rows=rows
    )
    figure = FigureResult(
        figure="fig17",
        title="Parallel pushdown speedup vs number of user contexts "
        "(8 compute threads, 2 memory-pool cores)",
        columns=["user_contexts", "speedup_vs_single"],
    )
    for contexts, speedup in sorted(speedups.items()):
        figure.add(user_contexts=contexts, speedup_vs_single=speedup)
    return figure


def run_fig20_sync_breakdown(effort="quick"):
    """Figures 19/20: component breakdown of one pushdown call, eager vs
    on-demand synchronisation (paper: ~3.5s vs ~0.3s for a 1 GB cache)."""
    params = effort_params(effort)
    space_bytes = params["micro_space_mib"] * MIB
    figure = FigureResult(
        figure="fig20",
        title="Pushdown cost breakdown by sync method (user function excluded)",
        columns=["method", "component", "time_ms"],
        notes="components follow Figure 19's numbering",
    )
    totals = {}
    for label, sync in (("eager", SyncMethod.EAGER), ("on-demand", SyncMethod.ON_DEMAND)):
        config = scaled_config(space_bytes, cache_ratio=0.02)
        platform = make_platform("teleport", config)
        process = platform.new_process()
        space, _rng = shared_space(config.seed, space_bytes // 8)
        region = process.alloc_array("space", space)
        ctx = platform.main_context(process)
        # Warm the cache with dirty pages, as in a running application.
        ctx.touch_seq(region, 0, len(region.array), write=True)
        ctx.pushdown(lambda mctx: None, sync=sync)
        breakdown = platform.teleport.breakdowns[-1]
        components = [
            ("1 pre-pushdown sync", breakdown.pre_sync_ns),
            ("2 request transfer", breakdown.request_ns),
            ("3 context setup", breakdown.context_setup_ns),
            ("4 online sync", breakdown.online_sync_ns),
            ("5 response transfer", breakdown.response_ns),
            ("6 post-pushdown sync", breakdown.post_sync_ns),
        ]
        for component, ns in components:
            figure.add(method=label, component=component, time_ms=ns / MS)
        totals[label] = breakdown.overhead_ns - breakdown.queue_wait_ns
    figure.notes += (
        f"; totals: eager {totals['eager'] / MS:.2f} ms vs "
        f"on-demand {totals['on-demand'] / MS:.2f} ms"
    )
    return figure


#: Contention rates of the Figure 21/22 sweep (fractions of operations).
CONTENTION_RATES = (0.000001, 0.00001, 0.0001, 0.001, 0.01)


def run_fig21_contention(effort="quick"):
    """Figure 21: execution time vs contention rate per system."""
    figure = FigureResult(
        figure="fig21",
        title="Two-thread performance vs shared-write contention rate",
        columns=["contention_rate", "local_s", "base_ddc_s",
                 "teleport_default_s", "teleport_relaxed_s"],
    )
    for rate in CONTENTION_RATES:
        spec = _micro_spec(effort, contention_rate=rate)
        config = _micro_config(spec)
        row = {"contention_rate": rate}
        for column, mode in (
            ("local_s", "local"),
            ("base_ddc_s", "base_ddc"),
            ("teleport_default_s", "teleport_coherence"),
            ("teleport_relaxed_s", "teleport_relaxed"),
        ):
            row[column] = run_micro(spec, config, mode).total_ns / SEC
        figure.add(**row)
    return figure


def run_fig22_messages(effort="quick"):
    """Figure 22: coherence messages vs contention rate (default grows,
    the weak-ordering relaxation stays flat)."""
    figure = FigureResult(
        figure="fig22",
        title="Coherence protocol messages vs contention rate",
        columns=["contention_rate", "default_messages", "relaxed_messages"],
    )
    for rate in CONTENTION_RATES:
        spec = _micro_spec(effort, contention_rate=rate)
        config = _micro_config(spec)
        default = run_micro(spec, config, "teleport_coherence")
        relaxed = run_micro(spec, config, "teleport_relaxed")
        figure.add(
            contention_rate=rate,
            default_messages=default.coherence_messages,
            relaxed_messages=relaxed.coherence_messages,
        )
    return figure
