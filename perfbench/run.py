"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper8 --seed 2022 --seconds 30 --trace 0

The simulator is imported from ``src/`` next to this directory; nothing
needs installing. The workload runs again and again, each time from fresh
inputs built from ``--seed``, until ``--seconds`` of host time have passed
and at least three iterations followed a warm-up one. Host times are
medians over the iterations after the warm-up.

Host times are scaled to a reference host speed. Co-tenants of a shared
machine slow every instruction of this process for seconds at a time (by
up to 1.8x on a shared 2-core x86 host), which no number of repetitions
averages out. So a fixed probe (:class:`HostProbe`) is timed every 50 ms
of each iteration, and a phase's wall seconds (minus the probes) are
multiplied by ``PROBE_REFERENCE_S / median(probe times in that phase)``.
The raw wall seconds and probe times are printed beside the result.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with every layer wrapped (see ``tracing.py``), and
reports the per-layer metrics, including the tracing overhead.

Every iteration's simulated results are hashed into a digest. The digest
must be the same in every iteration, traced or not; its rows are written to
``perfbench/out/digest-<workload>-<seed>.json`` and a traced run's spans to
``perfbench/out/trace-<workload>-<seed>.json``. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
MIN_ITERATIONS = 3
PROBE_INTERVAL_S = 0.05
#: The reference probe time. Inside a running workload, with its caches
#: cold, the probe reads about this on an unloaded 2-core x86 host, so
#: scaled host times there are close to wall seconds.
PROBE_REFERENCE_S = 250e-6
#: A phase with fewer probe samples is scaled by the whole iteration's.
MIN_PHASE_SAMPLES = 5

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sim_completion_ms": "ms",
    "sim_p50_ms": "ms",
    "sim_p90_ms": "ms",
}
PER_LAYER = {
    "bench.gen_s": "s",
    "ddc.alloc_s": "s",
    "ddc.access_s": "s",
    "ddc.random_accesses": "count",
    "ddc.seq_pages": "count",
    "ddc.local.accesses_per_s": "1/s",
    "ddc.compute.accesses_per_s": "1/s",
    "ddc.memory.accesses_per_s": "1/s",
    "ddc.repeat_page_frac": "ratio",
    "teleport.pushdown_s": "s",
    "teleport.setup_s": "s",
    "teleport.pushdowns": "count",
    "teleport.ptes_cloned": "count",
    "teleport.coherence_messages": "count",
    "teleport.invalidations": "count",
    "teleport.tiebreaks": "count",
    "teleport.pre_sync_ms": "ms",
    "teleport.setup_ms": "ms",
    "teleport.online_sync_ms": "ms",
    "teleport.post_sync_ms": "ms",
    "teleport.queue_wait_ms": "ms",
    "teleport.fallbacks": "count",
    "mem.cache_hit_ratio": "ratio",
    "mem.evictions": "count",
    "mem.dirty_writebacks": "count",
    "mem.storage_faults": "count",
    "sim.remote_mb": "MB",
    "sim.rpc_messages": "count",
    "micro.interleave_s": "s",
    "db.execute_s": "s",
    "graph.algo_s": "s",
    "mapreduce.run_s": "s",
    "serve.run_s": "s",
    "serve.pool_s": "s",
    "serve.decide_s": "s",
    "serve.pushed_frac": "ratio",
    "serve.queue_wait_ms": "ms",
    **{f"model.speedup.{w}": "x" for w in ("Q9", "Q3", "Q6", "SSSP", "RE", "CC", "WC", "Grep")},
    "bench.trace_overhead": "x",
    "error_rate": "ratio",
}


class HostProbe:
    """Three fixed loops whose slow-down tracks the host's.

    Co-tenants slow interpreter work, cache-missing work and memory latency
    by different factors, and the workloads mix all three, so a sample is
    the geometric mean of: dict updates in a small table, LRU moves in a
    64 k-entry OrderedDict (like the simulator's page cache), and a numpy
    gather from a 64 MiB array.
    """

    def __init__(self):
        self.lru = OrderedDict.fromkeys(range(1 << 16), 0)
        self.lru_keys = [(i * 40503) & 0xFFFF for i in range(500)]
        rng = np.random.default_rng(0)
        self.array = rng.random(8_000_000)
        self.indices = rng.integers(0, len(self.array), 10_000)

    def sample(self):
        """(seconds spent, geometric mean of the three loops' seconds)."""
        clock = time.perf_counter
        t0 = clock()
        table = {}
        for i in range(1000):
            table[i & 255] = table.get((i * 7) & 255, 0) + i
        t1 = clock()
        for key in self.lru_keys:
            self.lru.move_to_end(key)
        t2 = clock()
        self.array.take(self.indices).sum()
        t3 = clock()
        return t3 - t0, ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1 / 3)


class Stopwatch:
    """Host seconds of one iteration's set-up and timed phase, with the
    probe samples taken in each."""

    def __init__(self, probe):
        self.probe = probe
        self.wall = {"setup": 0.0, "run": 0.0}
        self.probe_wall = {"setup": 0.0, "run": 0.0}
        self.samples = {"setup": [], "run": []}
        self._phase = None

    def setup(self):
        return self._phase_block("setup")

    def timed(self):
        return self._phase_block("run")

    @contextmanager
    def _phase_block(self, phase):
        self._phase = phase
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall[phase] += time.perf_counter() - start
            self._phase = None

    @contextmanager
    def probing(self):
        """Take a probe sample every PROBE_INTERVAL_S inside the block."""

        def on_alarm(_signum, _frame):
            phase = self._phase
            if phase is not None:
                spent, sample = self.probe.sample()
                self.probe_wall[phase] += spent
                self.samples[phase].append(sample)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def probe_s(self, phase):
        """Median probe time in a phase (or the whole iteration)."""
        samples = self.samples[phase]
        if len(samples) < MIN_PHASE_SAMPLES:
            samples = self.samples["setup"] + self.samples["run"]
        return statistics.median(samples) if samples else PROBE_REFERENCE_S

    def scaled(self, phase):
        """A phase's wall seconds, less the probes, at the reference speed."""
        wall = self.wall[phase] - self.probe_wall[phase]
        return wall * PROBE_REFERENCE_S / self.probe_s(phase)


class Iteration:
    """Host times, outcome and simulated digest of one workload iteration."""

    def __init__(self, watch, outcome, layers=None):
        self.setup_s = watch.scaled("setup")
        self.run_s = watch.scaled("run")
        self.wall_run_s = watch.wall["run"]
        self.probe_us = watch.probe_s("run") * 1e6
        self.outcome = outcome
        self.digest = digest(outcome.rows)
        #: Host per-layer metrics (traced iterations only).
        self.layers = layers
        #: Peak resident memory after this iteration (warm-up only).
        self.peak_rss_mib = None


def load_simulator():
    """Import ``repro`` from this checkout's ``src/`` (and nowhere else)."""
    package = SRC_DIR / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: simulator sources not found at {package}")
    sys.path.insert(0, str(SRC_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {package}")


def digest(rows):
    text = "\n".join(f"{key}={value}" for key, value in sorted(rows.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def run_iterations(workload, seed, budget_s, trace, probe):
    """Iterate the workload until ``budget_s`` host seconds have passed.

    The first iteration warms up the interpreter and allocator; it is
    checked but its host times are not used. With ``trace`` the measured
    iterations alternate traced and untraced, so drift in host speed
    affects both alike. Returns (warm-up, untraced, traced, last recorder).
    """
    import tracing

    def iterate(watch):
        with watch.probing():
            return workload.iteration(seed, watch)

    untraced, traced = [], []
    recorder = None
    start = time.perf_counter()
    watch = Stopwatch(probe)
    warmup = Iteration(watch, iterate(watch))
    # Later iterations add allocator fragmentation, not workload memory.
    warmup.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while (
        len(untraced) < (MIN_ITERATIONS if not trace else 2)
        or len(traced) < (2 if trace else 0)
        or time.perf_counter() - start < budget_s
    ):
        # Free the last iteration's platforms now, not at a random point
        # inside the next timed phase.
        gc.collect()
        watch = Stopwatch(probe)
        if not trace or len(traced) > len(untraced):
            untraced.append(Iteration(watch, iterate(watch)))
            continue
        recorder = tracing.SpanRecorder()
        with tracing.instrument(recorder) as missing:
            for target in missing:
                print(f"warning: cannot trace {target}: not found", file=sys.stderr)
            outcome = iterate(watch)
        if recorder.counts["hook_errors"]:
            print(f"warning: {recorder.counts['hook_errors']} counting hooks failed",
                  file=sys.stderr)
        scale = PROBE_REFERENCE_S / watch.probe_s("run")
        traced.append(Iteration(watch, outcome, tracing.layer_metrics(recorder, scale)))
    return warmup, untraced, traced, recorder


def end_to_end_metrics(warmup, iterations):
    outcome = warmup.outcome
    p50, p90 = outcome.percentiles_ms()
    return {
        "run_s": statistics.median(it.run_s for it in iterations),
        "setup_s": statistics.median(it.setup_s for it in iterations),
        "peak_rss_mib": warmup.peak_rss_mib,
        "sim_completion_ms": outcome.completion_ns / 1e6,
        "sim_p50_ms": p50,
        "sim_p90_ms": p90,
    }


def per_layer_metrics(untraced, traced, outcome, error_rate):
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name in traced[0].layers:
        metrics[name] = statistics.median(it.layers[name] for it in traced)
    metrics.update(outcome.layers)
    metrics["bench.trace_overhead"] = (
        statistics.median(it.run_s for it in traced)
        / statistics.median(it.run_s for it in untraced)
    )
    metrics["error_rate"] = error_rate
    return metrics


def print_speedups(outcome, paper_speedups):
    print("model.speedup: TELEPORT over base DDC in virtual time "
          "(calibrated simulator, not validated against hardware)")
    print(f"  {'workload':<8} {'simulated':>10} {'paper Fig 13':>13}")
    for name, paper in paper_speedups.items():
        print(f"  {name:<8} {outcome.layers[f'model.speedup.{name}']:>10.2f} {paper:>13.1f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_simulator()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()

    warmup, untraced, traced, recorder = run_iterations(
        workload, args.seed, args.seconds, args.trace, HostProbe()
    )
    iterations = [warmup, *untraced, *traced]
    outcome = warmup.outcome
    digests = {it.digest for it in iterations}
    attempted = sum(it.outcome.attempted for it in iterations)
    failed = sum(it.outcome.failed for it in iterations)
    for message in dict.fromkeys(m for it in iterations for m in it.outcome.failures):
        print(f"FAILED {message}", file=sys.stderr)
    if len(digests) > 1:
        print(f"FAILED simulated digest differs between iterations: {sorted(digests)}",
              file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}"
    with open(OUT_DIR / f"digest-{stem}.json", "w") as handle:
        json.dump({"digest": iterations[0].digest, "rows": outcome.rows}, handle, indent=1)
    if args.trace:
        metrics = per_layer_metrics(untraced, traced, outcome, failed / attempted)
        units = PER_LAYER
        tracing.write_chrome_trace(
            OUT_DIR / f"trace-{stem}.json", recorder,
            {"workload": args.workload, "seed": args.seed},
        )
    else:
        metrics = end_to_end_metrics(warmup, untraced)
        units = END_TO_END

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(iterations)} (1 warm-up) attempted={attempted} failed={failed}")
    for label, group in (("untraced", [warmup, *untraced]), ("traced", traced)):
        if group:
            print(f"  {label} run_s:      " + " ".join(f"{it.run_s:.3f}" for it in group))
            print(f"  {label} setup_s:    " + " ".join(f"{it.setup_s:.3f}" for it in group))
            print(f"  {label} wall run_s: " + " ".join(f"{it.wall_run_s:.3f}" for it in group))
            print(f"  {label} probe_us:   " + " ".join(f"{it.probe_us:.0f}" for it in group))
    print(f"simulated digest {iterations[0].digest} "
          f"({'identical in every iteration' if len(digests) == 1 else 'DIFFERS'})")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit}")
    if args.workload == "paper8":
        print_speedups(outcome, workloads.PAPER_FIG13_SPEEDUP)
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
