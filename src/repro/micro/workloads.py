"""The two-thread microbenchmark on every platform and ablation.

Modes (Figure 6 bar names in parentheses):

* ``local`` — monolithic Linux; both threads at DRAM speed.
* ``base_ddc`` — base disaggregated OS; the memory-intensive thread pays
  a remote fault on nearly every access.
* ``teleport_process`` — naive full-process migration: flush and clear
  the whole cache, run *both* threads serialised in the memory pool
  ("TELEPORT (per process)").
* ``teleport_thread`` — push only the memory-intensive thread, eagerly
  evicting its memory; no online coherence ("TELEPORT (per thread)").
* ``teleport_coherence`` — the default: push the memory-intensive thread
  with on-demand MESI coherence ("TELEPORT (coherence)").
* ``teleport_pso`` — partial-store-ordering relaxation (Section 4.2).
* ``teleport_relaxed`` — weak-ordering relaxation (Figures 21/22).
* ``teleport_syncmem`` — coherence off + periodic manual ``syncmem`` of
  the shared data (the false-sharing remedy of Figure 7).
"""

import copy

from repro.ddc import make_platform
from repro.errors import ReproError
from repro.micro.spec import MicroResult
from repro.serve.scheduler import interleave
from repro.sim.rng import make_rng
from repro.sim.units import to_ns
from repro.teleport.flags import ConsistencyMode, PushdownOptions, SyncMethod

MODES = (
    "local",
    "base_ddc",
    "teleport_process",
    "teleport_thread",
    "teleport_coherence",
    "teleport_pso",
    "teleport_relaxed",
    "teleport_syncmem",
)

#: Steps between manual syncmem calls in teleport_syncmem mode.
_SYNCMEM_EVERY = 8

#: The last space drawn from an int seed: ``((seed, n_floats), space, rng)``,
#: with ``rng`` as it stood right after the draw. One entry, so at most one
#: space is ever held.
_space_memo = None


def shared_space(seed, n_floats):
    """The space ``make_rng(seed).random(n_floats)`` and a generator that
    continues from right after that draw.

    Every cell of a sweep (each mode and contention rate) draws the same
    space, and the workloads only read it, so an ``int`` seed's draw is
    memoised and shared: the array is read-only, so a workload that writes
    into it raises instead of corrupting the next cell. Each call returns
    its own copy of the generator, so what a caller draws next is bit-for-bit
    what a fresh ``make_rng(seed)`` would give after the space. Any other
    seed bypasses the memo: drawing from a :class:`numpy.random.Generator`
    consumes its state, so its space is drawn and returned unshared.
    """
    global _space_memo
    if not isinstance(seed, int):
        rng = make_rng(seed)
        return rng.random(n_floats), rng
    key = (seed, n_floats)
    if _space_memo is None or _space_memo[0] != key:
        _space_memo = None  # release the old space before drawing the next
        rng = make_rng(seed)
        space = rng.random(n_floats)
        space.flags.writeable = False
        _space_memo = (key, space, rng)
    _key, space, rng = _space_memo
    return space, copy.deepcopy(rng)


def run_micro(spec, config, mode):
    """Run the microbenchmark; returns a :class:`MicroResult`."""
    if mode not in MODES:
        raise ReproError(f"unknown mode {mode!r}; expected one of {MODES}")
    runner = _Runner(spec, config, mode)
    return runner.run()


class _Runner:
    def __init__(self, spec, config, mode):
        self.spec = spec
        self.mode = mode
        kind = "local" if mode == "local" else ("ddc" if mode == "base_ddc" else "teleport")
        self.platform = make_platform(kind, config)
        self.process = self.platform.new_process()
        n_floats = max(1, spec.mem_space_bytes // 8)
        space, rng = shared_space(config.seed, n_floats)
        self.big = self.process.alloc_array("micro.space", space)
        self.shared = self.process.alloc(
            "micro.shared", spec.shared_pages * config.page_size
        )
        # Precomputed access stream (identical across modes).
        self.indices = rng.integers(0, n_floats, size=spec.n_accesses)
        self.n_steps = (spec.n_accesses + spec.step_size - 1) // spec.step_size
        self.results = {}

    # ------------------------------------------------------------------
    # Workload bodies
    # ------------------------------------------------------------------
    def _memory_workload(self, ctx):
        """Random accesses over the big space, plus contending writes."""
        spec = self.spec
        checksum = 0.0
        credit = 0.0
        shared_cursor = 0
        for step in range(self.n_steps):
            lo = step * spec.step_size
            chunk = self.indices[lo: lo + spec.step_size]
            values = ctx.gather(self.big, chunk)
            checksum += float(values.sum())
            ctx.compute(len(chunk) * spec.ops_per_access)
            credit += len(chunk) * spec.contention_rate
            while credit >= 1.0:
                credit -= 1.0
                vpn = self.shared.start_vpn + shared_cursor % spec.shared_pages
                shared_cursor += 1
                ctx.touch_page(vpn, write=True)
            yield
        self.results["checksum"] = checksum

    def _compute_workload(self, ctx):
        """Pure arithmetic, plus contending writes to the shared pages."""
        spec = self.spec
        ops_per_step = spec.compute_ops / self.n_steps
        credit = 0.0
        shared_cursor = spec.shared_pages // 2  # different phase
        sync_countdown = _SYNCMEM_EVERY
        for _step in range(self.n_steps):
            ctx.compute(ops_per_step)
            credit += spec.step_size * spec.contention_rate
            while credit >= 1.0:
                credit -= 1.0
                vpn = self.shared.start_vpn + shared_cursor % spec.shared_pages
                shared_cursor += 1
                ctx.touch_page(vpn, write=True)
            if self.mode == "teleport_syncmem":
                sync_countdown -= 1
                if sync_countdown == 0:
                    sync_countdown = _SYNCMEM_EVERY
                    ctx.syncmem([self.shared])
            yield

    def _warm_cache(self):
        """Pre-measurement warmup: the application was already running, so
        the compute-local cache holds (dirty) pages of the working set."""
        if self.platform.kind == "local":
            return
        warm_thread = self.platform.spawn_thread(self.process, name="warmup")
        ctx = self.platform.context_for(warm_thread)
        ctx.touch_seq(self.big, 0, len(self.big.array), write=True)
        ctx.touch_seq(self.shared, 0, len(self.shared.array), write=True)

    # ------------------------------------------------------------------
    # Mode drivers
    # ------------------------------------------------------------------
    def run(self):
        self._warm_cache()
        driver = {
            "local": self._run_plain,
            "base_ddc": self._run_plain,
            "teleport_process": self._run_full_process,
            "teleport_thread": self._run_per_thread,
            "teleport_coherence": self._run_session,
            "teleport_pso": self._run_session,
            "teleport_relaxed": self._run_session,
            "teleport_syncmem": self._run_session,
        }[self.mode]
        compute_ps, memory_ps = driver()
        stats = self.platform.stats
        return MicroResult(
            mode=self.mode,
            total_ns=to_ns(max(compute_ps, memory_ps)),
            compute_thread_ns=to_ns(compute_ps),
            memory_thread_ns=to_ns(memory_ps),
            coherence_messages=stats.coherence_messages,
            coherence_tiebreaks=stats.coherence_tiebreaks,
            remote_pages=stats.remote_pages_in + stats.remote_pages_out,
        )

    def _spawn(self, name):
        thread = self.platform.spawn_thread(self.process, name=name)
        return thread, self.platform.context_for(thread)

    def _run_plain(self):
        """Both threads run where the platform puts them (local / DDC)."""
        comp_thread, comp_ctx = self._spawn("compute")
        mem_thread, mem_ctx = self._spawn("memory")
        interleave([
            (comp_thread.clock, self._compute_workload(comp_ctx)),
            (mem_thread.clock, self._memory_workload(mem_ctx)),
        ])
        return comp_thread.clock.now, mem_thread.clock.now

    def _run_full_process(self):
        """Naive ablation: migrate the whole process to the memory pool."""
        _caller_thread, caller_ctx = self._spawn("main")

        def whole_process(mctx):
            for _ in self._memory_workload(mctx):
                pass
            for _ in self._compute_workload(mctx):
                pass

        caller_ctx.pushdown(whole_process, sync=SyncMethod.EAGER)
        return caller_ctx.now, caller_ctx.now

    def _run_per_thread(self):
        """Push only the memory-intensive thread; evict its memory."""
        comp_thread, comp_ctx = self._spawn("compute")
        _caller_thread, caller_ctx = self._spawn("main")

        def memory_only(mctx):
            for _ in self._memory_workload(mctx):
                pass

        caller_ctx.pushdown(
            memory_only,
            sync=SyncMethod.EAGER_REGIONS,
            sync_regions=[self.big],
        )
        for _ in self._compute_workload(comp_ctx):
            pass
        return comp_thread.clock.now, caller_ctx.now

    def _run_session(self):
        """Default/relaxed/syncmem: interleave the pushed memory thread
        with the compute-pool thread under the coherence protocol."""
        consistency = {
            "teleport_coherence": ConsistencyMode.MESI,
            "teleport_pso": ConsistencyMode.PSO,
            "teleport_relaxed": ConsistencyMode.WEAK,
            "teleport_syncmem": ConsistencyMode.OFF,
        }[self.mode]
        comp_thread, comp_ctx = self._spawn("compute")
        _caller_thread, caller_ctx = self._spawn("main")
        runtime = self.platform.teleport
        options = PushdownOptions(consistency=consistency)
        session = runtime.begin_session(caller_ctx, options)
        interleave([
            (comp_thread.clock, self._compute_workload(comp_ctx)),
            (session.mem_thread.clock, self._memory_workload(session.mctx)),
        ])
        session.finish()
        return comp_thread.clock.now, caller_ctx.now
