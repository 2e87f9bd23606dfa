"""Tests for the microbenchmark package (Figures 6, 7, 17, 21, 22)."""

import weakref

import numpy as np
import pytest

from repro.errors import ConfigError, ReproError
from repro.micro import MicroSpec, parallel_aggregation_speedups, run_micro, shared_space
from repro.micro import workloads
from repro.micro.workloads import MODES, _Runner
from repro.serve.scheduler import interleave
from repro.sim.clock import VirtualClock
from repro.sim.config import DdcConfig, scaled_config
from repro.sim.units import MIB


SMALL = MicroSpec(
    mem_space_bytes=8 * MIB,
    n_accesses=20_000,
    ops_per_access=350,
    compute_ops=11_000_000,
    step_size=1000,
)


def small_config(**overrides):
    return scaled_config(SMALL.mem_space_bytes, cache_ratio=0.02, **overrides)


@pytest.fixture(scope="module")
def results():
    config = small_config()
    modes = (
        "local",
        "base_ddc",
        "teleport_process",
        "teleport_thread",
        "teleport_coherence",
        "teleport_relaxed",
    )
    return {mode: run_micro(SMALL, config, mode) for mode in modes}


class TestSpecValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            MicroSpec(mem_space_bytes=0)
        with pytest.raises(ConfigError):
            MicroSpec(n_accesses=0)
        with pytest.raises(ConfigError):
            MicroSpec(contention_rate=1.5)
        with pytest.raises(ConfigError):
            MicroSpec(shared_pages=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            run_micro(SMALL, small_config(), "warp_drive")


class TestFigure6Shapes:
    def test_local_threads_balanced(self, results):
        local = results["local"]
        ratio = local.compute_thread_ns / local.memory_thread_ns
        # The paper calibrates both threads to ~1s each.
        assert 0.5 < ratio < 2.0

    def test_base_ddc_slowdown_in_paper_band(self, results):
        slowdown = results["base_ddc"].total_ns / results["local"].total_ns
        # Paper: 23x. Accept a generous band around it.
        assert 10 < slowdown < 45

    def test_all_teleport_modes_beat_base_ddc(self, results):
        base = results["base_ddc"].total_ns
        for mode in ("teleport_process", "teleport_thread", "teleport_coherence"):
            assert results[mode].total_ns < base

    def test_figure6_ordering(self, results):
        """Naive full-process < per-thread <= coherence (Figure 6)."""
        assert (
            results["teleport_process"].total_ns
            > results["teleport_thread"].total_ns
        )
        assert (
            results["teleport_coherence"].total_ns
            <= results["teleport_thread"].total_ns * 1.1
        )

    def test_coherence_mode_generates_protocol_traffic(self, results):
        assert results["teleport_coherence"].coherence_messages > 0
        # Relaxed: only the constant boundary sync, far below the default.
        assert (
            results["teleport_relaxed"].coherence_messages
            < results["teleport_coherence"].coherence_messages / 10
        )


class TestContention:
    """Figures 21/22: default grows with contention, relaxed stays flat."""

    def sweep(self, mode, rates):
        config = small_config()
        out = []
        for rate in rates:
            spec = MicroSpec(
                mem_space_bytes=SMALL.mem_space_bytes,
                n_accesses=SMALL.n_accesses,
                ops_per_access=SMALL.ops_per_access,
                compute_ops=SMALL.compute_ops,
                step_size=SMALL.step_size,
                contention_rate=rate,
            )
            out.append(run_micro(spec, config, mode))
        return out

    def test_default_time_grows_with_contention(self):
        low, high = self.sweep("teleport_coherence", [0.0001, 0.02])
        assert high.total_ns > low.total_ns
        assert high.coherence_messages > low.coherence_messages

    def test_relaxed_flat_under_contention(self):
        low, high = self.sweep("teleport_relaxed", [0.0001, 0.02])
        # Weak ordering sends only the constant boundary-sync exchange,
        # independent of the contention rate.
        assert high.coherence_messages == low.coherence_messages
        assert high.coherence_messages <= 2
        assert high.total_ns == pytest.approx(low.total_ns, rel=0.02)


class TestFalseSharing:
    """Figure 7: manual syncmem beats the coherence protocol when false
    sharing makes the protocol ping-pong."""

    def test_syncmem_beats_coherence_under_false_sharing(self):
        config = small_config()
        spec = MicroSpec(
            mem_space_bytes=SMALL.mem_space_bytes,
            n_accesses=SMALL.n_accesses,
            ops_per_access=SMALL.ops_per_access,
            compute_ops=SMALL.compute_ops,
            step_size=SMALL.step_size,
            contention_rate=0.01,
        )
        coherence = run_micro(spec, config, "teleport_coherence")
        syncmem = run_micro(spec, config, "teleport_syncmem")
        assert syncmem.total_ns < coherence.total_ns
        assert syncmem.coherence_messages == 0


class TestSharedSpace:
    """Every cell of a sweep shares one read-only draw of the space."""

    CONTENDED = MicroSpec(
        mem_space_bytes=2 * MIB,
        n_accesses=6_000,
        ops_per_access=350,
        compute_ops=3_300_000,
        step_size=500,
        contention_rate=0.001,
    )

    def unshared_checksum(self, spec, seed):
        """The memory thread's checksum from a private, unshared draw."""
        rng = np.random.default_rng(seed)
        n_floats = spec.mem_space_bytes // 8
        space = rng.random(n_floats)
        indices = rng.integers(0, n_floats, size=spec.n_accesses)
        checksum = 0.0
        for lo in range(0, spec.n_accesses, spec.step_size):
            checksum += float(space[indices[lo: lo + spec.step_size]].sum())
        return checksum

    def test_runners_with_same_seed_and_size_share_the_space(self):
        config = small_config()
        first = _Runner(SMALL, config, "local")
        second = _Runner(SMALL, config, "teleport_coherence")
        assert first.big.array is second.big.array
        np.testing.assert_array_equal(first.indices, second.indices)

    def test_shared_space_is_read_only(self):
        space, _rng = shared_space(2022, 1024)
        with pytest.raises(ValueError):
            space[0] = 0.5

    def test_other_seed_or_size_redraws_and_releases_the_old_space(self):
        space, _rng = shared_space(7, 4096)
        for seed, n_floats in ((8, 4096), (8, 2048)):
            old = weakref.ref(space)
            space, _rng = shared_space(seed, n_floats)
            assert old() is None
            np.testing.assert_array_equal(
                space, np.random.default_rng(seed).random(n_floats)
            )

    def test_generator_seed_bypasses_the_memo(self):
        shared, _rng = shared_space(2022, 1024)
        memo = workloads._space_memo
        rng = np.random.default_rng(2022)
        space, rest = shared_space(rng, 1024)
        assert rest is rng
        assert space is not shared and space.flags.writeable
        assert workloads._space_memo is memo
        np.testing.assert_array_equal(space, shared)

    @pytest.mark.parametrize("mode", MODES)
    def test_memoised_run_matches_a_cold_run(self, mode, monkeypatch):
        config = small_config()
        monkeypatch.setattr(workloads, "_space_memo", None)
        cold = _Runner(self.CONTENDED, config, mode)
        cold_result = cold.run()
        warm = _Runner(self.CONTENDED, config, mode)
        warm_result = warm.run()
        assert warm.big.array is cold.big.array
        assert warm_result == cold_result
        expected = self.unshared_checksum(self.CONTENDED, config.seed)
        assert cold.results["checksum"] == warm.results["checksum"] == expected


class TestFigure17:
    def test_speedup_grows_then_diminishes(self):
        config = DdcConfig(compute_cache_bytes=1 * MIB, memory_pool_cores=2)
        speedups = parallel_aggregation_speedups(
            config, contexts=(1, 2, 3, 4), n_threads=8, rows=120_000
        )
        assert speedups[1] == pytest.approx(1.0)
        assert speedups[2] > 1.4
        assert speedups[3] >= speedups[2] * 0.95
        # Diminishing returns: the 3->4 jump is smaller than the 1->2 jump.
        assert speedups[4] - speedups[3] < speedups[2] - speedups[1]


class TestScheduler:
    def test_interleave_orders_by_clock(self):
        trace = []

        def worker(name, clock, steps, cost):
            for _ in range(steps):
                trace.append((name, clock.now))
                clock.advance(cost)
                yield

        fast = VirtualClock()
        slow = VirtualClock()
        interleave([
            (fast, worker("fast", fast, 4, 1_000)),
            (slow, worker("slow", slow, 2, 3_000)),
        ])
        times = [t for _n, t in trace]
        assert times == sorted(times)
        assert [n for n, _t in trace].count("fast") == 4
