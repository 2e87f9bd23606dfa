"""Tests for the MapReduce engine, jobs, and corpus generator."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddc import make_platform
from repro.ddc.phases import PhaseRunner
from repro.errors import ConfigError, ReproError
from repro.mapreduce import GrepJob, MapReduceEngine, WordCountJob, make_corpus, textgen
from repro.mapreduce.textgen import CHUNK_TOKENS, guide_buckets, inverse_cdf, zipf_cdf
from repro.sim.config import DdcConfig
from repro.sim.rng import make_rng
from repro.sim.units import KIB, MIB


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(200_000, vocabulary=5_000, seed=9)


@pytest.fixture(scope="module")
def reference_counts(corpus):
    return np.bincount(corpus, minlength=5_000)


def make_engine(corpus, kind="local", pushdown=(), config=None, **kwargs):
    platform = make_platform(kind, config or DdcConfig(compute_cache_bytes=1 * MIB))
    ctx = platform.main_context()
    return MapReduceEngine(ctx, corpus, pushdown=pushdown, **kwargs), platform


class TestTextgen:
    def test_tokens_in_vocabulary(self, corpus):
        assert corpus.min() >= 0
        assert corpus.max() < 5_000

    def test_zipfian_skew(self, reference_counts):
        # The hottest word is far hotter than the median word.
        assert reference_counts.max() > 50 * max(1, np.median(reference_counts))

    def test_deterministic(self):
        assert (make_corpus(1000, seed=1) == make_corpus(1000, seed=1)).all()
        assert not (make_corpus(1000, seed=1) == make_corpus(1000, seed=2)).all()

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            make_corpus(0)
        with pytest.raises(ConfigError):
            make_corpus(10, vocabulary=1)

    @pytest.mark.parametrize("skew", [math.nan, math.inf, -math.inf, -0.5])
    def test_invalid_skew(self, skew):
        with pytest.raises(ConfigError):
            make_corpus(10, skew=skew)

    @pytest.mark.parametrize("vocabulary", [1_000, 5_000])
    def test_largest_u_maps_to_last_token(self, vocabulary):
        # The rounded cumulative sum ends a few ulps below 1, so without
        # the clamp to 1.0 this u would map to token == vocabulary.
        cdf = zipf_cdf(vocabulary, 1.1)
        assert cdf[-1] == 1.0
        u = np.array([np.nextafter(1.0, 0.0)])
        assert inverse_cdf(cdf, u).tolist() == [vocabulary - 1]


class TestCorpusMemo:
    """An ``int`` seed's corpus is drawn once and shared read-only."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(textgen, "_corpus_memo", {})

    @staticmethod
    def cold(n_tokens, vocabulary, skew, seed):
        return inverse_cdf(zipf_cdf(vocabulary, skew), make_rng(seed).random(n_tokens))

    def test_corpus_is_read_only(self):
        tokens = make_corpus(1000, seed=3)
        with pytest.raises(ValueError):
            tokens[0] = 1

    def test_same_key_shares_one_draw_equal_to_a_cold_one(self):
        tokens = make_corpus(5000, vocabulary=300, skew=1.2, seed=11)
        assert make_corpus(5000, vocabulary=300, skew=1.2, seed=11) is tokens
        cold = self.cold(5000, 300, 1.2, 11)
        assert tokens.dtype == cold.dtype
        assert np.array_equal(tokens, cold)

    def test_fifth_key_drops_the_least_recently_used(self):
        first = weakref.ref(make_corpus(1000, seed=0))
        second = weakref.ref(make_corpus(1000, seed=1))
        make_corpus(1000, seed=2)
        make_corpus(1000, seed=3)
        assert first() is not None
        make_corpus(1000, seed=0)  # now the most recently used
        make_corpus(1000, seed=4)
        assert second() is None
        assert first() is not None
        assert len(textgen._corpus_memo) == textgen.CORPUS_MEMO

    def test_generator_seed_bypasses_the_memo(self):
        shared = make_corpus(1000, seed=5)
        memo = list(textgen._corpus_memo.items())
        tokens = make_corpus(1000, seed=np.random.default_rng(5))
        assert tokens is not shared
        assert tokens.flags.writeable
        assert [(key, id(value)) for key, value in textgen._corpus_memo.items()] == [
            (key, id(value)) for key, value in memo
        ]
        assert np.array_equal(tokens, shared)

    @pytest.mark.parametrize(
        "change", [{"skew": 1.0}, {"vocabulary": 400}, {"n_tokens": 1001}, {"seed": 7}]
    )
    def test_other_key_redraws(self, change):
        base = {"n_tokens": 1000, "vocabulary": 300, "skew": 1.1, "seed": 6}
        shared = make_corpus(**base)
        args = {**base, **change}
        other = make_corpus(**args)
        assert other is not shared
        assert np.array_equal(other, self.cold(**args))
        assert make_corpus(**base) is shared


def searchsorted_corpus(n_tokens, vocabulary, skew, seed):
    """The binary-search sampler the guide table replaced."""
    rng = make_rng(seed)
    ranks = np.arange(1, vocabulary + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    cdf = np.cumsum(weights)
    return np.searchsorted(cdf, rng.random(n_tokens)).astype(np.int32)


vocabularies = st.integers(min_value=2, max_value=60_000)
skews = st.floats(min_value=0.0, max_value=2.0)


@settings(max_examples=40, deadline=None)
@given(
    vocabulary=vocabularies,
    skew=skews,
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n_tokens=st.sampled_from([1, CHUNK_TOKENS - 1, CHUNK_TOKENS, CHUNK_TOKENS + 1]),
)
def test_corpus_matches_searchsorted_sampler(vocabulary, skew, seed, n_tokens):
    tokens = make_corpus(n_tokens, vocabulary=vocabulary, skew=skew, seed=seed)
    expected = searchsorted_corpus(n_tokens, vocabulary, skew, seed)
    assert tokens.dtype == expected.dtype
    assert np.array_equal(tokens, expected)


@settings(max_examples=40, deadline=None)
@given(vocabulary=vocabularies, skew=skews)
def test_inverse_cdf_exact_on_bucket_edges_and_cdf_values(vocabulary, skew):
    """u exactly on a bucket edge b / K, or exactly on a CDF value (and
    one ulp either side of each) maps as the binary search does."""
    cdf = zipf_cdf(vocabulary, skew)
    buckets = guide_buckets(vocabulary)
    edges = np.floor(cdf * buckets) / buckets
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)],
        cdf, edges, edges + 1 / buckets,
        np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
        np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    tokens = inverse_cdf(cdf, u)
    assert tokens.dtype == np.int32
    assert np.array_equal(tokens, np.searchsorted(cdf, u).astype(np.int32))


class TestWordCount:
    @pytest.mark.parametrize("kind,pushdown", [
        ("local", ()),
        ("ddc", ()),
        ("teleport", ("map_shuffle",)),
    ])
    def test_counts_exact(self, corpus, reference_counts, kind, pushdown):
        engine, _platform = make_engine(corpus, kind=kind, pushdown=pushdown)
        counts = engine.run(WordCountJob())
        assert sum(counts.values()) == len(corpus)
        for token, expected in enumerate(reference_counts):
            assert counts.get(token, 0) == expected

    def test_phase_profiles(self, corpus):
        engine, _platform = make_engine(corpus)
        engine.run(WordCountJob())
        assert set(engine.profiles) == {"map_compute", "map_shuffle", "reduce", "merge"}
        assert engine.profile("map_compute").calls == engine.n_map_tasks
        assert engine.profile("reduce").calls == engine.n_reducers

    def test_map_shuffle_dominates_on_ddc(self, corpus):
        """Section 5.3: map-shuffle is ~95% of map time in a DDC."""
        config = DdcConfig(compute_cache_bytes=256 * KIB)
        engine, _platform = make_engine(corpus, kind="ddc", config=config)
        engine.run(WordCountJob())
        shuffle = engine.profile("map_shuffle").time_ns
        compute = engine.profile("map_compute").time_ns
        assert shuffle / (shuffle + compute) > 0.8


class TestGrep:
    @pytest.mark.parametrize("kind", ["local", "teleport"])
    def test_match_counts_exact(self, corpus, reference_counts, kind):
        pushdown = ("map_shuffle",) if kind == "teleport" else ()
        engine, _platform = make_engine(corpus, kind=kind, pushdown=pushdown)
        pattern = [3, 77, 4999]
        counts = engine.run(GrepJob(pattern))
        for token in pattern:
            assert counts.get(token, 0) == reference_counts[token]
        assert set(counts) <= set(pattern)

    def test_no_matches(self, corpus):
        engine, _platform = make_engine(corpus)
        counts = engine.run(GrepJob([999_999]))
        assert counts == {}

    def test_grep_shuffles_less_than_wordcount(self, corpus):
        config = DdcConfig(compute_cache_bytes=256 * KIB)
        wc_engine, _p1 = make_engine(corpus, kind="ddc", config=config)
        wc_engine.run(WordCountJob())
        grep_engine, _p2 = make_engine(corpus, kind="ddc", config=config)
        grep_engine.run(GrepJob([3, 77]))
        assert (
            grep_engine.profile("map_shuffle").time_ns
            < wc_engine.profile("map_shuffle").time_ns / 2
        )


class TestEngineValidation:
    def test_needs_positive_tasks(self, corpus):
        platform = make_platform("local")
        ctx = platform.main_context()
        with pytest.raises(ReproError):
            MapReduceEngine(ctx, corpus, n_map_tasks=0)
        with pytest.raises(ReproError):
            MapReduceEngine(ctx, corpus, n_reducers=0)

    def test_single_task_single_reducer(self, corpus, reference_counts):
        engine, _platform = make_engine(corpus, n_map_tasks=1, n_reducers=1)
        counts = engine.run(WordCountJob())
        assert counts.get(0, 0) == reference_counts[0]

    def test_teleport_speedup_over_ddc(self, corpus):
        config = DdcConfig(compute_cache_bytes=256 * KIB)
        times = {}
        for kind, pushdown in [("ddc", ()), ("teleport", ("map_shuffle",))]:
            engine, _platform = make_engine(corpus, kind=kind, pushdown=pushdown, config=config)
            engine.run(WordCountJob())
            times[kind] = engine.total_time_ns()
        assert times["teleport"] < times["ddc"] / 1.5


class TestPhaseRunner:
    def test_rejects_unknown_phase(self):
        platform = make_platform("local")
        ctx = platform.main_context()
        runner = PhaseRunner(ctx, ("a", "b"))
        with pytest.raises(ReproError):
            runner.run("c", lambda c: None)
        with pytest.raises(ReproError):
            PhaseRunner(ctx, ("a",), pushdown=("zzz",))

    def test_profile_requires_execution(self):
        platform = make_platform("local")
        ctx = platform.main_context()
        runner = PhaseRunner(ctx, ("a",))
        with pytest.raises(ReproError):
            runner.profile("a")
        runner.run("a", lambda c: c.compute(100))
        assert runner.profile("a").time_ns > 0
        assert runner.total_time_ns() == runner.profile("a").time_ns

    def test_pushdown_all_expands(self):
        platform = make_platform("teleport")
        ctx = platform.main_context()
        runner = PhaseRunner(ctx, ("a", "b"), pushdown="all")
        assert runner.pushdown == {"a", "b"}
        runner.run("a", lambda c: None)
        assert platform.stats.pushdown_calls == 1
        assert runner.profile("a").pushed_down
