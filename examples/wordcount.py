"""MapReduce on a disaggregated data center.

Runs WordCount and Grep (the paper's Phoenix benchmarks) over a synthetic
Zipfian corpus. On the TELEPORT platform only the map-shuffle sub-phase is
pushed down — the paper's 28-line Phoenix change (Section 5.3).

Run:  python examples/wordcount.py
"""

import numpy as np

from repro.ddc import make_platform
from repro.mapreduce import GrepJob, MapReduceEngine, WordCountJob, make_corpus
from repro.sim.config import scaled_config
from repro.sim.units import MS

N_TOKENS = 1_000_000
VOCABULARY = 50_000


def run(kind, corpus, job):
    config = scaled_config(corpus.nbytes * 4, cache_ratio=0.02)
    platform = make_platform(kind, config)
    ctx = platform.main_context()
    pushdown = ("map_shuffle",) if kind == "teleport" else ()
    engine = MapReduceEngine(ctx, corpus, pushdown=pushdown)
    result = engine.run(job)
    return result, engine


def main():
    corpus = make_corpus(N_TOKENS, vocabulary=VOCABULARY, seed=2022)
    words, word_counts = np.unique(corpus, return_counts=True)
    reference = dict(zip(words.tolist(), word_counts.tolist()))
    hot = [0, 1, 2, 3, 4]
    print(f"corpus: {N_TOKENS} tokens, vocabulary {VOCABULARY}\n")

    for job_name, job_factory, expected in (
        ("WordCount", WordCountJob, reference),
        ("Grep('top-5 hot words')", lambda: GrepJob(hot),
         {word: reference[word] for word in hot if word in reference}),
    ):
        times = {}
        for kind in ("local", "ddc", "teleport"):
            counts, engine = run(kind, corpus, job_factory())
            times[kind] = engine.total_time_ns()
            # Results are exact on every platform.
            assert counts == expected
        print(f"{job_name}:")
        print(
            f"  local {times['local'] / MS:9.1f} ms | "
            f"base DDC {times['ddc'] / MS:9.1f} ms | "
            f"TELEPORT {times['teleport'] / MS:9.1f} ms | "
            f"speedup {times['ddc'] / times['teleport']:5.1f}x"
        )

    # Phase view: map-shuffle dominates the DDC run (the paper's 95%).
    _counts, ddc_engine = run("ddc", corpus, WordCountJob())
    shuffle = ddc_engine.profile("map_shuffle").time_ns
    map_compute = ddc_engine.profile("map_compute").time_ns
    share = shuffle / (shuffle + map_compute)
    print(f"\nmap-shuffle share of WordCount map time on the base DDC: {share:.0%}")


if __name__ == "__main__":
    main()
